"""Tiny-scale smoke run of the benchmark harness.

Runs every workload at ``tiny`` scale in seconds and checks that every
declared metric is present with its unit, that each workload's traced
run reaches its own layers, that the error rate is 0, and that a
perturbed user cost and a perturbed verdict each count as a failure.
Run from the checkout root::

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import record, serving, sweeps  # noqa: E402

DECLARATION = record.load_declaration(ROOT)
WORKLOADS = [workload["name"] for workload in DECLARATION["workloads"]]
WORK_DIR = ROOT / ".perfbench_run" / "smoke"

SWEEP_LAYERS = (
    "workload.traces_s", "purchasing.imitate_s", "purchasing.imitate_calls",
    "runner.pack_s", "runner.export_s", "trace.overhead", "trace.residue_share",
)
POPSIM_LAYERS = ("popsim.prepare_s", "popsim.run_s", "popsim.run_calls")
#: Per workload, the per-layer metrics its traced run must find non-zero:
#: each is the sign that a wrapper or a /metrics series reached its layer.
#: (Zero by design and left out: cache.hits, shard.retries, shard.failures
#: and error_rate; wal.snapshots needs more hours than a tiny run has.)
OWN_LAYERS = {
    "sweep-opt": SWEEP_LAYERS + POPSIM_LAYERS + (
        "offline.search_s", "offline.seed_s", "offline.account_s", "offline.users",
    ),
    "sweep-market": SWEEP_LAYERS + POPSIM_LAYERS + (
        "popsim.randomized_s", "clearing.s", "clearing.calls", "cancellation.s",
        "cancellation.calls", "cache.key_s", "cache.get_s", "cache.put_s", "cache.misses",
    ),
    "sweep-user": SWEEP_LAYERS + ("fastsim.run_s", "fastsim.run_calls"),
    "serve-mixed": (
        "server.http_s", "shard.route_s", "shard.partition_s", "shard.partition_calls",
        "transport.encode_s", "transport.decode_s", "transport.bytes_out",
        "transport.bytes_in", "transport.call_ingest_s", "transport.call_read_s",
        "envelope.s", "state.apply_s", "state.apply_calls", "wal.append_s", "wal.appends",
        "shard.hop_ingest_s", "shard.hop_read_s", "shard.worker_other_s",
        "state.decisions", "serve.events", "trace.overhead",
    ),
}


def _run(name: str, trace: bool, perturb: bool = False) -> record.Outcome:
    work_dir = WORK_DIR / name
    work_dir.mkdir(parents=True, exist_ok=True)
    options = dict(
        seed=3, seconds=0.3, trace=trace, work_dir=work_dir, tiny=True, perturb=perturb
    )
    if name == "serve-mixed":
        return serving.run(**options)  # type: ignore[arg-type]
    return sweeps.run(name, **options)  # type: ignore[arg-type]


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request: pytest.FixtureRequest) -> "tuple[str, record.Outcome]":
    return request.param, _run(request.param, trace=True)


def test_every_declared_metric_is_present_with_its_unit(traced):
    name, outcome = traced
    for trace in (False, True):
        result = record.build_record(ROOT, DECLARATION, name, 3, 0.3, trace, outcome)
        line = json.loads(record.result_line(result, DECLARATION))
        section = DECLARATION["per_layer" if trace else "end_to_end"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {spec["name"] for spec in section}
        for spec in section:
            metric = line["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert isinstance(metric["value"], float)
    for spec in DECLARATION["end_to_end"]:
        assert outcome.metrics[spec["name"]]["value"] > 0


def test_each_workload_reaches_its_own_layers(traced):
    name, outcome = traced
    zero = [metric for metric in OWN_LAYERS[name] if not outcome.layers.get(metric, 0) > 0]
    assert zero == []
    result = record.build_record(ROOT, DECLARATION, name, 3, 0.3, True, outcome)
    for metric, entry in result["metrics"].items():
        if entry["kind"] == "per_layer":
            assert entry["applies"] == (metric in outcome.layers)


def test_error_rate_is_zero(traced):
    _, outcome = traced
    assert outcome.attempted > 0
    assert outcome.failed == 0
    assert outcome.metrics["error_rate"]["value"] == 0
    assert outcome.layers["error_rate"] == 0


def test_a_perturbed_user_cost_counts_as_one_failure():
    outcome = _run("sweep-user", trace=False, perturb=True)
    assert outcome.failed == 1


def test_a_perturbed_verdict_counts_as_one_failure():
    outcome = _run("serve-mixed", trace=False, perturb=True)
    assert outcome.failed == 1


def test_compare_flags_an_end_to_end_metric_worse_than_its_bound(capsys):
    directory = WORK_DIR / "compare"
    shutil.rmtree(directory, ignore_errors=True)
    (directory / "base").mkdir(parents=True)
    (directory / "new").mkdir()
    bound = next(s["bound"] for s in DECLARATION["end_to_end"] if s["name"] == "latency_norm")
    for side, latency in (("base", 100.0), ("new", 100.0 * (1 + 2 * bound))):
        entry = {"value": latency, "unit": "x", "better": "lower", "kind": "end_to_end"}
        for trace in (False, True):
            payload = {
                "schema": record.SCHEMA, "workload": "sweep-opt", "trace": trace,
                "metrics": {"latency_norm": entry},
            }
            path = directory / side / f"r-{int(trace)}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
    assert record.compare(directory / "base", directory / "base", DECLARATION) == 0
    assert record.compare(directory / "base", directory / "new", DECLARATION) == 1
    # Only the untraced row is gated: one flag, not two.
    assert capsys.readouterr().out.count("WORSE") == 1


def test_without_the_program_the_command_fails_without_a_result():
    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-opt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
