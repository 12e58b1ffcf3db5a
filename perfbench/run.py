"""One seeded benchmark for the sweeps and the serve cluster.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-opt --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload sweep-market,serve-mixed --seed 7
    python3 perfbench/run.py --compare BASE CURRENT

Workloads: ``sweep-opt``, ``sweep-market``, ``sweep-user`` and
``serve-mixed`` (see ``perfbench/README.md``). Each run prints every
metric by name with its unit, writes its record (schema ``perfbench/1``)
under ``.perfbench_run/records/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics of ``BENCHMARK.json`` untraced, its per-layer metrics with
``--trace 1``. Several workloads run one after another, each in a
process of its own.

``--compare BASE CURRENT`` reads stored records (files or directories
of them), prints every metric per workload row and flags end-to-end
metrics worse than their bound; it exits 1 when any is flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep-opt", "sweep-market", "sweep-user", "serve-mixed")
WORK_DIR = ROOT / ".perfbench_run"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workload",
        default=",".join(WORKLOADS),
        help="comma-separated subset of: " + ", ".join(WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--records",
        type=Path,
        default=WORK_DIR / "records",
        help="directory the run's records are written to",
    )
    parser.add_argument(
        "--compare", nargs=2, type=Path, metavar=("BASE", "CURRENT")
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    declaration_path = ROOT / "BENCHMARK.json"
    if not declaration_path.is_file():
        print(f"perfbench: {declaration_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import record

    declaration = record.load_declaration(ROOT)
    if args.compare:
        return record.compare(args.compare[0], args.compare[1], declaration)

    names = [name for name in args.workload.split(",") if name]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or not names:
        print(f"perfbench: unknown workload(s) {unknown}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program's source is not at {ROOT / 'src' / 'repro'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    if len(names) > 1:
        # One process per workload: peak RSS is a high-water mark for a
        # process's lifetime, and patches and warm state must not carry
        # over from one workload to the next.
        status = 0
        for name in names:
            completed = subprocess.run(
                [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--records", str(args.records),
                ],
                check=False,
            )
            status = status or completed.returncode
        return status

    name = names[0]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from perfbench import serving, sweeps

        work_dir = WORK_DIR / name
        work_dir.mkdir(parents=True, exist_ok=True)
        common = dict(
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            work_dir=work_dir,
        )
        if name == "serve-mixed":
            outcome = serving.run(**common)  # type: ignore[arg-type]
        else:
            outcome = sweeps.run(name, **common)  # type: ignore[arg-type]
        result = record.build_record(
            ROOT, declaration, name, args.seed, args.seconds, bool(args.trace), outcome
        )
        args.records.mkdir(parents=True, exist_ok=True)
        mode = "traced" if args.trace else "e2e"
        path = args.records / f"{name}-seed{args.seed}-{mode}.json"
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print("\n".join(record.describe(result)))
        print(record.result_line(result, declaration), flush=True)
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
