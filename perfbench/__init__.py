"""A seeded benchmark for the sweeps and the serve cluster (see README.md)."""
