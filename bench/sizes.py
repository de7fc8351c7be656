"""Input sizes per workload: the ``full`` preset the contract runs and
the ``smoke`` preset of the self-tests.  Sizes were chosen on the
baseline machine (2 cores) so that a pass takes about 4 s — its block
of at least 110 operations about 2 — and a run of ``run_seconds`` with
its three or four passes and its correctness checks ends well inside
the contract's per-run budget.  ``cold_sweeps`` / ``cold_rounds`` and
``legs`` say how often a pass repeats its short steps (cold
executions, store legs) to have enough of a sample."""

SIZES = {
    "full": {
        "office_mix": {"n": 16, "pairs": 6, "ops": 120, "cold_sweeps": 1,
                       "legs": 2, "min_passes": 3},
        "sparse_join": {"n": 40, "overlaps": 5, "windows": 12, "ops": 120,
                        "cold_sweeps": 3, "legs": 2, "min_passes": 3},
        "dense_join": {"n": 4, "extra": 4, "atoms": 5, "drawn": 20,
                       "ops": 120, "cold_sweeps": 5, "legs": 6,
                       "min_passes": 3},
        "serve_mix": {"n": 24, "pairs": 2, "ops": 120, "min_passes": 3},
        "burst_store": {"base": 60, "burst": 2, "ops": 120,
                        "cold_rounds": 6, "min_passes": 3,
                        "oracle_rows": 100},
    },
    "smoke": {
        "office_mix": {"n": 6, "pairs": 2, "ops": 20, "cold_sweeps": 1,
                       "legs": 1, "min_passes": 2},
        "sparse_join": {"n": 12, "overlaps": 2, "windows": 2, "ops": 20,
                        "cold_sweeps": 2, "legs": 1, "min_passes": 2},
        "dense_join": {"n": 3, "extra": 4, "atoms": 5, "drawn": 8,
                       "ops": 20, "cold_sweeps": 2, "legs": 1,
                       "min_passes": 2},
        "serve_mix": {"n": 6, "pairs": 2, "ops": 20, "min_passes": 2},
        "burst_store": {"base": 20, "burst": 3, "ops": 8, "cold_rounds": 2,
                        "min_passes": 2, "oracle_rows": 30},
    },
}
