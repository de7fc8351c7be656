"""The benchmark's one command.

    python3 bench/run.py                      # every workload, tracing off
    python3 bench/run.py --trace              # every workload, per-layer run
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --repeat-check       # two full sets, compared
    python3 bench/run.py --smoke              # tiny inputs, a few seconds

With ``--workload`` the run happens in this process and the last line
of standard output is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Without it each workload runs in
a process of its own (so ``peak_rss_mb`` is that workload's alone) and
the tables are printed side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import common  # noqa: E402
from bench.sizes import SIZES  # noqa: E402


def provenance(args, extra: dict) -> dict:
    """What a reader needs to place a number: seed, code revision,
    machine, interpreter and library versions, and the run's counts."""
    import numpy
    import scipy
    try:
        # The ceiling keeps git from looking for a repository above
        # the checkout when the checkout is not one.
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "preset": "smoke" if args.smoke else "full",
            "git_rev": rev, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **extra}


def run_one(args, spec: dict) -> int:
    """One workload in this process; prints the table, the provenance
    line and, last, the result line."""
    size = SIZES["smoke" if args.smoke else "full"][args.workload]
    if args.workload == "serve_mix":
        from bench import serve as module
    elif args.workload == "burst_store":
        from bench import store as module
    else:
        from bench import text as module

    # Every workload stays on one CPU, so that no timing depends on
    # where the scheduler puts what.  ``serve_mix``'s server inherits
    # the pin: with one closed-loop connection the client, the server
    # and its worker take turns anyway.
    pin = common.one_cpu()
    if args.trace:
        declared = spec["per_layer"]
        with pin as pinned:
            values, tally, info = module.trace(
                args.workload, args.seed, size)
        metrics = {m["name"]: 0.0 for m in declared}
        unknown = set(values) - set(metrics)
        if unknown:
            raise SystemExit(f"undeclared metrics: {sorted(unknown)}")
        metrics.update(values)
    else:
        declared = spec["end_to_end"]
        with pin as pinned:
            measured = module.measure(
                args.workload, args.seed, args.seconds, size)
        tally, info = measured["tally"], measured["info"]
        passes = measured["passes"]
        metrics = {**common.summarise(passes),
                   "peak_rss_mb": measured["peak_rss_mb"]}
        info = {**info, "passes": len(passes),
                "block_ops": len(passes[0].latencies_ms),
                "cold_samples": len(passes) * len(passes[0].cold_ms),
                "slowdown": [round(p.slowdown, 3)
                             for p in passes]}
        if set(metrics) != {m["name"] for m in declared}:
            raise SystemExit("end-to-end metrics out of step with "
                             "BENCHMARK.json")

    units = {m["name"]: m["unit"] for m in declared}
    print(f"== {args.workload} (seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}) ==")
    for name in units:
        print(f"  {name:<36} {metrics[name]:>14.4f} {units[name]}")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    origin = provenance(args, {**info, "pinned_cpu": pinned})
    print("provenance " + json.dumps(origin, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    os.makedirs(common.OUT_DIR, exist_ok=True)
    with open(os.path.join(
            common.OUT_DIR,
            f"last-{args.workload}-trace{args.trace}.json"),
            "w", encoding="utf-8") as handle:
        json.dump({"provenance": origin, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0


def run_set(args, spec: dict) -> dict[str, dict]:
    """Every requested workload, each in a process of its own;
    ``{workload: result}``."""
    results = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stdout + done.stderr)
            raise SystemExit(f"{workload}: exit {done.returncode}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    return results


def compare_sets(first: dict, second: dict,
                 spec: dict) -> tuple[list[str], int]:
    """Two sets of results side by side: per workload and end-to-end
    metric both values, their relative difference and the bound;
    ``(table lines, pairs beyond their bound or incorrect)``."""
    lines = [f"{'workload':<12} {'metric':<20} {'first':>12} "
             f"{'second':>12} {'diff':>8} {'bound':>6}"]
    over = 0
    for workload in first:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = first[workload]["metrics"][name]["value"]
            b = second[workload]["metrics"][name]["value"]
            diff = abs(b - a) / a
            beyond = diff > metric["bound"]
            over += beyond
            lines.append(
                f"{workload:<12} {name:<20} {a:>12.4f} {b:>12.4f} "
                f"{diff:>8.2%} {metric['bound']:>6.0%}"
                f"{'  OVER' if beyond else ''}")
        for side in (first, second):
            if not side[workload]["correct"]:
                over += 1
                lines.append(f"{workload}: failed operations")
    return lines, over


def repeat_check(args, spec: dict) -> int:
    """Two full untraced sets on the same checkout; non-zero when any
    pair differs by more than its metric's bound."""
    lines, over = compare_sets(run_set(args, spec), run_set(args, spec),
                               spec)
    print("\n".join(lines))
    return 1 if over else 0


def main(argv: list[str] | None = None) -> int:
    spec = common.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed region (default: "
                             "run_seconds of BENCHMARK.json; 0.1 "
                             "with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a short timed region")
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.1 if args.smoke else float(spec["run_seconds"])
    if args.repeat_check:
        return repeat_check(args, spec)
    if args.workload:
        return run_one(args, spec)
    results = run_set(args, spec)
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {f"{workload}.{name}": value
                    for workload, r in results.items()
                    for name, value in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
