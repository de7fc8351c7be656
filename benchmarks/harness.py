"""Experiment harness: regenerates every series reported in
EXPERIMENTS.md.

Run with::

    python benchmarks/harness.py            # all experiments
    python benchmarks/harness.py E7 E9      # a subset

Each experiment prints a small table and writes no file;
EXPERIMENTS.md records one such run next to the paper's corresponding
claim.  Timings are wall-clock medians of ``repeats`` runs on whatever
machine this executes on — the *shapes* (scaling exponents, blow-ups,
orderings), not the absolute numbers, are the reproduction targets.

These are the paper's claims (E7-E13, E15).  What this repository's own
layers cost is measured by ``python3 bench/run.py`` against
``BENCHMARK.json`` and nowhere else.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

from repro import lyric
from repro.constraints import lp
from repro.constraints.canonical import (
    canonical_conjunctive,
    canonical_disjunctive,
)
from repro.constraints.implication import (
    conjunctive_entails_conjunctive,
    conjunctive_entails_disjunction,
)
from repro.constraints.projection import (
    eliminate_variable,
    project_conjunctive,
)
from repro.constraints.satisfiability import is_satisfiable
from repro.constraints.terms import LinearExpression
from repro.runtime.context import ExecutionStats, QueryContext
from repro.workloads import manufacturing, mda, office
from repro.workloads.random_constraints import (
    dense_system,
    make_variables,
    random_dnf,
    random_polytope,
    redundant_conjunction,
)


def timed(fn, repeats: int = 3) -> tuple[float, object]:
    """Median wall-clock seconds and the last result."""
    samples = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x) — the empirical
    polynomial degree of a scaling series."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(xs)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    sxx = sum((a - mean_x) ** 2 for a in lx)
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    return sxy / sxx


def header(name: str, title: str) -> None:
    print(f"\n=== {name}: {title} ===")


def experiment_e7() -> None:
    header("E7", "PTIME data complexity (fixed query vs database size)")
    sizes = [4, 8, 16, 32, 64]
    print(f"{'n':>5} {'naive (s)':>12} {'translated (s)':>15} {'rows':>6}")
    naive_times, translated_times = [], []
    for n in sizes:
        workload = office.generate(n, seed=0)
        t_naive, result = timed(
            lambda: lyric.query(workload.db,
                                office.PLACED_EXTENT_QUERY))
        t_trans, _ = timed(
            lambda: lyric.query_translated(workload.db,
                                           office.PLACED_EXTENT_QUERY))
        naive_times.append(t_naive)
        translated_times.append(t_trans)
        print(f"{n:>5} {t_naive:>12.4f} {t_trans:>15.4f} "
              f"{len(result):>6}")
    print(f"fitted log-log slope: naive "
          f"{fit_loglog_slope(sizes, naive_times):.2f}, translated "
          f"{fit_loglog_slope(sizes, translated_times):.2f} "
          f"(paper claims polynomial; this query is ~linear)")

    from conftest import SCATTERED_JOIN_QUERY, scattered_join_database
    print("two-class SAT join from text, scattered 1-D boxes at "
          "constant density:")
    print(f"{'n/side':>7} {'first (s)':>10} {'repeat (s)':>11} "
          f"{'rows':>6} {'probes':>7}")
    sizes = [50, 100, 200, 400]
    first_times, repeat_times = [], []
    for n in sizes:
        db = scattered_join_database(n)
        stats = ExecutionStats()
        start = time.perf_counter()
        lyric.query_translated(db, SCATTERED_JOIN_QUERY,
                               ctx=QueryContext(stats=stats))
        first_times.append(time.perf_counter() - start)
        t_repeat, result = timed(
            lambda: lyric.query_translated(db, SCATTERED_JOIN_QUERY))
        repeat_times.append(t_repeat)
        print(f"{n:>7} {first_times[-1]:>10.4f} {t_repeat:>11.4f} "
              f"{len(result):>6} {stats.index_probes:>7}")
    print(f"fitted log-log slope: first query (catalog and indexes "
          f"built) {fit_loglog_slope(sizes, first_times):.2f}, repeat "
          f"{fit_loglog_slope(sizes, repeat_times):.2f} "
          f"(n^2 pairs, ~n of them can meet; target <= 1.3)")


def experiment_e8() -> None:
    header("E8", "naive evaluator vs Section 5 translation")
    n = 32
    workload = office.generate(n, seed=0)
    rows = []
    for label, fn in [
        ("naive", lambda: lyric.query(
            workload.db, office.PLACED_EXTENT_QUERY)),
        ("translated+optimizer", lambda: lyric.query_translated(
            workload.db, office.PLACED_EXTENT_QUERY)),
        ("translated raw", lambda: lyric.query_translated(
            workload.db, office.PLACED_EXTENT_QUERY,
            use_optimizer=False)),
    ]:
        t, result = timed(fn)
        rows.append((label, t, len(result)))
    base = rows[0][1]
    print(f"{'engine':>22} {'median (s)':>12} {'rows':>6} {'vs naive':>9}")
    for label, t, count in rows:
        print(f"{label:>22} {t:>12.4f} {count:>6} {base / t:>8.2f}x")


def experiment_e9() -> None:
    header("E9", "restricted projection vs full quantifier elimination")
    from test_bench_projection import intermediate_sizes
    print(f"{'dim':>4} {'input':>6} {'1-step atoms':>13} "
          f"{'1-step (s)':>11} {'full (s)':>9}  intermediate sizes")
    for dim in [3, 4, 5]:
        system = dense_system(dim, seed=42)
        vars_ = make_variables(dim)
        t_single, single = timed(
            lambda: eliminate_variable(system, vars_[0]))
        t_full, _ = timed(
            lambda: project_conjunctive(system, vars_[-1:]), repeats=1)
        sizes = intermediate_sizes(dim, seed=42)
        print(f"{dim:>4} {len(system):>6} {len(single):>13} "
              f"{t_single:>11.4f} {t_full:>9.4f}  {sizes}")
    # Dimension 6 full elimination is already intractable; report the
    # intermediate growth up to a size cap only.
    sizes6 = intermediate_sizes(6, seed=42, cap=1_000)
    print(f"   6  (full elimination intractable)        "
          f"intermediate sizes {sizes6} ... (capped)")
    print("(one restricted step grows mildly; successive eliminations "
          "compound into the classical FM explosion)")


def experiment_e10() -> None:
    header("E10", "canonical form cost and savings")
    print(f"{'disjuncts':>10} {'paper simpl. (s)':>17} {'kept':>5} "
          f"{'+atom redundancy (s)':>21} {'atoms saved':>12}")
    for k in [4, 8, 16]:
        dnf = random_dnf(3, k, 5, seed=k, infeasible_fraction=0.5)
        t_cheap, cheap = timed(
            lambda: canonical_disjunctive(
                dnf, remove_redundant_atoms=False))
        t_full, full = timed(
            lambda: canonical_disjunctive(
                dnf, remove_redundant_atoms=True), repeats=1)
        atoms_before = sum(len(d) for d in cheap.disjuncts)
        atoms_after = sum(len(d) for d in full.disjuncts)
        print(f"{k:>10} {t_cheap:>17.4f} {len(cheap):>5} "
              f"{t_full:>21.4f} {atoms_before - atoms_after:>12}")
    conj = redundant_conjunction(4, 8, 8, seed=3)
    t, canonical = timed(lambda: canonical_conjunctive(conj))
    print(f"conjunction: {len(conj)} atoms -> {len(canonical)} in "
          f"{t:.4f}s (redundant-atom removal)")
    # The operation the paper excludes (co-NP): opt-in disjunct
    # subsumption, for scale contrast.
    from repro.constraints.canonical import remove_subsumed_disjuncts
    dnf = random_dnf(2, 10, 3, seed=21, infeasible_fraction=0.0)
    t_sub, reduced = timed(
        lambda: remove_subsumed_disjuncts(dnf), repeats=1)
    print(f"opt-in disjunct subsumption: {len(dnf)} -> {len(reduced)} "
          f"disjuncts in {t_sub:.4f}s (excluded from the default "
          "canonical form)")


def experiment_e11() -> None:
    header("E11", "LP operators: exact rational simplex")
    print(f"{'dim':>4} {'atoms':>6} {'exact (s)':>10}")
    for dim, atoms in [(4, 8), (6, 16), (8, 32)]:
        poly = random_polytope(dim, atoms, seed=dim)
        objective = LinearExpression(
            {v: i + 1 for i, v in enumerate(make_variables(dim))})
        t_exact, _ = timed(lambda: lp.max_value(objective, poly))
        print(f"{dim:>4} {atoms:>6} {t_exact:>10.4f}")


def experiment_e12() -> None:
    header("E12", "constraint predicate costs")
    print(f"{'atoms':>6} {'SAT (s)':>9} {'entail (s)':>11}")
    for atoms in [8, 16, 32]:
        poly = random_polytope(5, atoms, seed=atoms)
        outer = random_polytope(5, max(2, atoms // 4), seed=atoms + 1)
        t_sat, _ = timed(lambda: is_satisfiable(poly))
        t_ent, _ = timed(
            lambda: conjunctive_entails_conjunctive(poly, outer))
        print(f"{atoms:>6} {t_sat:>9.4f} {t_ent:>11.4f}")
    print(f"{'disjuncts':>10} {'entail-vs-DNF (s)':>18}")
    for k in [2, 4, 8]:
        lhs = random_polytope(3, 6, seed=k)
        rhs = random_dnf(3, k, 3, seed=k + 10)
        t, _ = timed(lambda: conjunctive_entails_disjunction(
            lhs, list(rhs.disjuncts)), repeats=1)
        print(f"{k:>10} {t:>18.4f}")


def experiment_e13() -> None:
    header("E13", "application queries end to end")
    office_w = office.generate(6, seed=4)
    mda_w = mda.generate(6, 5, seed=2)
    man_w = manufacturing.generate(3, n_orders=4, seed=1)
    for label, db, text in [
        ("office overlap join", office_w.db, office.OVERLAP_QUERY),
        ("mda compatibility", mda_w.db, mda.COMPATIBLE_QUERY),
        ("mda within (|=)", mda_w.db, mda.WITHIN_QUERY),
        ("manufacturing cheapest fill", man_w.db,
         manufacturing.CHEAPEST_FILL_QUERY),
        ("manufacturing max output", man_w.db,
         manufacturing.MAX_OUTPUT_QUERY),
    ]:
        t, result = timed(lambda: lyric.query(db, text), repeats=1)
        print(f"{label:>28}: {t:>8.3f}s, {len(result)} rows")


def experiment_e15() -> None:
    header("E15", "binding order: interleaved skeleton joins vs the "
                  "literal all-substitutions product")
    from repro.core.evaluator import evaluate
    from test_bench_binding_order import QUERY
    print(f"{'n':>4} {'interleaved (s)':>16} {'product-first (s)':>18}")
    for n in [8, 16, 32]:
        workload = office.generate(n, seed=0)
        t_fast, fast = timed(
            lambda: evaluate(workload.db, QUERY, interleave=True))
        t_slow, slow = timed(
            lambda: evaluate(workload.db, QUERY, interleave=False))
        assert len(fast) == len(slow)
        print(f"{n:>4} {t_fast:>16.4f} {t_slow:>18.4f}")
    print("(same answers; the interleaved order prunes the cubic "
          "FROM product through the selective catalog_object and "
          "drawer joins)")


EXPERIMENTS = {
    "E7": experiment_e7,
    "E8": experiment_e8,
    "E9": experiment_e9,
    "E10": experiment_e10,
    "E11": experiment_e11,
    "E12": experiment_e12,
    "E13": experiment_e13,
    "E15": experiment_e15,
}


def main(argv: list[str]) -> None:
    wanted = [a.upper() for a in argv] or list(EXPERIMENTS)
    for name in wanted:
        runner = EXPERIMENTS.get(name)
        if runner is None:
            print(f"unknown experiment {name!r}; choices: "
                  f"{', '.join(EXPERIMENTS)}")
            continue
        runner()


if __name__ == "__main__":
    main(sys.argv[1:])
