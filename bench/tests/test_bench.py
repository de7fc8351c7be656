"""Self-tests of the benchmark, on the ``--smoke`` size preset.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Per-layer metrics that are timings or depend on thread interleaving;
#: every other one is a count (or a ratio of counts) and must repeat.
TIMED_UNITS = {"ms", "us", "s"}
TIMED_RATIOS = {"trace.overhead_ratio"}


def run_smoke(workload: str, trace: int):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)


@pytest.fixture(scope="module")
def smoke() -> dict:
    """Every workload once untraced and once traced:
    ``{(workload, trace): (result, stdout)}``."""
    runs = {}
    for trace in (0, 1):
        for workload in WORKLOADS:
            done = run_smoke(workload, trace)
            assert done.returncode == 0, done.stdout + done.stderr
            last = done.stdout.strip().splitlines()[-1]
            runs[workload, trace] = json.loads(last), done.stdout
    return runs


def test_declaration_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) \
        and 1 <= SPEC["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]] \
        + [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_once_with_its_unit(smoke, trace):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for workload in WORKLOADS:
        result, stdout = smoke[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) \
            and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        table = [line.split() for line in stdout.splitlines()
                 if line.startswith("  ")]
        for metric in declared:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
            rows = [row for row in table if row[0] == metric["name"]]
            assert len(rows) == 1 and rows[0][2] == metric["unit"]
            if not trace:
                assert reported["value"] > 0, (workload, metric["name"])


def test_each_workload_moves_its_own_layer(smoke):
    """The bypass side of every pairing: a layer a workload does not
    touch reports zero there and work where it is the subject."""
    def value(workload, name):
        return smoke[workload, 1][0]["metrics"][name]["value"]
    assert value("serve_mix", "server.overhead_ms") != 0
    assert value("serve_mix", "client.connect_ms") > 0
    assert value("office_mix", "client.connect_ms") == 0
    assert value("burst_store", "storage.wal_append_ms") != 0
    assert value("burst_store", "sqlc.sharded_joins_selected") == 1
    assert value("sparse_join", "sqlc.sharded_joins_selected") == 0
    assert value("sparse_join", "sqlc.index_joins_selected") >= 1
    assert value("office_mix", "runtime.cache_hit_ratio") > 0.9
    assert value("dense_join", "runtime.cache_hit_ratio") == 0
    for workload in WORKLOADS:
        assert value(workload, "trace.overhead_ratio") > 0
        assert os.path.exists(os.path.join(
            ROOT, "bench", "out", f"trace-{workload}.jsonl"))


def test_counts_repeat_for_one_seed(smoke):
    """Two traced runs with one seed agree exactly on every count-type
    layer metric of the single-threaded workloads."""
    for workload in WORKLOADS:
        if workload == "serve_mix":
            continue
        again = run_smoke(workload, 1)
        assert again.returncode == 0, again.stdout + again.stderr
        second = json.loads(again.stdout.strip().splitlines()[-1])
        first = smoke[workload, 1][0]
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            if metric["unit"] in TIMED_UNITS or name in TIMED_RATIOS:
                continue
            assert first["metrics"][name] == second["metrics"][name], \
                (workload, name)


def test_server_and_scratch_are_cleaned_up_on_failure():
    from repro.model.serialize import save_database
    from repro.workloads import office

    from bench import common, serve

    seen = {}

    async def fail_while_serving(db_path: str) -> None:
        async with serve.serving(db_path) as served:
            seen["process"] = served.process
            served.clients.append(
                await serve.connect(port=served.port))
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        with common.scratch_dir() as tmp:
            seen["tmp"] = tmp
            db_path = os.path.join(tmp, "db.json")
            save_database(office.generate(2, 0).db, db_path)
            asyncio.run(fail_while_serving(db_path))
    assert seen["process"].returncode is not None
    assert not os.path.exists(seen["tmp"])


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only ``BENCHMARK.json`` and ``bench/``
    the command exits non-zero and prints no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "office_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
        timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_span_self_time():
    from bench.spans import SpanRecorder

    rec = SpanRecorder()
    with rec.span("bench.op", 7):
        with rec.span("core.parse"):
            pass
        with rec.span("sqlc.execute"):
            with rec.span("constraints.sat"):
                pass
    spans = {name: (start, end, parent, op)
             for name, start, end, parent, op in rec.spans}
    assert spans["core.parse"][2] == 0 and spans["constraints.sat"][2] == 2
    assert {op for _, _, _, op in spans.values()} == {7}
    own = rec.self_seconds()
    total = spans["bench.op"][1] - spans["bench.op"][0]
    assert abs(sum(own.values()) - total) < 1e-9
    inner = spans["constraints.sat"][1] - spans["constraints.sat"][0]
    outer = spans["sqlc.execute"][1] - spans["sqlc.execute"][0]
    assert abs(own["sqlc.execute"] - (outer - inner)) < 1e-9


def test_times_are_set_against_the_yardstick_around_them():
    from bench.common import BURST, Sequence, WallClock, Yardstick

    yardstick = Yardstick()
    # Twice the reference time per sample: the machine runs at half
    # speed, so a second of wall time is half a second of work.
    yardstick.seconds = [2 * Yardstick.REFERENCE_S] * (3 * BURST)
    assert yardstick.at_reference(1.0, BURST, BURST) == pytest.approx(0.5)
    assert yardstick.slowdown == pytest.approx(2.0)
    # Only the samples near the step count, those taken during it too.
    yardstick.seconds[:BURST] = [Yardstick.REFERENCE_S] * BURST
    assert yardstick.at_reference(1.0, 2 * BURST, 2 * BURST) \
        == pytest.approx(0.5)
    assert yardstick.at_reference(1.0, BURST, 2 * BURST) \
        == pytest.approx(0.6)

    # One sample before every step and a burst at either end.
    sequence = Sequence(yardstick := Yardstick())
    for _ in range(3):
        sequence.start()
        sequence.stop()
    assert len(sequence.finish()) == 3
    assert len(yardstick.seconds) == 2 * BURST + 2
    # The traced run's clock leaves times as they are.
    _, seconds = WallClock().timed(lambda: None)
    assert 0 <= seconds < 0.01


def test_summary_takes_medians_over_the_passes():
    from bench.common import Pass, summarise

    def one_pass(stretch: float) -> Pass:
        return Pass(1.0, 0.5 * stretch, [30.0 * stretch, 10.0 * stretch],
                    [stretch * (1 + i % 7) for i in range(120)],
                    0.0001 * stretch, 0.002 * stretch, 300.0)
    summary = summarise([one_pass(1.0), one_pass(3.0), one_pass(1.0)])
    assert summary == {
        "setup_s": 0.5, "ops_per_s": pytest.approx(1000 * 120 / 477),
        "op_p50_ms": 4.0, "op_p90_ms": 7.0, "cold_op_p50_ms": 20.0,
        "ingest_rows_per_s": pytest.approx(10000),
        "restore_rows_per_s": pytest.approx(500),
        "disk_bytes_per_row": 300.0}


def test_repeat_check_flags_a_pair_beyond_its_bound():
    from bench import run as runner

    def one_set(p50: float) -> dict:
        metrics = {m["name"]: {"value": 100.0, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        metrics["op_p50_ms"]["value"] = p50
        return {"office_mix": {"correct": True, "metrics": metrics}}
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "op_p50_ms")
    _, over = runner.compare_sets(
        one_set(100.0), one_set(100.0 * (1 + bound / 2)), SPEC)
    assert over == 0
    lines, over = runner.compare_sets(
        one_set(100.0), one_set(100.0 * (1 + 2 * bound)), SPEC)
    assert over == 1 and any("OVER" in line for line in lines)
