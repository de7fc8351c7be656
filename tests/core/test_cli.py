"""Tests for the command-line interface."""

import ast
import json
import pathlib

import pytest

import repro
from repro import lyric
from repro.cli import main


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "office database" in out
        assert "u <= 10" in out


class TestDumpAndQuery:
    def test_dump_office(self, tmp_path, capsys):
        path = str(tmp_path / "office.json")
        assert main(["dump-office", path]) == 0
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["version"] == 1

    def test_query_from_file(self, tmp_path, capsys):
        path = str(tmp_path / "office.json")
        main(["dump-office", path])
        capsys.readouterr()
        assert main(["query", path, "SELECT X FROM Desk X"]) == 0
        out = capsys.readouterr().out
        assert "standard_desk" in out
        assert "(1 rows)" in out

    def test_query_builtin_office(self, capsys):
        assert main(["query", "--office",
                     "SELECT X FROM Desk X"]) == 0
        assert "standard_desk" in capsys.readouterr().out

    def test_query_translated(self, cli_built, capsys):
        """``--translated`` is gone: the default path runs the
        translation wherever the translator accepts the query."""
        with pytest.raises(SystemExit) as exit_:
            main(["query", "--office", "--translated",
                  "SELECT X FROM Desk X"])
        assert exit_.value.code == 2
        assert main(["query", "--office", "SELECT X FROM Desk X"]) == 0
        assert "standard_desk" in capsys.readouterr().out
        assert cli_built.engines == ["translated"]

    def test_query_the_translator_rejects(self, cli_built, capsys):
        """An attribute variable is outside the translatable fragment:
        the rule falls back to the reference evaluator, and the answer
        is the reference answer, exit 0."""
        text = "SELECT A FROM Drawer D WHERE D.A['red']"
        assert main(["query", "--office", text]) == 0
        assert cli_built.engines == ["naive"]
        expected = lyric.query(cli_built.dbs[0], text)
        assert len(expected) == 1
        assert capsys.readouterr().out \
            == expected.pretty() + f"\n({len(expected)} rows)\n"

    def test_query_limit(self, capsys):
        assert main(["query", "--office", "--limit", "1",
                     "SELECT R FROM Region R"]) == 0
        assert "more rows" in capsys.readouterr().out

    def test_syntax_error_reported(self, capsys):
        assert main(["query", "--office", "SELECT FROM"]) == 2
        assert "syntax error:" in capsys.readouterr().err

    def test_missing_database(self, capsys):
        with pytest.raises(SystemExit):
            main(["query", "SELECT X FROM Desk X"])


class TestResourceGuards:
    QUERY = ("SELECT CO, ((u,v) | E and D and x = 6 and y = 4) "
             "FROM Office_Object CO "
             "WHERE CO.extent[E] and CO.translation[D]")

    def test_exhaustion_exit_code(self, capsys):
        code = main(["query", "--office", "--max-pivots", "1",
                     self.QUERY])
        assert code == 3
        err = capsys.readouterr().err
        assert "resource limit:" in err
        assert "budget=pivots" in err

    def test_degrade_returns_partial(self, capsys):
        code = main(["query", "--office", "--max-pivots", "1",
                     "--on-exhaustion", "degrade", self.QUERY])
        assert code == 0
        out = capsys.readouterr().out
        assert "warning: partial result" in out

    def test_timeout_flag_accepted(self, capsys):
        assert main(["query", "--office", "--timeout", "3600",
                     "SELECT X FROM Desk X"]) == 0
        assert "standard_desk" in capsys.readouterr().out

    def test_no_flags_means_no_guard(self, capsys):
        # Without limits the query runs exactly as before.
        assert main(["query", "--office", self.QUERY]) == 0
        out = capsys.readouterr().out
        assert "warning" not in out

    def test_exit_codes_distinct(self, capsys):
        syntax = main(["query", "--office", "SELECT FROM"])
        resource = main(["query", "--office", "--max-pivots", "1",
                         self.QUERY])
        capsys.readouterr()
        assert syntax == 2
        assert resource == 3
        assert syntax != resource


class TestQueryReadsItsFlags:
    """``repro query`` runs ``lyric.stream``'s rule, so each plan flag
    reaches the engine — asserted on the context ``cmd_query`` built
    and on what running under it left behind."""

    JOIN = ("SELECT A, B FROM Office_Object A, Office_Object B "
            "WHERE A.extent[E] and B.extent[F] "
            "and SAT(E(w,z) and F(w,z))")

    def run(self, cli_built, *flags):
        assert main(["query", "--office", *flags, self.JOIN]) == 0
        return cli_built.contexts[-1]

    @staticmethod
    def phases(ctx):
        return {record.name: record for record in ctx.stats.phases}

    def test_shards(self, cli_built):
        ctx = self.run(cli_built, "--shards", "4")
        assert ctx.shards == 4
        assert cli_built.dbs[-1].flat_catalog.key[-1] == 4

    def test_no_index(self, cli_built):
        indexed = self.run(cli_built)
        assert "IndexJoin(" \
            in self.phases(indexed)["physical-plan"].plan_after
        ctx = self.run(cli_built, "--no-index")
        assert not ctx.indexing
        assert "IndexJoin(" \
            not in self.phases(ctx)["physical-plan"].plan_after

    def test_no_plan_cache(self, cli_built):
        for _ in range(2):
            ctx = self.run(cli_built, "--no-plan-cache")
            assert ctx.plan_cache is None
            assert "translate" in self.phases(ctx)  # compiled afresh

    def test_plan_cache_size(self, cli_built):
        ctx = self.run(cli_built, "--plan-cache-size", "8")
        assert ctx.plan_cache.maxsize == 8
        assert len(ctx.plan_cache) == 1
        assert ctx.stats.plan_cache_misses == 1


class TestViewAndSchema:
    VIEW = ("CREATE VIEW Red AS SUBCLASS OF Office_Object "
            "SELECT item = X SIGNATURE item => Office_Object "
            "FROM Office_Object X OID FUNCTION OF X "
            "WHERE X.color = 'red'")

    def test_view(self, capsys):
        assert main(["view", "--office", self.VIEW]) == 0
        out = capsys.readouterr().out
        assert "Red: 1 instances" in out

    def test_view_save(self, tmp_path, capsys):
        path = str(tmp_path / "out.json")
        assert main(["view", "--office", self.VIEW,
                     "--save", path]) == 0
        from repro.model.serialize import read_database
        db = read_database(path)
        assert db.schema.has_class("Red")

    @pytest.mark.parametrize("flag", [
        ["--shards", "4"], ["--no-index"],
        ["--no-plan-cache"], ["--plan-cache-size", "8"]],
        ids=lambda flag: flag[0])
    def test_view_takes_no_plan_flag(self, flag, capsys):
        """``view`` runs the reference evaluator, which reads none of
        the plan flags, so argparse refuses them."""
        with pytest.raises(SystemExit) as exit_:
            main(["view", "--office", *flag, self.VIEW])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_schema(self, capsys):
        assert main(["schema", "--office"]) == 0
        out = capsys.readouterr().out
        assert "Desk IS-A Office_Object" in out


class TestAnalyzeTrace:
    QUERY = ("SELECT CO, ((u,v) | E and D and x = 6 and y = 4) "
             "FROM Office_Object CO "
             "WHERE CO.extent[E] and CO.translation[D]")

    def test_analyze_prints_phase_trace(self, capsys):
        assert main(["query", "--office", "--explain", "--analyze",
                     self.QUERY]) == 0
        out = capsys.readouterr().out
        assert "phase trace:" in out
        for phase in ("parse", "translate", "logical-plan",
                      "rewrite:push-selections", "rewrite:reorder-joins",
                      "physical-plan", "execute"):
            assert phase in out
        assert "cache:" in out and "prefilter:" in out \
            and "index:" in out

    def test_analyze_names_the_engine_and_template_rows(self, capsys):
        assert main(["query", "--office", "--explain", "--analyze",
                     self.QUERY]) == 0
        out = capsys.readouterr().out
        assert "engine: 0 naive fallbacks\n" in out
        assert " template rows\n" in out

    def test_analyze_of_a_naive_query_names_the_reason(self, capsys):
        """No translated plan to annotate: the rule's naive run is
        analysed instead, and the ``engine:`` line says why."""
        assert main(["query", "--office", "--explain", "--analyze",
                     "SELECT A FROM Drawer D WHERE D.A['red']"]) == 0
        out = capsys.readouterr().out
        assert "no translated plan: 1 rows from the naive evaluator" \
            in out
        assert "engine: 1 naive fallbacks (attribute variables are " \
            "outside the translatable fragment" in out

    def test_plain_explain_has_no_trace(self, capsys):
        assert main(["query", "--office", "--explain",
                     self.QUERY]) == 0
        assert "phase trace:" not in capsys.readouterr().out


class TestDurableStoreVerbs:
    def test_round_trip_and_damage(self, tmp_path, capsys):
        """CI's ``cli-smoke`` durability step, in-process: exit 0 on a
        clean store, 4 once recovery had to drop something, 5 when no
        snapshot is readable, and the report names the state."""
        store = tmp_path / "office.store"

        def run(*argv):
            code = main([*argv, str(store)])
            return code, capsys.readouterr()

        code, io = run("db", "save", "--office")
        assert code == 0 and "generation 1, 10 objects" in io.out
        code, io = run("db", "verify")
        assert code == 0 and "state: clean" in io.out
        code, io = run("db", "load")
        assert code == 0 and "10 objects, 0 relations" in io.out \
            and "state: clean" in io.out
        code, io = run("query", "SELECT X FROM Desk X", "--store")
        assert code == 0 and "standard_desk" in io.out
        code, io = run("db", "snapshot")
        assert code == 0 and "snapshot generation 2" in io.out

        # A torn WAL tail: recovered, until a writable open repairs it.
        newest_wal = sorted(store.glob("wal-*.log"))[-1]
        with newest_wal.open("ab") as wal:
            wal.write(b"torn")
        for verb in ("verify", "load", "snapshot"):
            code, io = run("db", verb)
            assert code == 4, verb
            if verb != "snapshot":
                assert "state: recovered" in io.out
                assert "warning: wal 2: torn tail" in io.out
        code, io = run("db", "verify")
        assert code == 0 and "state: clean" in io.out

        # No readable snapshot: unrecoverable.
        for snapshot in store.glob("snapshot-*.lyrc"):
            snapshot.write_bytes(b"gone")
        code, io = run("db", "verify")
        assert code == 5 and "state: unrecoverable" in io.out \
            and "warning: no readable snapshot" in io.out
        code, io = run("db", "load")
        assert code == 5 and "store unrecoverable:" in io.err


PACKAGE = pathlib.Path(repro.__file__).parent


def _imports(path, module):
    """``(dotted target, bound name)`` of every import in ``path``, at
    module or at function level; ``module`` is the file's own dotted
    path, which resolves the dots of ``from . import cli``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            base = []
        elif isinstance(node, ast.ImportFrom):
            base = list(module[:-node.level]) if node.level else []
            base += node.module.split(".") if node.module else []
        else:
            continue
        for alias in node.names:
            yield (".".join(base + [alias.name]),
                   alias.asname or alias.name)


def _dotted(path, root):
    return path.relative_to(root).with_suffix("").parts


class TestCliIsTheTopLayer:
    def test_only_main_imports_the_cli(self):
        """Nothing under ``src/repro`` but ``__main__`` imports
        ``repro.cli``, at module or at function level: what both front
        ends need lives in ``repro.lyric``."""
        importers = {
            path.relative_to(PACKAGE).as_posix()
            for path in PACKAGE.rglob("*.py")
            for target, _ in _imports(path,
                                      _dotted(path, PACKAGE.parent))
            if target.split(".")[:2] == ["repro", "cli"]}
        assert importers == {"__main__.py"}

    def test_no_module_is_an_orphan(self):
        """Every module under ``src/repro`` is imported by another
        ``src/`` module, ``bench/``, ``benchmarks/`` or ``examples/`` —
        directly, or through a name its package ``__init__`` re-exports
        and somebody other than that ``__init__`` imports.  A module
        only its own test imports is not part of the system;
        ``__main__`` is the entry point."""
        root = PACKAGE.parent.parent
        modules, imports = {}, {}
        for path in PACKAGE.rglob("*.py"):
            parts = _dotted(path, PACKAGE.parent)
            imports[path] = list(_imports(path, parts))
            if parts[-1] == "__init__":
                parts = parts[:-1]
            modules[".".join(parts)] = path
        for outside in ("bench", "benchmarks", "examples"):
            for path in (root / outside).rglob("*.py"):
                imports[path] = list(_imports(path, _dotted(path, root)))

        def importers_of(name, but):
            return {path for path, found in imports.items()
                    if path not in but
                    and any(target == name
                            or target.startswith(name + ".")
                            for target, _ in found)}

        orphans = set()
        for name, path in modules.items():
            if name == "repro.__main__":
                continue
            init = path.parent / "__init__.py"
            if importers_of(name, but={path, init}):
                continue
            package = name.rpartition(".")[0]
            reexported = [f"{package}.{bound}"
                          for target, bound in imports[init]
                          if target.startswith(name + ".")]
            if not any(importers_of(public, but={path, init})
                       for public in reexported):
                orphans.add(name)
        assert orphans == set()
