"""Tests for the command-line interface."""

import ast
import json
import pathlib

import pytest

import repro
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

    def test_query_translated(self, capsys):
        assert main(["query", "--office", "--translated",
                     "SELECT X FROM Desk X"]) == 0
        assert "standard_desk" in capsys.readouterr().out

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

    def test_plain_explain_has_no_trace(self, capsys):
        assert main(["query", "--office", "--explain",
                     self.QUERY]) == 0
        assert "phase trace:" not in capsys.readouterr().out


class TestCliIsTheTopLayer:
    def test_only_main_imports_the_cli(self):
        """Nothing under ``src/repro`` but ``__main__`` imports
        ``repro.cli``, at module or at function level: what both front
        ends need lives in ``repro.lyric``."""
        package = pathlib.Path(repro.__file__).parent
        importers = set()
        for path in package.rglob("*.py"):
            module = path.relative_to(package.parent).with_suffix("").parts
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    # ``from . import cli`` counts: resolve the dots.
                    base = list(module[:-node.level]) if node.level else []
                    base += node.module.split(".") if node.module else []
                    names = [".".join(base + [alias.name])
                             for alias in node.names]
                else:
                    continue
                if any(name.split(".")[:2] == ["repro", "cli"]
                       for name in names):
                    importers.add(path.relative_to(package).as_posix())
        assert importers == {"__main__.py"}
