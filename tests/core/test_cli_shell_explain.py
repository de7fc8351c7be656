"""Tests for EXPLAIN support, the subsumption opt-in, and the shell."""

import io

import pytest

from repro import lyric
from repro.cli import main
from repro.constraints.canonical import remove_subsumed_disjuncts
from repro.constraints.atoms import Ge, Le
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.terms import variables
from repro.model.office import build_office_database

x, = variables("x")


def interval(lo, hi):
    return ConjunctiveConstraint.of(Ge(x, lo), Le(x, hi))


class TestSubsumption:
    def test_contained_disjunct_removed(self):
        d = DisjunctiveConstraint([interval(0, 1), interval(0, 5)])
        reduced = remove_subsumed_disjuncts(d)
        assert len(reduced) == 1
        assert reduced.disjuncts[0] == interval(0, 5)

    def test_split_cover_removed(self):
        """A disjunct covered only by the *union* of the others — the
        genuinely co-NP case a single-containment check misses."""
        d = DisjunctiveConstraint([
            interval(0, 3),        # covered by [0,2] u [2,5]
            interval(0, 2),
            interval(2, 5),
        ])
        reduced = remove_subsumed_disjuncts(d)
        assert len(reduced) == 2
        assert interval(0, 3) not in reduced.disjuncts

    def test_independent_disjuncts_kept(self):
        d = DisjunctiveConstraint([interval(0, 1), interval(3, 4)])
        assert len(remove_subsumed_disjuncts(d)) == 2

    def test_semantics_preserved(self):
        d = DisjunctiveConstraint([
            interval(0, 3), interval(0, 2), interval(2, 5)])
        reduced = remove_subsumed_disjuncts(d)
        for value in (0, 1, 2, 3, 4, 5, -1, 6):
            assert d.holds_at({x: value}) \
                == reduced.holds_at({x: value})


class TestExplain:
    def test_explain_renders_plan(self):
        db, _ = build_office_database()
        text = lyric.explain(db, """
            SELECT Y FROM Desk X WHERE X.drawer[Y].color['red']
        """)
        assert "Scan(attr:drawer@Desk)" in text
        assert "attr:color" in text

    def test_explain_unoptimized_differs(self):
        db, _ = build_office_database()
        query = """
            SELECT X FROM Desk X
            WHERE X.drawer[Y] and X.color = 'red'
        """
        optimized = lyric.explain(db, query, use_optimizer=True)
        raw = lyric.explain(db, query, use_optimizer=False)
        assert "Scan" in optimized and "Scan" in raw

    def test_cli_explain(self, capsys):
        assert main(["query", "--office", "--explain",
                     "SELECT X FROM Desk X"]) == 0
        assert "Scan(class:Desk)" in capsys.readouterr().out


class TestShell:
    def run_shell(self, monkeypatch, capsys, script: str):
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["shell", "--office"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_query_and_quit(self, monkeypatch, capsys):
        code, out, _ = self.run_shell(
            monkeypatch, capsys,
            "SELECT X FROM Desk X;\nquit;\n")
        assert code == 0
        assert "standard_desk" in out

    def test_multiline_statement(self, monkeypatch, capsys):
        code, out, _ = self.run_shell(
            monkeypatch, capsys,
            "SELECT X\nFROM Desk X;\n")
        assert "standard_desk" in out

    def test_error_recovers(self, monkeypatch, capsys):
        code, out, err = self.run_shell(
            monkeypatch, capsys,
            "SELECT nonsense;\nSELECT X FROM Desk X;\n")
        assert code == 0
        assert "error:" in err
        assert "standard_desk" in out

    def test_create_view_in_shell(self, monkeypatch, capsys):
        code, out, _ = self.run_shell(
            monkeypatch, capsys,
            "CREATE VIEW Red AS SUBCLASS OF Office_Object "
            "SELECT item = X SIGNATURE item => Office_Object "
            "FROM Office_Object X OID FUNCTION OF X "
            "WHERE X.color = 'red';\n")
        assert "Red: 1 instances" in out

    def test_eof_exits(self, monkeypatch, capsys):
        code, _, _ = self.run_shell(monkeypatch, capsys, "")
        assert code == 0

    @pytest.mark.parametrize("text, engine", [
        ("SELECT X FROM Desk X", "translated"),
        # An attribute variable is outside the translatable fragment.
        ("SELECT A FROM Drawer D WHERE D.A['red']", "naive"),
    ], ids=["translatable", "untranslatable"])
    def test_statement_and_execute_run_one_engine(
            self, monkeypatch, capsys, cli_built, text, engine):
        code, out, err = self.run_shell(
            monkeypatch, capsys,
            f"{text};\nPREPARE q AS {text};\nEXECUTE q;\nquit;\n")
        assert code == 0 and not err
        assert cli_built.engines == [engine, engine]
        first, _, second = out.partition("prepared q\n")
        assert first.splitlines()[1:] == second.splitlines()
