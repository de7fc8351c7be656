"""Tests for static warnings and EXPLAIN ANALYZE."""

import pytest

from repro import lyric
from repro.model.office import build_office_database


@pytest.fixture
def office():
    return build_office_database()


class TestWarnings:
    def test_type_error_path_warned(self, office):
        """X.location on a Desk is defined nowhere on its class: the
        XSQL 'type error, path statically empty' case."""
        db, _ = office
        warnings = lyric.warnings_for(db, """
            SELECT X FROM Desk X WHERE X.location[L]
        """)
        assert len(warnings) == 1
        assert "location" in warnings[0]
        assert "Desk" in warnings[0]

    def test_query_still_runs_empty(self, office):
        db, _ = office
        result = lyric.query(db, """
            SELECT X FROM Desk X WHERE X.location[L]
        """)
        assert len(result) == 0

    def test_valid_query_no_warnings(self, office):
        db, _ = office
        assert lyric.warnings_for(db, """
            SELECT X FROM Desk X WHERE X.extent[E]
        """) == []

    def test_attribute_variable_not_warned(self, office):
        db, _ = office
        assert lyric.warnings_for(db, """
            SELECT A FROM Desk X WHERE X.A['red']
        """) == []

    def test_duplicate_warning_deduplicated(self, office):
        db, _ = office
        warnings = lyric.warnings_for(db, """
            SELECT X FROM Desk X
            WHERE X.location[L] and X.location[L2]
        """)
        assert len(warnings) == 1


class TestExplainAnalyze:
    def test_row_counts_annotated(self, office):
        db, _ = office
        text = lyric.explain(db, """
            SELECT Y FROM Desk X WHERE X.drawer[Y].color['red']
        """, analyze=True)
        assert "[1 rows]" in text
        assert "Scan(attr:drawer@Desk)" in text

    def test_empty_plan_counts(self, office):
        db, _ = office
        text = lyric.explain(db, """
            SELECT X FROM Desk X WHERE X.color = 'blue'
        """, analyze=True)
        assert "[0 rows]" in text

    def test_unoptimized_analyze(self, office):
        db, _ = office
        text = lyric.explain(db, """
            SELECT X FROM Desk X WHERE X.color = 'red'
        """, analyze=True, use_optimizer=False)
        assert "rows]" in text
