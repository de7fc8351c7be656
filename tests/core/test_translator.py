"""Tests for the Section 5 translation to flat SQL with constraints,
differential-checked against the naive evaluator (experiment E8)."""

import pytest

from repro import lyric
from repro.core.translator import TranslationError, translate
from repro.model.office import (
    add_file_cabinet,
    build_office_database,
)


@pytest.fixture
def office():
    db, oids = build_office_database()
    cabinet = add_file_cabinet(db, location=(3, 4))
    return db, oids, cabinet


def assert_same_answers(db, text):
    naive = lyric.query(db, text)
    translated = lyric.query_translated(db, text)
    unoptimized = lyric.query_translated(db, text, use_optimizer=False)
    naive_rows = sorted(
        (tuple(map(str, r.values)), str(r.oid)) for r in naive)
    translated_rows = sorted(
        (tuple(map(str, r.values)), str(r.oid)) for r in translated)
    raw_rows = sorted(
        (tuple(map(str, r.values)), str(r.oid)) for r in unoptimized)
    assert naive_rows == translated_rows
    assert naive_rows == raw_rows
    return naive


QUERIES = [
    "SELECT X FROM Desk X",
    "SELECT X, Y FROM Desk X, File_Cabinet Y",
    "SELECT Y FROM Desk X WHERE X.drawer[Y]",
    "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
    "SELECT Y FROM Desk X WHERE X.drawer[Y].color['red']",
    "SELECT X FROM Office_Object X WHERE X.color = 'red'",
    "SELECT X FROM Office_Object X WHERE not X.color = 'red'",
    """SELECT X FROM Office_Object X
       WHERE X.color = 'red' or X.color = 'grey'""",
    """SELECT CO, ((u,v) | E and D and x = 6 and y = 4)
       FROM Office_Object CO
       WHERE CO.extent[E] and CO.translation[D]""",
    """SELECT O FROM Object_in_Room O
       WHERE O.location[L] and ((L(x,y) and 0 <= x <= 10))""",
    """SELECT DSK FROM Desk DSK
       WHERE DSK.drawer_center[C] and (C(p,q) |= p = -2)""",
    """SELECT MAX(u SUBJECT TO ((u,v) | E and D and x = 6 and y = 4))
       FROM Office_Object CO
       WHERE CO.extent[E] and CO.translation[D]""",
    """SELECT X FROM Desk X OID FUNCTION OF X""",
]


class TestDifferential:
    @pytest.mark.parametrize("text", QUERIES)
    def test_same_answers(self, office, text):
        db, _, _ = office
        assert_same_answers(db, text)

    def test_nonempty_coverage(self, office):
        """The differential corpus is not vacuous: most queries return
        rows."""
        db, _, _ = office
        nonempty = sum(
            1 for text in QUERIES if len(lyric.query(db, text)) > 0)
        assert nonempty >= 10


class TestSameTableAsTheReference:
    """The translation returns the reference evaluator's table —
    column names, rows, row order — which is what lets ``lyric.stream``
    prefer it for every front end."""

    @pytest.mark.parametrize("text", [
        # Each reference's implicit edge equalities resolve against its
        # own parent object, so the two frames stay apart.
        """SELECT X, Y
           FROM Object_in_Room OX, Object_in_Room OY,
                Office_Object X, Office_Object Y
           WHERE OX.catalog_object[X] and OY.catalog_object[Y]
             and OX.location[LX] and OY.location[LY]
             and X.translation[DX] and Y.translation[DY]
             and SAT(DX(w,z,x,y,u,v) and LX(x,y)
                     and DY(w2,z2,x2,y2,u,v) and LY(x2,y2))""",
        "SELECT first = X, second = Y FROM Desk X, File_Cabinet Y",
    ], ids=["two-parent-frames", "named-select-items"])
    def test_same_table(self, office, text):
        db, _, _ = office
        expected = lyric.query(db, text)
        assert expected
        translated = lyric.query_translated(db, text)
        assert translated.columns == expected.columns
        assert translated.rows == expected.rows


class TestPlanShape:
    def test_translation_produces_plan(self, office):
        db, _, _ = office
        translated = translate(db, """
            SELECT Y FROM Desk X WHERE X.drawer[Y].color['red']
        """)
        text = translated.plan.explain()
        # X heads the path, so its class restricts the first scan
        # instead of being joined in.
        assert "Scan(attr:drawer@Desk)" in text
        assert "class:Desk" not in text
        assert "attr:color" in text

    def test_where_formula_becomes_cst_predicate(self, office):
        db, _, _ = office
        translated = translate(db, """
            SELECT O FROM Object_in_Room O
            WHERE O.location[L] and ((L(x,y) and 0 <= x <= 10))
        """)
        assert "SAT" in translated.plan.explain()

    def test_oid_function_column(self, office):
        db, _, _ = office
        translated = translate(
            db, "SELECT X FROM Desk X OID FUNCTION OF X")
        assert translated.oid_column == "_rowoid"


class TestFragmentLimits:
    def test_attribute_variables_rejected(self, office):
        db, _, _ = office
        with pytest.raises(TranslationError):
            translate(db, "SELECT A FROM Drawer D WHERE D.A['red']")

    def test_path_under_or_rejected(self, office):
        db, _, _ = office
        with pytest.raises(TranslationError):
            translate(db, """
                SELECT X FROM Desk X
                WHERE X.drawer[Y] and (X.color['red'] or X.drawer[Z])
            """)

    def test_multistep_select_path_rejected(self, office):
        db, _, _ = office
        with pytest.raises(TranslationError):
            translate(db, "SELECT X.drawer.color FROM Desk X")
