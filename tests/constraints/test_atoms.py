"""Unit tests for linear constraint atoms and their normal form."""

import ast
import pathlib
from fractions import Fraction

import pytest

import repro
from repro.constraints.atoms import (
    Eq,
    Ge,
    Gt,
    Le,
    LinearConstraint,
    Lt,
    Ne,
    Relop,
)
from repro.constraints.terms import variables
from repro.errors import ConstraintError

x, y = variables("x y")


class TestNormalization:
    def test_ge_flips_to_le(self):
        atom = Ge(x, 3)
        assert atom.relop is Relop.LE
        assert atom.expression.coefficient(x) == -1
        assert atom.bound == -3

    def test_gt_flips_to_lt(self):
        atom = Gt(x, 3)
        assert atom.relop is Relop.LT

    def test_constant_moved_to_bound(self):
        atom = Le(x + 5, 7)
        assert atom.bound == 2
        assert atom.expression.constant_term == 0

    def test_coefficients_scaled_to_coprime_integers(self):
        assert Le(2 * x + 4 * y, 6) == Le(x + 2 * y, 3)

    def test_fractional_coefficients_cleared(self):
        atom = Le(x / 2 + y / 3, 1)
        assert atom == Le(3 * x + 2 * y, 6)

    def test_equality_sign_canonical(self):
        assert Eq(-x + y, 1) == Eq(x - y, -1)

    def test_disequality_sign_canonical(self):
        assert Ne(-2 * x, 4) == Ne(x, -2)

    def test_inequality_sign_not_flipped(self):
        # -x <= 1 and x <= -1 are different constraints.
        assert Le(-x, 1) != Le(x, -1)


class TestOperatorOverloads:
    def test_le_operator(self):
        assert (x <= 5) == Le(x, 5)

    def test_chained_via_expression(self):
        assert (2 * x + 3 * y <= 5).relop is Relop.LE

    def test_eq_via_expression(self):
        atom = +x == 5
        assert atom.relop is Relop.EQ

    def test_eq_between_variables_via_helper(self):
        atom = Eq(x, y)
        assert atom.relop is Relop.EQ
        assert atom.expression.coefficient(x) == 1
        assert atom.expression.coefficient(y) == -1


class TestPredicates:
    def test_holds_at(self):
        atom = Le(2 * x + y, 5)
        assert atom.holds_at({x: 1, y: 3})
        assert not atom.holds_at({x: 2, y: 3})

    def test_strict_holds_at(self):
        atom = Lt(x, 1)
        assert atom.holds_at({x: Fraction(99, 100)})
        assert not atom.holds_at({x: 1})

    def test_disequality_holds_at(self):
        atom = Ne(x, 1)
        assert atom.holds_at({x: 0})
        assert not atom.holds_at({x: 1})

    def test_trivial_truth(self):
        atom = Le(x - x, 1)
        assert atom.is_trivial
        assert atom.trivial_truth()

    def test_trivial_false(self):
        atom = Le(x - x, -1)
        assert not atom.trivial_truth()

    def test_trivial_truth_raises_on_nontrivial(self):
        with pytest.raises(ConstraintError):
            Le(x, 1).trivial_truth()

    def test_bool_raises_on_nontrivial(self):
        with pytest.raises(TypeError):
            bool(Le(x, 1))

    def test_bool_on_trivial(self):
        assert bool(Le(x - x, 1))


class TestLogicalOps:
    def test_negate_le(self):
        negated = Le(x, 3).negate()
        assert negated.relop is Relop.LT
        # not(x <= 3)  ==  x > 3  ==  -x < -3
        assert negated.holds_at({x: 4})
        assert not negated.holds_at({x: 3})

    def test_negate_eq_gives_ne(self):
        assert Eq(x, 3).negate().relop is Relop.NE

    def test_negate_ne_gives_eq(self):
        assert Ne(x, 3).negate().relop is Relop.EQ

    def test_double_negation_roundtrip(self):
        atom = Lt(2 * x - y, 7)
        assert atom.negate().negate() == atom

    def test_split_disequality(self):
        below, above = Ne(x, 2).split_disequality()
        assert below.holds_at({x: 1})
        assert above.holds_at({x: 3})
        assert not below.holds_at({x: 2})
        assert not above.holds_at({x: 2})

    def test_split_requires_disequality(self):
        with pytest.raises(ConstraintError):
            Le(x, 2).split_disequality()

    def test_weakened(self):
        assert Lt(x, 2).weakened().relop is Relop.LE
        assert Le(x, 2).weakened().relop is Relop.LE


class TestSubstitution:
    def test_rename(self):
        atom = Le(x + y, 3).rename({x: y})
        assert atom == Le(2 * y, 3)


class TestIdentity:
    def test_hash_equal_for_equal_atoms(self):
        assert hash(Le(2 * x, 4)) == hash(Le(x, 2))

    def test_sort_key_deterministic(self):
        atoms = sorted([Le(y, 1), Le(x, 1), Eq(x, 0)],
                       key=LinearConstraint.sort_key)
        assert atoms == sorted(atoms, key=LinearConstraint.sort_key)

    def test_str_renders_relop(self):
        assert "<=" in str(Le(x, 2))

    def test_sort_key_orders_bounds_by_value(self):
        half, third = Le(x, Fraction(1, 2)), Le(x, Fraction(1, 3))
        assert sorted([half, third], key=LinearConstraint.sort_key) \
            == [third, half]


class TestRow:
    def test_terms_are_the_coprime_integer_row(self):
        atom = Le(Fraction(2, 3) * y - Fraction(4, 9) * x, 1)
        assert atom.terms == ((x, -2), (y, 3))
        assert all(type(c) is int for _, c in atom.terms)
        assert atom.bound == Fraction(9, 2)
        assert atom.coefficient(y) == 3 and atom.coefficient(x) == -2
        assert atom.coefficient(variables("z")[0]) == 0

    def test_expression_view_matches_the_row(self):
        atom = Eq(3 * y, 6 * x + 9)
        assert dict(atom.expression.coefficients) == dict(atom.terms)
        assert LinearConstraint.build(atom.expression, atom.relop,
                                      atom.bound) == atom

    def test_rename_resorts_and_fixes_the_lead_sign(self):
        u, z = variables("u z")
        atom = Eq(x - 2 * y, 1).rename({x: z, y: u})
        assert atom.terms == ((u, 2), (z, -1))
        assert atom == Eq(z - 2 * u, 1)
        assert str(atom) == "2*u - z = -1"


#: Attribute chains that read an atom's stored row behind its back.
_ROW_CHAINS = {("expression", "coefficients"), ("expression", "coefficient")}
_ROW_SLOTS = {"_expr", "_coeffs"}
#: Modules that derive atoms from atoms and do so by row operations.
_ROW_DERIVERS = {"constraints/projection.py", "constraints/conjunctive.py",
                 "constraints/satisfiability.py",
                 "constraints/existential.py"}
#: The two LyriC front ends that build rows from name-to-coefficient
#: maps, and what each builds them without: the CST text parser builds
#: no expression, a query's formula atoms no atom (only a MAX / MIN
#: objective becomes a LinearExpression, for ``lp``).
_TERMS_USERS = {
    "constraints/parser.py": {"LinearExpression", "expression_row"},
    "core/formulas.py": {"LinearConstraint", "expression_row"},
}
#: Names no module defines or reads any more: identity keys read rows,
#: and joins filter on the box index, not on a join of their own.
_GONE = {"sorted_atoms", "overlap_join"}
#: A conjunction's stored columns and rows, and the modules that own them.
_SYSTEM_SLOTS = {"_rows", "_columns"}
_SYSTEM_OWNERS = {"constraints/atoms.py", "constraints/conjunctive.py"}
#: Modules that work on a conjunction's rows, never on its atom view:
#: elimination, packing and the WHERE template, and the exact solver.
_ROW_READERS = {"constraints/projection.py", "constraints/matrix.py",
                "constraints/existential.py", "core/formulas.py",
                "constraints/satisfiability.py", "constraints/simplex.py",
                "constraints/implication.py", "constraints/canonical.py",
                "constraints/lp.py", "constraints/bounds.py",
                "constraints/disjunctive.py"}


def _named(node: ast.AST) -> set:
    """The names an AST node imports, defines or reads (the last dotted
    part)."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.name.rpartition(".")[2] for alias in node.names}
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    return {getattr(node, "id", None), getattr(node, "attr", None)}


def test_only_atoms_reads_the_row_format():
    """Nothing under ``src/repro`` but ``constraints/atoms.py`` knows how
    an atom stores its row: others read ``atom.terms`` /
    ``atom.coefficient(v)``, never ``X.expression.coefficients``,
    ``X.expression.coefficient(...)`` or the ``_expr`` / ``_coeffs``
    slots.  Under ``constraints/`` nothing else reads an atom's
    ``expression`` view at all — rows derive from rows through the row
    helpers — and the modules that eliminate, project and relax strict
    rows do not import ``LinearExpression``.

    A conjunction's stored ``_rows`` / ``_columns`` are read by
    ``atoms.py`` and ``conjunctive.py`` alone — no other module of
    ``constraints/`` or ``core/formulas.py`` names them (``sqlc``'s
    relations have slots of those names of their own) — and the
    modules that eliminate, pack and template rows, and those of the
    exact solver (satisfiability, entailment, redundancy removal,
    MAX/MIN, the interval prefilter, negation), read no ``.atoms``
    view.  The CST text parser and a query's formula atoms build rows
    from name-to-coefficient maps: ``constraints/parser.py`` names
    neither ``LinearExpression`` nor ``expression_row``,
    ``core/formulas.py`` neither ``LinearConstraint`` nor
    ``expression_row``.  No module names ``sorted_atoms`` (identity
    keys compare a conjunction's rows) or ``overlap_join`` (joins
    filter on the box index).  Under ``constraints/`` only ``terms.py`` names
    ``substitute``: constraints pin and rename by rows, and no
    constraint class substitutes expressions into its atoms."""
    package = pathlib.Path(repro.__file__).parent
    offenders = set()
    for path in package.rglob("*.py"):
        name = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (_GONE | _TERMS_USERS.get(name, set())) & _named(node):
                offenders.add(f"{name}:{node.lineno}")
            if name.startswith("constraints/") \
                    and name != "constraints/terms.py" \
                    and "substitute" in _named(node):
                offenders.add(f"{name}:{node.lineno}")
        if name == "constraints/atoms.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if name in _ROW_DERIVERS and any(
                        alias.name.endswith("LinearExpression")
                        for alias in node.names):
                    offenders.add(f"{name}:{node.lineno}")
                continue
            if not isinstance(node, ast.Attribute):
                continue
            inner = node.value
            if node.attr in _ROW_SLOTS or (
                    isinstance(inner, ast.Attribute)
                    and (inner.attr, node.attr) in _ROW_CHAINS) or (
                    node.attr == "expression"
                    and name.startswith("constraints/")) or (
                    node.attr == "atoms" and name in _ROW_READERS):
                offenders.add(f"{name}:{node.lineno}")
            if node.attr in _SYSTEM_SLOTS and name not in _SYSTEM_OWNERS \
                    and (name.startswith("constraints/")
                         or name in _ROW_READERS):
                offenders.add(f"{name}:{node.lineno}")
    assert not offenders


#: Packages no module under ``src/repro`` may import: the program runs
#: the same on every install (numpy stays a test-only dependency).
_FORBIDDEN_IMPORTS = {"numpy", "scipy"}


def test_no_module_imports_numpy_or_scipy():
    """Nothing under ``src/repro`` imports numpy or scipy — by an
    ``import`` statement, or by name through ``__import__`` /
    ``importlib.import_module``."""
    package = pathlib.Path(repro.__file__).parent
    offenders = set()
    for path in package.rglob("*.py"):
        name = path.relative_to(package).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Call) and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and _named(node.func) & {"__import__",
                                             "import_module"}:
                modules = [str(node.args[0].value)]
            else:
                continue
            if {module.partition(".")[0]
                    for module in modules} & _FORBIDDEN_IMPORTS:
                offenders.add(f"{name}:{node.lineno}")
    assert not offenders
