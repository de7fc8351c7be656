"""Existential conjunctive and disjunctive existential constraints.

Section 3.1: an *existential conjunctive* constraint is a conjunction of
linear atoms under unrestricted existential quantification (projection),
kept **symbolic** — the paper explicitly refuses to eliminate all
quantifiers eagerly because the result can grow exponentially; only
"simplifying" eliminations (as in CLP(R)) are performed.  A *disjunctive
existential* constraint is a disjunction of existential conjunctive
constraints, closed under ``or`` and under projection that does not
quantify any currently-free variable.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Iterator, Mapping

from repro.errors import ConstraintFamilyError
from repro.constraints import projection as projection_mod
from repro.constraints.atoms import (
    ExactRow, LinearConstraint, Relop, column_union, row_key)
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.terms import RationalLike, Variable, to_fraction
from repro.runtime.context import current_context

#: Threshold for the "simplifying quantifier elimination" heuristic: a
#: quantified variable is eliminated eagerly when its Fourier-Motzkin
#: step does not grow the atom count (equalities always qualify).
_SIMPLIFY_GROWTH_LIMIT = 0

#: Most orders of signature-tied quantified variables the identity key
#: tries; past it the tied variables keep name order.
_MAX_ORDERS = 720


class ExistentialConjunctiveConstraint:
    """``exists q1..qk . body`` with a symbolic quantifier prefix.

    Immutable.  Free variables are the body's variables minus the
    quantified set; quantified variables not occurring in the body are
    dropped.
    """

    __slots__ = ("_body", "_quantified", "_hash", "_alpha")

    def __init__(self, body: ConjunctiveConstraint,
                 quantified: Iterable[Variable] = ()):
        if isinstance(body, LinearConstraint):
            body = ConjunctiveConstraint.of(body)
        if not isinstance(body, ConjunctiveConstraint):
            raise TypeError(f"expected ConjunctiveConstraint, got {body!r}")
        self._body = body
        self._quantified = frozenset(quantified) & body.variables
        self._hash: int | None = None
        self._alpha: tuple | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def of_conjunctive(cls, conj: ConjunctiveConstraint
                       ) -> "ExistentialConjunctiveConstraint":
        return cls(conj, ())

    @classmethod
    def true(cls) -> "ExistentialConjunctiveConstraint":
        return cls(ConjunctiveConstraint.true())

    @classmethod
    def false(cls) -> "ExistentialConjunctiveConstraint":
        return cls(ConjunctiveConstraint.false())

    # -- inspection ------------------------------------------------------------

    @property
    def body(self) -> ConjunctiveConstraint:
        return self._body

    @property
    def quantified(self) -> frozenset[Variable]:
        return self._quantified

    @property
    def free_variables(self) -> frozenset[Variable]:
        return self._body.variables - self._quantified

    # ``variables`` means *free* variables for every constraint class —
    # quantified ones are internal.
    variables = free_variables

    def is_quantifier_free(self) -> bool:
        return not self._quantified

    def is_syntactically_false(self) -> bool:
        return self._body.is_syntactically_false()

    def is_true(self) -> bool:
        return self._body.is_true()

    # -- alpha renaming of the prefix ----------------------------------------------

    def freshen(self, taken: frozenset[Variable]
                ) -> "ExistentialConjunctiveConstraint":
        """Rename quantified variables apart from ``taken`` (capture
        avoidance before conjoining two formulas)."""
        clashes = self._quantified & taken
        if not clashes:
            return self
        forbidden = set(taken) | self._body.variables
        mapping: dict[Variable, Variable] = {}
        for var in sorted(clashes, key=lambda v: v.name):
            fresh = _fresh_variable(var.name, forbidden)
            forbidden.add(fresh)
            mapping[var] = fresh
        body = self._body.rename(mapping)
        quantified = {mapping.get(v, v) for v in self._quantified}
        return ExistentialConjunctiveConstraint(body, quantified)

    # -- logical operations ------------------------------------------------------------

    def conjoin(self, other) -> "ExistentialConjunctiveConstraint":
        """Conjunction with capture-avoiding renaming of both prefixes."""
        if isinstance(other, (LinearConstraint, ConjunctiveConstraint)):
            other = ExistentialConjunctiveConstraint.of_conjunctive(
                other if isinstance(other, ConjunctiveConstraint)
                else ConjunctiveConstraint.of(other))
        if not isinstance(other, ExistentialConjunctiveConstraint):
            raise TypeError(
                f"cannot conjoin existential conjunctive with {other!r}")
        left = self.freshen(other.free_variables | other.quantified)
        right = other.freshen(left.free_variables | left.quantified)
        return ExistentialConjunctiveConstraint(
            left._body.conjoin(right._body),
            left._quantified | right._quantified)

    __and__ = conjoin

    def project(self, free: Iterable[Variable]
                ) -> "ExistentialConjunctiveConstraint":
        """``((free) | self)`` — unrestricted, quantifiers stay symbolic.

        Newly-quantified variables join the prefix; a simplifying
        elimination pass then removes the cheap ones.
        """
        free_set = frozenset(free)
        quantified = self._quantified | (self.free_variables - free_set)
        return ExistentialConjunctiveConstraint(
            self._body, quantified).simplify()

    def rename(self, mapping: Mapping[Variable, Variable]
               ) -> "ExistentialConjunctiveConstraint":
        """Rename *free* variables (the prefix is alpha-renamed out of the
        way first when a target name collides with it)."""
        relevant = {src: dst for src, dst in mapping.items()
                    if src in self.free_variables}
        safe = self.freshen(frozenset(relevant.values()))
        return ExistentialConjunctiveConstraint(
            safe._body.rename(relevant), safe._quantified)

    # -- elimination ------------------------------------------------------------

    def simplify(self) -> "ExistentialConjunctiveConstraint":
        """Perform the paper's *simplifying* quantifier eliminations.

        A quantified variable is eliminated when the elimination is an
        equality substitution or a Fourier-Motzkin step that does not
        increase the number of atoms; remaining quantifiers stay
        symbolic (CLP(R)-style output simplification).
        """
        body = self._body
        quantified = set(self._quantified)
        guard = current_context().guard
        changed = True
        while changed and quantified:
            changed = False
            for var in sorted(quantified, key=lambda v: v.name):
                if guard is not None:
                    guard.tick_canonical(fragment="existential-simplify")
                if var in body.columns:
                    col = body.columns.index(var)
                    relops = [row[2] for row in body.rows if col in row[0]]
                    if Relop.NE in relops:
                        continue
                    if Relop.EQ in relops:
                        body = projection_mod.eliminate_variable(body, var)
                    elif projection_mod.fm_growth(body, var) \
                            <= _SIMPLIFY_GROWTH_LIMIT:
                        body = projection_mod.prune_syntactic(
                            projection_mod.eliminate_variable(body, var))
                    else:
                        continue
                quantified.discard(var)
                changed = True
        return ExistentialConjunctiveConstraint(body, quantified)

    def eliminate_all(self) -> ConjunctiveConstraint:
        """Full quantifier elimination to a plain conjunction.

        Worst-case exponential (the cost the paper's design avoids
        paying by default; see experiment E9).  Disequalities on
        quantified variables are not expressible as a conjunction and
        raise :class:`ConstraintFamilyError`.
        """
        return projection_mod.project_conjunctive(
            self._body, self.free_variables)

    def to_disjunctive(self) -> DisjunctiveConstraint:
        """Eliminate all quantifiers, splitting disequalities as needed."""
        return DisjunctiveConstraint.of_conjunctive(self._body).project(
            self.free_variables)

    # -- satisfiability ------------------------------------------------------------

    def is_satisfiable(self) -> bool:
        return self._body.is_satisfiable()

    def sample_point(self) -> Mapping[Variable, Fraction] | None:
        """A sample of the *free* variables (witnesses are projected out)."""
        point = self._body.sample_point()
        if point is None:
            return None
        return {v: c for v, c in point.items() if v in self.free_variables}

    def holds_at(self, point: Mapping[Variable, RationalLike]) -> bool:
        """Truth at a point binding (at least) the free variables:
        satisfiability of the body with each free variable pinned to its
        value by an ``=`` row."""
        missing = self.free_variables - point.keys()
        if missing:
            raise KeyError(
                f"point does not bind {sorted(v.name for v in missing)}")
        columns, _ = column_union(self.free_variables)
        return self._body.conjoin(ConjunctiveConstraint.from_rows(columns, [
            ((j,), (1,), Relop.EQ, to_fraction(point[var]))
            for j, var in enumerate(columns)])).is_satisfiable()

    def entails(self, other: "ExistentialConjunctiveConstraint") -> bool:
        """``self |= other`` (sound and complete).

        The left prefix is universal-strengthened away (``exists x phi |=
        psi`` iff ``phi |= psi`` when ``x`` not free in ``psi`` — ensured
        by freshening); the right side must be quantifier-eliminated.
        """
        left = self.freshen(other.free_variables | other.quantified)
        right_dis = other.to_disjunctive()
        from repro.constraints import implication
        return implication.conjunctive_entails_disjunction(
            left._body, list(right_dis.disjuncts))

    # -- identity ------------------------------------------------------------------

    def _canonical_alpha(self) -> tuple:
        """Hash/eq key invariant under renaming of the quantifier
        prefix: the body with the quantified variables renamed to the
        first ``__q{i}__`` no free variable is named, and the set of
        those names.

        Placeholders go to the quantified variables in the order of a
        name-free signature (:func:`_signature`).  Variables whose
        signatures tie are tried in every order, and the renamed body
        whose sorted rows have the least :func:`row_key` sequence is the
        key — past :data:`_MAX_ORDERS` orders, tied variables keep name
        order."""
        if self._alpha is not None:
            return self._alpha
        body, quantified = self._body, self._quantified
        free = {var.name for var in self.free_variables}
        placeholders = list(itertools.islice(
            (Variable(name) for name in map(
                "__q{}__".format, itertools.count()) if name not in free),
            len(quantified)))
        names = ["" if var in quantified else var.name
                 for var in body.columns]
        signature = {var: _signature(body.rows, names, j)
                     for j, var in enumerate(body.columns)
                     if var in quantified}
        ordered = sorted(quantified,
                         key=lambda var: (signature[var], var.name))
        groups = [tuple(group) for _, group in itertools.groupby(
            ordered, key=signature.__getitem__)]
        if len(groups) == len(ordered) \
                or prod(map(factorial, map(len, groups))) > _MAX_ORDERS:
            orders: Iterable[Iterable[Variable]] = [ordered]
        else:
            orders = (itertools.chain.from_iterable(choice)
                      for choice in itertools.product(
                          *map(itertools.permutations, groups)))
        best = min((body.rename(dict(zip(order, placeholders)))
                    for order in orders),
                   key=lambda renamed: tuple([
                       row_key(renamed.columns, row)
                       for row in renamed.sorted_rows()]))
        self._alpha = best, frozenset(placeholders)
        return self._alpha

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExistentialConjunctiveConstraint):
            return NotImplemented
        return self._canonical_alpha() == other._canonical_alpha()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("ExistentialConjunctiveConstraint",)
                              + self._canonical_alpha())
        return self._hash

    def __repr__(self) -> str:
        return f"ExistentialConjunctiveConstraint({self})"

    def __str__(self) -> str:
        if not self._quantified:
            return str(self._body)
        names = ",".join(sorted(v.name for v in self._quantified))
        return f"exists {names} . ({self._body})"


class DisjunctiveExistentialConstraint:
    """A disjunction of existential conjunctive constraints.

    The most general of the paper's four families: includes all the
    others.  Closed under ``or`` and under projection that keeps every
    free variable free (projection may only *add* free variables — the
    condition that "avoids having existential quantification on a
    disjunctive existential constraint").
    """

    __slots__ = ("_disjuncts", "_hash")

    def __init__(self,
                 disjuncts: Iterable[ExistentialConjunctiveConstraint] = ()):
        cleaned: list[ExistentialConjunctiveConstraint] = []
        seen: set[ExistentialConjunctiveConstraint] = set()
        for d in disjuncts:
            d = _as_existential(d)
            if d.is_syntactically_false():
                continue
            if d.is_true():
                cleaned = [ExistentialConjunctiveConstraint.true()]
                seen = {cleaned[0]}
                break
            if d not in seen:
                seen.add(d)
                cleaned.append(d)
        self._disjuncts = tuple(cleaned)
        self._hash: int | None = None
        guard = current_context().guard
        if guard is not None:
            guard.note_disjuncts(len(self._disjuncts),
                                 fragment="disjunctive-existential")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def false(cls) -> "DisjunctiveExistentialConstraint":
        return cls(())

    @classmethod
    def true(cls) -> "DisjunctiveExistentialConstraint":
        return cls((ExistentialConjunctiveConstraint.true(),))

    @classmethod
    def of(cls, value) -> "DisjunctiveExistentialConstraint":
        """Lift any family member into disjunctive existential form."""
        if isinstance(value, DisjunctiveExistentialConstraint):
            return value
        if isinstance(value, DisjunctiveConstraint):
            return cls(ExistentialConjunctiveConstraint.of_conjunctive(d)
                       for d in value.disjuncts)
        return cls((_as_existential(value),))

    # -- inspection --------------------------------------------------------------

    @property
    def disjuncts(self) -> tuple[ExistentialConjunctiveConstraint, ...]:
        return self._disjuncts

    @property
    def free_variables(self) -> frozenset[Variable]:
        result: set[Variable] = set()
        for d in self._disjuncts:
            result.update(d.free_variables)
        return frozenset(result)

    variables = free_variables

    def is_syntactically_false(self) -> bool:
        return not self._disjuncts

    def is_true(self) -> bool:
        return any(d.is_true() for d in self._disjuncts)

    def __len__(self) -> int:
        return len(self._disjuncts)

    def __iter__(self) -> Iterator[ExistentialConjunctiveConstraint]:
        return iter(self._disjuncts)

    # -- logical operations ----------------------------------------------------------

    def disjoin(self, other) -> "DisjunctiveExistentialConstraint":
        other = DisjunctiveExistentialConstraint.of(other)
        return DisjunctiveExistentialConstraint(
            self._disjuncts + other._disjuncts)

    __or__ = disjoin

    def conjoin(self, other) -> "DisjunctiveExistentialConstraint":
        """Distributed conjunction.

        Not one of the paper's closure operations for this family, but
        semantically exact and needed by the query evaluator when
        composing CST formulas; family-discipline checking happens in
        :mod:`repro.constraints.families`.
        """
        other = DisjunctiveExistentialConstraint.of(other)
        return DisjunctiveExistentialConstraint(
            a.conjoin(b)
            for a, b in itertools.product(self._disjuncts, other._disjuncts))

    __and__ = conjoin

    def project(self, free: Iterable[Variable], *,
                allow_quantification: bool = True
                ) -> "DisjunctiveExistentialConstraint":
        """``((free) | self)``.

        With ``allow_quantification=False`` this is the paper's DEX
        projection: every currently-free variable must appear in
        ``free`` (the projection only adds variables), otherwise
        :class:`ConstraintFamilyError`.  With the default the operation
        quantifies disjunct-wise (still exact: projection distributes
        over union).
        """
        free_set = frozenset(free)
        hidden = self.free_variables - free_set
        if hidden and not allow_quantification:
            raise ConstraintFamilyError(
                "projection of a disjunctive existential constraint must "
                f"keep all free variables; would hide "
                f"{sorted(v.name for v in hidden)}")
        return DisjunctiveExistentialConstraint(
            d.project(free_set & d.free_variables) for d in self._disjuncts)

    def rename(self, mapping: Mapping[Variable, Variable]
               ) -> "DisjunctiveExistentialConstraint":
        return DisjunctiveExistentialConstraint(
            d.rename(mapping) for d in self._disjuncts)

    # -- satisfiability / entailment ------------------------------------------------

    def is_satisfiable(self) -> bool:
        return any(d.is_satisfiable() for d in self._disjuncts)

    def sample_point(self) -> Mapping[Variable, Fraction] | None:
        for d in self._disjuncts:
            point = d.sample_point()
            if point is not None:
                return {v: point.get(v, Fraction(0))
                        for v in self.free_variables}
        return None

    def holds_at(self, point: Mapping[Variable, RationalLike]) -> bool:
        return any(d.holds_at(point) for d in self._disjuncts)

    def entails(self, other) -> bool:
        """``self |= other`` — every disjunct must entail the right side."""
        other = DisjunctiveExistentialConstraint.of(other)
        rhs: list[ConjunctiveConstraint] = []
        for d in other._disjuncts:
            rhs.extend(d.to_disjunctive().disjuncts)
        from repro.constraints import implication
        for d in self._disjuncts:
            left = d.freshen(_all_vars(other))
            if not implication.conjunctive_entails_disjunction(
                    left.body, rhs):
                return False
        return True

    def to_disjunctive(self) -> DisjunctiveConstraint:
        """Full elimination into the (quantifier-free) disjunctive family."""
        result = DisjunctiveConstraint.false()
        for d in self._disjuncts:
            result = result.disjoin(d.to_disjunctive())
        return result

    # -- identity --------------------------------------------------------------------

    def sorted_disjuncts(self) -> tuple:
        return tuple(sorted(self._disjuncts, key=str))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DisjunctiveExistentialConstraint):
            return NotImplemented
        return (frozenset(self._disjuncts) == frozenset(other._disjuncts))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("DisjunctiveExistentialConstraint",
                               frozenset(self._disjuncts)))
        return self._hash

    def __repr__(self) -> str:
        return f"DisjunctiveExistentialConstraint({self})"

    def __str__(self) -> str:
        if not self._disjuncts:
            return "FALSE"
        return " or ".join(f"({d})" for d in self._disjuncts)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _signature(rows: Iterable[ExactRow], names: list[str],
               own: int) -> tuple:
    """The name-free signature of the quantified variable in column
    ``own``: the sorted keys of the rows it occurs in, each term keyed
    as (is another column, free variable's name or ``""``, coefficient)
    — so its own column and the other quantified ones (blank in
    ``names``) are told apart only by position — with ``=`` / ``!=``
    rows taken at their lesser sign."""
    keys = []
    for cols, coeffs, relop, bound in rows:
        if own not in cols:
            continue
        forms = [(tuple(sorted([(j != own, names[j], sign * coeff)
                                for j, coeff in zip(cols, coeffs)])),
                  relop.value, sign * bound)
                 for sign in ((1, -1) if relop is Relop.EQ
                              or relop is Relop.NE else (1,))]
        keys.append(min(forms))
    return tuple(sorted(keys))


def _as_existential(value) -> ExistentialConjunctiveConstraint:
    if isinstance(value, ExistentialConjunctiveConstraint):
        return value
    if isinstance(value, ConjunctiveConstraint):
        return ExistentialConjunctiveConstraint.of_conjunctive(value)
    if isinstance(value, LinearConstraint):
        return ExistentialConjunctiveConstraint.of_conjunctive(
            ConjunctiveConstraint.of(value))
    raise TypeError(
        f"cannot treat {value!r} as an existential conjunctive constraint")


def _fresh_variable(base: str, forbidden: set[Variable]) -> Variable:
    for i in itertools.count(1):
        candidate = Variable(f"{base}~{i}")
        if candidate not in forbidden:
            return candidate
    raise AssertionError("unreachable")


def _all_vars(dex: DisjunctiveExistentialConstraint) -> frozenset[Variable]:
    result: set[Variable] = set()
    for d in dex.disjuncts:
        result |= d.free_variables | d.quantified
    return frozenset(result)
