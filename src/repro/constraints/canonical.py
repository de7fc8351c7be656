"""Canonical forms of constraints — the logical oids of CST objects.

Section 3.1 (following [BJM93]) chooses a canonical form computed by
simplification and redundancy removal, with a deliberate cost cut-off:

* detecting redundant *disjuncts* is co-NP-complete [Sri92], so
  disjunctions only get (1) deletion of each inconsistent disjunct and
  (2) deletion of syntactic duplicates;
* quantifier elimination can explode, so only *simplifying* eliminations
  are performed (see
  :meth:`repro.constraints.existential.ExistentialConjunctiveConstraint.simplify`);
* conjunctions "offer the greatest scope": we normalize atoms, collapse
  unsatisfiable conjunctions to FALSE, and remove LP-redundant atoms.

The *canonical key* additionally alpha-renames variables to positional
names, implementing the paper's requirement that CST expressions "are
invariant to variable names" — two constraints with the same canonical
key denote the same CST object and therefore the same logical oid.
"""

from __future__ import annotations

from typing import Sequence

from repro.constraints import implication
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.existential import (
    DisjunctiveExistentialConstraint,
    ExistentialConjunctiveConstraint,
)
from repro.constraints.terms import Variable
from repro.runtime import context as context_mod
from repro.runtime.context import QueryContext


def canonical_conjunctive(conj: ConjunctiveConstraint,
                          remove_redundant: bool = True,
                          ctx: QueryContext | None = None
                          ) -> ConjunctiveConstraint:
    """Canonical form of a conjunction.

    Unsatisfiable conjunctions collapse to the canonical FALSE; with
    ``remove_redundant`` each row implied by the others is dropped
    (one LP check per row — polynomially many simplex runs).  The
    result is memoized on the conjunction itself (its column names and
    set of rows): canonical keys are the paper's logical oids and are
    recomputed per join row, so this is the single hottest cache entry
    point.
    """
    if conj.is_true():
        return conj
    resolved = context_mod.resolve(ctx)
    return resolved.memoized(
        ("canon", conj, remove_redundant),
        lambda: _canonical_conjunctive(conj, remove_redundant, resolved))


def _canonical_conjunctive(conj: ConjunctiveConstraint,
                           remove_redundant: bool,
                           ctx: QueryContext
                           ) -> ConjunctiveConstraint:
    if not conj.is_satisfiable(ctx):
        return ConjunctiveConstraint.false()
    if not remove_redundant:
        return conj
    columns = conj.columns
    rows = conj.sorted_rows()
    kept: list = []
    guard = ctx.guard
    # A single backward pass relative to the full remaining context keeps
    # the result order-independent: a row is dropped iff implied by
    # (kept so far) + (not yet examined).
    for i, row in enumerate(rows):
        if guard is not None:
            guard.tick_canonical()
        context = ConjunctiveConstraint.from_rows(columns,
                                                  kept + rows[i + 1:])
        if not implication.atom_redundant_in(
                ConjunctiveConstraint.from_rows(columns, (row,)), context,
                ctx):
            kept.append(row)
    return ConjunctiveConstraint.from_rows(columns, kept)


def canonical_disjunctive(dis: DisjunctiveConstraint,
                          remove_redundant_atoms: bool = True,
                          ctx: QueryContext | None = None
                          ) -> DisjunctiveConstraint:
    """The paper's two always-on disjunction simplifications, plus
    per-disjunct conjunction canonicalization.

    Redundant *disjuncts* (those implied by the union of the others) are
    deliberately **not** removed — co-NP-complete per [Sri92].
    """
    ctx = context_mod.resolve(ctx)
    canonical = []
    guard = ctx.guard
    for d in dis.disjuncts:
        if guard is not None:
            guard.tick_canonical()
        c = canonical_conjunctive(d, remove_redundant=remove_redundant_atoms,
                                  ctx=ctx)
        if not c.is_syntactically_false():
            canonical.append(c)
    # The DisjunctiveConstraint constructor removes syntactic duplicates.
    return DisjunctiveConstraint(canonical)


def remove_subsumed_disjuncts(dis: DisjunctiveConstraint,
                              ctx: QueryContext | None = None
                              ) -> DisjunctiveConstraint:
    """Delete disjuncts implied by the union of the others.

    This is the operation the paper's canonical form deliberately
    *excludes* — "detecting redundant disjuncts is a co-NP-complete
    problem [Sri92]" — provided as an explicit opt-in for callers that
    want minimal representations and can afford the entailment checks
    (exponential in the disjunction size in the worst case).
    """
    ctx = context_mod.resolve(ctx)
    kept = list(dis.disjuncts)
    guard = ctx.guard
    i = 0
    while i < len(kept):
        if guard is not None:
            guard.tick_canonical()
        candidate = kept[i]
        others = kept[:i] + kept[i + 1:]
        if others and implication.conjunctive_entails_disjunction(
                candidate, others, ctx):
            kept.pop(i)
            continue
        i += 1
    return DisjunctiveConstraint(kept)


def canonical_existential(ex: ExistentialConjunctiveConstraint,
                          ctx: QueryContext | None = None
                          ) -> ExistentialConjunctiveConstraint:
    """Simplifying eliminations + canonical body, until simplifying the
    canonical body eliminates nothing (a fixed point of
    :func:`canonicalize`): dropping redundant atoms can make another
    elimination simplifying.  One pass per eliminated variable, and one."""
    ctx = context_mod.resolve(ctx)
    simplified = ex.simplify()
    while True:
        ex = ExistentialConjunctiveConstraint(
            canonical_conjunctive(simplified.body, ctx=ctx),
            simplified.quantified)
        simplified = ex.simplify()
        if simplified.quantified == ex.quantified:
            return ex


def canonical_dex(dex: DisjunctiveExistentialConstraint,
                  ctx: QueryContext | None = None
                  ) -> DisjunctiveExistentialConstraint:
    ctx = context_mod.resolve(ctx)
    return DisjunctiveExistentialConstraint(
        canonical_existential(d, ctx) for d in dex.disjuncts)


def canonicalize(constraint, ctx: QueryContext | None = None):
    """Canonical form of any family member.

    The result is *lowered* to the most specific family that can
    represent it (a quantifier-free existential becomes a plain
    conjunction, a one-disjunct disjunction becomes its disjunct, ...)
    so that equal point sets built through different constructors
    produce the same canonical object and hence the same logical oid.
    """
    ctx = context_mod.resolve(ctx)
    if isinstance(constraint, ConjunctiveConstraint):
        return canonical_conjunctive(constraint, ctx=ctx)
    if isinstance(constraint, DisjunctiveConstraint):
        return lower(canonical_disjunctive(constraint, ctx=ctx))
    if isinstance(constraint, ExistentialConjunctiveConstraint):
        return lower(canonical_existential(constraint, ctx))
    if isinstance(constraint, DisjunctiveExistentialConstraint):
        return lower(canonical_dex(constraint, ctx))
    raise TypeError(f"not a constraint: {constraint!r}")


def lower(constraint):
    """Rewrite a constraint into the most specific family representing
    it syntactically (no satisfiability reasoning beyond what the
    canonical formers already did)."""
    if isinstance(constraint, ExistentialConjunctiveConstraint):
        if constraint.is_quantifier_free():
            return constraint.body
        return constraint
    if isinstance(constraint, DisjunctiveConstraint):
        if len(constraint) == 0:
            return ConjunctiveConstraint.false()
        if len(constraint) == 1:
            return constraint.disjuncts[0]
        return constraint
    if isinstance(constraint, DisjunctiveExistentialConstraint):
        lowered = [lower(d) for d in constraint.disjuncts]
        if not lowered:
            return ConjunctiveConstraint.false()
        if len(lowered) == 1:
            return lowered[0]
        if all(isinstance(d, ConjunctiveConstraint) for d in lowered):
            return DisjunctiveConstraint(lowered)
        return constraint
    return constraint


def seed_canonical(constraint, ctx: QueryContext | None = None) -> None:
    """Enter each conjunction of a quantifier-free constraint *known*
    to be canonical in the memo as its own canonical form — what
    canonicalising it would have left there, without the solving."""
    cache = context_mod.resolve(ctx).cache
    if cache is None:
        return
    for conj in (constraint.disjuncts
                 if isinstance(constraint, DisjunctiveConstraint)
                 else (constraint,)):
        if not conj.is_true():
            cache.store(("canon", conj, True), conj)


def canonical_key(constraint, schema: Sequence[Variable],
                  ctx: QueryContext | None = None,
                  canonical: bool = False) -> tuple:
    """Alpha-invariant identity key of a constraint under a variable
    schema (the ordered tuple of its CST dimensions).

    Variables are renamed positionally (schema variable i becomes
    ``_i``), so two CST objects that differ only in variable names get
    equal keys — the invariance Section 4.1 requires of logical oids.
    ``canonical`` says the constraint is a quantifier-free canonical
    form: irredundancy is invariant under a bijective renaming, so its
    key is the renamed constraint and nothing is solved.
    """
    resolved = context_mod.resolve(ctx)
    try:
        return resolved.memoized(
            ("key", type(constraint).__name__, constraint,
             tuple(v.name for v in schema)),
            lambda: _canonical_key(constraint, schema, resolved, canonical))
    except TypeError:
        # Unhashable constraint content — compute without memoizing.
        return _canonical_key(constraint, schema, resolved, canonical)


def _canonical_key(constraint, schema: Sequence[Variable],
                   ctx: QueryContext, canonical: bool = False) -> tuple:
    mapping = {var: Variable(f"_{i}") for i, var in enumerate(schema)}
    if canonical:
        renamed = constraint.rename(mapping)
    else:
        renamed = canonicalize(
            canonicalize(constraint, ctx).rename(mapping), ctx)
    if isinstance(renamed, ConjunctiveConstraint):
        return ("conj", renamed)
    if isinstance(renamed, DisjunctiveConstraint):
        return ("dis", frozenset(renamed.disjuncts))
    if isinstance(renamed, ExistentialConjunctiveConstraint):
        return ("ex", renamed._canonical_alpha())
    if isinstance(renamed, DisjunctiveExistentialConstraint):
        return ("dex", frozenset(renamed.disjuncts))
    raise TypeError(f"not a constraint: {renamed!r}")
