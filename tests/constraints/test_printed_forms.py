"""Every printed form is pinned byte for byte.

Section 3.1 makes an object's canonical form its identity, and every
store file, wire frame and oid is printed from it, so a change to how
atoms are held or normalized must not move one byte of what is printed.
``fixtures/printed_forms.txt`` holds, one line each, the ``str``, the
``oid_text()`` and the ``dump_oid`` payload of every CST value the
``repro.workloads`` realms build, and of each ``random_constraints``
generator at fixed seeds, raw and after ``canonicalize``.

Regenerate it (only when a printed form is meant to change, and say
which lines moved) with::

    PYTHONPATH=src:. python -m tests.constraints.test_printed_forms
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.constraints.canonical import canonicalize
from repro.constraints.cst_object import CSTObject
from repro.model.oid import CstOid
from repro.model.serialize import dump_oid
from repro.workloads import (
    manufacturing,
    mda,
    office,
    random_constraints as rc,
    temporal,
)

FIXTURE = Path(__file__).parent / "fixtures" / "printed_forms.txt"
ROOT = Path(__file__).resolve().parents[2]
SEEDS = range(4)


def _payload(cst: CSTObject) -> str:
    return json.dumps(dump_oid(CstOid(cst)), sort_keys=True)


def _workload_lines():
    databases = {
        "office": office.generate(6, seed=1).db,
        "mda": mda.generate(5, 4, seed=0).db,
        "temporal": temporal.generate(2, 4, 3, seed=0).db,
        "manufacturing": manufacturing.generate(3, seed=0).db,
    }
    for realm, db in databases.items():
        for obj in sorted(db.objects(), key=lambda o: str(o.oid)):
            for attribute in sorted(obj.attribute_names):
                for value in sorted(obj.values(attribute), key=str):
                    if not isinstance(value, CstOid):
                        continue
                    label = f"{realm} {obj.oid}.{attribute}"
                    cst = value.cst
                    yield f"{label} str", str(cst)
                    yield f"{label} oid_text", cst.oid_text()
                    yield f"{label} dump_oid", _payload(cst)


def _generated():
    """(label, constraint) for each generator at each fixed seed."""
    from tests.model.test_serialize_roundtrip import family_constraint
    for seed in SEEDS:
        yield f"random_polytope {seed}", rc.random_polytope(2, 3, seed)
        for i, box in enumerate(rc.scattered_boxes(2, 2, seed)):
            yield f"scattered_boxes {seed}.{i}", box
        for i, poly in enumerate(rc.overlapping_polytopes(2, 2, 3, seed)):
            yield f"overlapping_polytopes {seed}.{i}", poly
        yield f"random_infeasible {seed}", rc.random_infeasible(2, 3, seed)
        yield f"random_dnf {seed}", rc.random_dnf(2, 3, 3, seed, 0.3)
        yield f"dense_system {seed}", rc.dense_system(3, seed=seed)
        yield (f"chained_projection_system {seed}",
               rc.chained_projection_system(3, seed))
        yield (f"redundant_conjunction {seed}",
               rc.redundant_conjunction(2, 3, 2, seed))
        for family in ("existential", "dex"):
            yield f"{family} {seed}", family_constraint(family, seed)


def _generator_lines():
    for label, constraint in _generated():
        canonical = canonicalize(constraint)
        yield f"{label} raw", str(constraint)
        yield f"{label} canonical", str(canonical)
        schema = sorted(_free(constraint), key=lambda v: v.name)
        cst = CSTObject(schema, constraint)
        yield f"{label} oid_text", cst.oid_text()
        yield f"{label} dump_oid", _payload(cst)


def _free(constraint):
    if hasattr(constraint, "free_variables"):
        return constraint.free_variables
    return constraint.variables


def printed_forms() -> str:
    lines = [f"{label}\t{text}" for source in (_workload_lines(),
                                               _generator_lines())
             for label, text in source]
    return "\n".join(lines) + "\n"


def test_printed_forms_match_the_fixture():
    assert printed_forms() == FIXTURE.read_text()


def test_printed_forms_do_not_depend_on_the_hash_seed():
    env = dict(os.environ, PYTHONHASHSEED="4242",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from tests.constraints.test_printed_forms import "
         "printed_forms; sys.stdout.write(printed_forms())"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        timeout=120)
    assert out.stdout == FIXTURE.read_text()


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(printed_forms())
