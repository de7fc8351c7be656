"""Office design: room layout, clearance and classification queries.

Run with::

    python examples/office_design.py

Builds a generated office (Figure 1 schema, a dozen placed objects),
then answers the designer questions from the paper's introduction:
which placed objects overlap, which desks keep their drawers clear of
the walls, a cut of the room at a given height-line, and a
constraint-parameterized view classifying objects by room region.
"""

from fractions import Fraction

from repro import lyric
from repro.constraints.atoms import Eq, Ge, Le
from repro.constraints.cst_object import CSTObject
from repro.constraints.parser import parse_cst
from repro.constraints.terms import Variable
from repro.workloads import office


def box(schema, bounds) -> CSTObject:
    """The axis-aligned box ``lo_i <= x_i <= hi_i`` over ``schema``."""
    return CSTObject.from_atoms(schema, [
        atom for var, (lo, hi) in zip(schema, bounds)
        for atom in (Ge(var, lo), Le(var, hi))])


def cut(obj: CSTObject, var: Variable, value, remaining) -> CSTObject:
    """The cross-section of ``obj`` at ``var = value``, projected onto
    ``remaining``: the paper's "projection of their cut" query shape."""
    return obj.conjoin_atoms([Eq(var, value)]).project(remaining)


def main() -> None:
    workload = office.generate(8, seed=11)
    db = workload.db
    print(f"Generated office with {len(workload.placed)} placed "
          f"objects in a {workload.room_width} x "
          f"{workload.room_height} room")

    print("\n[1] Placed extents (local extent + translation + "
          "location):")
    result = lyric.query(db, office.PLACED_EXTENT_QUERY)
    for row in list(result)[:4]:
        print(f"    {row.values[0]}: {row.values[1]}")
    print(f"    ... {len(result)} objects total")

    print("\n[2] Overlapping pairs (SAT join):")
    overlaps = lyric.query(db, office.OVERLAP_QUERY)
    if overlaps:
        for row in overlaps:
            print(f"    {row.values[0]} overlaps {row.values[1]}")
    else:
        print("    none - the generator places objects on a grid")

    print("\n[3] Desks whose drawer sweep stays strictly inside the "
          "room (entailment):")
    clear = lyric.query(db, f"""
        SELECT DSK
        FROM Object_in_Room O, Desk DSK
        WHERE O.catalog_object[DSK] and O.location[L]
          and DSK.drawer_center[C] and DSK.translation[D]
          and DSK.drawer.extent[DRE] and DSK.drawer.translation[DRD]
          and ((L(x,y) and C(p,q) and DRE(w1,z1)
                and DRD(w1,z1,x1,y1,u1,v1) and D(w,z,x,y,u,v)
                and w = u1 and z = v1)
               |= ((u,v) | 0 < u < {workload.room_width}
                   and 0 < v < {workload.room_height}))
    """)
    print(f"    {len(clear)} of {len(db.extent('Desk'))} desks")

    print("\n[4] Where could one more 4 x 4 desk go? Free space as a "
          "constraint:")
    # The room minus the bounding boxes of placed objects, shrunk by
    # the new desk's half-extent (2 feet): a disjunction is the honest
    # answer; here we report per-object exclusion constraints.
    result = lyric.query(db, office.PLACED_EXTENT_QUERY)
    extents = [row.values[1].cst for row in result]
    candidate = parse_cst(
        f"((u,v) | 2 <= u <= {workload.room_width - 2} "
        f"and 2 <= v <= {workload.room_height - 2})")
    free_count = 0
    for gx in range(4, workload.room_width - 2, 6):
        for gy in range(4, workload.room_height - 2, 6):
            if not candidate.contains_point(gx, gy):
                continue
            inflated_hit = any(
                extent.intersect(box(
                    extent.schema, [(gx - 2, gx + 2), (gy - 2, gy + 2)])
                ).is_satisfiable()
                for extent in extents)
            if not inflated_hit:
                free_count += 1
    print(f"    {free_count} candidate grid positions keep 4 x 4 feet "
          "clear of every placed object")

    print("\n[5] Cut at the line v = 5 (the paper's 'projection of "
          "their cut' query):")
    u, v = Variable("u"), Variable("v")
    for row in list(lyric.query(db, office.PLACED_EXTENT_QUERY))[:3]:
        placed = row.values[1].cst
        section = cut(placed, v, Fraction(5), [u])
        status = "crosses" if section.is_satisfiable() else "misses"
        print(f"    {row.values[0]} {status} the v = 5 line: "
              f"{section}")

    print("\n[6] Classifying placed objects by room half (a "
          "constraint-parameterized view):")
    db.add_cst_instance(
        "Region",
        parse_cst(f"((x,y) | 0 <= x <= {workload.room_width // 2} "
                  f"and 0 <= y <= {workload.room_height})"),
        {"region_name": "west"})
    db.add_cst_instance(
        "Region",
        parse_cst(f"((x,y) | {workload.room_width // 2} <= x "
                  f"<= {workload.room_width} "
                  f"and 0 <= y <= {workload.room_height})"),
        {"region_name": "east"})
    created = lyric.view(db, """
        CREATE VIEW ByRegion AS SUBCLASS OF Object_in_Room
        SELECT ByRegion, Y
        FROM Object_in_Room Y, Region ByRegion
        WHERE Y.location[L] and Y.catalog_object[CO]
          and CO.extent[E] and CO.translation[D]
          and (((u,v) | E and D and L(x,y)) |= ByRegion(u,v))
    """)
    for class_name in created.classes:
        members = created.instances[class_name]
        print(f"    {class_name}: {len(members)} objects")


if __name__ == "__main__":
    main()
