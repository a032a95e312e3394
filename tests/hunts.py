"""Every hit of a hunt's scan, for the differential tests.

``manipulation.find_witness`` stops at the first hit of ``engine.scan``.
These helpers set a hunt up the same way on any lattice and read every
hit, in order, so the tests can check the whole stream against
``oracle.iter_witnesses``.
"""

from binagg import engine, manipulation
from binagg.aggregators import lattice_rows, lattice_table


def hunt_source(space, rule, lattice, kind, weights):
    """(outcome values, type source, predicate) of a hunt over the lattice, as ``find_witness`` sets
    them up: an nn(...) rule's pivot types, or the context rows of the rule's outcome table."""
    if manipulation._walks_types(rule):
        hit = manipulation._hit_fn(space, space.feasible, kind, weights)
        return space.feasible, manipulation._pivot_types(space, rule, lattice, kind, weights, hit), hit
    table = lattice_table(space, rule, lattice)
    hit = manipulation._hit_fn(space, table.values, kind, weights)
    return table.values, engine.context_types(lattice, table, hit), hit


def every_witness(space, rule, n, kind, weights=None):
    """Every witness of the kind in canonical order: each hit of ``engine.scan`` over every ordered profile."""
    w = manipulation._validate_kind(kind, weights, space.m)
    lattice = engine.ProfileLattice(space.size, n)
    values, typed, hit = hunt_source(space, rule, lattice, kind, w)
    for block in engine.scan(lattice, typed, hit):
        for pid, i, y, z, lied in zip(*(a.tolist() for a in block)):
            rows = lattice_rows(space, lattice, pid)
            yield manipulation.ManipulationWitness(space.m, rows, i + 1, space.feasible[y], values[z], values[lied], kind, w)
