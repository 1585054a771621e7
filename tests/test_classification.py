"""Every torsion class of the tube, found from the definitions: the paper's
classification as an executable check, with no bijection in the search.

A torsion class is quotient-closed, and one with a ray holds every arc,
since each arc is a quotient of a ray member; so the whole tube is the one
class with a ray.  One without rays is fixed, per end residue r, by one of
three choices: no arc ends at r, the arcs ending at r span 2..L for a
longest span L of 2..K, or r is a coray.  The search keeps the candidates
that ``is_quotient_closed`` and the crossing walk ``is_ext_closed`` accept,
adds the whole tube, and must find exactly the torsion sides of the pairs
that ``torsion_pair_of`` gives the objects of ``enumerate_max_rigid``:
C(2n, n) classes.  With K = n no candidate lists a span past n; with
K = 2n the span guard of ``is_ext_closed`` refuses those.

The mirror holds too: per start residue, no arc, spans 2..L, or a ray,
kept by ``is_sub_closed`` and the walk, give exactly the free sides; and
the right perp of each torsion class is its free side.

Standard library only.
"""

import itertools

import pytest

from tubecalc.arcs import Tube
from tubecalc.torsion import (
    enumerate_max_rigid,
    everything,
    is_ext_closed,
    is_quotient_closed,
    is_sub_closed,
    make_desc,
    right_perp,
    torsion_pair_of,
)

CASES = [(n, n) for n in range(1, 6)] + [(n, 2 * n) for n in range(1, 5)]


def classes(tube: Tube, longest: int, quotients: bool) -> set:
    """The candidates that pass the closure checks, and the whole tube:
    per residue no arc, spans 2..L at that end (``quotients``) or start for
    L = 2..``longest``, or a coray (a ray)."""
    n = tube.n
    closed = is_quotient_closed if quotients else is_sub_closed
    found = {everything(tube)}
    for picks in itertools.product([0, None, *range(2, longest + 1)], repeat=n):
        arcs = [
            tube.finite(r - d, r) if quotients else tube.finite(r, r + d)
            for r, top in enumerate(picks) if top
            for d in range(2, top + 1)
        ]
        family = [r for r, top in enumerate(picks) if top is None]
        desc = make_desc(tube, arcs, corays=family) if quotients else make_desc(tube, arcs, rays=family)
        if closed(tube, desc) and is_ext_closed(tube, desc):
            found.add(desc)
    return found


@pytest.fixture(scope="module")
def pairs():
    """{n: the torsion pairs of the maximal rigid objects at rank n}."""
    return {n: [torsion_pair_of(Tube(n), u) for u in enumerate_max_rigid(Tube(n))] for n in range(1, 6)}


@pytest.mark.parametrize("n, longest", CASES)
def test_torsion_classes_are_the_torsion_sides(pairs, n, longest):
    tube = Tube(n)
    found = classes(tube, longest, quotients=True)
    assert found == {p.t_part for p in pairs[n]}
    free_of = {p.t_part: p.f_part for p in pairs[n]}
    assert len(free_of) == len(pairs[n])
    for t_part in found:
        assert right_perp(tube, t_part) == free_of[t_part]


@pytest.mark.parametrize("n, longest", CASES)
def test_torsionfree_classes_are_the_free_sides(pairs, n, longest):
    assert classes(Tube(n), longest, quotients=False) == {p.f_part for p in pairs[n]}
