"""``count_max_rigid`` against the dynamic programme it replaced.

The reference below is the old code, copied unchanged: a DP over the
cyclic gaps between Prufer indices, O(n^2) big-integer operations to reach
rank n.  The new code returns C(2n, n), with the proof in its docstring.
They must agree at every rank the old code answered, up to its bound of
1000, where the DP takes about half a second.
"""

import itertools
from typing import Iterator

from tubecalc.arcs import Tube
from tubecalc.torsion import MAX_COUNT_RANK, count_max_rigid

OLD_MAX_COUNT_RANK = 1000

# -- reference ---------------------------------------------------------------------


def max_rigid_counts() -> Iterator[int]:
    """The number of maximal rigid objects of the tubes of rank 1, 2, 3, ...
    in turn, without building an object.

    A Prufer-type object cuts the n marked points into cyclic gaps g
    between consecutive Prufer indices, with one of Catalan(g-1) tilting
    sets of A_{g-1} in each wing; reflection pairs it with an adic-type one.
    ``linear[m]`` counts the weighted gap sequences of m points on a line,
    and the gap that holds the point 0 has g possible positions, so rank n
    weighs the terms of ``linear[n]`` by g.
    """
    catalan, linear = [], [1]
    while True:
        k = len(catalan)
        catalan.append(catalan[-1] * 2 * (2 * k - 1) // (k + 1) if k else 1)
        terms = [catalan[g - 1] * linear[k + 1 - g] for g in range(1, k + 2)]
        linear.append(sum(terms))
        yield 2 * sum(g * t for g, t in enumerate(terms, 1))


# -- comparison --------------------------------------------------------------------


def test_every_rank_up_to_the_old_bound():
    assert MAX_COUNT_RANK >= OLD_MAX_COUNT_RANK
    old = itertools.islice(max_rigid_counts(), OLD_MAX_COUNT_RANK)
    for n, count in enumerate(old, 1):
        assert count_max_rigid(Tube(n)) == count, n
