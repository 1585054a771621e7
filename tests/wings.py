"""The arcs of a wing, listed one by one, and the other wing-level
definitions that only the tests read: what the wing tests compare the
library's wing decomposition with."""

from tubecalc import torsion


def wing_members(tube, i: int, t: int) -> frozenset:
    """All arcs [a,b] with i <= a and b <= i+t; empty for t <= 1."""
    return frozenset(
        tube.normalize(a, b) for a in range(i, i + t - 1) for b in range(a + 2, i + t + 1)
    )


def fan(tube, anchor: int, longest: int, at_end: bool = False) -> list:
    """The canonical arcs that start at ``anchor`` (or end at residue
    ``anchor`` if at_end) with span end - start from 2 to longest, in that
    order: one row of the tube's fan table."""
    return tube.fans({anchor: longest}, at_end)


def prufer_type_rigids(tube, indices) -> list:
    """All Prufer-type maximal rigid objects with exactly the given starts."""
    return list(torsion._iter_prufer_type(tube, indices))
