"""The arcs of a wing, listed one by one: what the wing tests compare the
library's wing decomposition with."""


def wing_members(tube, i: int, t: int) -> frozenset:
    """All arcs [a,b] with i <= a and b <= i+t; empty for t <= 1."""
    return frozenset(
        tube.normalize(a, b) for a in range(i, i + t - 1) for b in range(a + 2, i + t + 1)
    )
