"""The universal cover, as only the tests read it: the lifts of an arc,
which the tests feed back to ``Tube.normalize`` and the segment model."""


def lift(tube, obj, k: int = 0) -> tuple:
    """The k-th lift of the arc to the universal cover, as a raw pair."""
    kn = k * tube.n
    return (
        None if obj.start is None else obj.start + kn,
        None if obj.end is None else obj.end + kn,
    )
