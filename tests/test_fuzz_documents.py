"""Property: a pair document read from JSON either inverts to a maximal
rigid object or is refused with a ValidationError, never another exception.

The documents start from real pair documents at ranks 1-5; hypothesis may
replace the header fields, add arbitrary arc strings, drop listed arcs,
replace the ray or coray indices and add a key that is not read, which
must be refused.  Every change shrinks back to the real document."""

import json
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tubecalc.arcs import Tube  # noqa: E402
from tubecalc.serialize import pair_from_doc, pair_to_doc  # noqa: E402
from tubecalc.torsion import (  # noqa: E402
    MaxRigid,
    ValidationError,
    enumerate_max_rigid,
    max_rigid_of,
    torsion_pair_of,
)

_endpoint = st.one_of(st.integers(min_value=-6, max_value=14).map(str), st.sampled_from(["inf", "-inf"]))
_arc = st.one_of(st.builds(lambda s, e: f"M[{s},{e}]", _endpoint, _endpoint), st.text(max_size=8))
_header = {
    "schema": st.one_of(
        st.integers(min_value=0, max_value=2), st.booleans(), st.integers(min_value=0, max_value=2).map(float)
    ),
    "rank": st.integers(min_value=-1, max_value=5),
    "kind": st.one_of(st.sampled_from(["ray", "coray"]), st.text(max_size=6)),
}
# (side or None for the top level, key): keys a pair document does not hold
_UNREAD = [(None, "junk"), (None, "summands"), ("torsion", "rays"), ("free", "corays"), ("free", "")]


@lru_cache(maxsize=None)
def _real_docs(n):
    tube = Tube(n)
    return [json.dumps(pair_to_doc(tube, torsion_pair_of(tube, u))) for u in enumerate_max_rigid(tube)]


@st.composite
def _pair_docs(draw):
    """A document, and the unread key added to it or None."""
    doc = json.loads(draw(st.sampled_from(_real_docs(draw(st.integers(min_value=1, max_value=5))))))
    changed = draw(st.sets(st.sampled_from([*_header, "torsion", "free"]), max_size=2))
    for key, values in _header.items():
        if key in changed:
            doc[key] = draw(values)
    for side, family in (("torsion", "corays"), ("free", "rays")):
        if side not in changed:
            continue
        part = doc[side]
        drop = draw(st.sets(st.integers(min_value=0, max_value=max(len(part["finite"]) - 1, 0)), max_size=2))
        part["finite"] = [s for k, s in enumerate(part["finite"]) if k not in drop]
        part["finite"] += draw(st.lists(_arc, max_size=2))
        part[family] = draw(
            st.one_of(st.just(part[family]), st.lists(st.integers(min_value=-2, max_value=7), max_size=6))
        )
    unread = draw(st.sampled_from(_UNREAD)) if draw(st.integers(min_value=0, max_value=3)) == 3 else None
    if unread:
        side, key = unread
        (doc if side is None else doc[side])[key] = draw(st.lists(st.integers(min_value=0, max_value=4)))
    return doc, unread


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_pair_docs())
def test_pair_document_inverts_or_is_refused(case):
    doc, unread = case
    try:
        tube, pair = pair_from_doc(doc)
        rigid = max_rigid_of(tube, pair)
    except ValidationError:
        return
    assert unread is None, unread
    assert isinstance(rigid, MaxRigid) and len(rigid.summands) == tube.n
