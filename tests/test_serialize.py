import json
import re

import pytest

from tubecalc.arcs import Tube
from tubecalc.serialize import (
    format_desc,
    pair_from_doc,
    pair_to_doc,
    rigid_from_doc,
    rigid_to_doc,
)
from tubecalc.torsion import (
    ValidationError,
    empty_desc,
    enumerate_max_rigid,
    everything,
    torsion_pair_of,
)


@pytest.mark.parametrize("n", range(1, 6))
def test_pair_doc_round_trip(n):
    tube = Tube(n)
    for u in enumerate_max_rigid(tube):
        pair = torsion_pair_of(tube, u)
        doc = pair_to_doc(tube, pair)
        assert doc["schema"] == 1
        text = json.dumps(doc, sort_keys=True)
        tube2, pair2 = pair_from_doc(json.loads(text))
        assert tube2.n == n and pair2 == pair


@pytest.mark.parametrize("n", range(1, 6))
def test_rigid_doc_round_trip(n):
    tube = Tube(n)
    for u in enumerate_max_rigid(tube):
        doc = rigid_to_doc(tube, u)
        tube2, u2 = rigid_from_doc(json.loads(json.dumps(doc)))
        assert tube2.n == n and u2 == u


def test_everything_survives_round_trip():
    t3 = Tube(3)
    from tubecalc.torsion import RAY, TorsionPair

    pair = TorsionPair(empty_desc(t3), everything(t3), RAY)
    _, back = pair_from_doc(pair_to_doc(t3, pair))
    assert back == pair
    assert back.f_part.corays == frozenset(range(3))


def test_schema_checked():
    with pytest.raises(ValidationError):
        pair_from_doc({"schema": 2})
    with pytest.raises(ValidationError):
        rigid_from_doc({"schema": None})


def test_kind_checked():
    t2 = Tube(2)
    doc = pair_to_doc(t2, torsion_pair_of(t2, enumerate_max_rigid(t2)[0]))
    doc["kind"] = "sideways"
    with pytest.raises(ValidationError):
        pair_from_doc(doc)


def test_format_desc():
    t2 = Tube(2)
    assert format_desc(empty_desc(t2)) == "0"
    assert "rays[0,1]" in format_desc(everything(t2))


@pytest.mark.parametrize(
    "doc,key",
    [
        ({"schema": 1, "rank": "2"}, "rank"),
        ({"schema": 1, "rank": 2, "kind": ["ray"]}, "kind"),
        ({"schema": 1, "rank": 2, "kind": "ray", "torsion": {"finite": [], "corays": []}}, "free"),
        ({"schema": 1, "rank": 2, "kind": "ray", "torsion": [],
          "free": {"finite": [], "rays": [0]}}, "torsion"),
        ({"schema": 1, "rank": 2, "kind": "ray", "torsion": {"finite": [3], "corays": []},
          "free": {"finite": [], "rays": [0]}}, "torsion.finite"),
        ({"schema": 1, "rank": 2, "kind": "ray", "torsion": {"finite": [], "corays": []},
          "free": {"finite": [], "rays": [True]}}, "free.rays"),
    ],
)
def test_malformed_pair_doc(doc, key):
    with pytest.raises(ValidationError, match=re.escape(repr(key))):
        pair_from_doc(doc)


@pytest.mark.parametrize(
    "doc",
    [
        "prufer",
        {"schema": 1, "rank": 2, "kind": "prufer"},
        {"schema": 1, "rank": 2, "kind": "prufer", "summands": "M[0,inf]"},
        {"schema": 1, "rank": 2, "kind": "prufer", "summands": [["M[0,inf]"]]},
    ],
)
def test_malformed_rigid_doc(doc):
    with pytest.raises(ValidationError):
        rigid_from_doc(doc)
