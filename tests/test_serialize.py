import json
import re

import pytest

from tubecalc.arcs import IndObj, Tube, format_obj, sort_key
from tubecalc.serialize import (
    format_desc,
    pair_from_doc,
    pair_to_doc,
    rigid_to_doc,
)
from tube_defs import rigid_from_doc
from tubecalc.torsion import (
    ADIC,
    PRUFER,
    MaxRigid,
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
    u = enumerate_max_rigid(t2)[0]
    pair = torsion_pair_of(t2, u)
    doc = pair_to_doc(t2, pair)
    doc["kind"] = "sideways"
    with pytest.raises(ValidationError, match="^unknown pair kind 'sideways'$"):
        pair_from_doc(doc)
    # refused on write too, with the reader's message
    with pytest.raises(ValidationError, match="^unknown pair kind 'sideways'$"):
        pair_to_doc(t2, pair._replace(kind="sideways"))
    with pytest.raises(ValidationError, match="^unknown rigid kind 'sideways'$"):
        rigid_to_doc(t2, u._replace(kind="sideways"))


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
        ({"schema": 1, "rank": 2, "kind": "ray", "torsion": {"finite": [], "corays": []},
          "free": {"finite": [], "rays": [7]}}, "free.rays"),
        ({"schema": 1, "rank": 2, "kind": "ray", "torsion": {"finite": [], "corays": []},
          "free": {"finite": [], "rays": [-1]}}, "free.rays"),
        ({"schema": 1, "rank": 2, "kind": "ray", "torsion": {"finite": [], "corays": []},
          "free": {"finite": [], "rays": [0, 0]}}, "free.rays"),
        ({"schema": 1, "rank": 2, "kind": "coray", "torsion": {"finite": [], "corays": [2]},
          "free": {"finite": [], "rays": []}}, "torsion.corays"),
        ({"schema": 1, "rank": 0, "kind": "ray"}, "rank"),
        ({"schema": 1, "rank": 2, "kind": "ray", "torsion": {"finite": ["M[0,1]"], "corays": []},
          "free": {"finite": [], "rays": [0]}}, "torsion.finite"),
        ({"schema": 1, "rank": 2, "kind": "ray", "torsion": {"finite": ["M[1,\u0663]"], "corays": []},
          "free": {"finite": [], "rays": [0]}}, "torsion.finite"),
        # a valid pair but for its schema: JSON true and 1.0 compare equal to 1
        ({"schema": True, "rank": 2, "kind": "ray", "torsion": {"finite": ["M[1,3]"], "corays": []},
          "free": {"finite": [], "rays": [0]}}, "schema"),
        ({"schema": 1.0, "rank": 2, "kind": "ray", "torsion": {"finite": ["M[1,3]"], "corays": []},
          "free": {"finite": [], "rays": [0]}}, "schema"),
        # a valid pair but for a key that is not read
        ({"schema": 1, "rank": 2, "kind": "ray", "torsion": {"finite": ["M[1,3]"], "corays": []},
          "free": {"finite": [], "rays": [0]}, "junk": 7}, "junk"),
        ({"schema": 1, "rank": 2, "kind": "ray", "torsion": {"finite": ["M[1,3]"], "corays": [], "rays": []},
          "free": {"finite": [], "rays": [0]}}, "torsion.rays"),
        ({"schema": 1, "rank": 2, "kind": "ray", "torsion": {"finite": ["M[1,3]"], "corays": []},
          "free": {"finite": [], "rays": [0], "corays": []}}, "free.corays"),
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
        {"schema": 1, "rank": 2, "kind": "prufer", "summands": ["M[0,inf]", "M[zero,2]"]},
    ],
)
def test_malformed_rigid_doc(doc):
    with pytest.raises(ValidationError):
        rigid_from_doc(doc)


class TestRigidDocuments:
    def test_summands_in_sort_key_order(self):
        # no maximal rigid object mixes the families, but the writer takes
        # any summands: finite arcs, then Prufers by start, then adics by end
        summands = frozenset([
            IndObj(None, 0), IndObj(2, None), IndObj(1, 4), IndObj(None, 2),
            IndObj(0, 5), IndObj(0, None), IndObj(-1, 2), IndObj(0, 3),
        ])
        want = [format_obj(x) for x in sorted(summands, key=sort_key)]
        assert want == [
            "M[-1,2]", "M[0,3]", "M[0,5]", "M[1,4]", "M[0,inf]", "M[2,inf]", "M[-inf,0]", "M[-inf,2]",
        ]
        for kind in (PRUFER, ADIC):
            assert rigid_to_doc(Tube(3), MaxRigid(summands, kind))["summands"] == want
