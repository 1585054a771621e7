"""Reading pair and rigid documents against the code it replaced.

The reference below is the old code, copied unchanged: every string of a
``finite`` list goes through ``parse_obj`` (strip, one regex, ``normalize``),
and ``make_desc`` then checks and normalizes each arc a second time.  The
new reader looks each string up in the names memo first, which holds every
valid name read before as the arc with its printed ends, lifted on a hit
to the rank at hand.  A miss is fullmatched against the finite-arc grammar
once and its canonical arc built from the integer pair, and only a string
that does not match goes through ``parse_obj``.  Each document is read
twice, with the memo cold and then warm, and lists of names are read at
two or three ranks in turn with one memo.  Hypothesis draws arbitrary strings
around the grammar: surrounding whitespace, non-ASCII digits, ``+`` signs,
leading zeros, ``inf``/``-inf`` ends, e < s+2, huge integers, duplicates and
lifts off 0..n-1.  Each document must give the same pair or the same
``ValidationError`` text, except that a one-sided arc in a pair document now
names its key.  ``rigid_from_doc`` (summands, one-sided arcs allowed) keeps
the old path; the library writes rigid documents but no longer reads them,
so it lives in ``tests/tube_defs.py``, and is compared here with the old
reader, whose ``parse_obj`` is the copy above.  Both old readers check the
header with ``tube_defs.doc_header``, the library's old shared header check,
which ``pair_from_doc`` now makes inline for pair kinds.

The writer of rigid documents and the CLI's one-line listing have their
own reference, also copied unchanged: each sorted the summands by
``sort_key`` and printed them one by one with ``format_obj``.  Both now
print the finite summands with ``format_finite`` (through the names memo)
and then the Prufers by start and the adics by end.  They are compared on
arbitrary ``MaxRigid`` values, with the memo cold and warm: any kind, the
two families mixed, arcs in any lift and spans below 2.

The CLI printed every document through one JSON encoder, copied below:
``JSONEncoder(sort_keys=True, separators=(",", ":"))``.  Now
``serialize.pair_json`` and ``serialize.rigid_json`` fill a fixed template.
Both must print what the encoder printed, and ``json.loads`` of their text
must give the document back: on every pair and rigid document at ranks
1-7, and under hypothesis on random maximal rigid objects up to rank 60,
the all-Prufer and all-adic ones among them (their free or torsion side is
the whole tube, so the other side's lists are empty).

Without hypothesis the property tests skip and the others run: the
strategies below are then inert stand-ins (``optional_hypothesis``) that
are never drawn from.
"""

import json
import re
from types import SimpleNamespace
from unittest import mock

import pytest

from tubecalc import arcs, cli, serialize
from tubecalc.arcs import IndObj, Tube, format_obj, sort_key
from tubecalc.serialize import pair_from_doc, pair_json, pair_to_doc, rigid_json, rigid_to_doc
from tube_defs import doc_header, rigid_from_doc
from tubecalc.torsion import (
    ADIC,
    CORAY,
    PRUFER,
    RAY,
    MaxRigid,
    SubcatDesc,
    TorsionPair,
    ValidationError,
    enumerate_max_rigid,
    iter_max_rigid,
    torsion_pair_of,
)

from optional_hypothesis import example, given, settings, st
from test_census_reference import rigid_values

# -- reference ---------------------------------------------------------------------

_OBJ_RE = re.compile(r"^M\[(-inf|-?[0-9]+),(inf|-?[0-9]+)\]$")


def normalize(tube, start, end):
    n = tube.n
    if start is None and end is None:
        raise ValueError("an arc needs at least one finite endpoint")
    if start is None:
        return arcs.IndObj(None, end % n)
    if end is None:
        return arcs.IndObj(start % n, None)
    if end < start + 2:
        raise ValueError(f"finite arc needs end >= start+2, got [{start},{end}]")
    shift = start % n - start
    return arcs.IndObj(start % n, end + shift)


def parse_obj(tube, text):
    m = _OBJ_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse object {text!r}, expected M[start,end]")
    raw_s, raw_e = m.group(1), m.group(2)
    return normalize(
        tube, None if raw_s == "-inf" else int(raw_s), None if raw_e == "inf" else int(raw_e)
    )


def make_desc(tube, finite_objs=(), rays=(), corays=()):
    n = tube.n
    rayset = frozenset(int(i) % n for i in rays)
    corayset = frozenset(int(j) % n for j in corays)
    fins = []
    for x in finite_objs:
        if not x.is_finite:
            raise ValidationError(f"descriptors list finite arcs only, got {x}")
        fins.append(normalize(tube, x.start, x.end))
    if len(rayset) == n or len(corayset) == n:
        full = frozenset(range(n))
        return SubcatDesc(frozenset(), full, full)
    kept = [x for x in fins if x.start not in rayset and x.end % n not in corayset]
    return SubcatDesc(frozenset(kept), rayset, corayset)


def _parse_arcs(tube, strings, key):
    try:
        return [parse_obj(tube, s) for s in strings]
    except ValueError as exc:
        raise ValidationError(f"key {key!r}: {exc}") from None


def _desc_from_doc(tube, doc, side, family):
    part = serialize._field(doc, side, dict)
    finite = serialize._field(part, "finite", str, many=True, where=side + ".")
    indices = serialize._field(part, family, int, many=True, where=side + ".")
    if len(set(indices)) != len(indices) or not all(0 <= i < tube.n for i in indices):
        raise ValidationError(
            f"key {side + '.' + family!r} must list distinct indices in 0..{tube.n - 1}"
        )
    return make_desc(tube, _parse_arcs(tube, finite, side + ".finite"), **{family: indices})


def old_pair_from_doc(doc):
    tube, kind = doc_header(doc, "pair", (RAY, CORAY))
    t_part = _desc_from_doc(tube, doc, "torsion", "corays")
    f_part = _desc_from_doc(tube, doc, "free", "rays")
    return tube, TorsionPair(t_part, f_part, kind)


def old_rigid_from_doc(doc):
    tube, kind = doc_header(doc, "rigid", ("prufer", "adic"))
    summands = serialize._field(doc, "summands", str, many=True)
    return tube, serialize.MaxRigid(frozenset(_parse_arcs(tube, summands, "summands")), kind)


# -- comparison ----------------------------------------------------------------------

ONE_SIDED = "descriptors list finite arcs only, got "


def outcome(fn, doc):
    """(rank, value), or the ValidationError's message."""
    try:
        tube, value = fn(doc)
    except ValidationError as exc:
        return str(exc)
    return tube.n, value


def expected(doc):
    """The old outcome, with a one-sided arc's message naming its key."""
    old = outcome(old_pair_from_doc, doc)
    if isinstance(old, str) and old.startswith(ONE_SIDED):
        tube = Tube(doc["rank"])
        side = "torsion"
        try:
            _desc_from_doc(tube, doc, "torsion", "corays")
            side = "free"
        except ValidationError:
            pass
        return f"key '{side}.finite': {old}"
    return old


_SPACE = st.one_of(st.just(""), st.sampled_from([" ", "\t", "\n", "\u00a0", "\u2003", "\x1c"]))
_DIGITS = st.sampled_from(["0", "00", "007", "3", "12", "٣", "３", "²", "1_0"])
_INTEGER = st.one_of(
    st.integers(-30, 30).map(str),
    st.integers(-(10 ** 40), 10 ** 40).map(str),
    st.builds(lambda sign, d: sign + d, st.sampled_from(["", "-", "+", "--"]), _DIGITS),
)
_END = st.one_of(_INTEGER, _INTEGER, st.sampled_from(["inf", "-inf", "+inf", "INF", ""]))
_ARC = st.one_of(
    st.builds(lambda s, e: f"M[{s},{e}]", st.integers(-20, 20), st.integers(-20, 40)),
    st.builds(
        lambda pre, s, e, post: f"{pre}M[{s},{e}]{post}", _SPACE, _END, _END, _SPACE
    ),
    st.builds(lambda s, e: f"M[{s}, {e}]", st.integers(-5, 5), st.integers(-5, 9)),
    st.builds("M[{},inf]".format, st.integers(-5, 9)),
    st.builds("M[-inf,{}]".format, st.integers(-5, 9)),
    st.text(max_size=10),
)


@st.composite
def finite_lists(draw):
    strings = draw(st.lists(_ARC, max_size=8))
    if strings and draw(st.booleans()):  # duplicates, verbatim
        strings += draw(st.lists(st.sampled_from(strings), max_size=3))
    return strings


def families(n):
    return st.one_of(
        st.lists(st.integers(0, n - 1), unique=True, max_size=n),
        st.lists(st.integers(-1, n), max_size=n + 1),
    )


@st.composite
def pair_docs(draw):
    n = draw(st.integers(1, 6))
    return {
        "schema": 1,
        "rank": n,
        "kind": draw(st.sampled_from([RAY, CORAY])),
        "torsion": {"finite": draw(finite_lists()), "corays": draw(families(n))},
        "free": {"finite": draw(finite_lists()), "rays": draw(families(n))},
    }


def doc_of(n, t_finite=(), corays=(), f_finite=(), rays=(), kind=RAY):
    return {
        "schema": 1, "rank": n, "kind": kind,
        "torsion": {"finite": list(t_finite), "corays": list(corays)},
        "free": {"finite": list(f_finite), "rays": list(rays)},
    }


def cold_names():
    """The names memo replaced by an empty one of the same bound."""
    return mock.patch.object(arcs, "_NAMES", arcs._Memo(arcs.MAX_NAMES))


def assert_names_sound():
    """Each name the memo holds is the printed name of its arc, and each
    arc it holds maps to its printed name."""
    for key, value in arcs._NAMES.items():
        if isinstance(key, str):
            assert type(value) is arcs.IndObj and arcs.FINITE_ARC % value == key
        else:
            assert value == arcs.FINITE_ARC % key


HUGE = "1" * 5000  # past int()'s default digit limit: a ValueError of its own


class TestPairDocuments:
    @settings(max_examples=600, deadline=None)
    @given(pair_docs())
    @example(doc_of(3, [" M[0,3]", "M[0,3]\n", "M[3,6]"], [], ["M[1,4]", "M[1,4]"], [0]))
    @example(doc_of(3, ["M[007,+9]"], [1]))
    @example(doc_of(3, ["M[+3,5]"], [1]))
    @example(doc_of(3, ["M[-0,2]", "M[00,3]"], [1]))
    @example(doc_of(3, [f"M[{10 ** 30},{10 ** 30 + 5}]", f"M[-{10 ** 30},2]"], [1]))
    @example(doc_of(3, ["M[0,٣]"], [1]))
    @example(doc_of(3, ["M[-inf,0]", "M[2,1]"]))
    @example(doc_of(3, ["M[0,3]"], [], ["M[0,inf]", "M[4,5]"], [1]))
    @example(doc_of(3, ["M[0,3]"], [], ["M[0,inf]"], [0, 1, 2]))
    @example(doc_of(3, [f"M[0,{HUGE}]", "M[2,1]"]))
    @example(doc_of(3, ["M[2,1]", f"M[0,{HUGE}]"]))
    @example(doc_of(3, [f"M[-{HUGE},0]"]))
    @example(doc_of(4, ["M[-9,-2]", "M[7,10]", "M[3,6]"], [0], kind=CORAY))
    def test_same_pair_or_same_message(self, doc):
        want = expected(doc)
        with cold_names():
            assert outcome(pair_from_doc, doc) == want  # the memo cold
            assert outcome(pair_from_doc, doc) == want  # warm, with the names just read
            assert_names_sound()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=2, max_size=3), finite_lists(), finite_lists())
    @example([10, 8], ["M[9,12]", "M[-3,0]"], ["M[10,13]"])
    def test_names_read_at_one_rank_then_another(self, ranks, t_finite, f_finite):
        """One memo serves every rank: a name stored at one rank is lifted
        at the next."""
        with cold_names():
            for n in ranks:
                doc = doc_of(n, t_finite, [], f_finite)
                assert outcome(pair_from_doc, doc) == expected(doc)
            assert_names_sound()

    def test_a_name_stored_at_one_rank_is_lifted_at_another(self):
        with cold_names() as names:
            assert arcs._parse_finite(Tube(10), ["M[9,12]"]) == ([(9, 12)], None)
            assert names["M[9,12]"] == (9, 12)
            assert arcs._parse_finite(Tube(8), ["M[9,12]"]) == ([(1, 4)], None)
            tube, pair = pair_from_doc(doc_of(8, ["M[9,12]"], [], ["M[3,5]", "M[9,12]"]))
            assert pair.t_part.finite_objs == {(1, 4)} and pair.f_part.finite_objs == {(3, 5), (1, 4)}

    @pytest.mark.parametrize("name", ["M[2,1]", f"M[0,{HUGE}]"], ids=["short", "huge"])
    def test_a_refused_name_is_refused_again(self, name):
        doc = doc_of(3, ["M[0,3]", name])
        with cold_names() as names:
            first = outcome(pair_from_doc, doc)
            assert first == expected(doc) and first.startswith("key 'torsion.finite': ")
            assert outcome(pair_from_doc, doc) == first
            assert name not in names
            assert_names_sound()

    def test_the_one_sided_message_names_the_key(self):
        for side, doc in (
            ("torsion", doc_of(2, ["M[-inf,1]"], [], [], [0])),
            ("free", doc_of(2, [], [], ["M[0,3]", "M[1,inf]"], [0])),
        ):
            assert outcome(old_pair_from_doc, doc) == ONE_SIDED + doc[side]["finite"][-1]
            assert outcome(pair_from_doc, doc) == f"key '{side}.finite': " + ONE_SIDED + doc[side]["finite"][-1]

    def test_each_string_is_read_once(self, monkeypatch):
        """A string that misses the names memo is fullmatched once against
        the grammar that ``format_obj`` prints, and only one that does not
        match goes through ``parse_obj``, and so ``normalize``, once; a
        name the memo holds runs neither."""
        parsed, normalized, matched = [], [], []
        real_parse, real_normalize, real_match = arcs.parse_obj, Tube.normalize, arcs._FINITE_RE.fullmatch
        monkeypatch.setattr(arcs, "parse_obj", lambda tube, text: parsed.append(text) or real_parse(tube, text))
        monkeypatch.setattr(Tube, "normalize", lambda *a: normalized.append(a[1:]) or real_normalize(*a))
        monkeypatch.setattr(arcs, "_FINITE_RE", SimpleNamespace(
            fullmatch=lambda text: matched.append(text) or real_match(text)))
        doc = doc_of(3, ["M[1,4]", " M[4,8]", "M[-2,1]", "M[1,4]"], [], ["M[2,4]"], [0, 2])
        with cold_names():
            tube, pair = pair_from_doc(doc)
            assert matched == doc["torsion"]["finite"] + ["M[2,4]"]
            assert parsed == [" M[4,8]"] and normalized == [(4, 8)]
            assert pair.t_part.finite_objs == {(1, 4), (1, 5)} and not pair.f_part.finite_objs
            del matched[:], parsed[:], normalized[:]
            assert pair_from_doc(doc)[1] == pair
            assert matched == parsed == [" M[4,8]"] and normalized == [(4, 8)]


@st.composite
def rigid_docs(draw):
    return {
        "schema": 1,
        "rank": draw(st.integers(1, 6)),
        "kind": draw(st.sampled_from(["prufer", "adic"])),
        "summands": draw(finite_lists()),
    }


class TestRigidDocuments:
    @settings(max_examples=300, deadline=None)
    @given(rigid_docs())
    @example({"schema": 1, "rank": 3, "kind": "prufer", "summands": ["M[0,inf]", " M[-inf,4]", "M[3,6]"]})
    @example({"schema": 1, "rank": 3, "kind": "adic", "summands": ["M[0,inf]", "M[2,1]"]})
    def test_same_object_or_same_message(self, doc):
        assert outcome(rigid_from_doc, doc) == outcome(old_rigid_from_doc, doc)


# -- the rigid writer before it printed in bulk ---------------------------------------


def old_rigid_to_doc(tube, rigid):
    if rigid.kind not in (PRUFER, ADIC):
        raise ValidationError(f"unknown rigid kind {rigid.kind!r}")
    return {
        "schema": serialize.SCHEMA,
        "rank": tube.n,
        "kind": rigid.kind,
        "summands": [
            format_obj(x) for x in sorted(rigid.summands, key=sort_key)
        ],
    }


def old_rigid_line(rigid):
    names = " ".join(format_obj(x) for x in sorted(rigid.summands, key=sort_key))
    return f"{rigid.kind}: {names}"


def written(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def mixed_rigids(draw):
    """Summands of both families and finite arcs in any lift, spans below 2
    included, under any kind."""
    n = draw(st.integers(1, 8))
    ends = st.integers(-2 * n, 3 * n)
    arc = st.one_of(
        st.builds(lambda s, d: IndObj(s, s + d), ends, st.integers(0, 2 * n + 2)),
        st.builds(lambda s: IndObj(s, None), ends),
        st.builds(lambda e: IndObj(None, e), ends),
    )
    kind = draw(st.sampled_from([PRUFER, ADIC, "ray"]))
    return Tube(n), MaxRigid(frozenset(draw(st.sets(arc, max_size=2 * n + 2))), kind)


def assert_written_as_before(tube, rigid):
    for _ in ("cold", "warm"):
        assert written(serialize.rigid_to_doc, tube, rigid) == written(old_rigid_to_doc, tube, rigid)
        assert cli._rigid_line(rigid) == old_rigid_line(rigid)


class TestRigidWriter:
    @settings(max_examples=400, deadline=None)
    @given(mixed_rigids())
    @example((Tube(3), MaxRigid(frozenset([IndObj(None, 0), IndObj(4, None), IndObj(-1, 2), IndObj(2, 3)]), PRUFER)))
    def test_mixed_families_and_lifts(self, case):
        with cold_names():
            assert_written_as_before(*case)

    @settings(max_examples=300, deadline=None)
    @given(rigid_values())
    def test_rigid_values(self, case):
        with cold_names():
            assert_written_as_before(*case)

    def test_every_object_at_small_ranks(self):
        for n in range(1, 6):
            tube = Tube(n)
            for u in enumerate_max_rigid(tube):
                assert_written_as_before(tube, u)


# -- the printers against the CLI's old encoder -------------------------------------

old_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def assert_printed_as_before(tube, rigid):
    for doc, printer in (
        (rigid_to_doc(tube, rigid), rigid_json),
        (pair_to_doc(tube, torsion_pair_of(tube, rigid)), pair_json),
    ):
        text = printer(doc)
        assert text == old_encode(doc)
        assert json.loads(text) == doc


def every_prufer(tube):
    return MaxRigid(frozenset(map(tube.prufer, range(tube.n))), PRUFER)


def every_adic(tube):
    return MaxRigid(frozenset(map(tube.adic, range(tube.n))), ADIC)


@st.composite
def rigid_objects(draw):
    """A maximal rigid object up to rank 60: Prufers at a drawn set of
    starts (often every start), a drawn triangulation of each wing between
    cyclically consecutive ones, and for the adic kind its reflection."""
    tube = Tube(draw(st.integers(1, 60)))
    n = tube.n
    every = draw(st.booleans())
    starts = range(n) if every else draw(st.sets(st.integers(0, n - 1), min_size=1))
    anchors = sorted(starts)
    summands = set(map(tube.prufer, anchors))
    todo = list(zip(anchors, anchors[1:] + [anchors[0] + n]))
    while todo:
        lo, hi = todo.pop()
        if hi - lo >= 2:
            summands.add(tube.normalize(lo, hi))
            apex = draw(st.integers(lo + 1, hi - 1))
            todo += [(lo, apex), (apex, hi)]
    if draw(st.booleans()):
        return tube, MaxRigid(frozenset(map(tube.reflect, summands)), ADIC)
    return tube, MaxRigid(frozenset(summands), PRUFER)


class TestPrinters:
    def test_every_document_at_ranks_1_to_7(self):
        for n in range(1, 8):
            tube = Tube(n)
            for u in iter_max_rigid(tube):
                assert_printed_as_before(tube, u)

    @settings(max_examples=300, deadline=None)
    @given(rigid_objects())
    @example((Tube(60), every_prufer(Tube(60))))
    @example((Tube(60), every_adic(Tube(60))))
    def test_random_objects_up_to_rank_60(self, case):
        tube, u = case
        assert_printed_as_before(tube, u)
