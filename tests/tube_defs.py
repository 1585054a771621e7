"""Tube-level definitions that only the tests read: the Auslander-Reiten
translate and its inverse, the quotient and subobject closures of any set
of finite arcs, the reflections of a torsion pair and of a maximal rigid
object, and the reader of rigid documents.

The closures read the library's ``low`` (``torsion._read_side``) or
``reach`` (``type_a._reach`` of the anchored lifts) and ``_closure_side``,
which ``torsion_pair_of`` feeds only the finite parts of rigid objects; the
tests feed them arbitrary arc sets, in any lift.  The reflection
[i,j] -> [-j,-i] swaps the two sides of a pair, and with them ray type and
coray type; on an object it swaps Prufers with adics.  The library writes rigid documents but reads pair documents
only; ``rigid_from_doc`` reads one back through ``doc_header``, the
header checks that ``serialize.pair_from_doc`` makes (with the pair kinds
replaced by the given ones), and the library's field checks, so that round
trips and malformed summand lists can be tested."""

from tubecalc import serialize, torsion, type_a
from tubecalc.arcs import Tube, parse_obj
from tubecalc.torsion import (
    ADIC,
    CORAY,
    PRUFER,
    RAY,
    MaxRigid,
    TorsionPair,
    ValidationError,
    reflect_desc,
)


def tau(tube, obj):
    """Auslander-Reiten translate: both endpoints move one step left."""
    s = None if obj.start is None else obj.start - 1
    e = None if obj.end is None else obj.end - 1
    return tube.normalize(s, e)


def tau_inv(tube, obj):
    s = None if obj.start is None else obj.start + 1
    e = None if obj.end is None else obj.end + 1
    return tube.normalize(s, e)


def left_closure(tube, objs) -> frozenset:
    """The quotients of finite arcs: same end, start moved weakly right
    (from ``low`` on)."""
    low = torsion._read_side(tube.n, objs)[0]
    return torsion._closure_side(tube, low, quotients=True).finite_objs


def right_closure(tube, objs) -> frozenset:
    """The subobjects of finite arcs: same start, end moved weakly left
    (down from ``reach``, read on the lift that starts at its residue)."""
    n = tube.n
    try:
        reach = type_a._reach([(s % n, e - s + s % n) for s, e in objs])
    except TypeError:  # a None endpoint
        raise ValueError("one-sided arcs have no finite length") from None
    return torsion._closure_side(tube, reach, quotients=False).finite_objs


def reflect_pair(tube, pair: TorsionPair) -> TorsionPair:
    """(T, F) -> (F^v, T^v); ray type and coray type swap."""
    return TorsionPair(
        reflect_desc(tube, pair.f_part),
        reflect_desc(tube, pair.t_part),
        RAY if pair.kind == CORAY else CORAY,
    )


def reflect_rigid(tube, rigid: MaxRigid) -> MaxRigid:
    """The summands reflected one by one; Prufer type and adic type swap."""
    return MaxRigid(
        frozenset(tube.reflect(x) for x in rigid.summands),
        ADIC if rigid.kind == PRUFER else PRUFER,
    )


def doc_header(doc, what: str, kinds):
    """Rank and kind of a schema-1 document whose kind is one of kinds."""
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != serialize.SCHEMA:  # JSON true and 1.0 equal 1
        raise ValidationError(f"key 'schema' must be the integer {serialize.SCHEMA}, got {schema!r}")
    rank = serialize._field(doc, "rank", int)
    if rank < 1:
        raise ValidationError(f"key 'rank' must be a positive integer, got {rank}")
    tube = Tube(rank)
    kind = serialize._field(doc, "kind", str)
    if kind not in kinds:
        raise ValidationError(f"unknown {what} kind {kind!r}")
    return tube, kind


def rigid_from_doc(doc: dict):
    """(tube, maximal rigid object) of a rigid document, one-sided summands
    allowed; a ValidationError naming the key if a summand fails to parse."""
    tube, kind = doc_header(doc, "rigid", (PRUFER, ADIC))
    summands = serialize._field(doc, "summands", str, many=True)
    try:
        arcs = [parse_obj(tube, s) for s in summands]
    except ValueError as exc:
        raise ValidationError(f"key 'summands': {exc}") from None
    return tube, MaxRigid(frozenset(arcs), kind)
