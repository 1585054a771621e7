"""JSON documents (schema 1): pair documents are read and written, rigid
documents only written.

A document is printed by filling a fixed template (``pair_json``,
``rigid_json``): keys in sorted order, no spaces, the bytes of
``json.dumps(doc, sort_keys=True, separators=(",", ":"))``.  The template
is exact because every string in a document is an arc name that
``format_obj`` prints, a kind the builder has checked, or a fixed key, and
none of them holds a character that JSON escapes; every number is an int."""

from __future__ import annotations

from operator import itemgetter
from typing import List, Tuple

from .arcs import Tube, _parse_finite, format_finite, format_obj
from .torsion import (
    ADIC,
    CORAY,
    PRUFER,
    RAY,
    MaxRigid,
    SubcatDesc,
    TorsionPair,
    ValidationError,
    _desc,
)

SCHEMA = 1


def pair_to_doc(tube: Tube, pair: TorsionPair) -> dict:
    """The torsion side lists its corays, the free side its rays; the
    whole-tube descriptor is recovered on parse from either full family."""
    t, f = pair.t_part, pair.f_part
    if pair.kind not in (RAY, CORAY):
        raise ValidationError(f"unknown pair kind {pair.kind!r}")
    if t.rays and len(t.rays) != tube.n:
        raise ValidationError("torsion part of a pair cannot contain a proper ray family")
    if f.corays and len(f.corays) != tube.n:
        raise ValidationError("free part of a pair cannot contain a proper coray family")
    return {
        "schema": SCHEMA,
        "rank": tube.n,
        "kind": pair.kind,
        "torsion": {"finite": format_finite(t.finite_objs), "corays": sorted(t.corays)},
        "free": {"finite": format_finite(f.finite_objs), "rays": sorted(f.rays)},
    }


_PAIR_JSON = (
    '{"free":{"finite":[%s],"rays":[%s]},"kind":"%s","rank":%d,"schema":%d,'
    '"torsion":{"corays":[%s],"finite":[%s]}}'
)


def _names(names: List[str]) -> str:
    """The items of a JSON list of arc names."""
    return '"%s"' % '","'.join(names) if names else ""


def pair_json(doc: dict) -> str:
    """The document that ``pair_to_doc`` returns, as JSON text."""
    t, f = doc["torsion"], doc["free"]
    return _PAIR_JSON % (
        _names(f["finite"]),
        ",".join(map(str, f["rays"])),
        doc["kind"],
        doc["rank"],
        doc["schema"],
        ",".join(map(str, t["corays"])),
        _names(t["finite"]),
    )


_PAIR_KEYS = frozenset(("schema", "rank", "kind", "torsion", "free"))
_JSON_TYPES = {int: "integer", str: "string", dict: "object"}


def _field(doc: dict, key: str, kind: type, many: bool = False, where: str = ""):
    """doc[key], which must be a ``kind`` (a list of them if ``many``);
    otherwise a ValidationError naming the key.  JSON true/false is no integer."""
    if key not in doc:
        raise ValidationError(f"document is missing key {where + key!r}")
    items = doc[key] if many else [doc[key]]
    if (
        not isinstance(items, list)
        or not all(map(kind.__instancecheck__, items))
        or kind is int and any(map(bool.__instancecheck__, items))
    ):
        wanted = f"a list of {_JSON_TYPES[kind]}s" if many else f"of type {_JSON_TYPES[kind]}"
        raise ValidationError(f"key {where + key!r} must be {wanted}")
    return doc[key]


def _only_keys(doc: dict, keys, where: str = "") -> None:
    """A ValidationError naming the least key of doc that is not one of keys,
    when doc has more keys.  With one of keys missing, which ``_field``
    refuses, another key may pass here."""
    if len(doc) > len(keys):
        other = min(map(str, doc.keys() - keys))
        raise ValidationError(f"a pair document holds no key {where + other!r}")


def _desc_from_doc(tube: Tube, doc: dict, side: str, family: str) -> SubcatDesc:
    part = _field(doc, side, dict)
    _only_keys(part, ("finite", family), side + ".")
    finite = _field(part, "finite", str, many=True, where=side + ".")
    indices = _field(part, family, int, many=True, where=side + ".")
    found = frozenset(indices)
    if len(found) != len(indices) or not all(0 <= i < tube.n for i in indices):
        raise ValidationError(
            f"key {side + '.' + family!r} must list distinct indices in 0..{tube.n - 1}"
        )
    key = side + ".finite"
    try:
        arcs, one_sided = _parse_finite(tube, finite)
    except ValueError as exc:
        raise ValidationError(f"key {key!r}: {exc}") from None
    if one_sided is not None:
        raise ValidationError(f"key {key!r}: descriptors list finite arcs only, got {one_sided}")
    return _desc(tube.n, arcs, **{family: found})


def pair_from_doc(doc: dict) -> Tuple[Tube, TorsionPair]:
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != SCHEMA:  # JSON true and 1.0 equal 1
        raise ValidationError(f"key 'schema' must be the integer {SCHEMA}, got {schema!r}")
    rank = _field(doc, "rank", int)
    if rank < 1:
        raise ValidationError(f"key 'rank' must be a positive integer, got {rank}")
    tube = Tube(rank)
    kind = _field(doc, "kind", str)
    if kind not in (RAY, CORAY):
        raise ValidationError(f"unknown pair kind {kind!r}")
    _only_keys(doc, _PAIR_KEYS)
    t_part = _desc_from_doc(tube, doc, "torsion", "corays")
    f_part = _desc_from_doc(tube, doc, "free", "rays")
    return tube, TorsionPair(t_part, f_part, kind)


def _summand_names(summands) -> List[str]:
    """The summands as ``format_obj`` prints them, in ``sort_key`` order:
    the finite arcs as ``format_finite`` prints and sorts them, then the
    Prufers by start, then the adics by end."""
    fins, prufers, adics = [], [], []
    for x in summands:
        if x[1] is None:
            prufers.append(x)
        elif x[0] is None:
            adics.append(x)
        else:
            fins.append(x)
    names = format_finite(fins)
    names += map(format_obj, sorted(prufers))
    names += map(format_obj, sorted(adics, key=itemgetter(1)))
    return names


def rigid_to_doc(tube: Tube, rigid: MaxRigid) -> dict:
    if rigid.kind not in (PRUFER, ADIC):
        raise ValidationError(f"unknown rigid kind {rigid.kind!r}")
    return {
        "schema": SCHEMA,
        "rank": tube.n,
        "kind": rigid.kind,
        "summands": _summand_names(rigid.summands),
    }


_RIGID_JSON = '{"kind":"%s","rank":%d,"schema":%d,"summands":[%s]}'


def rigid_json(doc: dict) -> str:
    """The document that ``rigid_to_doc`` returns, as JSON text."""
    return _RIGID_JSON % (doc["kind"], doc["rank"], doc["schema"], _names(doc["summands"]))


def format_desc(desc: SubcatDesc) -> str:
    """Compact one-line rendering of a descriptor; '0' for the zero subcategory."""
    parts = format_finite(desc.finite_objs)
    if desc.rays:
        parts.append("rays[" + ",".join(str(i) for i in sorted(desc.rays)) + "]")
    if desc.corays:
        parts.append("corays[" + ",".join(str(j) for j in sorted(desc.corays)) + "]")
    return " + ".join(parts) if parts else "0"
