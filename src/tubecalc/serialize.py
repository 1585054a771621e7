"""JSON documents (schema 1) for torsion pairs and maximal rigid objects."""

from __future__ import annotations

from typing import Tuple

from .arcs import Tube, format_finite, format_obj, parse_obj, sort_key
from .torsion import (
    ADIC,
    CORAY,
    PRUFER,
    RAY,
    MaxRigid,
    SubcatDesc,
    TorsionPair,
    ValidationError,
    make_desc,
)

SCHEMA = 1


def pair_to_doc(tube: Tube, pair: TorsionPair) -> dict:
    """The torsion side lists its corays, the free side its rays; the
    whole-tube descriptor is recovered on parse from either full family."""
    t, f = pair.t_part, pair.f_part
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


_JSON_TYPES = {int: "integer", str: "string", dict: "object"}


def _field(doc: dict, key: str, kind: type, many: bool = False, where: str = ""):
    """doc[key], which must be a ``kind`` (a list of them if ``many``);
    otherwise a ValidationError naming the key.  JSON true/false is no integer."""
    if key not in doc:
        raise ValidationError(f"document is missing key {where + key!r}")
    items = doc[key] if many else [doc[key]]
    if not isinstance(items, list) or not all(
        isinstance(v, kind) and not isinstance(v, bool) for v in items
    ):
        wanted = f"a list of {_JSON_TYPES[kind]}s" if many else f"of type {_JSON_TYPES[kind]}"
        raise ValidationError(f"key {where + key!r} must be {wanted}")
    return doc[key]


def _doc_header(doc, what: str, kinds) -> Tuple[Tube, str]:
    """Rank and kind of a schema-1 document whose kind is one of kinds."""
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ValidationError(f"unsupported schema {doc.get('schema')!r}")
    rank = _field(doc, "rank", int)
    if rank < 1:
        raise ValidationError(f"key 'rank' must be a positive integer, got {rank}")
    tube = Tube(rank)
    kind = _field(doc, "kind", str)
    if kind not in kinds:
        raise ValidationError(f"unknown {what} kind {kind!r}")
    return tube, kind


def _desc_from_doc(tube: Tube, doc: dict, side: str, family: str) -> SubcatDesc:
    part = _field(doc, side, dict)
    finite = _field(part, "finite", str, many=True, where=side + ".")
    indices = _field(part, family, int, many=True, where=side + ".")
    if len(set(indices)) != len(indices) or not all(0 <= i < tube.n for i in indices):
        raise ValidationError(
            f"key {side + '.' + family!r} must list distinct indices in 0..{tube.n - 1}"
        )
    return make_desc(tube, _parse_arcs(tube, finite, side + ".finite"), **{family: indices})


def _parse_arcs(tube: Tube, strings, key: str):
    """The arcs the strings name; a ValidationError naming the key if one fails to parse."""
    try:
        return [parse_obj(tube, s) for s in strings]
    except ValueError as exc:
        raise ValidationError(f"key {key!r}: {exc}") from None


def pair_from_doc(doc: dict) -> Tuple[Tube, TorsionPair]:
    tube, kind = _doc_header(doc, "pair", (RAY, CORAY))
    t_part = _desc_from_doc(tube, doc, "torsion", "corays")
    f_part = _desc_from_doc(tube, doc, "free", "rays")
    return tube, TorsionPair(t_part, f_part, kind)


def rigid_to_doc(tube: Tube, rigid: MaxRigid) -> dict:
    return {
        "schema": SCHEMA,
        "rank": tube.n,
        "kind": rigid.kind,
        "summands": [
            format_obj(x) for x in sorted(rigid.summands, key=sort_key)
        ],
    }


def rigid_from_doc(doc: dict) -> Tuple[Tube, MaxRigid]:
    tube, kind = _doc_header(doc, "rigid", (PRUFER, ADIC))
    summands = _field(doc, "summands", str, many=True)
    return tube, MaxRigid(frozenset(_parse_arcs(tube, summands, "summands")), kind)


def format_desc(desc: SubcatDesc) -> str:
    """Compact one-line rendering of a descriptor; '0' for the zero subcategory."""
    parts = format_finite(desc.finite_objs)
    if desc.rays:
        parts.append("rays[" + ",".join(str(i) for i in sorted(desc.rays)) + "]")
    if desc.corays:
        parts.append("corays[" + ",".join(str(j) for j in sorted(desc.corays)) + "]")
    return " + ".join(parts) if parts else "0"
