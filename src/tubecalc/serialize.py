"""JSON documents (schema 1) for torsion pairs and maximal rigid objects."""

from __future__ import annotations

from typing import Tuple

from .arcs import Tube, format_obj, parse_obj, sort_key
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


def _finite_strings(desc: SubcatDesc):
    return [format_obj(x) for x in sorted(desc.finite_objs, key=sort_key)]


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
        "torsion": {"finite": _finite_strings(t), "corays": sorted(t.corays)},
        "free": {"finite": _finite_strings(f), "rays": sorted(f.rays)},
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
    tube = Tube(_field(doc, "rank", int))
    kind = _field(doc, "kind", str)
    if kind not in kinds:
        raise ValidationError(f"unknown {what} kind {kind!r}")
    return tube, kind


def _desc_from_doc(tube: Tube, doc: dict, side: str, family: str) -> SubcatDesc:
    part = _field(doc, side, dict)
    finite = _field(part, "finite", str, many=True, where=side + ".")
    indices = _field(part, family, int, many=True, where=side + ".")
    return make_desc(tube, [parse_obj(tube, s) for s in finite], **{family: indices})


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
    return tube, MaxRigid(frozenset(parse_obj(tube, s) for s in summands), kind)


def format_desc(desc: SubcatDesc) -> str:
    """Compact one-line rendering of a descriptor; '0' for the zero subcategory."""
    parts = _finite_strings(desc)
    if desc.rays:
        parts.append("rays[" + ",".join(str(i) for i in sorted(desc.rays)) + "]")
    if desc.corays:
        parts.append("corays[" + ",".join(str(j) for j in sorted(desc.corays)) + "]")
    return " + ".join(parts) if parts else "0"
