"""Command line front end.

Exit codes: 0 success, 1 usage or parse error, 2 semantic validation
failure.  Every command is a thin shell over the library; all output is
deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional

from .arcs import Tube, format_obj, parse_endpoints, parse_obj, sort_key
from .homs import ALEPH0, InfinitePairError, ext_dim, hom_dim
from .render import RenderSpec, ar_quiver_lines, render_svg, write_svg
from .serialize import (
    format_desc,
    pair_from_doc,
    pair_to_doc,
    rigid_to_doc,
)
from .torsion import (
    ADIC,
    PRUFER,
    MaxRigid,
    ValidationError,
    enumerate_max_rigid,
    max_rigid_of,
    torsion_pair_of,
)
from .type_a import AArc
from . import homs


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code policy in our hands
        raise UsageError(message)


def _dim_str(value) -> str:
    return "aleph0" if value is ALEPH0 else str(value)


def cmd_ext(args) -> int:
    tube = Tube(args.rank)
    x = parse_obj(tube, args.x)
    y = parse_obj(tube, args.y)
    print(_dim_str(ext_dim(tube, x, y)))
    return 0


def cmd_hom(args) -> int:
    tube = Tube(args.rank)
    x = parse_obj(tube, args.x)
    y = parse_obj(tube, args.y)
    print(_dim_str(hom_dim(tube, x, y)))
    return 0


def cmd_pairs(args) -> int:
    tube = Tube(args.rank)
    rigids = enumerate_max_rigid(tube)
    if args.action == "count":
        print(len(rigids))
        return 0
    pairs = [torsion_pair_of(tube, u) for u in rigids]
    if args.json:
        doc = {
            "schema": 1,
            "rank": tube.n,
            "pairs": [pair_to_doc(tube, p) for p in pairs],
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        for p in pairs:
            print(
                f"{p.kind}: T = {format_desc(p.t_part)} ; F = {format_desc(p.f_part)}"
            )
    return 0


def _rigid_line(rigid: MaxRigid) -> str:
    names = " ".join(format_obj(x) for x in sorted(rigid.summands, key=sort_key))
    return f"{rigid.kind}: {names}"


def cmd_rigid(args) -> int:
    if args.action == "enumerate":
        tube = Tube(args.rank)
        rigids = enumerate_max_rigid(tube)
        if args.json:
            doc = {
                "schema": 1,
                "rank": tube.n,
                "objects": [rigid_to_doc(tube, u) for u in rigids],
            }
            print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        else:
            for u in rigids:
                print(_rigid_line(u))
        return 0
    # action == "of-pair"
    try:
        with open(args.pair, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read pair file: {exc}")
    tube, pair = pair_from_doc(doc)
    rigid = max_rigid_of(tube, pair)
    if args.json:
        print(json.dumps(rigid_to_doc(tube, rigid), sort_keys=True, separators=(",", ":")))
    else:
        print(_rigid_line(rigid))
    return 0


def _split_summands(text: str) -> List[str]:
    # the object grammar contains commas, so extract bracketed tokens instead
    tokens = re.findall(r"M\[[^\[\]]*\]", text)
    leftover = re.sub(r"M\[[^\[\]]*\]", "", text).replace(",", "").strip()
    if leftover or not tokens:
        raise UsageError(f"cannot parse summand list {text!r}")
    return tokens


def cmd_pair_of_rigid(args) -> int:
    tube = Tube(args.rank)
    summands = frozenset(
        parse_obj(tube, part) for part in _split_summands(args.summands)
    )
    if len(summands) != tube.n:
        raise ValidationError(f"expected {tube.n} distinct summands, got {len(summands)}")
    has_prufer = any(x.is_prufer for x in summands)
    has_adic = any(x.is_adic for x in summands)
    if has_prufer == has_adic:
        raise ValidationError("object must contain Prufer or adic summands, not both or neither")
    if not homs.is_rigid(tube, summands):
        raise ValidationError("summand set is not rigid")
    rigid = MaxRigid(summands, PRUFER if has_prufer else ADIC)
    pair = torsion_pair_of(tube, rigid)
    if args.json:
        print(json.dumps(pair_to_doc(tube, pair), sort_keys=True, separators=(",", ":")))
    else:
        print(f"{pair.kind}: T = {format_desc(pair.t_part)} ; F = {format_desc(pair.f_part)}")
    return 0


def _parse_render_arc(tube: Optional[Tube], m: Optional[int], text: str):
    if ":" in text:
        name, style = text.split(":", 1)
    else:
        name, style = text, "summand"
    if m is None:
        return (parse_obj(tube, name), style)
    # segment arcs are not normalized; the renderer checks segment bounds
    start, end = parse_endpoints(name)
    if start is None or end is None:
        raise UsageError("segment mode takes finite arcs only")
    return (AArc(start, end), style)


def cmd_render(args) -> int:
    if args.mode == "segment":
        if args.m is None:
            raise UsageError("segment mode needs --m")
        arcs = tuple(_parse_render_arc(None, args.m, a) for a in args.arc)
        spec = RenderSpec("segment", args.m, arcs)
    else:
        if args.rank is None:
            raise UsageError(f"{args.mode} mode needs --rank")
        tube = Tube(args.rank)
        arcs = tuple(_parse_render_arc(tube, None, a) for a in args.arc)
        spec = RenderSpec(args.mode, args.rank, arcs)
    if args.out:
        write_svg(spec, args.out)
    else:
        sys.stdout.write(render_svg(spec))
    return 0


def cmd_ar_quiver(args) -> int:
    if args.max_length < 1:
        raise UsageError("--max-length must be at least 1")
    tube = Tube(args.rank)
    for line in ar_quiver_lines(tube, args.max_length):
        print(line)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tubecalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ext", help="Ext^1 dimension between two arcs")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("hom", help="Hom dimension between two arcs")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("pairs", help="torsion pairs of the tube")
    p.add_argument("action", choices=["count", "enumerate"])
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("rigid", help="maximal rigid objects")
    p.add_argument("action", choices=["enumerate", "of-pair"])
    p.add_argument("--rank", type=int)
    p.add_argument("--pair", help="JSON pair document (for of-pair)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rigid)

    p = sub.add_parser("pair-of-rigid", help="torsion pair of a maximal rigid object")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--summands", required=True, help="comma separated arcs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pair_of_rigid)

    p = sub.add_parser("render", help="SVG arc diagram")
    p.add_argument("--mode", choices=["annulus", "cover", "segment"], required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--out")
    p.add_argument("--arc", action="append", default=[], help="M[i,j][:style], repeatable")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("ar-quiver", help="text AR-quiver grid")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-length", type=int, default=4)
    p.set_defaults(func=cmd_ar_quiver)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) == "rigid":
            if args.action == "enumerate" and args.rank is None:
                raise UsageError("rigid enumerate needs --rank")
            if args.action == "of-pair" and not args.pair:
                raise UsageError("rigid of-pair needs --pair")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, InfinitePairError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
