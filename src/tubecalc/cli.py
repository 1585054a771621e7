"""Command line front end.

Exit codes: 0 success, 1 usage or parse error, 2 semantic validation
failure.  Every command is a thin shell over the library; all output is
deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from typing import Iterable, List, Optional

from .arcs import Tube, format_obj, parse_endpoints, parse_obj, sort_key
from .homs import InfinitePairError, ext_dim, hom_dim
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
    count_max_rigid,
    is_torsion_pair,
    iter_max_rigid,
    max_rigid_counts,
    max_rigid_of,
    torsion_pair_of,
)
from .type_a import AArc


# The most objects `pairs enumerate` and `rigid enumerate` write: rank 11
# has 705,432 maximal rigid objects, rank 12 has 2,704,156.
MAX_OBJECTS = 10**6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code policy in our hands
        raise UsageError(message)


def _print_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _pair_line(pair) -> str:
    return f"{pair.kind}: T = {format_desc(pair.t_part)} ; F = {format_desc(pair.f_part)}"


def _integer(text: str) -> int:
    """An integer option: an optional minus and ASCII digits, the digit
    class of the arc grammar."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(text)


def cmd_dim(args) -> int:
    """``ext`` and ``hom``: the dimension function bound as ``args.dim``."""
    tube = Tube(args.rank)
    x = parse_obj(tube, args.x)
    y = parse_obj(tube, args.y)
    print(args.dim(tube, x, y))  # ALEPH0 prints as aleph0
    return 0


def _enumerable(rank: int) -> Tube:
    """The tube of an enumerating command, if it has at most MAX_OBJECTS
    maximal rigid objects.  The counts grow with the rank, so the check
    stops at the first rank past the bound and takes bounded time."""
    tube = Tube(rank)
    if any(c > MAX_OBJECTS for c in itertools.islice(max_rigid_counts(), tube.n)):
        raise UsageError(
            f"rank {tube.n} has more maximal rigid objects than the bound MAX_OBJECTS = {MAX_OBJECTS}"
        )
    return tube


def _write_each(tube: Tube, key: str, items: Iterable, as_json: bool, to_doc, to_line) -> int:
    """Write the items one at a time, each as it arrives: a line each, or the
    document ``{key: [to_doc(item), ...], "rank": n, "schema": 1}``."""
    write = sys.stdout.write
    if not as_json:
        for item in items:
            write(to_line(item) + "\n")
        return 0
    # The same bytes as _print_json of the whole document only because key
    # ("objects" or "pairs") sorts before "rank" and "schema".
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    write('{"%s":[' % key)
    sep = ""
    for item in items:
        write(sep + encode(to_doc(tube, item)))
        sep = ","
    write('],"rank":%d,"schema":1}\n' % tube.n)
    return 0


def cmd_pairs(args) -> int:
    if args.action == "count":
        print(count_max_rigid(Tube(args.rank)))
        return 0
    tube = _enumerable(args.rank)
    pairs = (torsion_pair_of(tube, u) for u in iter_max_rigid(tube))
    return _write_each(tube, "pairs", pairs, args.json, pair_to_doc, _pair_line)


def _rigid_line(rigid: MaxRigid) -> str:
    names = " ".join(format_obj(x) for x in sorted(rigid.summands, key=sort_key))
    return f"{rigid.kind}: {names}"


def cmd_rigid(args) -> int:
    if args.action == "enumerate":
        tube = _enumerable(args.rank)
        return _write_each(
            tube, "objects", iter_max_rigid(tube), args.json, rigid_to_doc, _rigid_line
        )
    # action == "of-pair"
    try:
        with open(args.pair, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"cannot read pair file: {exc}")
    tube, pair = pair_from_doc(doc)
    rigid = max_rigid_of(tube, pair)
    if args.json:
        _print_json(rigid_to_doc(tube, rigid))
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
    """The pair of the summands, of the kind of the family present; refused
    unless they are maximal rigid, which the pair shows (``torsion_pair_of``)."""
    tube = Tube(args.rank)
    summands = frozenset(
        parse_obj(tube, part) for part in _split_summands(args.summands)
    )
    kind = PRUFER if any(x.is_prufer for x in summands) else ADIC
    pair = torsion_pair_of(tube, MaxRigid(summands, kind))
    if not is_torsion_pair(tube, pair):
        raise ValidationError("summand set is not rigid")
    if args.json:
        _print_json(pair_to_doc(tube, pair))
    else:
        print(_pair_line(pair))
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

    for name, what, dim in (("ext", "Ext^1", ext_dim), ("hom", "Hom", hom_dim)):
        p = sub.add_parser(name, help=f"{what} dimension between two arcs")
        p.add_argument("--rank", type=_integer, required=True)
        p.add_argument("x")
        p.add_argument("y")
        p.set_defaults(func=cmd_dim, dim=dim)

    p = sub.add_parser("pairs", help="torsion pairs of the tube")
    p.add_argument("action", choices=["count", "enumerate"])
    p.add_argument("--rank", type=_integer, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("rigid", help="maximal rigid objects")
    p.add_argument("action", choices=["enumerate", "of-pair"])
    p.add_argument("--rank", type=_integer)
    p.add_argument("--pair", help="JSON pair document (for of-pair)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rigid)

    p = sub.add_parser("pair-of-rigid", help="torsion pair of a maximal rigid object")
    p.add_argument("--rank", type=_integer, required=True)
    p.add_argument("--summands", required=True, help="comma separated arcs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pair_of_rigid)

    p = sub.add_parser("render", help="SVG arc diagram")
    p.add_argument("--mode", choices=["annulus", "cover", "segment"], required=True)
    p.add_argument("--rank", type=_integer)
    p.add_argument("--m", type=_integer)
    p.add_argument("--out")
    p.add_argument("--arc", action="append", default=[], help="M[i,j][:style], repeatable")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("ar-quiver", help="text AR-quiver grid")
    p.add_argument("--rank", type=_integer, required=True)
    p.add_argument("--max-length", type=_integer, default=4)
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: recursion limit reached", file=sys.stderr)
        return 1
    except OSError as exc:
        # a closed stdout is how `| head` says it has read enough
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry: main, then a flush of what stdout still buffers.

    Once a write to stdout has failed, stdout is pointed at the null device,
    so that the interpreter's own flush at exit cannot fail again and print
    a traceback."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code == 0 and not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        code = code or 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
