"""Command line front end.

Exit codes: 0 success, 1 usage or parse error (also a flag the command
does not take), 2 semantic validation failure.  Every command is a thin
shell over the library; all output is deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterable, List, Optional

from .arcs import Tube, parse_endpoints, parse_obj
from .homs import InfinitePairError, ext_dim, hom_dim
from .serialize import (
    SCHEMA,
    _summand_names,
    format_desc,
    pair_from_doc,
    pair_json,
    pair_to_doc,
    rigid_json,
    rigid_to_doc,
)
from .torsion import (
    ADIC,
    MAX_COUNT_RANK,
    PRUFER,
    MaxRigid,
    ValidationError,
    count_max_rigid,
    is_torsion_pair,
    iter_max_rigid,
    iter_torsion_pairs,
    max_rigid_of,
    torsion_pair_of,
)
from .type_a import AArc


# The most objects `pairs enumerate` and `rigid enumerate` write: rank 11
# has 705,432 maximal rigid objects, rank 12 has 2,704,156.
MAX_OBJECTS = 10**6


class UsageError(ValueError):
    """A bad invocation or an unreadable input file: exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code policy in our hands
        raise UsageError(message)


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
    maximal rigid objects.  The count grows with the rank and passes
    MAX_OBJECTS long before MAX_COUNT_RANK, so a rank past that is refused
    without counting."""
    tube = Tube(rank)
    if tube.n > MAX_COUNT_RANK or count_max_rigid(tube) > MAX_OBJECTS:
        raise UsageError(
            f"rank {tube.n} has more maximal rigid objects than the bound MAX_OBJECTS = {MAX_OBJECTS}"
        )
    return tube


def _write_each(tube: Tube, key: str, items: Iterable, as_json: bool, to_doc, to_json, to_line) -> int:
    """Write the items one at a time, each as it arrives: a line each, or the
    document ``{key: [to_doc(item), ...], "rank": n, "schema": SCHEMA}``,
    each item printed by ``to_json``."""
    write = sys.stdout.write
    if not as_json:
        for item in items:
            write(to_line(item) + "\n")
        return 0
    # Keys in sorted order, as the printers write them, only because key
    # ("objects" or "pairs") sorts before "rank" and "schema".
    write('{"%s":[' % key)
    sep = ""
    for item in items:
        write(sep + to_json(to_doc(tube, item)))
        sep = ","
    write('],"rank":%d,"schema":%d}\n' % (tube.n, SCHEMA))
    return 0


def cmd_pairs_count(args) -> int:
    print(count_max_rigid(Tube(args.rank)))
    return 0


def cmd_pairs_enumerate(args) -> int:
    tube = _enumerable(args.rank)
    return _write_each(
        tube, "pairs", iter_torsion_pairs(tube), args.json, pair_to_doc, pair_json, _pair_line
    )


def _rigid_line(rigid: MaxRigid) -> str:
    return f"{rigid.kind}: {' '.join(_summand_names(rigid.summands))}"


def cmd_rigid_enumerate(args) -> int:
    tube = _enumerable(args.rank)
    return _write_each(
        tube, "objects", iter_max_rigid(tube), args.json, rigid_to_doc, rigid_json, _rigid_line
    )


def cmd_rigid_of_pair(args) -> int:
    import json  # the one command that reads JSON

    try:
        with open(args.pair, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"cannot read pair file: {exc}")
    tube, pair = pair_from_doc(doc)
    rigid = max_rigid_of(tube, pair)
    if args.json:
        print(rigid_json(rigid_to_doc(tube, rigid)))
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
    if kind == ADIC and not any(x.is_adic for x in summands):
        raise ValidationError("summand list has no Prufer or adic summand")
    pair = torsion_pair_of(tube, MaxRigid(summands, kind))
    if not is_torsion_pair(tube, pair):
        raise ValidationError("summand set is not rigid")
    if args.json:
        print(pair_json(pair_to_doc(tube, pair)))
    else:
        print(_pair_line(pair))
    return 0


def _parse_render_arc(tube: Optional[Tube], text: str):
    if ":" in text:
        name, style = text.split(":", 1)
    else:
        name, style = text, "summand"
    if tube is not None:
        return (parse_obj(tube, name), style)
    # segment arcs are not normalized; the renderer checks segment bounds
    start, end = parse_endpoints(name)
    if start is None or end is None:
        raise UsageError("segment mode takes finite arcs only")
    return (AArc(start, end), style)


def cmd_render(args) -> int:
    from . import render  # only the commands that draw load it

    flag, size = ("--m", args.m) if args.mode == "segment" else ("--rank", args.rank)
    if size is None:
        raise UsageError(f"{args.mode} mode needs {flag}")
    tube = None if args.mode == "segment" else Tube(size)
    spec = render.RenderSpec(args.mode, size, tuple(_parse_render_arc(tube, a) for a in args.arc))
    if args.out:
        render.write_svg(spec, args.out)
    else:
        sys.stdout.write(render.render_svg(spec))
    return 0


def cmd_ar_quiver(args) -> int:
    if args.max_length < 1:
        raise UsageError("--max-length must be at least 1")
    from . import render

    tube = Tube(args.rank)
    for line in render.ar_quiver_lines(tube, args.max_length):
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
    actions = p.add_subparsers(dest="action", required=True)
    p = actions.add_parser("count", help="number of torsion pairs")
    p.add_argument("--rank", type=_integer, required=True)
    p.set_defaults(func=cmd_pairs_count)
    p = actions.add_parser("enumerate", help="every torsion pair")
    p.add_argument("--rank", type=_integer, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pairs_enumerate)

    p = sub.add_parser("rigid", help="maximal rigid objects")
    actions = p.add_subparsers(dest="action", required=True)
    p = actions.add_parser("enumerate", help="every maximal rigid object")
    p.add_argument("--rank", type=_integer, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rigid_enumerate)
    p = actions.add_parser("of-pair", help="maximal rigid object of a torsion pair")
    p.add_argument("--pair", required=True, help="JSON pair document")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rigid_of_pair)

    p = sub.add_parser("pair-of-rigid", help="torsion pair of a maximal rigid object")
    p.add_argument("--rank", type=_integer, required=True)
    p.add_argument("--summands", required=True, help="comma separated arcs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pair_of_rigid)

    p = sub.add_parser("render", help="SVG arc diagram")
    p.add_argument("--mode", choices=["annulus", "cover", "segment"], required=True)
    size = p.add_mutually_exclusive_group()
    size.add_argument("--rank", type=_integer, help="tube rank (annulus, cover)")
    size.add_argument("--m", type=_integer, help="segment size (segment)")
    p.add_argument("--out")
    p.add_argument("--arc", action="append", default=[], help="M[i,j][:style], repeatable")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("ar-quiver", help="text AR-quiver grid")
    p.add_argument("--rank", type=_integer, required=True)
    p.add_argument("--max-length", type=_integer, default=4)
    p.set_defaults(func=cmd_ar_quiver)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValidationError, InfinitePairError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # UsageError among them
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
