"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the seed and its position in the input
list, so the same seed gives the same documents in every process.

Maximal rigid objects are sampled without enumerating them: a random
anchor set (the Prufer starts), then a random triangulation of each wing
between cyclically consecutive anchors, placed at the wing base as
A_{g-1} arcs.  Adic-type objects are the reflections of Prufer-type ones.
"""

from __future__ import annotations

import random

from tubecalc import homs, serialize, torsion, type_a
from tubecalc.arcs import Tube, format_obj
from tubecalc.type_a import AArc

INVERT_RANKS = (8, 12, 16, 20)
CORRUPTIONS = ("add_arc", "drop_arc", "add_ray", "drop_ray")


class InputError(RuntimeError):
    """The generator produced something that fails its own checks."""


def rng_for(seed: int, stream: str, index: int) -> random.Random:
    # string seeds go through sha512, so they do not depend on hash randomization
    return random.Random(f"{seed}:{stream}:{index}")


def random_tilting(rng: random.Random, gap: int) -> frozenset:
    """A random triangulation of the (gap+1)-gon: a tilting set of A_{gap-1}."""
    out = set()
    if gap >= 2:
        out.add(AArc(0, gap))
    todo = [(0, gap)]
    while todo:
        lo, hi = todo.pop()
        if hi - lo < 2:
            continue
        apex = rng.randint(lo + 1, hi - 1)
        for a, b in ((lo, apex), (apex, hi)):
            if b - a >= 2:
                out.add(AArc(a, b))
                todo.append((a, b))
    return frozenset(out)


def sample_max_rigid(rng: random.Random, tube: Tube, kind: str, k: int) -> torsion.MaxRigid:
    """A maximal rigid object of the given kind with k one-sided summands."""
    n = tube.n
    anchors = sorted(rng.sample(range(n), k))
    summands = {tube.prufer(i) for i in anchors}
    for r, base in enumerate(anchors):
        nxt = anchors[r + 1] if r + 1 < len(anchors) else anchors[0] + n
        gap = nxt - base
        tilting = random_tilting(rng, gap)
        if not type_a.is_tilting(gap - 1, tilting):
            raise InputError(f"sampled wing of gap {gap} is not tilting: {sorted(map(str, tilting))}")
        summands.update(tube.normalize(base + a.i, base + a.j) for a in tilting)
    if kind == torsion.ADIC:
        summands = {tube.reflect(x) for x in summands}
    summands = frozenset(summands)
    if len(summands) != n or not homs.is_rigid(tube, summands):
        raise InputError(f"sampled object is not maximal rigid at rank {n}")
    return torsion.MaxRigid(summands, kind)


def invert_schedule():
    """(rank, kind, number of one-sided summands) for one round of documents:
    every rank, both kinds and every summand count once, so a round's mix
    does not depend on the seed; the seed picks anchors and triangulations."""
    return [
        (n, kind, k)
        for n in INVERT_RANKS
        for kind in (torsion.PRUFER, torsion.ADIC)
        for k in range(1, n + 1)
    ]


def _valid_case(rng: random.Random, n: int, kind: str, k: int):
    tube = Tube(n)
    rigid = sample_max_rigid(rng, tube, kind, k)
    pair = torsion.torsion_pair_of(tube, rigid)
    return serialize.pair_to_doc(tube, pair), serialize.rigid_to_doc(tube, rigid)


def accept_cases(seed: int):
    """[(pair document, expected rigid document)], one per schedule entry."""
    return [
        _valid_case(rng_for(seed, "accept", i), *entry)
        for i, entry in enumerate(invert_schedule())
    ]


def _corrupt(rng: random.Random, doc: dict, how: str):
    n = doc["rank"]
    free = doc["free"]
    rays = set(free["rays"])
    if how == "add_arc":
        start = rng.randrange(n)
        end = start + rng.randint(1, 2 * n) + 1
        free["finite"].append(format_obj(Tube(n).normalize(start, end)))
    elif how == "drop_arc":
        if not free["finite"]:
            return False
        free["finite"].pop(rng.randrange(len(free["finite"])))
    elif how == "add_ray":
        missing = sorted(set(range(n)) - rays)
        if not missing:
            return False
        free["rays"] = sorted(rays | {rng.choice(missing)})
    elif how == "drop_ray":
        if not rays:
            return False
        free["rays"] = sorted(rays - {rng.choice(sorted(rays))})
    else:
        raise ValueError(f"unknown corruption {how!r}")
    return True


def reject_cases(seed: int):
    """Pair documents whose free side no longer matches their torsion side,
    one per schedule entry and corruption kind.

    The torsion side of a torsion pair determines the free side, so any
    change to the free descriptor alone leaves a document that must be
    rejected.  A corruption that cannot apply, or that make_desc would
    absorb (an added arc starting at a listed ray, say), falls through to
    the next kind.
    """
    out = []
    for i, entry in enumerate(invert_schedule()):
        for c in range(len(CORRUPTIONS)):
            rng = rng_for(seed, "reject", i * len(CORRUPTIONS) + c)
            out.append(_reject_case(rng, entry, c))
    return out


def _reject_case(rng: random.Random, entry, first: int) -> dict:
    good, _ = _valid_case(rng, *entry)
    _, pair = serialize.pair_from_doc(good)
    for step in range(4 * len(CORRUPTIONS)):
        how = CORRUPTIONS[(first + step) % len(CORRUPTIONS)]
        doc = {
            **good,
            "free": {"finite": list(good["free"]["finite"]), "rays": list(good["free"]["rays"])},
        }
        if not _corrupt(rng, doc, how):
            continue
        _, bad = serialize.pair_from_doc(doc)
        if bad.t_part != pair.t_part:
            raise InputError("a free-side corruption changed the torsion side")
        if bad.f_part != pair.f_part:
            return doc
    raise InputError(f"no corruption changed the free side of {entry}")
