"""Acceptance suite: one test per criterion, exact-match throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion with its runtime.
"""

import io
import itertools
import contextlib
import os
import time
from functools import lru_cache
from math import comb

from tubecalc import oracle
from tubecalc import type_a as ta
from tubecalc.arcs import Tube, sort_key
from golden_specs import golden_specs
from tubecalc.cli import main
from tubecalc.homs import ext_dim, hom_dim
from tubecalc.render import render_svg
from tubecalc.torsion import (
    TorsionPair,
    enumerate_max_rigid,
    everything,
    is_ext_closed,
    is_quotient_closed,
    is_sub_closed,
    is_torsion_pair,
    make_desc,
    max_rigid_of,
    prufer_type_rigids,
    reflect_pair,
    reflect_rigid,
    torsion_pair_of,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def report(number, label, started):
    print(f"ACCEPTANCE {number}: {label} PASS ({time.monotonic() - started:.1f}s)")


def test_criterion_1_counting():
    started = time.monotonic()
    expected = [2, 6, 20, 70, 252, 924, 3432, 12870]
    for n, want in zip(range(1, 9), expected):
        assert want == 2 * comb(2 * n - 1, n - 1)
        got = run_cli(["pairs", "count", "--rank", str(n)])
        assert got == f"{want}\n", (n, got)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"counting took {elapsed:.1f}s"
    report(1, "torsion-pair counts for n=1..8", started)


def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    for n in range(1, 6):
        tube = Tube(n)
        objs = tube.finite_objects(12)
        reps = {x: oracle.build_rep(tube, x) for x in objs}
        for x, y in itertools.product(objs, objs):
            assert ext_dim(tube, x, y) == oracle.ext_dim_oracle(reps[x], reps[y]), (n, x, y)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    report(2, "crossing formula = linear-algebra Ext (n<=5, len<=12)", started)


def test_criterion_3_translate_duality():
    started = time.monotonic()
    for n in range(1, 6):
        tube = Tube(n)
        objs = tube.finite_objects(12)
        for x, y in itertools.product(objs, objs):
            assert hom_dim(tube, y, tube.tau(x)) == ext_dim(tube, x, y), (n, x, y)
    report(3, "Hom(Y, tau X) = Ext(X, Y) over the same range", started)


def test_criterion_4_bijection_round_trips():
    started = time.monotonic()
    for n in range(1, 7):
        tube = Tube(n)
        rigids = enumerate_max_rigid(tube)
        pairs = [torsion_pair_of(tube, u) for u in rigids]
        assert len({(p.t_part, p.f_part, p.kind) for p in pairs}) == len(pairs)
        for u, pair in zip(rigids, pairs):
            assert max_rigid_of(tube, pair) == u, (n, u)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"round trips took {elapsed:.1f}s"
    report(4, "both bijection round trips are identities (n<=6)", started)


def test_criterion_5_brute_force_agreement():
    started = time.monotonic()
    for n in range(1, 7):
        tube = Tube(n)
        cliques = oracle.brute_force_max_rigid(tube)
        for c in cliques:
            assert len(c) == n
            assert any(x.is_prufer for x in c) != any(x.is_adic for x in c)
        assert set(cliques) == {u.summands for u in enumerate_max_rigid(tube)}, n
    report(5, "structured enumeration = maximal cliques (n<=6)", started)


def _perturb(tube, desc):
    if desc.finite_objs:
        drop = max(desc.finite_objs, key=sort_key)
        return make_desc(tube, desc.finite_objs - {drop}, desc.rays, desc.corays)
    if desc == everything(tube):
        return make_desc(tube, rays=range(1, tube.n))
    if desc.rays:
        return make_desc(tube, desc.finite_objs, sorted(desc.rays)[1:], desc.corays)
    if desc.corays:
        return make_desc(tube, desc.finite_objs, desc.rays, sorted(desc.corays)[1:])
    return None


def test_criterion_6_closure_properties():
    started = time.monotonic()
    for n in range(1, 6):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            pair = torsion_pair_of(tube, u)
            assert is_ext_closed(tube, pair.t_part)
            assert is_quotient_closed(tube, pair.t_part)
            assert is_ext_closed(tube, pair.f_part)
            assert is_sub_closed(tube, pair.f_part)
            assert is_torsion_pair(tube, pair)
            for side in ("t", "f"):
                desc = pair.t_part if side == "t" else pair.f_part
                smaller = _perturb(tube, desc)
                if smaller is None:
                    continue
                if side == "t":
                    broken = TorsionPair(smaller, pair.f_part, pair.kind)
                else:
                    broken = TorsionPair(pair.t_part, smaller, pair.kind)
                assert not is_torsion_pair(tube, broken), (n, u, side)
    report(6, "closure predicates and perturbation failures (n<=5)", started)


def test_criterion_7_reflection_square():
    started = time.monotonic()
    for n in range(1, 6):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            pair = torsion_pair_of(tube, u)
            mirrored = torsion_pair_of(tube, reflect_rigid(tube, u))
            assert mirrored == reflect_pair(tube, pair), (n, u)
            assert mirrored.kind != pair.kind
    report(7, "reflection square commutes and flips the kind (n<=5)", started)


@lru_cache(maxsize=None)
def _triangulations(k):
    if k <= 3:
        return 1
    return sum(_triangulations(a + 1) * _triangulations(k - a) for a in range(1, k - 1))


def test_criterion_8_type_a():
    started = time.monotonic()
    catalan = [1, 2, 5, 14, 42, 132]
    for m, want in zip(range(1, 7), catalan):
        tiltings = ta.enumerate_tilting(m)
        assert len(tiltings) == want == _triangulations(m + 2)
        inj = set(ta.injective_arcs(m))
        proj = set(ta.projective_arcs(m))
        for u in tiltings:
            t, f = ta.torsion_pair_of_tilting(m, u)
            assert ta.is_torsion_pair(m, t, f)
            assert inj <= t
            assert ta.tilting_of_torsion_pair(m, t) == u
            t2, f2 = ta.second_torsion_pair_of_tilting(m, u)
            assert ta.is_torsion_pair(m, t2, f2)
            assert proj <= f2
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"type A took {elapsed:.1f}s"
    report(8, "type A: Catalan counts, both maps, recovery (m<=6)", started)


def test_criterion_9_worked_example():
    started = time.monotonic()
    tube = Tube(14)
    idx = [0, 6, 10, 13]
    wings = [(0, 7), (6, 11), (10, 14), (13, 15)]
    wing_sets = [tube.wing_members(a, b - a) for (a, b) in wings]
    rigids = prufer_type_rigids(tube, idx)
    assert rigids
    for u in rigids:
        pair = torsion_pair_of(tube, u)
        assert sorted(pair.f_part.rays) == idx
        assert pair.t_part.is_finite_type
        for x in pair.t_part.finite_objs:
            assert sum(1 for w in wing_sets if x in w) == 1, (u, x)
    decomposition = Tube(10).wing_intersection([0, 4, 7, 8])
    assert [(w.start, w.end) for w in decomposition] == [(0, 4), (4, 7), (7, 8), (8, 10)]
    assert [w.is_zero for w in decomposition] == [False, False, True, False]
    report(9, "rank-14 worked example and wing decomposition", started)


def test_criterion_10_determinism():
    started = time.monotonic()
    commands = [
        ["pairs", "enumerate", "--rank", "3"],
        ["pairs", "enumerate", "--rank", "3", "--json"],
        ["rigid", "enumerate", "--rank", "4"],
        ["rigid", "enumerate", "--rank", "4", "--json"],
        ["ar-quiver", "--rank", "3", "--max-length", "5"],
        ["render", "--mode", "annulus", "--rank", "5",
         "--arc", "M[0,inf]:prufer", "--arc", "M[1,3]"],
    ]
    for argv in commands:
        assert run_cli(argv) == run_cli(argv), argv
    for name, spec in golden_specs().items():
        assert render_svg(spec) == render_svg(spec), name
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            assert render_svg(spec).encode("utf-8") == fh.read(), name
    report(10, "enumeration and rendering are byte-deterministic", started)
