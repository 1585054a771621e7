"""The benchmark workloads: closed loops with one client, checked op by op.

A workload builds a fixed, seeded list of cases, then runs the whole list
in rounds (in a seeded order per round) until its time budget is spent.
Every op of every round is checked; an op whose result fails a check, or
that raises where it should not, counts as failed.  Only the calls into
tubecalc are timed: input generation and checks run outside the timed
region.  Every op's time is kept as one latency sample, together with the
host's speed measured just before, during (long ops of timed runs) and just
after it (see hostspeed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
from array import array
from math import comb
from time import perf_counter

import hostspeed
import inputs
from tracer import NullTracer
from tubecalc import cli, homs, render, serialize, torsion, type_a
from tubecalc.arcs import Tube

CENSUS_RANK = 8
CENSUS_ARGV = ("pairs", "enumerate", "--rank", str(CENSUS_RANK), "--json")
CENSUS_OBJECTS = 2 * comb(2 * CENSUS_RANK - 1, CENSUS_RANK - 1)
# SHA-256 of `tubecalc pairs enumerate --rank 8 --json` at the commit the
# benchmark was defined on; the output bytes must not change.
CENSUS_SHA256 = "a528d6fc621ede178d6829b2d976bf3e5b2975fd492820b804456d2a1930e016"
CENSUS_SAMPLE = 8
ORACLE_RANK = 5
SEGMENT_M = 8
BRUTE_FORCE = "brute_force"
ENUMERATE = "enumerate"
# The host's speed changes within a second, so it is measured often: after
# every REFERENCE_EVERY_S of op time, and every SAMPLE_IN_OP_S inside an op
# that runs longer (a reference run takes 1-2 ms).
REFERENCE_EVERY_S = 0.02
SAMPLE_IN_OP_S = 0.05

# The percentile tail_ms reports on each workload.  It is fixed, so that it
# does not move with the number of samples a run happens to take: the highest
# with at least ten samples beyond it in a 16-second run on the commit the
# benchmark was defined on, and well below the share (under 0.1%) of the one
# whole-set check each crosscheck round makes.  Census takes a few samples a
# run, so its tail is the median.
TAIL_PCT = {
    "census": 50,
    "invert_accept": 90,
    "invert_reject": 99,
    "crosscheck_oracle": 99,
    "crosscheck_segment": 99,
}

# the checks each workload makes; the self-test plants a wrong expected value in each
CHECKS = {
    "census": ("exit", "count", "sha256", "round_trip"),
    "invert_accept": ("summands", "svg"),
    "invert_reject": ("rejected",),
    "crosscheck_oracle": ("hom", "ext", "brute_force"),
    "crosscheck_segment": ("count", "torsion_pair", "round_trip"),
}


class Plant:
    """Replaces one named check's expected value with a wrong one."""

    def __init__(self, check: str = ""):
        self.check = check

    def expect(self, check: str, value, wrong):
        return wrong if check == self.check else value


class Recorder:
    """Runs rounds within a wall-clock budget (timed runs) or for a fixed
    number of rounds (traced runs), keeping every op's time and the host's
    speed around it (see hostspeed)."""

    def __init__(self, seconds=None, rounds=None, tracer=None):
        self.seconds, self.max_rounds = seconds, rounds
        self.tracer = tracer or NullTracer()
        self.rounds = 0
        # arrays, not lists: what the benchmark keeps per op stays small
        # beside the program's own memory in peak_rss_mb
        self.samples = array("d")  # seconds of every timed call, every round
        self.reference = array("d")  # seconds of every run of the reference work
        self.ref_before = array("q")  # per sample: the last reference run before it
        self.ref_during = array("q")  # per sample: the last reference run before its end
        self.since_reference = 0.0
        self.interrupts = []  # (start, seconds) of every reference run inside an op
        self.attempted = 0
        self.failed = 0
        self.start = perf_counter()
        # Timed runs also measure the host inside ops longer than
        # SAMPLE_IN_OP_S (census takes seconds); one-round runs do not, so
        # that no reference work lands inside a traced span.
        self.sample_in_ops = seconds is not None
        if self.sample_in_ops:
            signal.signal(signal.SIGALRM, self._interrupt)

    def more(self) -> bool:
        """Another round, if one of average length still fits in the budget."""
        if self.max_rounds is not None:
            return self.rounds < self.max_rounds
        if self.rounds == 0:
            return True
        elapsed = perf_counter() - self.start
        return elapsed * (self.rounds + 1) / self.rounds <= self.seconds

    def measure_host(self) -> None:
        self.reference.append(hostspeed.reference_s())
        self.since_reference = 0.0

    def _interrupt(self, signum, frame) -> None:
        start = perf_counter()
        self.reference.append(hostspeed.reference_s())
        self.interrupts.append((start, perf_counter() - start))

    def time_call(self, run_case, case):
        """One op: its result (or the exception it raised) and its seconds,
        less any reference work run inside it."""
        before = len(self.reference) - 1
        if self.sample_in_ops:
            self.interrupts.clear()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_IN_OP_S, SAMPLE_IN_OP_S)
        t0 = perf_counter()
        try:
            got = run_case(case)
        except Exception as exc:  # a failed op; the check judges it
            got = exc
        end = perf_counter()
        if self.sample_in_ops:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.ref_before.append(before)
        self.ref_during.append(len(self.reference) - 1)
        return got, end - t0 - sum(dt for start, dt in self.interrupts if start < end)

    def record(self, seconds: float, ok: bool, weight: int) -> None:
        """One timed call that did `weight` ops (census: one per object)."""
        self.attempted += weight
        self.failed += 0 if ok else weight
        self.samples.append(seconds)
        self.since_reference += seconds
        if self.since_reference >= REFERENCE_EVERY_S:
            self.measure_host()

    def scaled_samples(self) -> list:
        """Every call's seconds at nominal host speed: scaled by the mean of
        the reference runs just before, during and just after it."""
        ref = self.reference
        out = []
        for dt, first, last in zip(self.samples, self.ref_before, self.ref_during):
            around = ref[first:last + 2]
            out.append(dt * hostspeed.NOMINAL_S * len(around) / sum(around))
        return out


def run_rounds(rec: Recorder, seed: int, kind: str, cases, run_case, check, weight=1) -> None:
    """The closed loop: one op at a time, the next only after the last returns."""
    rec.start = perf_counter()
    rec.measure_host()
    while rec.more():
        order = list(range(len(cases)))
        inputs.rng_for(seed, f"{kind}-order", rec.rounds).shuffle(order)
        for key in order:
            with rec.tracer.op(kind, f"{rec.rounds}.{key}"):
                got, dt = rec.time_call(run_case, cases[key])
            rec.record(dt, check(cases[key], got, rec.rounds), weight)
        rec.rounds += 1
    rec.measure_host()


# -- census ------------------------------------------------------------------------


def _census_run(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _round_trips(doc: dict, plant: Plant) -> bool:
    tube, pair = serialize.pair_from_doc(doc)
    rigid = torsion.max_rigid_of(tube, pair)
    back = serialize.pair_to_doc(tube, torsion.torsion_pair_of(tube, rigid))
    return back == plant.expect("round_trip", doc, {**doc, "kind": "planted"})


def census(rec: Recorder, seed: int, plant: Plant) -> None:
    def check(case, got, round_index) -> bool:
        if isinstance(got, Exception):
            return False
        code, text = got
        out = text.encode("utf-8")
        rec.tracer.count("cli.output_bytes", len(out))
        ok = code == plant.expect("exit", 0, 1)
        ok &= hashlib.sha256(out).hexdigest() == plant.expect("sha256", CENSUS_SHA256, "")
        pairs = json.loads(out)["pairs"] if code == 0 else []
        ok &= len(pairs) == plant.expect("count", CENSUS_OBJECTS, CENSUS_OBJECTS + 1)
        rng = inputs.rng_for(seed, "census", round_index)
        sample = rng.sample(pairs, min(CENSUS_SAMPLE, len(pairs)))
        return ok and all([_round_trips(doc, plant) for doc in sample])

    run_rounds(rec, seed, "census", [CENSUS_ARGV], _census_run, check, weight=CENSUS_OBJECTS)


# -- invert ------------------------------------------------------------------------


def _invert(doc: dict):
    """pair document -> maximal rigid document and its annulus diagram."""
    tube, pair = serialize.pair_from_doc(doc)
    rigid = torsion.max_rigid_of(tube, pair)
    out = serialize.rigid_to_doc(tube, rigid)
    arcs = tuple((x, "summand" if x.is_finite else rigid.kind) for x in rigid.summands)
    svg = render.render_svg(render.RenderSpec("annulus", tube.n, arcs))
    return out, svg


def invert_accept(rec: Recorder, seed: int, plant: Plant) -> None:
    def check(case, got, _) -> bool:
        if isinstance(got, Exception):
            return False
        expected = case[1]
        expected = plant.expect("summands", expected, {**expected, "summands": expected["summands"][1:]})
        doc, svg = got
        one_sided = sum(1 for s in expected["summands"] if "inf" in s)
        drawn = (svg.count('<path class="arc '), svg.count('<polygon class="arrow '))
        return doc == expected and svg.endswith("</svg>\n") and drawn == plant.expect(
            "svg", (expected["rank"], one_sided), (0, 0)
        )

    cases = inputs.accept_cases(seed)
    run_rounds(rec, seed, "accept", cases, lambda case: _invert(case[0]), check)


def invert_reject(rec: Recorder, seed: int, plant: Plant) -> None:
    # a wrongly accepted document returns normally, so the op's result is None
    expected = plant.expect("rejected", torsion.ValidationError, type(None))

    def run_case(doc) -> None:
        _invert(doc)

    def check(case, got, _) -> bool:
        return isinstance(got, expected)

    run_rounds(rec, seed, "reject", inputs.reject_cases(seed), run_case, check)


# -- crosscheck ----------------------------------------------------------------------


def crosscheck_oracle(rec: Recorder, seed: int, plant: Plant) -> None:
    from tubecalc import oracle

    tube = Tube(ORACLE_RANK)
    arcs = tube.finite_objects(2 * ORACLE_RANK - 1)
    cases = [(x, y) for x in arcs for y in arcs] + [BRUTE_FORCE]

    def run_case(case):
        if case == BRUTE_FORCE:
            cliques = oracle.brute_force_max_rigid(tube)
            return cliques, [u.summands for u in torsion.enumerate_max_rigid(tube)]
        x, y = case
        a, b = oracle.build_rep(tube, x), oracle.build_rep(tube, y)
        got = (oracle.hom_dim_oracle(a, b), oracle.ext_dim_oracle(a, b))
        return got, (homs.hom_dim(tube, x, y), homs.ext_dim(tube, x, y))

    def check(case, got, _) -> bool:
        if isinstance(got, Exception):
            return False
        if case == BRUTE_FORCE:
            cliques, enumerated = got
            enumerated = plant.expect("brute_force", enumerated, enumerated[1:])
            return set(cliques) == set(enumerated) and len(cliques) == len(enumerated)
        oracle_dims, (hom, ext) = got
        return oracle_dims == (plant.expect("hom", hom, hom + 1), plant.expect("ext", ext, ext + 1))

    run_rounds(rec, seed, "oracle", cases, run_case, check)


def crosscheck_segment(rec: Recorder, seed: int, plant: Plant) -> None:
    m = SEGMENT_M
    tiltings = type_a.enumerate_tilting(m)
    position = {u: k for k, u in enumerate(tiltings)}
    catalan = comb(2 * m, m) // (m + 1)

    def run_case(u):
        if u == ENUMERATE:
            return type_a.enumerate_tilting(m)
        t_part, f_part = type_a.torsion_pair_of_tilting(m, u)
        return type_a.is_torsion_pair(m, t_part, f_part), type_a.tilting_of_torsion_pair(m, t_part)

    def check(u, got, _) -> bool:
        if isinstance(got, Exception):
            return False
        if u == ENUMERATE:
            return len(got) == plant.expect("count", catalan, catalan + 1) and got == tiltings
        is_pair, back = got
        other = tiltings[position[u] - 1]
        return is_pair == plant.expect("torsion_pair", True, False) and back == plant.expect(
            "round_trip", u, other
        )

    run_rounds(rec, seed, "segment", list(tiltings) + [ENUMERATE], run_case, check)


WORKLOADS = {
    "census": census,
    "invert_accept": invert_accept,
    "invert_reject": invert_reject,
    "crosscheck_oracle": crosscheck_oracle,
    "crosscheck_segment": crosscheck_segment,
}

# modules a fresh process imports before the workload can run (for setup_s)
SETUP_MODULES = {
    name: ["tubecalc", "tubecalc.cli"] + (["tubecalc.oracle"] if name == "crosscheck_oracle" else [])
    for name in WORKLOADS
}
