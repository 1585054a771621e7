"""tubecalc benchmark: one workload per fresh process, every result checked.

Run from the root of a checkout (the benchmark imports ``src/tubecalc``
from there and nothing else):

    python3 perfbench/run.py --workload census --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16   # every workload, one table
    python3 perfbench/run.py --workload census --seed 1 --trace 1   # per-layer figures

With ``--trace 0`` a run measures one workload for ``--seconds`` seconds of
wall time and reports the end-to-end metrics, every time scaled to nominal
host speed by interleaved reference work (see ``hostspeed.py``), with the
unscaled figures printed beside them.  With ``--trace 1`` it runs one
seeded round of every workload three times, untraced to warm up, traced and
untraced again, and reports the per-layer metrics summed over the workloads
and one column per workload; the spans go to ``.perfbench/`` in the
checkout.  The last line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Each metric's unit is
read from ``BENCHMARK.json``; what it means, the end-to-end metric each
per-layer figure should move, and the baseline measured when the benchmark
was defined are in ``perfbench/metrics.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
BENCH = Path(__file__).resolve().parent

# one client, no helper threads: numpy's BLAS would otherwise start a pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_CHILDREN = 21


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_definitions():
    """Units from BENCHMARK.json; per-workload names from perfbench/metrics.json."""
    try:
        bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        names = json.loads((BENCH / "metrics.json").read_text())["end_to_end"]
    except (OSError, ValueError) as exc:
        fail(f"cannot read the metric definitions: {exc}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    aliases = {(w, key): alias for key, d in names.items() for w, alias in d.get("names", {}).items()}
    return units, aliases


UNITS, ALIASES = load_definitions()


def import_program() -> None:
    """Import tubecalc from this checkout's sources, or stop with exit 2."""
    if not (SRC / "tubecalc" / "__init__.py").is_file():
        fail(f"no tubecalc sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import tubecalc

    if Path(tubecalc.__file__).resolve().parent != (SRC / "tubecalc").resolve():
        fail(f"imported tubecalc from {tubecalc.__file__}, not from {SRC}")


# -- end-to-end figures ------------------------------------------------------------


def setup_seconds(modules) -> float:
    """Median import time of the program over fresh processes (one warm-up
    first), each scaled to nominal host speed by the reference work that
    process runs right after the import."""
    code = (
        "import importlib, statistics, sys, time\n"
        "t = time.perf_counter()\n"
        "for m in sys.argv[2:]: importlib.import_module(m)\n"
        "t = time.perf_counter() - t\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import hostspeed\n"
        "ref = statistics.median(hostspeed.reference_s() for _ in range(3))\n"
        "print(repr(t * hostspeed.NOMINAL_S / ref))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_CHILDREN + 1):
        out = subprocess.run(
            [sys.executable, "-c", code, str(BENCH), *modules],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def percentile(samples, pct: int) -> float:
    if pct == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def with_units(values: dict) -> dict:
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def end_to_end(name: str, seed: int, seconds: float):
    import hostspeed
    import workloads

    setup_s = setup_seconds(workloads.SETUP_MODULES[name])
    rec = workloads.Recorder(seconds=seconds)
    workloads.WORKLOADS[name](rec, seed, workloads.Plant())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = rec.scaled_samples()
    pct = workloads.TAIL_PCT[name]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
        "ops_per_s": rec.attempted / sum(scaled),
        "p50_ms": statistics.median(scaled) * 1e3,
        "tail_ms": percentile(scaled, pct) * 1e3,
    }
    samples = f"{len(scaled)} samples over {rec.rounds} rounds"
    beyond = len(scaled) * (100 - pct) // 100
    notes = {
        "setup_s": f"median of {SETUP_CHILDREN} fresh imports of {', '.join(workloads.SETUP_MODULES[name])}",
        "ops_per_s": f"{rec.attempted} ops; unscaled {rec.attempted / sum(rec.samples):.4f}",
        "p50_ms": f"{samples}; unscaled {statistics.median(rec.samples) * 1e3:.4f}",
        "tail_ms": f"p{pct} of {samples}, {beyond} beyond it" + ("" if beyond >= 10 else " (fewer than ten)")
        + f"; unscaled {percentile(rec.samples, pct) * 1e3:.4f}",
    }
    for key, value in metrics.items():
        alias = ALIASES.get((name, key))
        label = f"{key} ({alias})" if alias else key
        print(f"{name:20s} {label:36s} {value:14.4f} {UNITS[key]:5s} {notes.get(key, '')}")
    frac = rec.failed / rec.attempted if rec.attempted else 1.0
    print(f"{name:20s} {'failed_frac':36s} {frac:14.4f} {'':5s} {rec.failed} of {rec.attempted} ops failed")
    ref = statistics.quantiles(rec.reference, n=4)
    print(f"times are scaled to a host that runs the reference work in {hostspeed.NOMINAL_S * 1e3:g} ms; "
          f"this host took {ref[1] * 1e3:.4f} ms at the median (quartiles {ref[0] * 1e3:.4f}, "
          f"{ref[2] * 1e3:.4f}) over {len(rec.reference)} runs")
    return rec, with_units(metrics)


# -- per-layer figures ---------------------------------------------------------------


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(SRC / "tubecalc").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def one_round_each(seed: int, tracer=None) -> dict:
    """One round of every workload, in order: {workload: (recorder, profile so far)}."""
    import workloads

    out = {}
    for name, workload in workloads.WORKLOADS.items():
        rec = workloads.Recorder(rounds=1, tracer=tracer)
        workload(rec, seed, workloads.Plant())
        out[name] = (rec, tracer.profile() if tracer else None)
    return out


def op_seconds(rec) -> float:
    return sum(rec.scaled_samples())


def ratio(part: float, base: float) -> float:
    return part / base if base else float("nan")


def layer_metrics(p, traced_s: float, untraced_s: float) -> dict:
    c, incl = p.calls, p.incl_s
    return {
        "arcs.normalize_calls": c("arcs.Tube.normalize"),
        "arcs.self_s": p.layer_self_s("arcs"),
        "homs.hom_dim_calls": c("homs.hom_dim"),
        "homs.ext_dim_calls": c("homs.ext_dim"),
        "homs.self_s": p.layer_self_s("homs"),
        "homs.hom_calls_per_accept": ratio(c("homs.hom_dim"), p.counts["ops.accept"]),
        "homs.hom_calls_per_reject": ratio(c("homs.hom_dim"), p.counts["ops.reject"]),
        "torsion.enumerate_s": incl("torsion.enumerate_max_rigid"),
        "torsion.torsion_pair_of_s": incl("torsion.torsion_pair_of"),
        "torsion.max_rigid_of_s": incl("torsion.max_rigid_of"),
        "torsion.is_torsion_pair_s": incl("torsion.is_torsion_pair"),
        "torsion.perp_calls": c("torsion.right_perp") + c("torsion.left_perp"),
        "torsion.perp_arcs_examined": p.counts["torsion.perp_arcs_examined"],
        "torsion.members_calls": c("torsion.members"),
        "torsion.self_s": p.layer_self_s("torsion"),
        "torsion.validate_share": ratio(incl("torsion.is_torsion_pair"), incl("torsion.max_rigid_of")),
        "type_a.enumerate_tilting_calls": c("type_a.enumerate_tilting"),
        "type_a.closure_calls": c("type_a.left_closure") + c("type_a.right_closure"),
        "type_a.self_s": p.layer_self_s("type_a"),
        "oracle.build_rep_calls": c("oracle.build_rep"),
        "oracle.hom_dim_oracle_calls": c("oracle.hom_dim_oracle"),
        "oracle.system_cells": p.counts["oracle.system_cells"],
        "oracle.brute_force_s": incl("oracle.brute_force_max_rigid"),
        "oracle.self_s": p.layer_self_s("oracle"),
        "serialize.pair_to_doc_calls": c("serialize.pair_to_doc"),
        "serialize.pair_from_doc_s": incl("serialize.pair_from_doc"),
        "serialize.self_s": p.layer_self_s("serialize"),
        "render.render_svg_calls": c("render.render_svg"),
        "render.svg_bytes": p.counts["render.svg_bytes"],
        "render.self_s": p.layer_self_s("render"),
        "cli.self_s": p.layer_self_s("cli"),
        "cli.output_bytes": p.counts["cli.output_bytes"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }


def cell(value) -> str:
    if isinstance(value, int):
        return str(value)
    return "-" if value != value else format(value, ".6g")  # nan: no base on this workload


def per_layer(seed: int):
    from tracer import Tracer

    # The untraced warm-up round fills tubecalc's caches (census fills the
    # tilting-set cache crosscheck_oracle reuses) before either measured pass.
    warm = one_round_each(seed)
    tr = Tracer()
    tr.install()
    before = tr.profile()
    traced = one_round_each(seed, tr)
    tr.uninstall()
    untraced = one_round_each(seed)

    columns = {}
    for name, (rec, after) in traced.items():
        columns[name] = layer_metrics(after - before, op_seconds(rec), op_seconds(untraced[name][0]))
        before = after
    traced_s = sum(op_seconds(rec) for rec, _ in traced.values())
    untraced_s = sum(op_seconds(rec) for rec, _ in untraced.values())
    total = tr.profile()
    m = layer_metrics(total, traced_s, untraced_s)
    # a per-document ratio belongs to the one workload whose documents it counts
    m["homs.hom_calls_per_accept"] = columns["invert_accept"]["homs.hom_calls_per_accept"]
    m["homs.hom_calls_per_reject"] = columns["invert_reject"]["homs.hom_calls_per_reject"]
    columns = {"all": m, **columns}

    print(f"{'metric':34s} {'unit':8s}" + "".join(f"{name:>19s}" for name in columns))
    for key in m:
        cells = "".join(f"{cell(col[key]):>19s}" for col in columns.values())
        print(f"{key:34s} {UNITS[key]:8s}{cells}")
    print(f"traced run: one round of every workload, seed {seed}, after an untraced warm-up round; "
          f"'all' sums the workloads; homs.hom_calls_per_accept has base {total.counts['ops.accept']} "
          f"accepted documents, homs.hom_calls_per_reject {total.counts['ops.reject']} rejected ones; "
          "oracle.system_cells is computed from the representations' dimension vectors")

    STATE.mkdir(exist_ok=True)
    tr.write(str(STATE / f"spans-{seed}.json.gz"))
    counts = {**{f"calls.{k}": st[0] for k, st in sorted(total.stats.items())}, **dict(sorted(total.counts.items()))}
    report_count_drift(seed, counts)
    recs = [rec for run in (warm, traced, untraced) for rec, _ in run.values()]
    return sum(r.attempted for r in recs), sum(r.failed for r in recs), with_units(m)


def report_count_drift(seed: int, counts: dict) -> None:
    """Compare counts with an earlier traced run of the same code and seed."""
    path = STATE / f"counts-{seed}-{code_digest()}.json"
    for stale in STATE.glob(f"counts-{seed}-*.json"):
        if stale != path:
            stale.unlink()
    if path.is_file():
        earlier = json.loads(path.read_text())
        drift = sorted(k for k in earlier.keys() | counts.keys() if earlier.get(k) != counts.get(k))
        for k in drift:
            print(f"count differs from the earlier traced run: {k} {earlier.get(k)} -> {counts.get(k)}")
        if not drift:
            print(f"all {len(counts)} counts repeat the earlier traced run exactly")
    path.write_text(json.dumps(counts, indent=0, sort_keys=True))


# -- entry point -----------------------------------------------------------------------


def run_everything(seed: int, seconds: int) -> int:
    """Each workload in its own fresh process; one table of every figure."""
    import workloads

    results, ok = {}, True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= results[name]["correct"]
    print(f"{'workload':20s} {'metric':24s} {'value':>14s} unit")
    for name, res in results.items():
        frac = res["failed"] / res["attempted"]
        for key, m in res["metrics"].items():
            label = ALIASES.get((name, key), key)
            print(f"{name:20s} {label:24s} {m['value']:14.4f} {m['unit']}")
        print(f"{name:20s} {'failed_frac':24s} {frac:14.4f} ({res['failed']}/{res['attempted']})")
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    import workloads

    if args.workload == "all":
        return run_everything(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.trace:
        attempted, failed, metrics = per_layer(args.seed)
    else:
        rec, metrics = end_to_end(args.workload, args.seed, args.seconds)
        attempted, failed = rec.attempted, rec.failed
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
