"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. One round of every workload passes all of its checks.
2. For every check, planting a wrong expected value makes ops fail, so
   each check is shown able to fail.
3. Two traced runs with the same seed, in fresh processes, give the same
   counts.
4. In a directory holding only BENCHMARK.json and the benchmark itself,
   run.py exits non-zero without printing a result.

Exits 0 when all of these hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

COUNT_UNITS = {"count", "bytes", "calls/op"}


def short_run(workloads, name: str, check: str = ""):
    rec = workloads.Recorder(rounds=1)
    workloads.WORKLOADS[name](rec, 7, workloads.Plant(check))
    return rec.attempted, rec.failed


def traced_counts(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "census",
         "--seed", str(seed), "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in COUNT_UNITS}


def bare_directory_refuses() -> bool:
    bare = run.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return proc.returncode != 0 and not proc.stdout.strip()


def main() -> int:
    run.import_program()
    import workloads

    problems = []
    for name, checks in workloads.CHECKS.items():
        attempted, failed = short_run(workloads, name)
        print(f"{name:20s} clean                 attempted {attempted:6d} failed {failed}")
        if attempted == 0 or failed:
            problems.append(f"{name}: the clean short run failed {failed} of {attempted} ops")
        for check in checks:
            attempted, failed = short_run(workloads, name, check)
            print(f"{name:20s} planted {check:12s} attempted {attempted:6d} failed {failed}")
            if not failed:
                problems.append(f"{name}: a wrong expected value for {check!r} went unnoticed")

    run.STATE.mkdir(exist_ok=True)
    first, second = traced_counts(11), traced_counts(11)
    drift = sorted(k for k in first if first[k] != second.get(k))
    print(f"traced counts: {len(first)} compared across two runs, {len(drift)} differ")
    problems += [f"count {k} differs: {first[k]} vs {second.get(k)}" for k in drift]

    refused = bare_directory_refuses()
    print(f"bare directory: {'refused' if refused else 'NOT refused'}")
    if not refused:
        problems.append("run.py printed a result or exited 0 without the program's sources")

    for p in problems:
        print(f"selftest: {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
