"""Run one rankforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports rankforge from `src/` there
and from nowhere else.  The workloads, metric names and units are listed in
BENCHMARK.json at the root.

A run is a closed loop: one caller issues each op only after the previous
one returned.  A pass issues every op of the workload once.  The run starts
with a cold pass (no warm-up: CLI users pay for lazily built tables on every
run) and starts another pass only while the pass time measured so far still
fits in --seconds.  wall_s and cpu_s are the time of the calls in the cold
first pass; later passes only check that the outputs repeat.  Each pass's
outputs are reduced to digests and checked; an op fails on an exception, a
failed output check, or a digest that differs from an earlier pass or from
the pinned digests in expected.json.  At the library's default budget a refused op also makes the
run incorrect.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs one untraced
pass in a fresh child process, then one traced pass here, and prints the
per-layer metrics; its digests must equal the child's and the pinned ones.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it is a record with the environment
(nproc, Python and numpy versions, worker count, seed), the pass times and
the op digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # fresh processes that only set up, besides the run's own set-up


def die(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def import_rankforge() -> None:
    """Import rankforge from the checkout's src/, or exit if it is not there."""
    if not (SRC / "rankforge" / "__init__.py").is_file():
        die(f"no rankforge sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import rankforge

    if Path(rankforge.__file__).resolve().parent != SRC / "rankforge":
        die(f"imported rankforge from {rankforge.__file__}, not from {SRC}")


def setup(workload: str, seed: int, budget: int | None):
    """Import rankforge and build the inputs: (workers, ops, seconds taken)."""
    t0 = time.perf_counter()
    import_rankforge()
    import workloads

    w = workloads.WORKLOADS[workload]
    ops = w.build(seed, budget)
    return w.workers, ops, time.perf_counter() - t0


def run_pass(ops, refusal, tracer=None) -> dict:
    """Issue every op once; time each call, then check its output untimed."""
    wall, cpu, outcomes, digests = [], [], [], []
    for op in ops:
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        result, outcome = None, None
        try:
            result = op.call()
        except refusal:
            outcome = "refused"
        except Exception:
            traceback.print_exc()
            outcome = "failed"
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        wall.append(t1 - t0)
        cpu.append((r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime))
        digest = None
        if outcome is None:
            if tracer is not None:
                tracer.enabled = False
            try:
                outcome, digest = op.check(result)
            except Exception:
                traceback.print_exc()
                outcome = "failed"
            finally:
                if tracer is not None:
                    tracer.enabled = True
        outcomes.append(outcome)
        digests.append(digest)
    return {"wall_s": wall, "cpu_s": cpu, "outcomes": outcomes, "digests": digests}


def mark_mismatches(ops, passes, reference) -> list[str]:
    """Fail every ok op whose digest differs from the reference or the first pass."""
    bad = []
    for p in passes:
        for i, op in enumerate(ops):
            if p["outcomes"][i] != "ok":
                continue
            want = [passes[0]["digests"][i]]
            if isinstance(reference, dict) and op.name in reference:
                want.append(reference[op.name])
            elif isinstance(reference, list):
                want.append(reference[i])
            if any(p["digests"][i] != w for w in want):
                p["outcomes"][i] = "failed"
                bad.append(op.name)
    return bad


def pinned(workload: str, seed: int):
    table = json.loads((HERE / "expected.json").read_text()).get(workload, {})
    return table.get("*", table.get(str(seed)))


def probe_setup(args) -> list[float]:
    """Set-up times of fresh processes (import plus inputs)."""
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def untraced_child(args) -> dict:
    """The record of one untraced pass in a fresh process."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0",
    ]
    if args.budget is not None:
        cmd += ["--budget", str(args.budget)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        die(f"untraced child run exited with {res.returncode}")
    return json.loads(lines[-2])["record"]


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=int, default=None, help="step budget per op (default: the library's)")
    ap.add_argument("--setup-probe", action="store_true", help="only time the set-up and print it")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")

    workers, ops, setup_s = setup(args.workload, args.seed, args.budget)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return
    if workers > nproc():
        die(f"{args.workload} needs {workers} worker threads but only {nproc()} CPUs are available")

    import numpy

    from rankforge import acceptance
    from rankforge.errors import BudgetExceededError

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "budget": args.budget,
        "ops": [op.name for op in ops],
    }
    if args.trace:
        import tracer as tracing

        child = untraced_child(args)
        t = tracing.Tracer()
        t.install()
        try:
            passes = [run_pass(ops, BudgetExceededError, t)]
        finally:
            t.uninstall()
        mismatched = mark_mismatches(ops, passes, child["digests"])
        mismatched += mark_mismatches(ops, passes, pinned(args.workload, args.seed))
    else:
        setup_samples = [setup_s] + probe_setup(args)
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(ops, BudgetExceededError))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        mismatched = mark_mismatches(ops, passes, pinned(args.workload, args.seed))

    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = outcomes.count("failed")
    refused = outcomes.count("refused")
    values = {
        "ops.fail_frac": failed / attempted,
        "ops.refused_frac": refused / attempted,
    }
    if args.trace:
        values.update(tracing.layer_metrics(t, acceptance.CRITERIA))
        values["trace.overhead_frac"] = sum(passes[0]["wall_s"]) / child["pass_wall_s"][0] - 1
        section = "per_layer"
    else:
        values.update(
            wall_s=sum(passes[0]["wall_s"]),
            cpu_s=sum(passes[0]["cpu_s"]),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            setup_s=statistics.median(setup_samples),
            ok_frac=outcomes.count("ok") / attempted,
        )
        record["setup_samples_s"] = setup_samples
        section = "end_to_end"

    record.update(
        passes=len(passes),
        pass_wall_s=[sum(p["wall_s"]) for p in passes],
        pass_cpu_s=[sum(p["cpu_s"]) for p in passes],
        attempted=attempted,
        failed=failed,
        refused=refused,
        mismatched=sorted(set(mismatched)),
        outcomes=passes[0]["outcomes"],
        digests=passes[0]["digests"],
    )
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            die(f"metric {m['name']} is not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"record": record}))
    # Refusals are expected only under a budget given on the command line.
    correct = failed == 0 and (args.budget is not None or refused == 0)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
