"""The A/B harness every script in benchmarks/ runs on.

    PYTHONPATH=src python3 benchmarks/SCRIPT.py [--reps 3]
        [--parent DIR --pairs 10] [--out BENCH_TOPIC.json]

Run a script from the root of a checkout.  It prints one JSON object, and
with --out also writes it there: the `command`, the `machine`, then

- each of the script's `cases`, in process: the current code against the
  code it replaced (`compare`), the two timed over --reps interleaved rounds
  (best time of each), and where a script asks, each one's tracemalloc peak
  in one more run; the script exits non-zero when the two answers differ;
- its `parts`, each run by the script itself (`--parts-only NAME`) in a fresh
  child process on this checkout's `src`, and with --parent also on the
  parent's `src`; every field named `*sha256` must then be equal on both
  sides;
- with --parent, first the bytecode of both checkouts' src and perfbench
  brought up to date (`compile_checkout`), then `payloads`: the sha256 of
  every acceptance criterion's `payload_bytes()` on both sides, which must
  be equal; `end_to_end`:
  `perfbench/run.py --seconds 0 --trace 0` on both workloads, each seed run
  once in the parent checkout and once here, the side that runs first
  alternating by seed, for seeds 1 to --pairs and then the next --pairs
  seeds held out, with each set's quartiles and the pairs the change wins
  per metric, and one traced run (`--trace 1`, seed 1) of each workload per
  side; and `claim`, per seed set, workload and end-to-end metric: the pairs
  the change wins, and whether its median gain exceeds the parent's
  interquartile range.

Every child is forked by `sh -c` first: Linux carries a process's peak RSS
across exec, so a direct child would report this process's peak as its own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import json
import operator
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # the scripts reuse reference code from the tests

WORKLOADS = ("acceptance-serial", "bigbox-threads")
E2E = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "ok_frac")  # ok_frac alone is better higher
PAYLOADS = (
    "import hashlib, json\n"
    "from rankforge.acceptance import CRITERIA, run_criterion\n"
    "print(json.dumps({name: hashlib.sha256(run_criterion(name).payload_bytes()).hexdigest() for name in sorted(CRITERIA)}))\n"
)


def sha(data) -> str:
    """sha256 of an array's int64 bytes, or of any other value's repr."""
    raw = np.asarray(data, dtype=np.int64).tobytes() if isinstance(data, np.ndarray) else repr(data).encode()
    return hashlib.sha256(raw).hexdigest()


def timed(fns: list, reps: int) -> list[tuple[float, float, object]]:
    """(best time, median time, last result) of each function over reps
    rounds, the functions interleaved within a round so that drift of the
    host hits them alike."""
    times, outs = [[] for _ in fns], [None] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            outs[i] = fn()
            times[i].append(time.perf_counter() - t0)
    return [(min(ts), statistics.median(ts), out) for ts, out in zip(times, outs)]


def best_of(fn, reps: int) -> tuple[float, object]:
    s, _, out = timed([fn], reps)[0]
    return s, out


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def compare(name: str, new: tuple, old: tuple, same=operator.eq, reps: int = 3, peaks: bool = False) -> tuple[dict, object]:
    """One case: `new` and `old` are (label, fn), the current code and the
    code it replaced.  Returns a row holding `<label>_s` for each and, with
    peaks, `<label>_peak_mb`, and new's result.  Exits unless same(new's
    result, old's result)."""
    (new_s, _, a), (old_s, _, b) = timed([new[1], old[1]], reps)
    if not same(a, b):
        raise SystemExit(f"{name}: {new[0]} and {old[0]} disagree")
    row = {"call": name, f"{new[0]}_s": new_s, f"{old[0]}_s": old_s}
    if peaks:
        row.update({f"{label}_peak_mb": peak_mb(fn) for label, fn in (new, old)})
    return row, a


@contextlib.contextmanager
def recorded(*fns):
    """Record the calls to fns while the block runs, wherever rankforge binds
    them (module globals and class attributes): a list of (fn, bound
    arguments, nested) in call order, `nested` true when another recorded
    call was running.  Array arguments are copied."""
    calls, depth = [], [0]

    def wrap(fn):
        signature = inspect.signature(fn)

        def recording(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments.update({k: v.copy() for k, v in bound.arguments.items() if isinstance(v, np.ndarray)})
            calls.append((fn, bound, depth[0] > 0))
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return recording

    wrappers = {id(fn): wrap(fn) for fn in fns}
    modules = [m for name, m in list(sys.modules.items()) if name == "rankforge" or name.startswith("rankforge.")]
    owners = [*modules, *{id(v): v for m in modules for v in vars(m).values() if isinstance(v, type)}.values()]
    bound = [(owner, key, value) for owner in owners for key, value in list(vars(owner).items()) if id(value) in wrappers]
    for owner, key, value in bound:
        setattr(owner, key, wrappers[id(value)])
    try:
        yield calls
    finally:
        for owner, key, value in bound:
            setattr(owner, key, value)


def criterion_calls(fn, criteria) -> dict:
    """{criterion: the bound arguments of each call to fn while it runs}."""
    from rankforge.acceptance import run_criterion  # here, so that a part's child imports only what it runs

    out = {}
    for criterion in criteria:
        with recorded(fn) as calls:
            run_criterion(criterion)
        out[criterion] = [bound for _, bound, _ in calls]
    return out


def child(cmd: list[str], src: Path, cwd: Path | None = None) -> dict:
    """The last line of cmd's stdout as JSON, cmd run in a fresh child with
    rankforge imported from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    res = subprocess.run(["sh", "-c", '"$@"; exit $?', "sh", *cmd], cwd=cwd, env=env, capture_output=True, text=True, timeout=1800)
    if res.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited with {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def part(script: Path, src: Path, name: str, reps: int) -> dict:
    return child([sys.executable, str(script), "--parts-only", name, "--reps", str(reps)], src)


def hashes(doc, path: str = "") -> dict:
    """Every field of a nested document whose key ends in sha256, by path."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    out = {}
    for key, value in items:
        where = f"{path}/{key}"
        out.update({where: value} if str(key).endswith("sha256") else hashes(value, where))
    return out


def run_perfbench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    last = child(cmd, checkout / "src", cwd=checkout)
    return {"correct": last["correct"], **{k: v["value"] for k, v in last["metrics"].items()}}


def summary(runs: list[dict]) -> dict:
    out = {"runs": len(runs), "all_correct": all(r["correct"] for r in runs)}
    for name in E2E:
        q1, med, q3 = statistics.quantiles([r[name] for r in runs], n=4, method="inclusive")
        out[name] = {"median": med, "q1": q1, "q3": q3}
    return out


def gain(name: str, parent: float, change: float) -> float:
    return change - parent if name == "ok_frac" else parent - change


def pairs(runs: dict[str, list[dict]]) -> dict:
    """One workload's runs per side, seed by seed: their summaries, and the
    pairs in which the change reads better, per metric."""
    better = {name: sum(gain(name, p[name], c[name]) > 0 for p, c in zip(runs["parent"], runs["change"])) for name in E2E}
    return {"parent": summary(runs["parent"]), "change": summary(runs["change"]), "change_better_pairs": better, "runs": runs}


def claim(workload: dict, name: str) -> dict:
    """One metric of one workload's pairs: the pairs the change wins, and
    whether its median gain exceeds the parent's interquartile range."""
    parent, change = workload["parent"][name], workload["change"][name]
    iqr = parent["q3"] - parent["q1"]
    return {
        "parent_median": parent["median"],
        "change_median": change["median"],
        "rel_change": (change["median"] - parent["median"]) / parent["median"],
        "parent_iqr": iqr,
        "change_better_pairs": workload["change_better_pairs"][name],
        "gain_exceeds_parent_iqr": gain(name, parent["median"], change["median"]) > iqr,
    }


def compile_checkout(checkout: Path) -> None:
    """Bring the bytecode of a checkout's src and perfbench up to date.
    compileall writes it even under PYTHONDONTWRITEBYTECODE, where a child
    would otherwise compile every stale module again, and count that in its
    setup time and peak RSS."""
    for tree in ("src", "perfbench"):
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(checkout / tree)], check=True)


def end_to_end(parent: Path, n: int) -> dict:
    sides = {"parent": parent, "change": ROOT}
    for checkout in sides.values():
        compile_checkout(checkout)
    payloads = {side: child([sys.executable, "-c", PAYLOADS], checkout / "src") for side, checkout in sides.items()}
    if payloads["parent"] != payloads["change"]:
        raise SystemExit("the acceptance payloads of the parent and the change differ")
    seeds = {}
    for first, label in ((1, f"seeds 1-{n}"), (n + 1, f"seeds {n + 1}-{2 * n} (held out)")):
        seeds[label] = {}
        for workload in WORKLOADS:
            runs = {side: [] for side in sides}
            for seed in range(first, first + n):
                for side in sides if seed % 2 else reversed(sides):
                    runs[side].append({"seed": seed, **run_perfbench(sides[side], workload, seed, 0)})
            seeds[label][workload] = pairs(runs)
    return {
        "payloads": {"criteria": len(payloads["change"]), "identical": True, **payloads},
        "end_to_end": {**seeds, "traced": {w: {s: run_perfbench(c, w, 1, 1) for s, c in sides.items()} for w in WORKLOADS}},
        "claim": {label: {w: {name: claim(run[w], name) for name in E2E} for w in WORKLOADS} for label, run in seeds.items()},
    }


def at_least_two(text: str) -> int:
    if int(text) < 2:
        raise argparse.ArgumentTypeError("needs at least 2 pairs, for quartiles")
    return int(text)


def parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description="Time the current code against its references, and against a checkout of the parent commit.")
    ap.add_argument("--reps", type=int, default=3, help="timed rounds per case and part")
    ap.add_argument("--parent", type=Path, help="root of a checkout of the parent commit")
    ap.add_argument("--pairs", type=at_least_two, default=10, help="with --parent: end-to-end pairs per seed set")
    ap.add_argument("--out", type=Path, help="also write the JSON object here")
    ap.add_argument("--parts-only", metavar="NAME", help="print one part as JSON and nothing else")
    return ap


def main(cases: dict | None = None, parts: dict | None = None) -> None:
    """Run a script: `cases` and `parts` map names to functions of reps that
    return JSON-ready results."""
    args, script, parts = parser().parse_args(), Path(sys.argv[0]).resolve(), parts or {}
    if args.parts_only:
        print(json.dumps(parts[args.parts_only](args.reps)))
        return
    doc = {
        "command": f"python3 benchmarks/{script.name} --reps {args.reps}" + (f" --parent PARENT --pairs {args.pairs}" if args.parent else ""),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0], "numpy": np.__version__},
    }
    doc.update({name: fn(args.reps) for name, fn in (cases or {}).items()})
    checkouts = {"change": ROOT, **({"parent": args.parent.resolve()} if args.parent else {})}
    if parts:
        doc["parts"] = {side: {name: part(script, c / "src", name, args.reps) for name in parts} for side, c in checkouts.items()}
        if args.parent:
            before, after = hashes(doc["parts"]["parent"]), hashes(doc["parts"]["change"])
            for where in sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k)):
                raise SystemExit(f"{where}: the parent and the change disagree")
    if args.parent:
        doc.update(end_to_end(checkouts["parent"], args.pairs))
    text = json.dumps(doc, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
