"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It checks that

1. the tracer sees every call: over the acceptance battery and a few
   threaded small-box ops, each wrapped function's traced count equals an
   independent count of calls into its original code, taken with
   `sys.setprofile` in every thread;
2. tracing changes no output: a traced pass gives the same digests as an
   untraced pass of the same ops;
3. `Tracer.uninstall` restores every binding it changed;
4. refusals are classified: under a starved budget (`--budget 1`) every
   workload reports refused_frac = 1 and fail_frac = 0.

It prints one line per check and exits with 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import run

import tracer as tracing

# Names whose traced count is a counter rather than a span's call count.
COUNTERS = {"poly.MultiPoly.constructed", "runtime.budget.charges"}


def checked_ops():
    """The acceptance battery and every 50th small-box op (threaded)."""
    import workloads

    return workloads.acceptance_serial(0, None) + workloads.smallbox_ops(0, None)[::50]


def snapshot():
    """Every module global, registry entry and class attribute the tracer may patch."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "rankforge" or name.startswith("rankforge."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, dict) and not key.startswith("__"):
                    for k, v in value.items():
                        out[(name, key, k)] = v
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        out[(name, key, "attr", k)] = v
    return out


def check_tracing() -> list[tuple[bool, str]]:
    results = []
    run.import_rankforge()
    from rankforge.errors import BudgetExceededError

    ops = checked_ops()
    plain = run.run_pass(ops, BudgetExceededError)
    before = snapshot()

    t = tracing.Tracer()
    t.install()
    codes = {}
    for name, fn in t.originals.items():
        if name != "domain.digits":
            codes[fn.__code__] = name
    hook_codes = {h.__code__ for h in t.hooks.values()}
    seen = Counter()
    lock = threading.Lock()

    def profile(frame, event, arg):
        if event != "call" or not t.enabled:
            return
        name = codes.get(frame.f_code)
        if name is not None and frame.f_back is not None and frame.f_back.f_code not in hook_codes:
            with lock:
                seen[name] += 1

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        traced = run.run_pass(ops, BudgetExceededError, t)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        t.uninstall()

    wrong = []
    for name in sorted(set(codes.values())):
        got = t.count[name] if name in COUNTERS else t.calls[name]
        if got != seen[name]:
            wrong.append(f"{name}: traced {got}, profiled {seen[name]}")
    busy = sum(1 for name in codes.values() if seen[name])
    results.append((not wrong, f"traced counts equal profiled counts for {busy} called of {len(codes)} wrapped functions" + (f"; {wrong}" if wrong else "")))

    same = plain["digests"] == traced["digests"] and plain["outcomes"] == traced["outcomes"]
    ok_ops = traced["outcomes"].count("ok")
    results.append((same and ok_ops == len(ops), f"traced digests equal untraced digests ({ok_ops}/{len(ops)} ops ok)"))

    after = snapshot()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    results.append((not changed, f"uninstall restored {len(before)} bindings" + (f"; changed: {changed[:5]}" if changed else "")))
    return results


def check_refusals() -> list[tuple[bool, str]]:
    results = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        cmd = [
            sys.executable, str(Path(run.__file__)), "--workload", w["name"], "--seed", "1",
            "--seconds", "0", "--trace", "0", "--budget", "1",
        ]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        rec = json.loads(res.stdout.strip().splitlines()[-2])["record"]
        ok = rec["refused"] == rec["attempted"] and rec["failed"] == 0
        names = [n for n, o in zip(rec["ops"], rec["outcomes"]) if o != "refused"]
        results.append((ok, f"{w['name']} under budget 1: {rec['refused']}/{rec['attempted']} refused, {rec['failed']} failed" + (f"; not refused: {names[:5]}" if names else "")))
    return results


def main() -> int:
    results = check_tracing() + check_refusals()
    for ok, line in results:
        print(("PASS " if ok else "FAIL ") + line)
    return 0 if all(ok for ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
