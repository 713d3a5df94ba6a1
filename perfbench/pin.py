"""Pin the output digests that run.py checks against, in expected.json.

    python3 perfbench/pin.py

Run it from the root of a checkout at the commit whose outputs are the
reference.  It runs one untraced pass per workload and seed 1-10
(acceptance-serial once: its inputs do not depend on the seed) and rewrites
expected.json: acceptance digests by criterion name under "*", and per seed
the list of op digests in pass order for the seeded workloads.  Empty the
table first (`echo {} > perfbench/expected.json`) when the reference outputs
change, or the runs it makes fail against the old digests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def one_pass(workload: str, seed: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", "0",
    ]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    lines = res.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    if not json.loads(lines[-1])["correct"]:
        sys.exit(f"{workload} seed {seed} failed its checks; nothing pinned")
    return record


def main() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    table = {}
    for w in spec["workloads"]:
        name = w["name"]
        if name == "acceptance-serial":
            rec = one_pass(name, SEEDS[0])
            table[name] = {"*": dict(zip(rec["ops"], rec["digests"]))}
        else:
            table[name] = {str(s): one_pass(name, s)["digests"] for s in SEEDS}
        print(f"pinned {name}", file=sys.stderr)
    (HERE / "expected.json").write_text(dump(table))


def dump(table: dict) -> str:
    """JSON with one line per workload entry."""
    parts = []
    for workload, entries in table.items():
        inner = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
        parts.append(f" {json.dumps(workload)}: {{\n{inner}\n }}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main()
