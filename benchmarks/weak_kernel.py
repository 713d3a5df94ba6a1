"""The weak space as a shrinking kernel and bilinear certificates built on
read, here and in a checkout of the parent commit.  Options, output and the
end-to-end runs: see ab.py.

`parts`: two calls, each timed over --reps runs (best and median), with a
sha256 of what it returned.
- `weak_space F_7^4`: dual-path-extension's `weak_space(X, 1)` on the 385
  points of the F_7^4 variety (832 lines, 4,160 constraint rows); the hash is
  of the basis bytes.
- `bilinear route`: the nonzero two-block `partition_rank` calls of
  bias-prank-consistency (no factor dictionary), recorded while it runs,
  timed as one batch that reads no certificate, as the criterion does; the
  hash is of every value, `per_r` and certificate pair, read after the
  timing.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab  # noqa: E402

from rankforge import rank  # noqa: E402
from rankforge.explicit import ExplicitVariety  # noqa: E402
from rankforge.gf import PrimeField  # noqa: E402
from rankforge.weakpoly import weak_space  # noqa: E402


def weak_space_part(reps: int) -> dict:
    X = ExplicitVariety(2, 2, PrimeField(7)).points()
    s, median_s, space = ab.timed([lambda: weak_space(X, 1)], reps)[0]
    return {"s": s, "median_s": median_s, "dim": len(space.basis), "sha256": ab.sha(space.basis)}


def bilinear_part(reps: int) -> dict:
    calls = ab.criterion_calls(rank.partition_rank, ["bias-prank-consistency"])["bias-prank-consistency"]
    batch = [call for call in calls if call.arguments["T"].d == 2 and not call.arguments["T"].is_zero()]
    s, median_s, results = ab.timed([lambda: [rank.partition_rank(*call.args, **call.kwargs) for call in batch]], reps)[0]
    read = [
        (r.value, r.per_r, None if r.certificate is None else [(J, sorted(Q.terms.items()), sorted(R.terms.items())) for J, Q, R in r.certificate.pairs])
        for r in results
    ]
    return {"calls": len(batch), "s": s, "median_s": median_s, "sha256": ab.sha(read)}


if __name__ == "__main__":
    ab.main(parts={"weak_space F_7^4": weak_space_part, "bilinear route": bilinear_part})
