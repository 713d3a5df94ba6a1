"""The weak space by propagation along flats, and bilinear certificates built
on read, here and in a checkout of the parent commit.  Options, output and
the end-to-end runs: see ab.py.

`parts`: each call, with a sha256 of what it returned.
- `weak_space F_7^4`: dual-path-extension's `weak_space(X, 1)` on the 385
  points of the F_7^4 variety (832 lines), timed over --reps runs (best and
  median); the hash is of the basis bytes.
- `bilinear route`: the nonzero two-block `partition_rank` calls of
  bias-prank-consistency (no factor dictionary), recorded while it runs,
  timed over --reps runs as one batch that reads no certificate, as the
  criterion does; the hash is of every value, `per_r` and certificate pair,
  read after the timing.
- `weak_space xn d=.., a=..`: `weak_space(X, a)` on the points of the
  block-product variety, run once whatever --reps is (the parent takes up
  to minutes on them), with the child's peak RSS; the hash is of the basis
  bytes.  d=2, n=4 over F_3 with a = 2 runs under a budget of 10^9, where
  the parent answers too (it refuses at the default budget, "subspace
  list" 3.0e8), so that the bases are compared.  The parent refuses d=2,
  n=3 over F_7 at the default budget ("subspace list"), so that part
  records the refusal, and its basis digest (`basis_digest`, not a
  `*sha256` field) is not compared.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab  # noqa: E402

from rankforge import rank  # noqa: E402
from rankforge.catalog import xn_variety  # noqa: E402
from rankforge.errors import BudgetExceededError  # noqa: E402
from rankforge.explicit import ExplicitVariety  # noqa: E402
from rankforge.gf import PrimeField  # noqa: E402
from rankforge.runtime import Budget  # noqa: E402
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


def heavy_part(d: int, n: int, q: int, a: int, limit: int | None = None, digest: str = "sha256"):
    """One weak_space call on xn d, n over F_q, run once."""

    def run(reps: int) -> dict:
        X = xn_variety(d, n, q).points()
        t0 = time.perf_counter()
        try:
            space = weak_space(X, a, Budget(limit) if limit else None)
        except BudgetExceededError as refusal:
            row = {"refused": str(refusal)}
        else:
            row = {"dim": len(space.basis), digest: ab.sha(space.basis)}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"points": len(X), "s": time.perf_counter() - t0, "peak_rss_mb": rss, **row}

    return run


if __name__ == "__main__":
    ab.main(
        parts={
            "weak_space F_7^4": weak_space_part,
            "bilinear route": bilinear_part,
            "weak_space xn d=2,n=3,q=5 a=1": heavy_part(2, 3, 5, 1),
            "weak_space xn d=3,n=2,q=5 a=1": heavy_part(3, 2, 5, 1),
            "weak_space xn d=2,n=4,q=3 a=2": heavy_part(2, 4, 3, 2, limit=10**9),
            "weak_space xn d=2,n=3,q=7 a=1": heavy_part(2, 3, 7, 1, digest="basis_digest"),
        }
    )
