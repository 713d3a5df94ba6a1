"""The benchmark's workloads: inputs from a seed, ops, and output checks.

An op is one call into rankforge's public API.  Every op resolves the
function through its module at call time, so a traced run sees it.  After
the op returns (outside its timing), `check` reduces the result to a digest
and classifies it: "ok", "failed" (an output check failed) or "refused".

Importing this module imports rankforge; the caller puts the checkout's
`src` directory on `sys.path` first.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from rankforge import acceptance, analytic, geometry
from rankforge.gf import PrimeField
from rankforge.poly import PolyFamily, random_poly
from rankforge.runtime import Budget, ParallelContext


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, str]]  # result -> (outcome, digest)


def _outcome(ok: bool) -> str:
    return "ok" if ok else "failed"


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()[:16]


def _hist(h) -> list:
    return [h.p, list(h.counts), h.domain_size]


def _budget(limit: int | None) -> Budget | None:
    """A fresh budget per call; None lets rankforge use its default."""
    return Budget(limit) if limit is not None else None


# ---------------------------------------------------------------------------
# acceptance-serial: the 14 criteria, serially, at the default budget
# ---------------------------------------------------------------------------


def acceptance_serial(seed: int, budget_limit: int | None) -> list[Op]:
    def call(name):
        return lambda: acceptance.run_criterion(name, _budget(budget_limit), workers=1)

    outcome = {"pass": "ok", "fail": "failed", "refused": "refused"}

    def check(res):
        return outcome[res.status], hashlib.sha256(res.payload_bytes()).hexdigest()

    return [Op(name, call(name), check) for name in acceptance.CRITERIA]


# ---------------------------------------------------------------------------
# bigbox-threads: a few large-box reductions at workers=2
# ---------------------------------------------------------------------------


def _point(index: int, p: int, n: int) -> tuple[int, ...]:
    """Row-major decoding of a box index, independent of domain.Box."""
    out = []
    for _ in range(n):
        index, d = divmod(index, p)
        out.append(d)
    return tuple(reversed(out))


def bigbox_threads(seed: int, budget_limit: int | None) -> list[Op]:
    rng = random.Random(seed)
    F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)
    cubic20 = random_poly(F2, 20, 3, rng)
    fam12 = PolyFamily([random_poly(F3, 12, 3, rng), random_poly(F3, 12, 2, rng)])
    quartic = random_poly(F5, 8, 4, rng)
    quartic8 = PolyFamily([quartic])
    cubic6 = random_poly(F2, 6, 3, rng)
    # reference for the U_3 check: |bias|^8 <= ||e(P)||_{U_3}^8
    bias6 = analytic.bias(cubic6).mag_sq
    ctx = ParallelContext(2)
    check_rng = random.Random(seed + 1)

    def check_bias(res):
        N = res.histogram.counts
        ok = res.mag_sq == Fraction(N[0] - N[1], 2**20) ** 2
        return _outcome(ok), _digest([_hist(res.histogram), str(res.mag_sq)])

    def check_values(res):
        ok = sum(res.counts) == 3**12 and len(res.counts) == 9
        return _outcome(ok), _digest([list(res.counts), str(res.epsilon)])

    def check_points(res):
        idx = [int(i) for i in res.indices]
        ok = all(a < b for a, b in zip(idx, idx[1:]))
        found = set(idx)
        sample = check_rng.sample(idx, min(200, len(idx)))
        ok &= all(quartic.eval(_point(i, 5, 8)) == 0 for i in sample)
        others = [i for i in (check_rng.randrange(5**8) for _ in range(400)) if i not in found][:200]
        ok &= all(quartic.eval(_point(i, 5, 8)) != 0 for i in others)
        return _outcome(ok), hashlib.sha256(res.indices.tobytes()).hexdigest()[:16]

    def check_gowers(res):
        ok = 0 < res.norm_pow <= 1 and bias6 ** 4 <= res.norm_pow
        return _outcome(ok), _digest([_hist(res.histogram), str(res.norm_pow)])

    return [
        Op("bias-F2^20-cubic", lambda: analytic.bias(cubic20, _budget(budget_limit), ctx), check_bias),
        Op("values-F3^12-cubic+quadric", lambda: analytic.value_distribution(fam12, _budget(budget_limit), ctx), check_values),
        Op("points-F5^8-quartic", lambda: geometry.enumerate_points(quartic8, _budget(budget_limit), ctx), check_points),
        Op("gowers3-F2^6-cubic", lambda: analytic.gowers_norm(cubic6, 3, _budget(budget_limit), ctx), check_gowers),
    ]


# ---------------------------------------------------------------------------
# small-box ops at workers=2, the gowers-identity shape: not a workload.  On
# a shared 2-CPU host their wall time, dominated by thread hand-offs, spread
# past the largest bound from run to run.  The self-test uses a few of them
# to check tracing across threads.
# ---------------------------------------------------------------------------


def smallbox_ops(seed: int, budget_limit: int | None) -> list[Op]:
    rng = random.Random(seed)
    ctx = ParallelContext(2)
    groups = []

    def triple(P, d):
        def call():
            budget = _budget(budget_limit)
            return (
                analytic.gowers_norm(P, d, budget, ctx),
                analytic.gowers_norm_direct(P, d, budget, ctx),
                analytic.bias(P, budget, ctx),
            )

        def check(res):
            norm, direct, b = res
            ok = direct.value == norm.norm_pow and b.mag_sq is not None
            ok = ok and b.mag_sq ** (1 << (d - 1)) <= norm.norm_pow
            return _outcome(ok), _digest([str(norm.norm_pow), _hist(direct.histogram), _hist(b.histogram)])

        return call, check

    for field, n in ((PrimeField(2), 3), (PrimeField(3), 2)):
        for d in (2, 3):
            group = []
            for i in range(100):
                call, check = triple(random_poly(field, n, d, rng), d)
                group.append(Op(f"F{field.p}^{n}-d{d}-{i:03d}", call, check))
            groups.append(group)
    # round-robin over the four shapes
    return [group[i] for i in range(100) for group in groups]


class Workload(NamedTuple):
    workers: int  # worker threads per op
    build: Callable[[int, int | None], list[Op]]  # (seed, budget limit) -> ops of one pass


WORKLOADS = {
    "acceptance-serial": Workload(1, acceptance_serial),
    "bigbox-threads": Workload(2, bigbox_threads),
}
