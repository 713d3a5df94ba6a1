"""The acceptance suite: every shipped property, runnable as a registry.

Each criterion takes a Budget and returns (ok, detail, payload) where
payload is a JSON-ready dict of every numeric output the criterion produced.
The determinism criterion runs the whole battery from cleared module caches,
replays it and compares payloads byte for byte, so it catches any output
that depends on state carried over from an earlier run.  That is why criteria
must put all their numbers in the payload and nothing nondeterministic (no
timings, no object ids).

Budget refusals are a third outcome, distinct from failure: a criterion that
refuses to run under a tiny budget has not failed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import catalog, domain, poly
from .analytic import bias, count_points_char_sum, gowers_norm, gowers_norm_direct, value_distribution
from .domain import box
from .errors import BudgetExceededError
from .explicit import ExplicitVariety, ProductTorus, explicit_extension, mu_bias
from .geometry import (
    Hyperplane,
    census_extension,
    enumerate_points,
    kappa_fibers,
)
from .gf import PrimeField
from .linalg import rank_mod, rref_steps
from .nullsatz import ideal_membership, rough_bound_check, vanishing_vs_ideal_dims
from .poly import AffineMap, MultilinearForm, MultiPoly, PolyFamily, monomials, random_poly
from .rank import RankResult, partition_rank, prank_lower_bound_from_bias, schmidt_rank
from .runtime import Budget
from .weakpoly import FunctionOnX, extend_by_solve, star_check, weak_space


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass
class CriterionResult:
    name: str
    status: str  # "pass" | "fail" | "refused"
    detail: str
    payload: dict

    def payload_bytes(self) -> bytes:
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def _sample(field: PrimeField, n: int, d: int, count: int, seed: int):
    rng = random.Random(seed)
    return [random_poly(field, n, d, rng) for _ in range(count)]


_SAMPLE_SPECS = [(PrimeField(2), 3), (PrimeField(3), 2)]


def crit_gowers_identity(budget: Budget):
    values = []
    bad = 0
    for field, n in _SAMPLE_SPECS:
        for d in (2, 3):
            for P in _sample(field, n, d, 100, seed=1000 + field.p * 10 + d):
                gn = gowers_norm(P, d, budget)
                direct = gowers_norm_direct(P, d, budget)
                if direct.value is None or direct.value != gn.norm_pow:
                    bad += 1
                values.append(_frac(gn.norm_pow))
    return bad == 0, f"{bad} mismatches over {len(values)} polynomials", {"norm_powers": values}


def crit_bias_norm_inequality(budget: Budget):
    rows = []
    bad = 0
    for field, n in _SAMPLE_SPECS:
        for d in (2, 3):
            for P in _sample(field, n, d, 100, seed=1000 + field.p * 10 + d):
                b = bias(P, budget)
                gn = gowers_norm(P, d, budget)
                if b.mag_sq is None:
                    bad += 1
                    continue
                lhs = b.mag_sq ** (1 << (d - 1))
                if lhs > gn.norm_pow:
                    bad += 1
                rows.append([_frac(b.mag_sq), _frac(gn.norm_pow)])
    return bad == 0, f"{bad} violations over {len(rows)} polynomials", {"pairs": rows}


def crit_explicit_analytic_rank(budget: Budget):
    F2 = PrimeField(2)
    out = {}
    ok = True
    for n in (1, 2, 3):
        P = ExplicitVariety(2, n, F2).polynomial()
        gn = gowers_norm(P, 2, budget)
        direct = gowers_norm_direct(P, 2, budget)
        expected = Fraction(1, 4**n)
        ok &= gn.norm_pow == expected and direct.value == expected
        out[f"norm_pow_n{n}"] = _frac(gn.norm_pow)
    t = mu_bias(2, F2, budget).magnitude_exact()
    ok &= t == Fraction(1, 2)
    out["mu_bias_2_2"] = _frac(t)
    return ok, f"norm powers {out}", out


def crit_counterexample_star(budget: Budget):
    X = catalog.counterexample_variety()
    rep = star_check(X, 1, budget)
    f = catalog.counterexample_function(X)
    res = extend_by_solve(f, 1, budget)
    dual_ok = False
    if not res.feasible and res.dual_certificate is not None:
        y = res.dual_certificate
        p = X.field.p
        dual_ok = int(y @ f.values) % p != 0
        for mono in [(0, 0), (1, 0), (0, 1)]:
            vals = FunctionOnX.from_poly(X, MultiPoly(X.field, 2, {mono: 1})).values
            dual_ok &= int(y @ vals) % p == 0
    ok = (not rep.holds) and rep.weak_dim == 4 and rep.restriction_dim == 3 and rep.gap == 1
    ok &= (not res.feasible) and dual_ok
    payload = {
        "weak_dim": rep.weak_dim,
        "restriction_dim": rep.restriction_dim,
        "gap": rep.gap,
        "extension_feasible": res.feasible,
        "dual_certificate_valid": dual_ok,
    }
    return ok, f"dims {rep.weak_dim}/{rep.restriction_dim}, extension infeasible: {not res.feasible}", payload


def _star_threshold(budget: Budget):
    F7 = PrimeField(7)
    dims = {}
    threshold = None
    for n in (1, 2, 3):
        X = ExplicitVariety(2, n, F7).points(budget)
        rep = star_check(X, 1, budget)
        dims[n] = (rep.weak_dim, rep.restriction_dim)
        if rep.holds:
            threshold = n
            break
    return threshold, dims


def crit_star_threshold(budget: Budget):
    threshold, dims = _star_threshold(budget)
    payload = {
        "threshold": threshold,
        "dims": {str(n): list(v) for n, v in dims.items()},
    }
    ok = threshold is not None and threshold <= 3
    return ok, f"smallest n with the extension property: {threshold} (dims {dims})", payload


def crit_dual_path_extension(budget: Budget):
    F7 = PrimeField(7)
    threshold, _ = _star_threshold(budget)
    if threshold is None:
        return False, "no extension threshold found", {}
    instances = sorted({threshold, 2})
    payload = {}
    ok = True
    for n in instances:
        xn = ExplicitVariety(2, n, F7)
        X = xn.points(budget)
        torus = ProductTorus(xn, F7.delta_subgroup(3), a=1)
        ws = weak_space(X, 1, budget)
        agree = 0
        for fb in ws.functions():
            r1 = explicit_extension(xn, torus, fb, 1, budget)
            r2 = extend_by_solve(fb, 1, budget)
            if not r2.feasible:
                ok = False
                continue
            v1 = X.box.eval_poly(r1.poly, X.indices)
            v2 = X.box.eval_poly(r2.poly, X.indices)
            if np.array_equal(v1, v2) and np.array_equal(v1, fb.values):
                agree += 1
            else:
                ok = False
        payload[f"n{n}"] = {"weak_dim": ws.dim, "agreeing": agree}
    return ok, f"pipeline/solver agreement at n in {instances}: {payload}", payload


def crit_equidistribution_trend(budget: Budget):
    F3 = PrimeField(3)
    eps = []
    counts_all = {}
    identity_ok = True
    for n in (1, 2, 3):
        fam = PolyFamily([ExplicitVariety(2, n, F3).polynomial()])
        vd = value_distribution(fam, budget)
        eps.append(vd.epsilon)
        counts_all[str(n)] = list(vd.counts)
        for b in range(3):
            if count_points_char_sum(fam, (b,), budget) != vd.count_of((b,)):
                identity_ok = False
    decreasing = eps[0] > eps[1] > eps[2]
    payload = {"epsilon": [_frac(e) for e in eps], "counts": counts_all, "char_sum_identity": identity_ok}
    return decreasing and identity_ok, f"epsilon trend {[_frac(e) for e in eps]}", payload


def crit_kappa_uniformity(budget: Budget):
    F3 = PrimeField(3)
    payload = {}
    devs = {}
    ok = True
    for n in (2, 3):
        fam = PolyFamily([ExplicitVariety(2, n, F3).polynomial()])
        stats = kappa_fibers(fam, 1, budget=budget)
        nmin, nmax = stats.min_max()
        dev = stats.max_ratio_deviation()
        devs[n] = dev
        ok &= stats.universal and stats.total_targets == 27
        payload[f"n{n}"] = {
            "attained": stats.attained,
            "targets": stats.total_targets,
            "min": nmin,
            "max": nmax,
            "deviation": _frac(dev),
        }
    ok &= devs[3] < devs[2]
    return ok, f"deviations n=2: {_frac(devs[2])}, n=3: {_frac(devs[3])}", payload


def crit_census_ratio(budget: Budget):
    F3 = PrimeField(3)
    payload = {}
    ratios = {}
    for n in (2, 3):
        xn = ExplicitVariety(2, n, F3)
        X = xn.points(budget)
        W = Hyperplane(tuple([1] + [0] * (xn.nvars - 1)), 0)
        cen = census_extension(X, W, 1, budget)
        ratios[n] = cen.ratio
        payload[f"n{n}"] = {
            "Z": len(cen.Z),
            "Y": len(cen.Y),
            "ratio": _frac(cen.ratio) if cen.ratio is not None else None,
        }
    fam, wcoef = catalog.degenerate_census_family()
    Xd = enumerate_points(fam, budget)
    cend = census_extension(Xd, Hyperplane(wcoef, 0), 1, budget)
    payload["degenerate"] = {"Z": len(cend.Z), "Y": len(cend.Y)}
    ok = (
        ratios[2] is not None
        and ratios[3] is not None
        and ratios[3] <= ratios[2]
        and len(cend.Y) > 0
    )
    return ok, f"ratios {payload}", payload


def _bilinear_tensor(F2: PrimeField, n1: int, n2: int, mask: int) -> MultilinearForm:
    terms = {}
    bit = 0
    for i in range(n1):
        for j in range(n2):
            if mask >> bit & 1:
                e = [0] * (n1 + n2)
                e[i] = 1
                e[n1 + j] = 1
                terms[tuple(e)] = 1
            bit += 1
    return MultilinearForm.from_tensor_poly(MultiPoly(F2, n1 + n2, terms), (n1, n2))


def _decided(res: RankResult) -> RankResult:
    """res, unless the budget cut its search short: then the refusal that
    did, so the criterion reports REFUSED instead of reading the missing
    rank as a mathematical outcome."""
    if res.refusal is not None:
        raise res.refusal
    return res


def crit_bias_prank_consistency(budget: Budget):
    F2 = PrimeField(2)
    violations = 0
    checked = 0
    records = []
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            for mask in range(1 << (n1 * n2)):
                T = _bilinear_tensor(F2, n1, n2, mask)
                bound = prank_lower_bound_from_bias(T, budget)
                pr = _decided(partition_rank(T, min(n1, n2), budget))
                checked += 1
                if T.is_zero():
                    if bound.bound != 0:
                        violations += 1
                elif pr.value is None or pr.value < bound.bound + 1:
                    violations += 1
                records.append([n1, n2, mask, bound.bound, -1 if pr.value is None else pr.value])
    rng = random.Random(77)
    for _ in range(40):
        terms = {}
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    if rng.randrange(2):
                        e = [0] * 6
                        e[i] = 1
                        e[2 + j] = 1
                        e[4 + k] = 1
                        terms[tuple(e)] = 1
        T = MultilinearForm.from_tensor_poly(MultiPoly(F2, 6, terms), (2, 2, 2))
        bound = prank_lower_bound_from_bias(T, budget)
        pr = _decided(partition_rank(T, 4, budget))
        checked += 1
        if T.is_zero():
            if bound.bound != 0:
                violations += 1
        elif pr.value is None or pr.value < bound.bound + 1:
            violations += 1
        records.append(["tri", bound.bound, -1 if pr.value is None else pr.value])
    payload = {"checked": checked, "violations": violations, "records": records}
    return violations == 0, f"{violations} violations over {checked} tensors", payload


def crit_rank_axioms(budget: Budget):
    F2 = PrimeField(2)
    # Schmidt rank per congruence class: representative with r diagonal products.
    # Schmidt rank is invariant under invertible substitutions (checked below),
    # and every bilinear tensor is equivalent to its matrix-rank representative.
    class_rank: dict[tuple[int, int, int], int] = {}
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            for r in range(min(n1, n2) + 1):
                terms = {}
                for i in range(r):
                    e = [0] * (n1 + n2)
                    e[i] = 1
                    e[n1 + i] = 1
                    terms[tuple(e)] = 1
                rep = MultiPoly(F2, n1 + n2, terms)
                if rep.is_zero():
                    class_rank[(n1, n2, r)] = 0
                    continue
                # the representative is a sum of r products by construction,
                # so exhausting r-1 decides the rank exactly
                refuted = _decided(schmidt_rank(rep, r - 1, budget))
                if refuted.value is not None:
                    return False, f"representative at {(n1, n2, r)} decomposed below {r}", {}
                class_rank[(n1, n2, r)] = r
    sandwich_bad = 0
    checked = 0
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            for mask in range(1 << (n1 * n2)):
                T = _bilinear_tensor(F2, n1, n2, mask)
                M = np.zeros((n1, n2), dtype=np.int64)
                bit = 0
                for i in range(n1):
                    for j in range(n2):
                        M[i, j] = mask >> bit & 1
                        bit += 1
                mrank = rank_mod(M, 2)
                r = class_rank[(n1, n2, mrank)]
                pr = _decided(partition_rank(T, min(n1, n2), budget)).value if not T.is_zero() else 0
                checked += 1
                if not (r <= pr <= (4**2) * r or (r == 0 and pr == 0)):
                    sandwich_bad += 1

    # invariance under invertible affine substitution
    P = MultiPoly.from_terms(F2, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])
    base = _decided(schmidt_rank(P, 3, budget)).value
    rng = random.Random(11)
    invariance_ok = True
    tested_maps = 0
    while tested_maps < 3:
        A = np.array([[rng.randrange(2) for _ in range(4)] for _ in range(4)], dtype=np.int64)
        if rank_mod(A, 2) < 4:
            continue
        phi = AffineMap.make(F2, A.tolist(), [rng.randrange(2) for _ in range(4)])
        moved = _decided(schmidt_rank(P.compose(phi), 3, budget)).value
        invariance_ok &= moved == base
        tested_maps += 1

    # restriction drop >= -codim
    emb = AffineMap.make(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 1]], [0, 0, 0, 0])
    restricted = _decided(schmidt_rank(P.compose(emb), 3, budget)).value
    drop_ok = restricted is not None and restricted >= base - 1

    # symmetric bilinear over odd characteristic: schmidt equals partition rank
    F3 = PrimeField(3)
    S = MultiPoly.from_terms(F3, 4, [(1, (1, 0, 1, 0)), (1, (0, 1, 0, 1))])
    sr = _decided(schmidt_rank(S, 3, budget)).value
    prs = _decided(partition_rank(MultilinearForm.from_tensor_poly(S, (2, 2)), 3, budget)).value
    odd_ok = sr == prs == 2

    ok = sandwich_bad == 0 and invariance_ok and drop_ok and odd_ok
    payload = {
        "class_ranks": {str(k): v for k, v in sorted(class_rank.items())},
        "sandwich_checked": checked,
        "sandwich_violations": sandwich_bad,
        "invariance_ok": invariance_ok,
        "restriction_drop_ok": drop_ok,
        "odd_char_equality": odd_ok,
    }
    return ok, f"{sandwich_bad} sandwich violations over {checked}; invariance {invariance_ok}", payload


def crit_nullsatz_dims(budget: Budget):
    F7 = PrimeField(7)
    F5 = PrimeField(5)
    payload = {}
    ok = True
    fam7 = ExplicitVariety(2, 2, F7).family()
    for e in (1, 2):
        rep = vanishing_vs_ideal_dims(fam7, e, budget=budget)
        payload[f"xn_e{e}"] = [rep.vanishing_dim, rep.ideal_dim]
        ok &= rep.equal
    fam_sq = PolyFamily([MultiPoly.from_terms(F5, 1, [(1, (2,))])])
    for e in (1, 2, 3):
        rep = vanishing_vs_ideal_dims(fam_sq, e, budget=budget)
        payload[f"xsq_e{e}"] = [rep.vanishing_dim, rep.ideal_dim]
        ok &= rep.vanishing_dim > rep.ideal_dim
    member = ideal_membership(MultiPoly.variable(F5, 1, 0), fam_sq, 3, budget=budget)
    ok &= not member.member
    payload["x_in_xsq"] = member.member
    return ok, f"dims {payload}", payload


def crit_rough_bound(budget: Budget):
    F3, F5 = PrimeField(3), PrimeField(5)
    payload = {}
    plane = rough_bound_check(PolyFamily([MultiPoly.variable(F5, 3, 0)]), budget=budget)
    payload["coordinate_plane"] = [plane.count, plane.bound]
    quadric = rough_bound_check(
        PolyFamily([MultiPoly.from_terms(F3, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])]),
        budget=budget,
    )
    payload["quadric"] = [quadric.count, quadric.bound]
    extra = rough_bound_check(
        PolyFamily([MultiPoly.from_terms(F3, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])]),
        extra=MultiPoly.from_terms(F3, 4, [(1, (1, 0, 0, 0)), (1, (0, 0, 1, 0))]),
        budget=budget,
    )
    payload["quadric_with_extra"] = [extra.count, extra.bound]
    ok = plane.ok and plane.equality and quadric.ok and extra.ok
    return ok, f"counts vs bounds {payload}", payload


def crit_grid_vanishing(budget: Budget):
    F7 = PrimeField(7)
    delta = F7.delta_subgroup(6)

    def evaluation_rank(N: int, pts: list) -> list[int]:
        """[#monomials of degree <= 4 in N variables, rank of their values at pts]."""
        bx = box(F7, N)
        A = bx.monomial_matrix(monomials(N, 4), bx.encode(pts))
        budget.charge(rref_steps(*A.shape), "evaluation-matrix rank")
        return [A.shape[1], rank_mod(A, 7)]

    payload = {f"cube_N{N}": evaluation_rank(N, list(itertools.product(delta.elements, repeat=N))) for N in (1, 2)}
    # triangular grid from 5 distinct points, degree <= 4 in 2 variables
    anchors = [0, 1, 2, 3, 4]
    payload["simplex"] = evaluation_rank(2, [(anchors[t1], anchors[t2]) for t1 in range(5) for t2 in range(t1 + 1)])
    ok = all(rk == cols for cols, rk in payload.values())
    return ok, f"evaluation ranks {payload}", payload


CRITERIA = {
    "gowers-identity": crit_gowers_identity,
    "bias-norm-inequality": crit_bias_norm_inequality,
    "explicit-analytic-rank": crit_explicit_analytic_rank,
    "counterexample-star": crit_counterexample_star,
    "star-threshold": crit_star_threshold,
    "dual-path-extension": crit_dual_path_extension,
    "equidistribution-trend": crit_equidistribution_trend,
    "kappa-uniformity-trend": crit_kappa_uniformity,
    "census-ratio": crit_census_ratio,
    "bias-prank-consistency": crit_bias_prank_consistency,
    "rank-axioms": crit_rank_axioms,
    "nullsatz-dims": crit_nullsatz_dims,
    "rough-bound": crit_rough_bound,
    "grid-vanishing": crit_grid_vanishing,
}


def run_criterion(
    name: str,
    budget: Budget | None = None,
    workers: int = 1,  # unused; perfbench/workloads.py passes workers=1
) -> CriterionResult:
    fn = CRITERIA[name]
    try:
        ok, detail, payload = fn(budget or Budget())
    except BudgetExceededError as exc:
        return CriterionResult(name, "refused", str(exc), {})
    return CriterionResult(name, "pass" if ok else "fail", detail, payload)


def run_suite(only: str | None = None, budget: Budget | None = None) -> list[CriterionResult]:
    """Run every criterion (or one).  A full run starts from empty module
    caches, then replays the battery on the caches the first pass left and
    requires the same status and byte-identical payloads from every
    criterion, so no output may depend on state one run leaves to the next."""
    if only:
        return [run_criterion(only, budget)]
    domain._BOX_CACHE.clear()
    poly._VINV_CACHE.clear()
    poly._RANDOM_MONOMIALS.clear()
    poly._FORM_EXPANSIONS.clear()
    results = [run_criterion(n, budget) for n in CRITERIA]
    replay = [run_criterion(n, budget) for n in CRITERIA]
    mismatched = [
        a.name
        for a, b in zip(results, replay)
        if a.payload_bytes() != b.payload_bytes() or a.status != b.status
    ]
    ok = not mismatched
    results.append(
        CriterionResult(
            "determinism",
            "pass" if ok else "fail",
            "payloads identical from cleared caches and on replay" if ok else f"mismatched criteria: {mismatched}",
            {"mismatched": mismatched},
        )
    )
    return results
