"""Command-line interface.

Exit codes: 0 computed, 1 negative property/feasibility result, 2 input
error, 3 budget refusal.  Exact rationals are serialized as "num/den"
strings; floats are advisory duplicates.  Re-running any command with the
same inputs produces byte-identical primary fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import numpy as np

from . import catalog
from .acceptance import CRITERIA, run_suite
from .analytic import (
    analytic_rank,
    bias,
    count_points_char_sum,
    gowers_norm,
    gowers_norm_direct,
    value_distribution,
)
from .errors import BudgetExceededError, InputError, NotAdmissibleError, RankforgeError
from .explicit import (
    ExplicitVariety,
    ProductTorus,
    explicit_extension,
    mu_bias,
    nc_rank_growth_check,
    stratify,
)
from .geometry import (
    census_extension,
    enumerate_points,
    enumerate_subspaces_in,
    kappa_fibers,
    universality_check,
)
from .gf import PrimeField
from .nullsatz import ideal_membership, vanishing_vs_ideal_dims
from .poly import MultilinearForm, MultiPoly
from .rank import family_rank, nc_rank, partition_rank, schmidt_rank
from .runtime import DEFAULT_BUDGET, Budget
from .weakpoly import (
    FunctionOnX,
    extend_by_slices,
    extend_by_solve,
    is_weakly_polynomial,
    star_check,
    weak_space,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _frac(x: Fraction | None) -> str | None:
    if x is None:
        return None
    return f"{x.numerator}/{x.denominator}"


def _emit(args, doc, csv_rows=None) -> None:
    if getattr(args, "format", "json") == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common(sub):
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="evaluation-step budget")
    sub.add_argument("--out", help="write output to a file instead of stdout")
    sub.add_argument("--format", choices=["json", "csv"], default="json")


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    """A comma-separated list of integers; anything else is an input error."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise InputError(f"{flag} expects comma-separated integers, got {text!r}") from exc


def _poly_doc(P: MultiPoly) -> dict:
    return P.to_json_dict()


def _load_function(args, X) -> FunctionOnX:
    sources = [s for s in (args.values, args.from_poly, args.named_function) if s]
    if len(sources) != 1:
        raise InputError("supply exactly one of --values, --from-poly, --named-function")
    if args.values:
        text = args.values.strip()
        if text.startswith("{"):
            try:
                vals = [int(v) for v in json.loads(text)["values"]]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise InputError(f"bad function document: {exc}") from exc
        else:
            vals = _int_list(text, "--values")
        if len(vals) != len(X):
            raise InputError(f"expected {len(X)} values (variety order), got {len(vals)}")
        return FunctionOnX(X, np.array(vals, dtype=np.int64))
    if args.from_poly:
        return FunctionOnX.from_poly(X, catalog.parse_poly_arg(args.from_poly))
    if args.named_function == "counterexample":
        return catalog.counterexample_function(X)
    raise InputError(f"unknown named function {args.named_function!r}")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def cmd_bias(args) -> int:
    P = catalog.parse_poly_arg(args.poly)
    mag = bias(P, Budget(args.budget))
    _emit(
        args,
        {
            "counts": list(mag.histogram.counts),
            "domain_size": mag.histogram.domain_size,
            "magnitude_squared_num_den": _frac(mag.mag_sq),
            "magnitude_num_den": _frac(mag.magnitude_exact()),
            "float": mag.float_view,
        },
    )
    return EXIT_OK


def cmd_gowers(args) -> int:
    P = catalog.parse_poly_arg(args.poly)
    budget = Budget(args.budget)
    if args.direct:
        res = gowers_norm_direct(P, args.d, budget)
        _emit(
            args,
            {
                "counts": list(res.histogram.counts),
                "norm_pow_num_den": _frac(res.value),
                "float": res.float_view,
                "path": "direct-definition",
            },
        )
        return EXIT_OK
    gn = gowers_norm(P, args.d, budget)
    _emit(
        args,
        {
            "counts": list(gn.histogram.counts),
            "norm_pow_num_den": _frac(gn.norm_pow),
            "float": gn.norm_float,
            "path": "difference-form",
        },
    )
    return EXIT_OK


def cmd_arank(args) -> int:
    P = catalog.parse_poly_arg(args.poly)
    ar = analytic_rank(P, args.d, Budget(args.budget))
    _emit(
        args,
        {
            "exact_num_den": _frac(ar.exact),
            "float": ar.approx if ar.approx != float("inf") else "inf",
            "norm_pow_num_den": _frac(ar.norm.norm_pow),
        },
    )
    return EXIT_OK


def cmd_equidist(args) -> int:
    fam = catalog.parse_family_arg(args.family)
    vd = value_distribution(fam, Budget(args.budget))
    _emit(
        args,
        {"counts": list(vd.counts), "epsilon_num_den": _frac(vd.epsilon), "float": float(vd.epsilon)},
        csv_rows=[["value_index", "count"]] + [[i, c] for i, c in enumerate(vd.counts)],
    )
    return EXIT_OK


def cmd_count(args) -> int:
    fam = catalog.parse_family_arg(args.family)
    target = _int_list(args.target, "--target")
    n = count_points_char_sum(fam, target, Budget(args.budget))
    _emit(args, {"count": n, "target": list(target)})
    return EXIT_OK


def _rank_doc(res) -> dict:
    doc = {"decision": res.display(), "per_r": [list(x) for x in res.per_r]}
    if res.certificate is not None and res.certificate.pairs:
        if res.certificate.kind == "schmidt":
            doc["certificate"] = [[_poly_doc(Q), _poly_doc(R)] for Q, R in res.certificate.pairs]
        else:
            doc["certificate"] = [
                {"blocks": list(J), "Q": _poly_doc(Q), "R": _poly_doc(R)}
                for J, Q, R in res.certificate.pairs
            ]
    return doc


def cmd_rank(args) -> int:
    fam = catalog.parse_family_arg(args.poly)
    budget = Budget(args.budget)
    if fam.c > 1:
        res = family_rank(fam, args.rmax, budget)
        _emit(
            args,
            {
                "family_rank": res.display(),
                "span_dependent": res.span_dependent,
                "witness_combination": list(res.witness) if res.witness else None,
            },
        )
        return EXIT_OK
    res = schmidt_rank(fam.polys[0], args.rmax, budget)
    _emit(args, _rank_doc(res))
    return EXIT_OK


def cmd_prank(args) -> int:
    P = catalog.parse_poly_arg(args.poly)
    blocks = _int_list(args.blocks, "--blocks")
    T = MultilinearForm.from_tensor_poly(P, blocks)
    res = partition_rank(T, args.rmax, Budget(args.budget))
    _emit(args, _rank_doc(res))
    return EXIT_OK


def cmd_ncrank(args) -> int:
    P = catalog.parse_poly_arg(args.poly)
    res = nc_rank(P, args.rmax, Budget(args.budget))
    _emit(args, {"schmidt": _rank_doc(res.schmidt), "partition": _rank_doc(res.partition)})
    return EXIT_OK


def cmd_points(args) -> int:
    fam = catalog.parse_family_arg(args.family)
    X = enumerate_points(fam, Budget(args.budget))
    _emit(
        args,
        {"count": len(X), "points": [list(pt) for pt in X.points]},
        csv_rows=[["point"]] + [[" ".join(map(str, pt))] for pt in X.points],
    )
    return EXIT_OK


def cmd_subspaces(args) -> int:
    fam = catalog.parse_family_arg(args.family)
    budget = Budget(args.budget)
    X = enumerate_points(fam, budget)
    within = catalog.parse_hyperplane(args.hyperplane, fam.field, fam.n) if args.hyperplane else None
    subs = enumerate_subspaces_in(X, args.m, within=within, budget=budget)
    _emit(
        args,
        {
            "count": len(subs),
            "subspaces": [{"base": list(L.base), "basis": [list(r) for r in L.basis]} for L in subs],
        },
    )
    return EXIT_OK


def cmd_census(args) -> int:
    fam = catalog.parse_family_arg(args.family)
    budget = Budget(args.budget)
    X = enumerate_points(fam, budget)
    W = catalog.parse_hyperplane(args.hyperplane, fam.field, fam.n)
    cen = census_extension(X, W, args.m, budget)
    ratio = _frac(cen.ratio) if cen.ratio is not None else "undefined/empty"
    _emit(
        args,
        {"Z": len(cen.Z), "Y": len(cen.Y), "ratio_num_den": ratio},
        csv_rows=[["Z", "Y", "ratio"], [len(cen.Z), len(cen.Y), ratio]],
    )
    return EXIT_OK


def cmd_kappa(args) -> int:
    fam = catalog.parse_family_arg(args.family)
    stats = kappa_fibers(fam, args.m, linear_only=args.linear, budget=Budget(args.budget))
    nmin, nmax = stats.min_max()
    rows = [["target", "count"]]
    fibers_doc = []
    for key in sorted(stats.fibers):
        polys = stats.target_polys[key]
        label = "; ".join(repr(P) for P in polys)
        rows.append([label, stats.fibers[key]])
        fibers_doc.append({"target": [_poly_doc(P) for P in polys], "count": stats.fibers[key]})
    _emit(
        args,
        {
            "maps": stats.total_maps,
            "targets": stats.total_targets,
            "attained": stats.attained,
            "min": nmin,
            "max": nmax,
            "max_ratio_deviation_num_den": _frac(stats.max_ratio_deviation()),
            "fibers": fibers_doc,
        },
        csv_rows=rows,
    )
    return EXIT_OK


def cmd_universal(args) -> int:
    fam = catalog.parse_family_arg(args.family)
    ok, missed = universality_check(fam, args.m, Budget(args.budget))
    _emit(
        args,
        {
            "universal": ok,
            "missed": [[_poly_doc(P) for P in tup] for tup in missed[:50]],
            "missed_count": len(missed),
        },
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_weaktest(args) -> int:
    fam = catalog.parse_family_arg(args.family)
    budget = Budget(args.budget)
    X = enumerate_points(fam, budget)
    f = _load_function(args, X)
    ok, offending = is_weakly_polynomial(f, args.a, budget)
    doc = {"weakly_polynomial": ok}
    if offending is not None:
        doc["offending_subspace"] = {
            "base": list(offending.base),
            "basis": [list(r) for r in offending.basis],
        }
    _emit(args, doc)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_star(args) -> int:
    fam = catalog.parse_family_arg(args.family)
    budget = Budget(args.budget)
    X = enumerate_points(fam, budget)
    rep = star_check(X, args.a, budget)
    _emit(
        args,
        {
            "holds": rep.holds,
            "weak_dim": rep.weak_dim,
            "restriction_dim": rep.restriction_dim,
            "gap": rep.gap,
        },
    )
    return EXIT_OK if rep.holds else EXIT_NEGATIVE


def cmd_extend(args) -> int:
    fam = catalog.parse_family_arg(args.family)
    budget = Budget(args.budget)
    X = enumerate_points(fam, budget)
    f = _load_function(args, X)
    if args.slices:
        coeffs = _int_list(args.slices, "--slices")
        try:
            F = extend_by_slices(f, coeffs, args.a, budget=budget)
        except RankforgeError as exc:
            _emit(args, {"feasible": False, "error": str(exc)})
            return EXIT_NEGATIVE
        _emit(args, {"feasible": True, "poly": _poly_doc(F), "level_order": list(range(X.field.p))})
        return EXIT_OK
    res = extend_by_solve(f, args.a, budget)
    if res.feasible:
        _emit(args, {"feasible": True, "poly": _poly_doc(res.poly)})
        return EXIT_OK
    _emit(args, {"feasible": False, "dual_certificate": [int(v) for v in res.dual_certificate]})
    return EXIT_NEGATIVE


def cmd_xn(args) -> int:
    field = PrimeField(args.q)
    xn = ExplicitVariety(args.d, args.n, field, args.c)
    budget = Budget(args.budget)
    op = args.op
    if op == "poly":
        _emit(args, {"polys": [xn.polynomial(c).to_json_dict() for c in range(xn.c)]})
        return EXIT_OK
    if op == "bias":
        mag = mu_bias(args.d, field, budget)
        _emit(
            args,
            {
                "magnitude_squared_num_den": _frac(mag.mag_sq),
                "magnitude_num_den": _frac(mag.magnitude_exact()),
                "float": mag.float_view,
            },
        )
        return EXIT_OK
    if op == "growth":
        rows = nc_rank_growth_check(args.d, field, range(1, args.n + 1), budget)
        csv_rows = [["n", "restricted", "full", "consistent"]] + [
            [r.n, _frac(r.restricted_value), _frac(r.full_value) if r.full_value is not None else "", r.consistent]
            for r in rows
        ]
        _emit(
            args,
            {
                "rows": [
                    {
                        "n": r.n,
                        "restricted_num_den": _frac(r.restricted_value),
                        "full_num_den": _frac(r.full_value) if r.full_value is not None else None,
                        "consistent": r.consistent,
                    }
                    for r in rows
                ]
            },
            csv_rows=csv_rows,
        )
        return EXIT_OK if all(r.consistent for r in rows) else EXIT_NEGATIVE
    if op == "strata":
        if args.m is None:
            raise InputError("--m (subgroup order) required for strata")
        delta = field.delta_subgroup(args.m)
        X = xn.points(budget)
        strata = stratify(xn, delta, X)
        csv_rows = [["defect", "size"]] + [[s, len(o)] for s, o in strata.items()]
        _emit(args, {"strata_sizes": {str(s): len(o) for s, o in strata.items()}}, csv_rows=csv_rows)
        return EXIT_OK
    if op == "characters":
        if args.m is None or args.a is None:
            raise InputError("--m and --a required for characters")
        torus = ProductTorus(xn, field.delta_subgroup(args.m), args.a)
        rows = [["exponents", "admissible", "plus"]]
        doc = []
        for theta in torus.characters():
            rows.append([str(theta.exponents), theta.is_admissible(args.a), theta.is_plus(args.a)])
            doc.append(
                {
                    "exponents": [list(e) for e in theta.exponents],
                    "admissible": theta.is_admissible(args.a),
                    "plus": theta.is_plus(args.a),
                }
            )
        _emit(args, {"characters": doc}, csv_rows=rows)
        return EXIT_OK
    if op == "star":
        X = xn.points(budget)
        rep = star_check(X, args.a if args.a is not None else 1, budget)
        _emit(args, {"holds": rep.holds, "weak_dim": rep.weak_dim, "restriction_dim": rep.restriction_dim})
        return EXIT_OK if rep.holds else EXIT_NEGATIVE
    if op == "extend-basis":
        if args.m is None or args.a is None:
            raise InputError("--m and --a required for extend-basis")
        X = xn.points(budget)
        torus = ProductTorus(xn, field.delta_subgroup(args.m), args.a)
        ws = weak_space(X, args.a, budget)
        out = []
        ok = True
        for fb in ws.functions():
            res = explicit_extension(xn, torus, fb, args.a, budget)
            solved = extend_by_solve(fb, args.a, budget)
            agree = solved.feasible and np.array_equal(
                X.box.eval_poly(res.poly, X.indices), X.box.eval_poly(solved.poly, X.indices)
            )
            ok &= agree
            out.append(
                {
                    "pipeline_poly": _poly_doc(res.poly),
                    "assembled_degree": res.assembled_degree,
                    "agrees_with_solver": agree,
                }
            )
        _emit(args, {"weak_dim": ws.dim, "extensions": out})
        return EXIT_OK if ok else EXIT_NEGATIVE
    raise InputError(f"unknown xn operation {op!r}")


def cmd_nullsatz(args) -> int:
    fam = catalog.parse_family_arg(args.family)
    budget = Budget(args.budget)
    if args.r:
        R = catalog.parse_poly_arg(args.r)
        caps = None
        if args.cofactor_caps:
            caps = _int_list(args.cofactor_caps, "--cofactor-caps")
        res = ideal_membership(R, fam, args.cap, caps, budget)
        if res.member:
            _emit(args, {"member": True, "cofactors": [_poly_doc(Q) for Q in res.certificate.cofactors]})
            return EXIT_OK
        _emit(args, {"member": False, "dual_certificate": [int(v) for v in res.dual_certificate]})
        return EXIT_NEGATIVE
    rep = vanishing_vs_ideal_dims(fam, args.cap, budget=budget)
    _emit(
        args,
        {"e": rep.e, "vanishing_dim": rep.vanishing_dim, "ideal_dim": rep.ideal_dim, "equal": rep.equal},
    )
    return EXIT_OK if rep.equal else EXIT_NEGATIVE


def cmd_suite(args) -> int:
    budget = Budget(args.budget)
    results = run_suite(only=args.only, budget=budget)
    rows = [["criterion", "status", "detail"]]
    worst = EXIT_OK
    for res in results:
        print(f"{res.status.upper():8s} {res.name:26s} {res.detail}")
        rows.append([res.name, res.status, res.detail])
        if res.status == "fail":
            worst = EXIT_NEGATIVE
        elif res.status == "refused" and worst == EXIT_OK:
            worst = EXIT_BUDGET
    if args.out:
        doc = [
            {"name": r.name, "status": r.status, "detail": r.detail, "payload": r.payload}
            for r in results
        ]
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    return worst


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rankforge",
        description="Exact computations with polynomials over small prime fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        s = sub.add_parser(name, **kwargs)
        _common(s)
        s.set_defaults(handler=handler)
        return s

    s = add("bias", cmd_bias, help="character-sum bias of a polynomial")
    s.add_argument("--poly", required=True, help="JSON, @file, or named constructor")

    s = add("gowers", cmd_gowers, help="Gowers uniformity norm (exact 2^d power)")
    s.add_argument("--poly", required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--direct", action="store_true", help="direct-definition enumeration path")

    s = add("arank", cmd_arank, help="analytic rank (-log_q of the norm)")
    s.add_argument("--poly", required=True)
    s.add_argument("--d", type=int, required=True)

    s = add("equidist", cmd_equidist, help="value distribution of a family")
    s.add_argument("--family", required=True)

    s = add("count", cmd_count, help="point count of a level set via character sums")
    s.add_argument("--family", required=True)
    s.add_argument("--target", required=True, help="comma-separated target tuple")

    s = add("rank", cmd_rank, help="Schmidt rank (family input: family rank)")
    s.add_argument("--poly", required=True)
    s.add_argument("--rmax", type=int, default=2)

    s = add("prank", cmd_prank, help="partition rank of a tensor")
    s.add_argument("--poly", required=True)
    s.add_argument("--blocks", required=True, help="block sizes, e.g. 2,2")
    s.add_argument("--rmax", type=int, default=2)

    s = add("ncrank", cmd_ncrank, help="rank of the d-fold difference form")
    s.add_argument("--poly", required=True)
    s.add_argument("--rmax", type=int, default=2)

    s = add("points", cmd_points, help="enumerate the points of a variety")
    s.add_argument("--family", required=True)

    s = add("subspaces", cmd_subspaces, help="affine subspaces inside a variety")
    s.add_argument("--family", required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--hyperplane", help="c1,..,cn:b")

    s = add("census", cmd_census, help="extension census of subspaces in a hyperplane slice")
    s.add_argument("--family", required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--hyperplane", required=True, help="c1,..,cn:b")

    s = add("kappa", cmd_kappa, help="fibers of composition with affine maps")
    s.add_argument("--family", required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--linear", action="store_true", help="linear maps only")

    s = add("universal", cmd_universal, help="are all degree-bounded targets attained")
    s.add_argument("--family", required=True)
    s.add_argument("--m", type=int, required=True)

    for name, handler in (("weaktest", cmd_weaktest), ("star", cmd_star), ("extend", cmd_extend)):
        s = add(name, handler, help={
            "weaktest": "test weak polynomiality of a function on a variety",
            "star": "compare weak and restriction spaces",
            "extend": "extend a function on a variety to a global polynomial",
        }[name])
        s.add_argument("--family", required=True)
        s.add_argument("--a", type=int, required=True)
        if name != "star":
            s.add_argument("--values", help="comma-separated values in variety order")
            s.add_argument("--from-poly", dest="from_poly", help="restriction of this polynomial")
            s.add_argument("--named-function", dest="named_function", help="e.g. counterexample")
        if name == "extend":
            s.add_argument("--slices", help="linear functional c1,..,cn: use the level-set pipeline")

    s = add("xn", cmd_xn, help="the explicit block-product family")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--c", type=int, default=1)
    s.add_argument("--m", type=int, help="multiplicative subgroup order")
    s.add_argument("--a", type=int, help="weak degree")
    s.add_argument(
        "--op",
        default="poly",
        choices=["poly", "bias", "growth", "strata", "characters", "star", "extend-basis"],
    )

    s = add("nullsatz", cmd_nullsatz, help="bounded-degree ideal membership / dimension comparison")
    s.add_argument("--family", required=True)
    s.add_argument("--r", help="candidate member polynomial (omit to compare dimensions)")
    s.add_argument("--cap", type=int, required=True)
    s.add_argument("--cofactor-caps", dest="cofactor_caps", help="override per-member cofactor degree caps")

    s = add("suite", cmd_suite, help="run the acceptance criteria")
    s.add_argument("--only", choices=sorted(CRITERIA), help="run a single criterion")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(json.dumps({"error": "budget", "detail": str(exc), "estimate": exc.estimate}), file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, NotAdmissibleError) as exc:
        print(json.dumps({"error": "input", "detail": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except RankforgeError as exc:
        print(json.dumps({"error": "verification", "detail": str(exc)}), file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
