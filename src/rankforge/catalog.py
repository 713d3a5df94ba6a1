"""Named fixtures and input parsing shared by the CLI and the test suite.

Named constructors ship the objects every experiment needs, so acceptance
runs take no hand-written JSON:

  xn:d=D,n=N,q=Q        the block-product hypersurface family
  counterexample        the cubic xy(x-y) over F_5 whose weakly linear
                        function does not extend to a linear polynomial
  char2-quartic         the degree-4 elementary symmetric polynomial in 5
                        variables over F_2 (high rank, low nc-rank)
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .errors import InputError
from .explicit import ExplicitVariety
from .geometry import Hyperplane, VarietyPoints, enumerate_points
from .gf import PrimeField
from .poly import MultiPoly, PolyFamily
from .weakpoly import FunctionOnX


def xn_variety(d: int, n: int, q: int, c: int = 1) -> ExplicitVariety:
    return ExplicitVariety(d, n, PrimeField(q), c)


def counterexample_poly() -> MultiPoly:
    """xy(x-y) = x^2 y - x y^2 over F_5."""
    F5 = PrimeField(5)
    return MultiPoly.from_terms(F5, 2, [(1, (2, 1)), (-1, (1, 2))])


def counterexample_variety() -> VarietyPoints:
    return enumerate_points(PolyFamily([counterexample_poly()]))


def counterexample_function(X: VarietyPoints) -> FunctionOnX:
    """Zero on the two axes, the identity on the diagonal: weakly linear but
    not the restriction of any linear polynomial.  X must be the zero set of
    `counterexample_poly()`; on any other variety it is an input error."""
    Z = counterexample_variety()
    if X.field != Z.field or X.n != Z.n or not np.array_equal(X.indices, Z.indices):
        raise InputError("the counterexample function is defined only on the zero set of xy(x-y) over F_5")
    vals = []
    for x, y in X.points:
        vals.append(x if x == y else 0)
    return FunctionOnX(X, np.array(vals, dtype=np.int64))


def char2_quartic(n: int = 5) -> MultiPoly:
    """Sum of all degree-4 squarefree monomials in n variables over F_2."""
    F2 = PrimeField(2)
    terms = {}
    for combo in itertools.combinations(range(n), 4):
        e = [0] * n
        for i in combo:
            e[i] = 1
        terms[tuple(e)] = 1
    return MultiPoly(F2, n, terms)


def degenerate_census_family() -> tuple[PolyFamily, tuple[int, ...]]:
    """x1^2 + x2^2 + x3^2 + x4 over F_3 with the hyperplane {x4 = 0}: a
    high-rank hypersurface whose census still has extension-free lines."""
    F3 = PrimeField(3)
    P = MultiPoly.from_terms(
        F3, 4, [(1, (2, 0, 0, 0)), (1, (0, 2, 0, 0)), (1, (0, 0, 2, 0)), (1, (0, 0, 0, 1))]
    )
    return PolyFamily([P]), (0, 0, 0, 1)


# ---------------------------------------------------------------------------
# CLI input parsing
# ---------------------------------------------------------------------------


def _int_param(kv: str, spec: str) -> tuple[str, int]:
    """A constructor parameter "key=integer" as (key, integer)."""
    k, _, v = kv.partition("=")
    try:
        return k.strip(), int(v)  # with no "=", v is "" and int refuses it
    except ValueError:
        raise InputError(f"constructor {spec!r}: expected key=integer, got {kv!r}") from None


def _parse_named(spec: str) -> list[MultiPoly]:
    if spec.startswith("xn:") or spec == "xn":
        params = dict(_int_param(kv, spec) for kv in spec.split(":", 1)[1].split(",")) if ":" in spec else {}
        try:
            d, n, q = params["d"], params["n"], params["q"]
        except KeyError as exc:
            raise InputError("xn constructor needs d=, n=, q=") from exc
        return [xn_variety(d, n, q, params.get("c", 1)).polynomial(copy)
                for copy in range(params.get("c", 1))]
    if spec in ("counterexample", "paper-counterexample"):
        return [counterexample_poly()]
    if spec.startswith("char2-quartic"):
        n = 5
        if ":" in spec:
            n = _int_param(spec.split(":", 1)[1], spec)[1]
        return [char2_quartic(n)]
    raise InputError(f"unknown constructor {spec!r}")


def parse_family_arg(arg: str) -> PolyFamily:
    """A family from a JSON document (inline or @path) or a named constructor."""
    text = arg
    if arg.startswith("@"):
        path = arg[1:]
        if not os.path.exists(path):
            raise InputError(f"no such file: {path}")
        with open(path) as fh:
            text = fh.read()
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed JSON: {exc}") from exc
        if isinstance(doc, dict):
            doc = [doc]
        return PolyFamily([MultiPoly.from_json_dict(d) for d in doc])
    return PolyFamily(_parse_named(stripped))


def parse_poly_arg(arg: str) -> MultiPoly:
    fam = parse_family_arg(arg)
    if fam.c != 1:
        raise InputError("expected a single polynomial, got a family")
    return fam.polys[0]


def parse_hyperplane(arg: str, field: PrimeField, n: int):
    """Format: \"c1,c2,...,cn:b\", with some c_i nonzero mod p."""
    try:
        coeff_part, b_part = arg.split(":")
        coeffs = tuple(int(v) for v in coeff_part.split(","))
        b = int(b_part)
    except ValueError as exc:
        raise InputError(f"bad hyperplane spec {arg!r}; expected c1,..,cn:b") from exc
    if len(coeffs) != n:
        raise InputError(f"hyperplane has {len(coeffs)} coefficients, expected {n}")
    if all(c % field.p == 0 for c in coeffs):
        raise InputError(f"hyperplane {arg!r} has no nonzero coefficient mod {field.p}")
    return Hyperplane(coeffs, b)
