"""Acceptance criteria, one test per criterion.

The results come from one session-scoped `run_suite()`, the battery that
`rankforge suite` runs: a pass from cleared module caches, then a replay on
the caches that pass left, whose determinism line compares the two passes
byte for byte.  Each test prints its pass/fail line.
"""

import random

import pytest

from rankforge import acceptance, domain, poly, rank
from rankforge.acceptance import CRITERIA, CriterionResult, run_criterion, run_suite
from rankforge.gf import PrimeField
from rankforge.poly import monomials
from rankforge.runtime import Budget

_NAMES = list(CRITERIA)


@pytest.fixture(scope="session")
def suite():
    return {res.name: res for res in run_suite()}


@pytest.mark.parametrize("name", _NAMES)
def test_criterion(name, suite):
    res: CriterionResult = suite[name]
    print(f"{res.status.upper()} {name}: {res.detail}")
    assert res.status == "pass", f"{name}: {res.detail}"


def test_determinism_replay(suite):
    assert list(suite) == _NAMES + ["determinism"]
    res = suite["determinism"]
    print(f"{res.status.upper()} determinism: {res.detail}")
    assert res.status == "pass", res.detail
    assert res.payload == {"mismatched": []}


def _unseeded_rng(monkeypatch):
    """gowers-identity draws its polynomials from one generator shared by
    both passes, so the replay draws different ones."""
    rng = random.Random(0)
    monkeypatch.setattr(acceptance, "_sample", lambda field, n, d, count, seed: [poly.random_poly(field, n, d, rng) for _ in range(count)])
    return {"gowers-identity": CRITERIA["gowers-identity"]}


def _poisoned_cache(monkeypatch):
    """A criterion that writes into the cached Vandermonde inverse it reads:
    the replay reads the poisoned entry."""

    def crit(budget):
        V = poly.vandermonde_inverse(PrimeField(3))
        payload = {"first_row": V[0].tolist()}
        V += 1
        return True, "", payload

    return {"poisoned-cache": crit}


def _cache_dependent(monkeypatch):
    """A criterion whose output says whether its box was already cached."""

    def crit(budget):
        F3 = PrimeField(3)
        warm = (3, 2) in domain._BOX_CACHE
        domain.box(F3, 2)
        return True, "", {"warm": warm}

    return {"cache-dependent": crit}


@pytest.mark.parametrize("plant", [_unseeded_rng, _poisoned_cache, _cache_dependent], ids=lambda f: f.__name__[1:])
def test_determinism_fails_on_state_carried_between_passes(monkeypatch, plant):
    # private caches, so the planted state does not outlive the test
    monkeypatch.setattr(domain, "_BOX_CACHE", {})
    monkeypatch.setattr(poly, "_VINV_CACHE", {})
    criteria = plant(monkeypatch)
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    *results, determinism = run_suite()
    assert [r.status for r in results] == ["pass"]
    assert determinism.status == "fail"
    assert determinism.payload == {"mismatched": list(criteria)}


def test_budget_refusals_are_not_failures():
    # a starved suite reports refusals, distinct from failures
    res = run_criterion("gowers-identity", Budget(10))
    assert res.status == "refused"


def _search_charge(q: int, sizes: list[int], rows: int, width: int, r: int) -> int:
    """What `_rank_search` charges for r: admissible r-tuples * rows * width * r."""
    return rank._span_count(sizes, q, r) * rows * width * r


@pytest.mark.parametrize(
    "name, shape",
    [
        # the class-(3, 3, 3) representative x0y0 + x1y1 + x2y2: Schmidt rank in
        # 6 variables, factors of degree <= 1, products of degree <= 2
        ("rank-axioms", (2, [len(monomials(6, 1))], len(monomials(6, 2)), len(monomials(6, 1)))),
        # a (2, 2, 2) trilinear form over F_2: Q sides on blocks {0}, {0, 1}, {0, 2}
        ("bias-prank-consistency", (2, [2, 4, 4], 8, 4)),
    ],
)
def test_rank_search_cut_short_by_the_budget_refuses(name, shape):
    # a budget that admits the r = 1 search and not the r = 2 one: the
    # criterion may not read the missing rank as a pass or a failure
    q, sizes, rows, width = shape
    limit = _search_charge(q, sizes, rows, width, 2) - 1
    assert _search_charge(q, sizes, rows, width, 1) <= limit
    res = run_criterion(name, Budget(limit))
    assert res.status == "refused", res.detail
    assert "rank search at r=2" in res.detail and res.payload == {}
