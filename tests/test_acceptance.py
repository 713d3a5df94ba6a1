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
from test_rank import partition_search_shape

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


def test_run_suite_clears_the_form_expansions(monkeypatch):
    # an expansion planted before the suite is gone when its first pass runs
    monkeypatch.setattr(poly, "_FORM_EXPANSIONS", {((1, 1), 2): "planted"})
    seen = []

    def crit(budget):
        seen.append(((1, 1), 2) in poly._FORM_EXPANSIONS)
        return True, "", {}

    monkeypatch.setattr(acceptance, "CRITERIA", {"form-expansions": crit})
    run_suite()
    assert seen == [False, False]


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
        # S = x0x2 + x1x3 over F_3: Schmidt rank in 4 variables, factors of
        # degree <= 1, products of degree <= 2.  Its polar rank 4 refutes
        # r = 1 unsearched, and those of the class representatives refute
        # every level rank-axioms asks of them, so S at r = 2 is the first
        # search the criterion charges above this budget
        ("rank-axioms", (3, [len(monomials(4, 1))], len(monomials(4, 2)), len(monomials(4, 1)))),
        # a (2, 2, 2) trilinear form over F_2: Q sides on blocks {0}, {2}, {1},
        # the smaller side of each bipartition
        ("bias-prank-consistency", (2, *partition_search_shape((2, 2, 2)))),
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
    assert f"rank search at r=2: estimated {limit + 1} steps" in res.detail and res.payload == {}
