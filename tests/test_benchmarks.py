"""The A/B harness of benchmarks/: one cheap case of every script, run through
it current code against reference with one rep, and the harness's own pieces
(agreement checks, the summary and the claim) on synthetic inputs."""

import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from rankforge import PolyFamily, PrimeField, poly
from rankforge.explicit import ExplicitVariety
from rankforge.poly import MultiPoly

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def script(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))

    def load(name):
        spec = importlib.util.spec_from_file_location(f"benchmark_{name}", ROOT / "benchmarks" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


def test_geometry_growth_case(script):
    gg = script("geometry_growth")
    name, X, m, W = gg.census_calls()[0]
    assert gg.subspace_row(name, X, m, W, 1)["found"] == 23
    assert gg.kappa_row(2, 1)["fibers"] == 27


def test_rank_layer_case(script):
    rl = script("rank_layer")
    P = MultiPoly.from_terms(PrimeField(3), 2, [(1, (2, 1)), (2, (0, 2))])
    with rl.ab.recorded(poly.multilinear_form) as calls:
        poly.multilinear_form(P)
    (fn, call, nested), = calls
    assert fn is poly.multilinear_form and not nested
    _, outcome = rl.ab.compare("form", ("closed_form", lambda: rl.form_outcome(fn, call)), ("substitution", lambda: rl.form_outcome(rl.substitution_form, call)), reps=1)
    assert outcome[0] == (2, 2, 2)


def test_linalg_regimes_case(script):
    lr = script("linalg_regimes")
    A = np.random.default_rng(0).integers(0, 7, size=(70, 66))
    row = lr.solve_row(A, 7, 1)
    assert row["rank"] == 66 and row["route"] == "plain_loop"  # below PANEL_STEPS
    assert lr.route(np.random.default_rng(1).integers(0, 7, size=(150, 150)), 7) == "panels"
    assert lr.route(A % 2, 2) == "bit_rows"
    assert lr.solves(1)  # some recorded system has both sides above PANEL
    assert len(lr.battery_f2_systems()) > 100


def test_small_kernels_cases(script):
    sk = script("small_kernels")
    A = np.random.default_rng(0).integers(0, 2, size=(70, 66))
    assert sk.same_rref(sk.replaced_route(A, 2), sk.rref_mod(A, 2)[:2])
    F2 = PrimeField(2)
    for n, layout in ((3, "int"), (12, "int"), (13, "words")):
        bx = sk.Box(F2, n)
        assert (bx._low is not None) == (layout == "int")
        P = poly.random_poly(F2, n, 3, random.Random(n))
        other = sk.with_layout(sk.Box(F2, n), "words" if layout == "int" else "int")
        assert bx.value_counts([P]).tolist() == other.value_counts([P]).tolist()
    assert len(sk.trilinear_forms()) == 40 and sk.trilinear(1)["searches"] == 40


def test_bound_and_count_cases(script):
    bc = script("bound_and_count")
    rows = bc.refutations(1)
    assert [(row["call"], row["r0"], row["value"]) for row in rows[-2:]] == [("P over F_2", 2, 2), ("S over F_3", 2, 2)]
    assert all(row["r0"] > row["r_max"] and row["value"] is None for row in rows[:-2])  # refuted unsearched
    assert bc.kappa(1)["fibers"] == 27
    assert bc.bilinear(1)["forms"] == 1346
    assert [row["calls"] for row in bc.gowers_eval(1)] == [100] * 4
    assert bc.forms(1)["calls"] > 100
    part = bc.criterion("rank-axioms")(1)
    assert part["status"] == "pass" and len(part["payload_sha256"]) == 64


def test_memory_peaks_cases(script):
    mp = script("memory_peaks")
    X = ExplicitVariety(2, 2, PrimeField(3)).points()
    fam = PolyFamily([ExplicitVariety(2, 2, PrimeField(3)).polynomial()])
    for name, new, old, same in mp.cases(X, fam):
        assert mp.ab.compare(name, ("new", new), ("replaced", old), same, 1, peaks=True)[0]["replaced_peak_mb"] > 0


def test_rank_spans_case(script):
    rs = script("rank_spans")
    P = rs.quadrics()[0]
    _, (res,) = rs.walks("quadric 0", lambda: [rs.rank.schmidt_rank(P, 4)], [P], 1)
    assert res.value == 2


def test_weak_kernel_part_in_a_child(script):
    wk = script("weak_kernel")
    part = wk.ab.part(ROOT / "benchmarks" / "weak_kernel.py", ROOT / "src", "weak_space F_7^4", 1)
    assert part["dim"] == 5
    assert wk.ab.hashes({"weak_space F_7^4": part}) == {"/weak_space F_7^4/sha256": part["sha256"]}


def test_transform_vs_loop_case(script):
    tv = script("transform_vs_loop")
    row = tv.case_row(2, 3, "cubic", random.Random(0), 1)
    assert row["route"] == "packed" and {"packed_s", "stages_s", "matmul_s"} <= row.keys()


def test_a_disagreement_exits(script):
    ab = script("ab")
    assert ab.compare("same", ("new", lambda: [1]), ("old", lambda: [1]), reps=1)[1] == [1]
    with pytest.raises(SystemExit, match="planted: new and old disagree"):
        ab.compare("planted", ("new", lambda: 1), ("old", lambda: 2), reps=1)


def runs(values, **fixed):
    return [{"correct": True, "wall_s": v, "cpu_s": v, "peak_rss_mb": 40.0, "setup_s": 0.3, "ok_frac": 1.0, **fixed} for v in values]


def test_summary_and_claim_on_synthetic_runs(script):
    ab = script("ab")
    parent, change = runs([1.0, 2.0, 3.0, 4.0, 5.0]), runs([0.5, 1.5, 2.5, 3.5, 6.0], ok_frac=0.5)
    assert ab.summary(parent)["wall_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    workload = ab.pairs({"parent": parent, "change": change})
    assert workload["change_better_pairs"] == {"wall_s": 4, "cpu_s": 4, "peak_rss_mb": 0, "setup_s": 0, "ok_frac": 0}
    wall = ab.claim(workload, "wall_s")
    assert wall["change_better_pairs"] == 4 and wall["rel_change"] == pytest.approx(-0.5 / 3)
    assert wall["parent_iqr"] == 2.0 and not wall["gain_exceeds_parent_iqr"]
    faster = ab.pairs({"parent": parent, "change": runs([0.1, 0.2, 0.3, 0.4, 0.5])})
    assert ab.claim(faster, "wall_s")["gain_exceeds_parent_iqr"]
    # ok_frac is better higher: the change's 0.5 against the parent's 1.0 is a loss
    assert ab.claim(workload, "ok_frac")["rel_change"] == -0.5 and not ab.claim(workload, "ok_frac")["gain_exceeds_parent_iqr"]
    better_ok = ab.pairs({"parent": runs([1.0] * 5, ok_frac=0.5), "change": runs([1.0] * 5)})
    assert better_ok["change_better_pairs"]["ok_frac"] == 5 and ab.claim(better_ok, "ok_frac")["gain_exceeds_parent_iqr"]


def test_one_pair_is_refused_before_anything_runs(script, monkeypatch, capsys):
    ab = script("ab")
    monkeypatch.setattr(sys, "argv", ["script.py", "--parent", str(ROOT), "--pairs", "1"])
    with pytest.raises(SystemExit) as exit:
        ab.main(cases={"never": lambda reps: pytest.fail("a case ran")})
    assert exit.value.code == 2 and "at least 2 pairs" in capsys.readouterr().err
    assert ab.parser().parse_args(["--pairs", "2"]).pairs == 2


def test_end_to_end_compiles_both_checkouts_first(script, tmp_path, monkeypatch):
    # compileall writes bytecode under PYTHONDONTWRITEBYTECODE too, and
    # end_to_end brings both sides up to date before any child runs
    ab = script("ab")
    sources = [tmp_path / "src" / "pkg" / "mod.py", tmp_path / "perfbench" / "run.py"]
    for source in sources:
        source.parent.mkdir(parents=True)
        source.write_text("X = 1\n")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    ab.compile_checkout(tmp_path)
    assert all(Path(importlib.util.cache_from_source(str(source))).exists() for source in sources)
    events = []
    monkeypatch.setattr(ab, "compile_checkout", lambda checkout: events.append(("compile", checkout)))

    def child(cmd, src, cwd=None):
        events.append(("child", src))
        raise SystemExit("stop")

    monkeypatch.setattr(ab, "child", child)
    with pytest.raises(SystemExit, match="stop"):
        ab.end_to_end(tmp_path, 2)
    assert events == [("compile", tmp_path), ("compile", ab.ROOT), ("child", tmp_path / "src")]


def test_parts_compare_every_hash(script):
    ab = script("ab")
    doc = {"cases": {"rows": [{"sha256": "a", "histogram_sha256": "b", "s": 1.0}]}, "acceptance": {"sha256": "c"}}
    assert ab.hashes(doc) == {"/cases/rows/0/sha256": "a", "/cases/rows/0/histogram_sha256": "b", "/acceptance/sha256": "c"}
