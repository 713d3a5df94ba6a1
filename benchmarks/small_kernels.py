"""The small exact kernels of the acceptance battery, each route against the
one beside it.  Options, output and the end-to-end runs: see ab.py.

`f2_rref`: `rref_mod` over F_2, which runs on bit rows, against the route
it replaced there (`replaced_s`): the plain Gauss-Jordan loop, or the
column panels when both sides exceed `PANEL`; from the 3 x 3 systems of the
rank searches to 1500 x 1500 and a tall 3000 x 80.  R and the pivots must
be equal.

`f2_boxes`: `Box.value_counts` of one random cubic over F_2^n, n = 3 to 20,
by the one-int layout (`int_s`) and by the uint64 words (`words_s`); the box
takes the int up to `domain._INT_POINTS` = 2^12 points and the words past
it, and each row times the other layout too by setting the box's masks.
`masks_kb` is what the int layout keeps per box.  The counts must be equal.

`power_table`: the matmul route of `Box.eval_poly` on a random quadric over
F_p^3, slicing the box's p x p table of powers (`table_s`, after the table
is built once) against building the occurring columns on every call
(`build_s`); `table_build_s` is the one-off cost of the table and
`table_kb` its size.  The box keeps the table when p^2 <= 4096.

`parts`: `kappa`, the `kappa_fibers` calls of kappa-uniformity-trend (F_3^2
and F_3^3, m = 1), and `trilinear`, the 40 (2, 2, 2) partition-rank searches
of bias-prank-consistency: the best time over --reps runs and a sha256 of
the fibers, or of every (value, per_r), which must be equal on both trees.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab  # noqa: E402

from rankforge import domain, linalg  # noqa: E402
from rankforge.domain import Box  # noqa: E402
from rankforge.explicit import ExplicitVariety  # noqa: E402
from rankforge.geometry import kappa_fibers  # noqa: E402
from rankforge.gf import PrimeField  # noqa: E402
from rankforge.linalg import as_mod_array, rref_mod  # noqa: E402
from rankforge.poly import MultilinearForm, MultiPoly, PolyFamily, random_poly  # noqa: E402
from rankforge.rank import partition_rank  # noqa: E402

F2_SHAPES = ((3, 3), (6, 7), (40, 40), (200, 200), (1500, 1500), (3000, 80))


def replaced_route(A: np.ndarray, p: int):
    """R and the pivots by the route rref_mod took over F_2 before the bit
    rows: column panels when both sides exceed PANEL, else the plain loop."""
    M = as_mod_array(A, p)
    return M, (linalg._gauss_jordan_panels if min(M.shape) > linalg.PANEL else linalg._gauss_jordan)(M, p)


def same_rref(a, b) -> bool:
    return np.array_equal(a[0], b[0]) and a[1] == b[1]


def f2_rref(reps: int) -> list[dict]:
    rng = np.random.default_rng(2)
    rows = []
    for shape in F2_SHAPES:
        A = rng.integers(0, 2, size=shape)
        row, (_, pivots) = ab.compare(f"{shape}", ("bit_rows", lambda: rref_mod(A, 2)[:2]), ("replaced", lambda: replaced_route(A, 2)), same_rref, reps)
        rows.append({"shape": list(shape), "rank": len(pivots), **row})
    return rows


def with_layout(bx: Box, layout: str) -> Box:
    """bx set to hold its F_2 values in the given layout."""
    bx._low = domain._int_masks(bx.n) if layout == "int" else None
    return bx


def f2_boxes(reps: int) -> list[dict]:
    F2 = PrimeField(2)
    rows = []
    for n in range(3, 21):
        P = random_poly(F2, n, 3, random.Random(n))
        default = "int" if Box(F2, n)._low else "words"
        other = "words" if default == "int" else "int"
        boxes = {layout: with_layout(Box(F2, n), layout) for layout in (default, other)}
        row, counts = ab.compare(
            f"F_2^{n}",
            (default, lambda: boxes[default].value_counts([P])),
            (other, lambda: boxes[other].value_counts([P])),
            np.array_equal,
            reps,
        )
        masks_kb = sum(low.bit_length() for low in domain._int_masks(n)) / 8 / 1024
        rows.append({"points": 2**n, "route": default, "ones": int(counts[1]), "masks_kb": masks_kb, **row})
    return rows


def power_table(reps: int) -> list[dict]:
    rows = []
    for p in (3, 7, 31, 61, 67, 127, 257):
        F = PrimeField(p)
        P = random_poly(F, 3, 2, random.Random(p))
        bx, built = Box(F, 3), Box(F, 3)
        built._power_columns = lambda E, p=p: domain._powers(p, E)
        table_build_s, _ = ab.best_of(lambda: domain._powers(p, list(range(p))), reps)
        bx._table = domain._powers(p, list(range(p)))
        row, _ = ab.compare(f"F_{p}^3", ("table", lambda: bx._eval_transform(P)), ("build", lambda: built._eval_transform(P)), np.array_equal, reps)
        rows.append({"p": p, "kept": p * p <= domain._TABLE_ENTRIES, "table_build_s": table_build_s, "table_kb": p * p * 8 / 1024, **row})
    return rows


def kappa(reps: int) -> dict:
    fams = [PolyFamily([ExplicitVariety(2, n, PrimeField(3)).polynomial()]) for n in (2, 3)]
    s, stats = ab.best_of(lambda: [kappa_fibers(fam, 1) for fam in fams], reps)
    return {"kappa_s": s, "sha256": ab.sha([list(st.fibers.items()) for st in stats])}


def trilinear_forms() -> list[MultilinearForm]:
    """bias-prank-consistency's 40 random (2, 2, 2) forms over F_2."""
    F2, rng, forms = PrimeField(2), random.Random(77), []
    for _ in range(40):
        terms = {}
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    if rng.randrange(2):
                        e = [0] * 6
                        e[i] = e[2 + j] = e[4 + k] = 1
                        terms[tuple(e)] = 1
        forms.append(MultilinearForm.from_tensor_poly(MultiPoly(F2, 6, terms), (2, 2, 2)))
    return forms


def trilinear(reps: int) -> dict:
    forms = trilinear_forms()
    s, results = ab.best_of(lambda: [partition_rank(T, 4) for T in forms], reps)
    return {"searches": len(forms), "search_s": s, "sha256": ab.sha([(r.value, r.per_r) for r in results])}


if __name__ == "__main__":
    ab.main(cases={"f2_rref": f2_rref, "f2_boxes": f2_boxes, "power_table": power_table}, parts={"kappa": kappa, "trilinear": trilinear})
