import numpy as np
import pytest

from rankforge import linalg


@pytest.fixture(params=["kernel", "pairing"])
def corrupt_certificates(request, monkeypatch):
    """Corrupt every dual certificate as it leaves `solve_mod`'s nested solve
    of [A | b]^T y = (0, ..., 0, 1).  "kernel" adds 1 to each entry (then
    y.A is A's column sums, not 0), "pairing" zeroes y (y.A = 0 but y.b = 0).
    Only the nested call sees the patch: other modules hold `solve_mod` as
    they imported it.  Returns the VerificationError message to expect."""
    nested = linalg.solve_mod

    def corrupted(A, b, p):
        y, none = nested(A, b, p)
        return ((y + 1) % p if request.param == "kernel" else np.zeros_like(y)), none

    monkeypatch.setattr(linalg, "solve_mod", corrupted)
    return "y.A != 0" if request.param == "kernel" else "y.b = 0"
