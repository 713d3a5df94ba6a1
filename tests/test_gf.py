import pytest

from rankforge import InputError, NotAdmissibleError, PrimeField


def test_basic_arithmetic():
    F5 = PrimeField(5)
    assert F5.inv(2) == 3  # 2*3 = 6 = 1
    assert PrimeField(7).pow(3, 6) == 1  # Fermat
    assert F5.add(3, 4) == 2


def test_inverse_of_zero_rejected():
    with pytest.raises(InputError):
        PrimeField(5).inv(0)


def test_nonprime_rejected():
    for bad in (0, 1, 4, 6, 9, 2**20):
        with pytest.raises(InputError):
            PrimeField(bad)


def test_field_axioms_exhaustive_small():
    for p in (2, 3, 5, 7, 11, 97):
        F = PrimeField(p)
        for a in F.elements():
            assert F.add(a, p - a) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1


def test_char_index():
    assert PrimeField(5).char_index(3) == 3
    assert PrimeField(3).char_index(0) == 0
    F7 = PrimeField(7)
    assert F7.char_index(F7.add(5, 4)) == 2


def test_char_index_orthogonality_precheck():
    # summing unit vectors at char_index(x) over all x gives the flat histogram
    for p in (2, 3, 7):
        F = PrimeField(p)
        hist = [0] * p
        for x in F.elements():
            hist[F.char_index(x)] += 1
        assert hist == [1] * p


def test_delta_subgroup_f7_m3():
    # brute-force oracle: cube roots of unity in F_7
    F7 = PrimeField(7)
    oracle = sorted(x for x in range(1, 7) if pow(x, 3, 7) == 1)
    sub = F7.delta_subgroup(3)
    assert list(sub.elements) == oracle == [1, 2, 4]
    assert pow(sub.generator, 3, 7) == 1 and sub.generator != 1


def test_delta_subgroup_full_group():
    sub = PrimeField(5).delta_subgroup(4)
    assert sub.elements == (1, 2, 3, 4)


def test_delta_subgroup_inadmissible():
    with pytest.raises(NotAdmissibleError):
        PrimeField(5).delta_subgroup(3)


def test_delta_subgroup_closure():
    for p, m in ((7, 3), (13, 4), (31, 6)):
        F = PrimeField(p)
        sub = F.delta_subgroup(m)
        assert len(sub) == m
        for a in sub:
            assert F.inv(a) in sub
            for b in sub:
                assert F.mul(a, b) in sub

