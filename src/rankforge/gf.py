"""Exact arithmetic in prime fields F_p, additive character indices, and
multiplicative subgroups of prescribed order.

Field elements are plain Python ints in [0, p); a PrimeField instance carries
the modulus and the operations.  Keeping elements unboxed matters: the
enumeration loops elsewhere touch millions of elements.

Only prime moduli are supported.  Prime powers would need trace-composed
additive characters and polynomial-basis arithmetic; every experiment this
library targets runs over primes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, NotAdmissibleError

FieldElem = int  # always an int in [0, p)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """F_p with exact mod-p arithmetic. Immutable and safe to share."""

    def __init__(self, p: int):
        if not (2 <= p < 2**31):
            raise InputError(f"modulus {p} out of supported range [2, 2^31)")
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    # -- element handling ---------------------------------------------------

    def elements(self) -> range:
        return range(self.p)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return (a + b) % self.p

    def mul(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return (a * b) % self.p

    def inv(self, a: FieldElem) -> FieldElem:
        if a % self.p == 0:
            raise InputError("inverse of 0 requested")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: FieldElem, e: int) -> FieldElem:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    # -- additive character ---------------------------------------------------

    def char_index(self, x: FieldElem) -> int:
        """Exponent a with e_p(x) = exp(2*pi*i*a/p).

        Over a prime field the trace to F_p is the identity, so this is just
        the residue.  No complex number is ever materialized; downstream code
        accumulates integer histograms over these indices.
        """
        return x % self.p

    # -- multiplicative subgroups ---------------------------------------------

    def delta_subgroup(self, m: int) -> "DeltaSubgroup":
        """The unique multiplicative subgroup of order m, with a generator.

        Requires m | p-1 (cyclicity of F_p^*); otherwise the field is not
        admissible for this subgroup order.
        """
        if m < 1:
            raise InputError("subgroup order must be positive")
        if (self.p - 1) % m != 0:
            raise NotAdmissibleError(
                f"field F_{self.p} not admissible for subgroup order {m}: "
                f"{m} does not divide {self.p - 1}"
            )
        gen = self._element_of_order(m)
        elems = []
        x = 1
        for _ in range(m):
            elems.append(x)
            x = self.mul(x, gen)
        return DeltaSubgroup(field=self, m=m, generator=gen, elements=tuple(sorted(elems)))

    def _element_of_order(self, m: int) -> FieldElem:
        if m == 1:
            return 1
        cof = (self.p - 1) // m
        prime_divs = _prime_divisors(m)
        for x in range(2, self.p):
            cand = pow(x, cof, self.p)
            if cand == 1:
                continue
            if all(pow(cand, m // ell, self.p) != 1 for ell in prime_divs):
                return cand
        raise NotAdmissibleError(f"no element of order {m} found in F_{self.p}")


def _prime_divisors(n: int) -> list[int]:
    divs = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            divs.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        divs.append(n)
    return divs


@dataclass(frozen=True)
class DeltaSubgroup:
    """Multiplicative subgroup of F_p^* of order m, closed under mul and inv."""

    field: PrimeField
    m: int
    generator: FieldElem
    elements: tuple[FieldElem, ...]
    _member: frozenset = field(init=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_member", frozenset(self.elements))

    def __contains__(self, x: FieldElem) -> bool:
        return x in self._member

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return self.m
