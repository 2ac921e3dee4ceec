"""Multilinear pseudo-Boolean polynomial algebra.

Every function of binary variables q_i in {0, 1} has a unique multilinear
polynomial representation

    f(q) = sum_T c_T * prod_{i in T} q_i

over subsets T of the variable set.  Idempotence (q_i^2 = q_i) makes the
product of two multilinear polynomials multilinear again, with term masks
combined by bitwise OR.

Terms are stored as a dict mapping a variable-set bitmask (bit i set means
variable i participates) to a float coefficient.  The canonical form drops
coefficients below `COEFF_EPS` in magnitude.  Masks are Python ints, so the
variable count is not limited to machine word size.

Dense value tables over a chosen variable subset are available through the
zeta transform (coefficients to values) and its Moebius inverse; composing a
scalar function with a pseudo-Boolean inner polynomial is a pointwise
operation on the value table, which is far cheaper than expanding powers
symbolically.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .exceptions import DegreeOverflowError, EncodingError

#: Coefficients with |c| below this are dropped during canonicalization.
COEFF_EPS = 1e-12

#: Ceiling on the number of terms any single operation may produce.
TERM_CEILING = 5_000_000


def _check_ceiling(count: int):
    if count > TERM_CEILING:
        raise DegreeOverflowError(
            f"operation would produce {count} terms (> {TERM_CEILING})"
        )


class PBPolynomial:
    """A multilinear polynomial over binary variables 0 .. n_vars - 1."""

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: dict, *, _canonical=False):
        if n_vars < 0:
            raise EncodingError("n_vars must be nonnegative")
        self.n_vars = n_vars
        if _canonical:
            self.terms = terms
        else:
            self.terms = {m: c for m, c in terms.items() if abs(c) >= COEFF_EPS}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "PBPolynomial":
        return cls(n_vars, {}, _canonical=True)

    @classmethod
    def constant(cls, value: float, n_vars: int) -> "PBPolynomial":
        return cls(n_vars, {0: float(value)})

    @classmethod
    def variable(cls, index: int, n_vars: int) -> "PBPolynomial":
        if not 0 <= index < n_vars:
            raise EncodingError(f"variable {index} out of range 0..{n_vars - 1}")
        return cls(n_vars, {1 << index: 1.0}, _canonical=True)

    @classmethod
    def from_terms(cls, pairs, n_vars: int) -> "PBPolynomial":
        """Build from an iterable of (variable-index-list, coefficient).

        Contributions to the same variable set are combined with exact
        (fsum) accumulation, so the result is independent of input order.
        """
        acc: dict[int, list] = {}
        for variables, coeff in pairs:
            mask = 0
            for i in variables:
                if not 0 <= i < n_vars:
                    raise EncodingError(f"variable {i} out of range 0..{n_vars - 1}")
                mask |= 1 << i
            acc.setdefault(mask, []).append(float(coeff))
        terms = {}
        for mask in sorted(acc):
            c = math.fsum(acc[mask])
            if abs(c) >= COEFF_EPS:
                terms[mask] = c
        return cls(n_vars, terms, _canonical=True)

    # -- inspection ---------------------------------------------------------

    def term_count(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        """Largest variable-set size with a surviving coefficient (0 if empty)."""
        return max((m.bit_count() for m in self.terms), default=0)

    def support(self) -> list:
        """Sorted indices of variables that actually appear."""
        union = 0
        for m in self.terms:
            union |= m
        return _mask_bits(union)

    def terms_as_lists(self) -> list:
        """Serializable form: sorted [(variable indices, coefficient), ...]."""
        return [[_mask_bits(mask), self.terms[mask]] for mask in sorted(self.terms)]

    def __repr__(self):
        return (
            f"PBPolynomial(n_vars={self.n_vars}, terms={self.term_count()}, "
            f"degree={self.degree()})"
        )

    def __eq__(self, other):
        return (
            isinstance(other, PBPolynomial)
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = PBPolynomial.constant(other, self.n_vars)
        if self.n_vars != other.n_vars:
            raise EncodingError("variable counts differ")
        terms = dict(self.terms)
        for mask, c in other.terms.items():
            terms[mask] = terms.get(mask, 0.0) + c
        return PBPolynomial(self.n_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return PBPolynomial(
            self.n_vars, {m: -c for m, c in self.terms.items()}, _canonical=True
        )

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = PBPolynomial.constant(other, self.n_vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return PBPolynomial(
                self.n_vars, {m: c * other for m, c in self.terms.items()}
            )
        return self.product(other)

    __rmul__ = __mul__

    def product(self, other: "PBPolynomial"):
        """Multilinear product; masks combine by OR, q_i^2 collapses to q_i."""
        if self.n_vars != other.n_vars:
            raise EncodingError("variable counts differ")
        _check_ceiling(len(self.terms) * len(other.terms))
        terms: dict[int, float] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mask = m1 | m2
                terms[mask] = terms.get(mask, 0.0) + c1 * c2
        out = PBPolynomial(self.n_vars, terms)
        _check_ceiling(out.term_count())
        return out

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment) -> float:
        """Value at a full assignment.

        ``assignment`` is either an int mask (bit i = variable i) or a
        sequence of 0/1 of length n_vars.
        """
        mask = _assignment_mask(assignment, self.n_vars)
        total = 0.0
        for m, c in self.terms.items():
            if m & ~mask == 0:
                total += c
        return total


@functools.cache
def _byte_bits(k: int) -> tuple:
    """For each value of byte ``k`` of a mask, the indices of its set bits,
    ascending: the inverse of ``from_value_table``'s byte lookup."""
    return tuple([8 * k + i for i in range(8) if byte >> i & 1] for byte in range(256))


def _mask_bits(mask: int) -> list:
    """Indices of the set bits of ``mask``, ascending, one lookup per byte."""
    bits = []
    k = 0
    while mask:
        bits += _byte_bits(k)[mask & 255]
        mask >>= 8
        k += 1
    return bits


def _assignment_mask(assignment, n_vars: int) -> int:
    if isinstance(assignment, (int, np.integer)):
        return int(assignment)
    bits = list(assignment)
    if len(bits) != n_vars:
        raise EncodingError(
            f"assignment has {len(bits)} entries, expected {n_vars}"
        )
    mask = 0
    for i, b in enumerate(bits):
        if b not in (0, 1, "0", "1"):
            raise EncodingError(f"assignment entry {b!r} is not binary")
        if b in (1, "1"):
            mask |= 1 << i
    return mask


# ---------------------------------------------------------------------------
# dense value tables (zeta / Moebius transforms)
# ---------------------------------------------------------------------------


def _zeta_inplace(table: np.ndarray, v: int):
    # subset sum: values[mask] = sum of coeffs over submasks
    for i in range(v):
        view = table.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]


def _mobius_inplace(table: np.ndarray, v: int):
    for i in range(v):
        view = table.reshape(-1, 2, 1 << i)
        view[:, 1, :] -= view[:, 0, :]


def value_table(poly: PBPolynomial, on_vars) -> np.ndarray:
    """Values of ``poly`` on all assignments of ``on_vars``.

    Entry ``k`` of the result is the value at the assignment where local bit
    ``j`` of ``k`` sets variable ``on_vars[j]`` (variables outside ``on_vars``
    must not appear in the polynomial).
    """
    on_vars = list(on_vars)
    pos = {var: j for j, var in enumerate(on_vars)}
    v = len(on_vars)
    table = np.zeros(1 << v)
    for mask, coeff in poly.terms.items():
        local = 0
        m = mask
        while m:
            low = m & -m
            var = low.bit_length() - 1
            if var not in pos:
                raise EncodingError(
                    f"polynomial uses variable {var} outside the table variables"
                )
            local |= 1 << pos[var]
            m ^= low
        table[local] += coeff
    _zeta_inplace(table, v)
    return table


def from_value_table(table: np.ndarray, on_vars, n_vars: int) -> PBPolynomial:
    """Inverse of :func:`value_table`: recover the multilinear polynomial."""
    on_vars = list(on_vars)
    v = len(on_vars)
    if table.shape != (1 << v,):
        raise EncodingError(f"table length {table.shape} does not match {v} variables")
    coeffs = table.astype(float, copy=True)
    _mobius_inplace(coeffs, v)
    keep = np.flatnonzero(np.abs(coeffs) >= COEFF_EPS)
    # the global mask of a local index ORs one looked-up mask per byte of it
    masks = np.zeros(keep.size, dtype=object)
    for shift in range(0, v, 8):
        lookup = [0]
        for var in on_vars[shift : shift + 8]:
            lookup += [mask | 1 << var for mask in lookup]
        masks |= np.array(lookup, dtype=object)[keep >> shift & 255]
    terms = dict(zip(masks.tolist(), coeffs[keep].tolist()))
    return PBPolynomial(n_vars, terms, _canonical=True)


# ---------------------------------------------------------------------------
# pointwise composition
# ---------------------------------------------------------------------------

#: Widest support compose_pointwise tabulates: 2^22 float64 values, 32 MiB.
MAX_TABLE_VARS = 22


def table_support(poly: PBPolynomial) -> list:
    """``poly``'s support, when it is narrow enough to tabulate densely."""
    support = poly.support()
    if len(support) > MAX_TABLE_VARS:
        raise DegreeOverflowError(
            f"support of {len(support)} variables exceeds the "
            f"{MAX_TABLE_VARS}-variable value table"
        )
    return support


def compose_pointwise(outer, inner: PBPolynomial) -> PBPolynomial:
    """Substitute a pseudo-Boolean polynomial into a scalar function.

    ``outer`` maps an array of values elementwise.  It is applied to the
    value table of ``inner`` over its support, and the Moebius transform
    recovers the multilinear form of ``outer(inner)``, exact up to rounding
    whatever ``outer`` is.
    """
    support = table_support(inner)
    return from_value_table(outer(value_table(inner, support)), support, inner.n_vars)
