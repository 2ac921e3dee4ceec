"""Algebra laws and transform identities for the pseudo-Boolean module."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfold import pb
from qfold.exceptions import DegreeOverflowError, EncodingError
from qfold.pb import PBPolynomial


def brute_values(poly):
    return [poly.evaluate(a) for a in range(1 << poly.n_vars)]


@st.composite
def polys(draw, n_vars=None, max_terms=6, coeff=st.integers(-3, 3)):
    if n_vars is None:
        n_vars = draw(st.integers(1, 6))
    n_terms = draw(st.integers(0, max_terms))
    terms = []
    for _ in range(n_terms):
        mask_vars = draw(st.sets(st.integers(0, n_vars - 1), max_size=n_vars))
        terms.append((sorted(mask_vars), draw(coeff)))
    return PBPolynomial.from_terms(terms, n_vars)


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------


def test_basic_constructors():
    one = PBPolynomial.constant(1.0, 3)
    x0 = PBPolynomial.variable(0, 3)
    assert one.evaluate(0b000) == 1.0
    assert x0.evaluate(0b001) == 1.0
    assert x0.evaluate(0b110) == 0.0
    assert (one - x0).evaluate(0b001) == 0.0
    with pytest.raises(EncodingError):
        PBPolynomial.variable(3, 3)


def test_idempotence():
    x = PBPolynomial.variable(1, 2)
    assert x * x == x
    assert (x * x * x).terms == {0b10: 1.0}


def test_complement_annihilates():
    x = PBPolynomial.variable(0, 1)
    assert ((1 - x) * x).terms == {}


def test_from_terms_merges_and_is_order_independent():
    pairs = [([0, 1], 0.5), ([1, 0], 0.25), ([], 2.0), ([0, 1], 0.25)]
    p = PBPolynomial.from_terms(pairs, 2)
    assert p.terms == {0: 2.0, 0b11: 1.0}
    for perm in itertools.permutations(pairs):
        assert PBPolynomial.from_terms(perm, 2).terms == p.terms


def test_near_zero_coefficients_dropped():
    p = PBPolynomial.from_terms([([0], 1e-13)], 2)
    assert p.terms == {}
    q = PBPolynomial.variable(0, 2)
    assert (q - q).terms == {}


def test_stats_and_serial_form():
    p = PBPolynomial.from_terms([([], 1.0), ([0, 2], -2.0)], 4)
    assert (p.term_count(), p.degree(), p.support()) == (2, 2, [0, 2])
    assert p.terms_as_lists() == [[[], 1.0], [[0, 2], -2.0]]


# ---------------------------------------------------------------------------
# ring laws (integer coefficients are exact in float64)
# ---------------------------------------------------------------------------


@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    n = max(a.n_vars, b.n_vars, c.n_vars)
    a, b, c = (_pad(p, n) for p in (a, b, c))
    assert (a + b).terms == (b + a).terms
    assert ((a + b) + c).terms == (a + (b + c)).terms
    assert (a * b).terms == (b * a).terms
    assert_same_function(a * b * c, a * (b * c))
    assert_same_function((a + b) * c, a * c + b * c)


def assert_same_function(p, q):
    # a multilinear polynomial is unique, so equal values mean equal terms
    on_vars = range(p.n_vars)
    np.testing.assert_allclose(
        pb.value_table(p, on_vars), pb.value_table(q, on_vars), rtol=0, atol=1e-9
    )


def _pad(p, n_vars):
    return PBPolynomial(n_vars, dict(p.terms))


@given(polys(), polys())
def test_evaluate_is_a_homomorphism(a, b):
    n = max(a.n_vars, b.n_vars)
    a, b = _pad(a, n), _pad(b, n)
    for mask in range(1 << n):
        assert (a + b).evaluate(mask) == pytest.approx(
            a.evaluate(mask) + b.evaluate(mask)
        )
        assert (a * b).evaluate(mask) == pytest.approx(
            a.evaluate(mask) * b.evaluate(mask)
        )


def test_evaluate_sequence_form():
    p = PBPolynomial.from_terms([([0], 1.0), ([1], 2.0)], 2)
    assert p.evaluate([1, 0]) == 1.0
    assert p.evaluate("01") == 2.0
    with pytest.raises(EncodingError):
        p.evaluate([1])
    with pytest.raises(EncodingError):
        p.evaluate([1, 2])


# ---------------------------------------------------------------------------
# value tables
# ---------------------------------------------------------------------------


@given(polys())
@settings(max_examples=80)
def test_value_table_matches_pointwise_evaluation(p):
    table = pb.value_table(p, on_vars=range(p.n_vars))
    np.testing.assert_allclose(table, brute_values(p), atol=1e-12)


@given(polys())
def test_table_roundtrip(p):
    support = p.support()
    table = pb.value_table(p, support)
    back = pb.from_value_table(table, support, p.n_vars)
    assert_same_function(back, p)


def bitwise_from_value_table(table, on_vars, n_vars):
    """The former ``from_value_table``: each global mask built one bit at a time."""
    coeffs = table.astype(float, copy=True)
    pb._mobius_inplace(coeffs, len(on_vars))
    terms = {}
    for local in np.flatnonzero(np.abs(coeffs) >= pb.COEFF_EPS):
        mask, m = 0, int(local)
        while m:
            low = m & -m
            mask |= 1 << on_vars[low.bit_length() - 1]
            m ^= low
        terms[mask] = float(coeffs[local])
    return terms


@pytest.mark.parametrize("v", [1, 8, 9, 17])
def test_from_value_table_equals_bitwise_map(v):
    # unsorted variables up to 199, past a machine word; a sparse polynomial,
    # so some table indices drop; the same terms in the same order
    rng = np.random.default_rng(v)
    on_vars = [int(x) for x in rng.choice(200, v, replace=False)]
    terms = [
        (rng.choice(on_vars, rng.integers(0, v + 1), replace=False).tolist(), int(c))
        for c in rng.integers(-3, 4, 4 * v)
    ]
    table = pb.value_table(PBPolynomial.from_terms(terms, 200), on_vars)
    got = pb.from_value_table(table, on_vars, 200).terms
    want = bitwise_from_value_table(table, on_vars, 200)
    assert list(got.items()) == list(want.items())
    assert 0 < len(got) < len(table) or v == 1
    assert any(mask >> 63 for mask in got) or v < 8


def test_value_table_rejects_missing_variable():
    p = PBPolynomial.variable(2, 4)
    with pytest.raises(EncodingError):
        pb.value_table(p, on_vars=[0, 1])


# ---------------------------------------------------------------------------
# scalar composition
# ---------------------------------------------------------------------------


@given(polys(max_terms=4), st.lists(st.integers(-2, 2), min_size=1, max_size=4))
@settings(max_examples=60)
def test_compose_matches_pointwise(p, outer):
    composed = pb.compose_pointwise(lambda v: np.polynomial.polynomial.polyval(v, outer), p)
    for mask in range(1 << p.n_vars):
        direct = sum(c * p.evaluate(mask) ** k for k, c in enumerate(outer))
        assert composed.evaluate(mask) == pytest.approx(direct, abs=1e-8)


def test_compose_empty_outer_is_zero():
    p = PBPolynomial.variable(0, 2)
    assert pb.compose_pointwise(np.zeros_like, p).terms == {}


def test_compose_rejects_support_wider_than_the_table():
    n = pb.MAX_TABLE_VARS + 1
    wide = PBPolynomial.from_terms([([i], 1.0) for i in range(n)], n)

    def never(values):
        raise AssertionError("composed a support wider than the table")

    with pytest.raises(DegreeOverflowError):
        pb.compose_pointwise(never, wide)
    narrow = PBPolynomial.from_terms([([i], 1.0) for i in range(n - 1)], n)
    assert pb.table_support(narrow) == list(range(n - 1))


def test_term_ceiling_enforced(monkeypatch):
    # product of two 8-variable "all vars" sums explodes past a tiny ceiling
    monkeypatch.setattr(pb, "TERM_CEILING", 5)
    n = 8
    a = PBPolynomial.from_terms([([i], 1.0) for i in range(n)], n)
    with pytest.raises(DegreeOverflowError):
        a.product(a)


def test_mismatched_widths_rejected():
    with pytest.raises(EncodingError):
        PBPolynomial.variable(0, 2) + PBPolynomial.variable(0, 3)
