"""q-integers, Gaussian binomials, x-polynomials over Q(q), and the
q-binomial basis."""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from qballot.qlaurent import (
    RF_ONE,
    RF_ZERO,
    QRatFunc,
    lowest_terms,
    poly_gcd,
    ql_divexact,
)
from qballot.qring import ONE, Q, ZERO, ExactnessError, QLaurent
import qballot.qcyclo as qcyclo
import qballot.qlaurent as qlaurent
from qballot.csequence import c_difference, c_recurrence, c_theorem1
from qballot.qcore import (
    XPoly,
    from_qbinom_basis,
    gauss_binom,
    hahn_delta,
    q1_specialize,
    q_stirling,
    qbinom_x,
    qbinom_columns,
    qfactorial_coprime,
    subst_affine,
    to_qbinom_basis,
)
from qballot.qcyclo import (
    cyclotomic,
    q_factorial,
    q_int,
    _column_bound,
    _pack,
    _qint_div,
    _qint_mul,
    _unpack,
    reduce_by_qfactorial,
)

# ---------------------------------------------------------------------------
# q-integers and q-factorials


def test_q_int_values():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(3) == QLaurent({0: 1, 1: 1, 2: 1})
    # [-n]_q = -q^(-n) [n]_q
    assert q_int(-2) == QLaurent({-1: -1, -2: -1})
    assert q_int(-3) == q_int(3) * QLaurent.monomial(-3, -1)


def test_q_int_addition_rule():
    # [m+n]_q = [m]_q + q^m [n]_q
    for m in range(0, 6):
        for n in range(0, 6):
            assert q_int(m + n) == q_int(m) + q_int(n).shifted(m)


def test_q_factorial():
    assert q_factorial(0) == ONE
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
    assert q_factorial(4).eval_at(1) == 24
    with pytest.raises(ValueError):
        q_factorial(-1)


# ---------------------------------------------------------------------------
# Gaussian binomials


def test_gauss_binom_values():
    assert gauss_binom(4, 2) == QLaurent({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert gauss_binom(5, 0) == ONE
    assert gauss_binom(3, 5) == ZERO
    assert gauss_binom(0, 0) == ONE


def test_gauss_binom_symmetry_and_pascal():
    for n in range(0, 9):
        for k in range(0, n + 1):
            b = gauss_binom(n, k)
            assert b == gauss_binom(n, n - k)
            if 0 < k < n:
                assert b == gauss_binom(n - 1, k - 1) + gauss_binom(n - 1, k).shifted(k)
                assert b == gauss_binom(n - 1, k) + gauss_binom(n - 1, k - 1).shifted(n - k)


def test_gauss_binom_counts_at_one():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert gauss_binom(n, k).eval_at(1) == comb(n, k)


def test_gauss_binom_product_formula():
    # [n k]_q [k]_q! [n-k]_q! = [n]_q!
    for n in range(0, 8):
        for k in range(0, n + 1):
            assert gauss_binom(n, k) * q_factorial(k) * q_factorial(n - k) == q_factorial(n)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_small():
    assert cyclotomic(1) == Q - 1
    assert cyclotomic(2) == ONE + Q
    assert cyclotomic(6) == QLaurent({0: 1, 1: -1, 2: 1})
    assert cyclotomic(12) == QLaurent({0: 1, 2: -1, 4: 1})


def test_cyclotomic_product():
    # prod over d | n of Phi_d = q^n - 1
    for n in range(1, 13):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == QLaurent.monomial(n) - 1


def test_qfactorial_cyclotomic_structure():
    # [n]_q! = prod over e >= 2 of Phi_e^floor(n/e)
    for n in range(0, 9):
        prod = ONE
        for e in range(2, n + 1):
            prod = prod * cyclotomic(e) ** (n // e)
        assert prod == q_factorial(n)


# ---------------------------------------------------------------------------
# XPoly basics


def _xp(*laurent_coeffs):
    return XPoly(QLaurent(c) if isinstance(c, dict) else c for c in laurent_coeffs)


def test_xpoly_construction_and_trim():
    f = XPoly([RF_ONE, RF_ZERO, RF_ZERO])
    assert f.degree == 0
    assert XPoly.zero().degree == -1
    assert XPoly.zero().is_zero
    assert XPoly.x().degree == 1
    assert XPoly.const(Fraction(2, 3)).coeff(0) == QRatFunc(2, 3)
    assert XPoly.const(0).is_zero


def test_xpoly_arithmetic():
    x = XPoly.x()
    f = x * x + x * 2 + 1
    assert f.coeffs == (RF_ONE * 1, RF_ONE * 2, RF_ONE)
    assert (f - f).is_zero
    g = f * QRatFunc(Q)
    assert g.coeff(1) == QRatFunc(QLaurent({1: 2}))
    assert f.leading == RF_ONE
    assert f.coeff(17) == RF_ZERO


def test_xpoly_eval_matches_naive():
    f = _xp({0: 1, 1: 1}, {2: 3}, {-1: 1})
    pt = QRatFunc(ONE + Q)
    naive = RF_ZERO
    for k, c in enumerate(f.coeffs):
        naive = naive + c * pt**k
    assert f.eval(pt) == naive
    assert f.eval(0) == QRatFunc(ONE + Q)


def test_eval_reduces_once(monkeypatch):
    # f(0 x + p) is reduced once, by XPoly._make; its one column is already
    # the canonical QRatFunc, so neither the substitution nor the result
    # runs a gcd of its own.
    c = c_theorem1(6)
    pt = QRatFunc(ONE + QLaurent.monomial(2), q_int(5))
    want = RF_ZERO
    for k, coeff in enumerate(c.coeffs):
        want = want + coeff * pt**k
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(qlaurent, "poly_gcd", counting)
    got = c.eval(pt)
    assert len(calls) == 1
    monkeypatch.undo()
    assert got == want


def test_xpoly_str():
    f = _xp({0: 1, 1: 1}, {1: 1})
    assert str(f) == "1+q + qx"
    assert str(_xp({0: 1}, {0: 1, 1: 2})) == "1 + (1+2q)x"
    assert str(XPoly.zero()) == "0"


# ---------------------------------------------------------------------------
# the q-binomial basis {x choose k}_q


def test_qbinom_x_small():
    assert qbinom_x(0) == XPoly.const(1)
    assert qbinom_x(1) == XPoly.x()
    # {x choose 2}_q = x(x-1)/[2]_q!
    two = qbinom_x(2)
    inv = QRatFunc(ONE, ONE + Q)
    assert two.coeff(2) == inv
    assert two.coeff(1) == inv * -1
    assert two.coeff(0) == RF_ZERO


def test_qbinom_bridge_to_gauss():
    # {[n]_q choose k}_q = q^(k(k-1)/2) [n k]_q
    for n in range(0, 7):
        node = QRatFunc(q_int(n))
        for k in range(0, 7):
            got = qbinom_x(k).eval(node)
            want = QRatFunc(gauss_binom(n, k).shifted(k * (k - 1) // 2))
            assert got == want, (n, k)


def test_qbinom_at_minus_one_over_q():
    # {-1/q choose j}_q = (-q)^(-j); the value that pins the side condition
    node = QRatFunc(QLaurent.monomial(-1, -1))
    for j in range(0, 7):
        want = QRatFunc(QLaurent.monomial(-j, -1 if j % 2 else 1))
        assert qbinom_x(j).eval(node) == want


def test_hahn_delta_lowers_qbinom():
    for k in range(1, 7):
        assert hahn_delta(qbinom_x(k)) == qbinom_x(k - 1)
    assert hahn_delta(XPoly.const(5)).is_zero


# ---------------------------------------------------------------------------
# affine substitution


def test_subst_affine_identity_and_shift():
    f = _xp({0: 1}, {1: 1}, {3: 1})
    assert subst_affine(f, 1, 0) == f
    shifted = subst_affine(f, 1, 1)
    assert shifted.eval(0) == f.eval(QRatFunc(ONE))


def test_subst_affine_composes():
    f = _xp({0: 1, 2: 1}, {1: 2}, {0: 1})
    a, b, c, d = (
        QRatFunc(Q),
        RF_ONE,
        QRatFunc(ONE + Q),
        QRatFunc(ONE, ONE + Q),
    )
    lhs = subst_affine(subst_affine(f, a, b), c, d)
    rhs = subst_affine(f, a * c, a * d + b)
    assert lhs == rhs


def test_subst_affine_rejects_bad_scalars():
    with pytest.raises(TypeError):
        subst_affine(XPoly.x(), "q", 0)


# The three operations below share one Laurent Horner; each is checked
# against plain XPoly / QRatFunc arithmetic on rational inputs.

small_scalars = st.builds(
    lambda num, den: QRatFunc(QLaurent(num), den),
    st.dictionaries(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-6, max_value=6),
        max_size=3,
    ),
    st.sampled_from([ONE, ONE + Q, QLaurent({0: 2}), q_int(3), Q - 2]),
)
small_xpolys = st.lists(small_scalars, max_size=5).map(XPoly)


@given(small_xpolys, small_scalars, small_scalars)
@settings(max_examples=40, deadline=None)
def test_subst_affine_matches_naive(f, a, b):
    lin = XPoly([b, a])
    want, power = XPoly.zero(), XPoly.const(1)
    for c in f.coeffs:
        want = want + power * c
        power = power * lin
    assert subst_affine(f, a, b) == want


@given(small_xpolys, small_scalars)
@settings(max_examples=40, deadline=None)
def test_eval_matches_naive(f, p):
    want = RF_ZERO
    for k, c in enumerate(f.coeffs):
        want = want + c * p**k
    assert f.eval(p) == want


@given(small_xpolys)
@settings(max_examples=40, deadline=None)
def test_hahn_delta_times_divisor_is_the_difference(f):
    assert XPoly([1, Q - 1]) * hahn_delta(f) == subst_affine(f, Q, 1) - f


# The representation: Laurent columns over one shared denominator in lowest
# terms, checked against per-coefficient QRatFunc arithmetic.


def _assert_canonical(f):
    assert XPoly(f.coeffs) == f
    assert hash(XPoly(f.coeffs)) == hash(f)
    for k, col in enumerate(f.nums):
        assert f.coeff(k) == QRatFunc(col, f.den)
    assert not f.nums or f.nums[-1]
    den = f.den
    assert den.min_exp == 0
    assert gcd(den.content(), *(col.content() for col in f.nums)) == 1
    assert den.leading_coeff > 0
    g = den
    for col in f.nums:
        if col:
            g = poly_gcd(g, col)
    assert g == ONE


@given(small_xpolys, small_xpolys, small_scalars)
@settings(max_examples=60, deadline=None)
def test_xpoly_columns_match_coefficient_arithmetic(f, g, s):
    n = max(len(f.nums), len(g.nums))
    for h in (f, g, f + g, f - g, f * g, f * s):
        _assert_canonical(h)
    for k in range(n + 1):
        assert (f + g).coeff(k) == f.coeff(k) + g.coeff(k)
        assert (f - g).coeff(k) == f.coeff(k) - g.coeff(k)
        assert (f * s).coeff(k) == f.coeff(k) * s
    for k in range(2 * n):
        want = RF_ZERO
        for i in range(k + 1):
            want = want + f.coeff(i) * g.coeff(k - i)
        assert (f * g).coeff(k) == want


@given(small_xpolys, small_scalars, small_scalars)
@settings(max_examples=30, deadline=None)
def test_xpoly_operations_stay_canonical(f, a, b):
    _assert_canonical(subst_affine(f, a, b))
    _assert_canonical(hahn_delta(f))
    _assert_canonical(from_qbinom_basis(to_qbinom_basis(f)))


# ---------------------------------------------------------------------------
# expansions in the q-binomial basis

small_ratfuncs = st.builds(
    lambda num, den_choice: QRatFunc(
        QLaurent(num), ONE + Q if den_choice else ONE
    ),
    st.dictionaries(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-6, max_value=6),
        max_size=3,
    ),
    st.booleans(),
)


@given(st.lists(small_ratfuncs, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_qbinom_basis_roundtrip(cs):
    f = XPoly(cs)
    e = to_qbinom_basis(f)
    assert from_qbinom_basis(e) == f


def test_qbinom_expansion_of_basis_vectors():
    for k in range(0, 6):
        e = to_qbinom_basis(qbinom_x(k))
        want = [RF_ZERO] * k + [RF_ONE]
        assert e == tuple(want)


def test_from_qbinom_trims_trailing_zeros():
    assert from_qbinom_basis((RF_ONE, RF_ZERO, RF_ZERO)) == XPoly.const(1)
    # any Q(q) scalars are coordinates
    assert from_qbinom_basis([1, ZERO, 0]) == XPoly.const(1)
    assert from_qbinom_basis([0, Q]) == XPoly([0, Q])
    assert from_qbinom_basis([]) == XPoly.zero()
    assert to_qbinom_basis(XPoly.zero()) == (RF_ZERO,)
    with pytest.raises(TypeError):
        from_qbinom_basis(["q"])


# ---------------------------------------------------------------------------
# q-Stirling numbers


def test_q_stirling_values():
    assert q_stirling(0, 0) == ONE
    assert q_stirling(3, 2) == QLaurent({0: 2, 1: 1})
    assert q_stirling(4, 1) == ONE
    assert q_stirling(2, 3) == ZERO
    assert q_stirling(4, 4) == ONE


def test_q_stirling_counts_at_one():
    # classical Stirling set numbers at q = 1
    want = {(4, 2): 7, (5, 2): 15, (5, 3): 25, (6, 3): 90}
    for (n, k), v in want.items():
        assert q_stirling(n, k).eval_at(1) == v


def test_q_stirling_from_monomial_expansion():
    # delta^k (x^n) at 0 equals [k]_q! S_q(n, k)
    for n in range(0, 7):
        f = XPoly([RF_ZERO] * n + [RF_ONE])
        e = to_qbinom_basis(f)
        for k in range(0, n + 1):
            got = e[k] if k < len(e) else RF_ZERO
            assert got == QRatFunc(q_factorial(k) * q_stirling(n, k)), (n, k)


# ---------------------------------------------------------------------------
# q = 1 specialization


def test_q1_specialize():
    f = _xp({0: 1, 1: 1}, {2: 3})
    g = q1_specialize(f)
    assert g.coeff(0) == QRatFunc(QLaurent({0: 2}))
    assert g.coeff(1) == QRatFunc(QLaurent({0: 3}))
    # the shared denominator is read too: (q^2 + q)/(1 + q) = q is 1 at q = 1
    f = XPoly([QRatFunc(Q * Q + Q, ONE + Q), QRatFunc(ONE, q_int(3))])
    assert q1_specialize(f) == XPoly([1, Fraction(1, 3)])
    # a coefficient with a pole at q = 1
    with pytest.raises(ZeroDivisionError):
        q1_specialize(XPoly([QRatFunc(ONE, Q - ONE)]))
    with pytest.raises(ZeroDivisionError):
        q1_specialize(XPoly([1, QRatFunc(ONE, Q - ONE)]))


# ---------------------------------------------------------------------------
# exact division by q-factorials


sieve_coeffs = st.integers(min_value=-9, max_value=9)


@given(
    st.lists(st.dictionaries(
        st.integers(min_value=-2, max_value=5), sieve_coeffs, max_size=4,
    ), max_size=4),
    st.lists(st.integers(min_value=2, max_value=6), max_size=3),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_reduce_by_qfactorial_matches_generic_reduction(terms, shared, d):
    # columns with a planted common factor, integer content included
    common = ONE
    for e in shared:
        common = common * cyclotomic(e)
    cols = [QLaurent(t) * common for t in terms]
    got = reduce_by_qfactorial(cols, d)
    if any(cols):
        assert got == lowest_terms(cols, q_factorial(d))
    else:
        assert got == (tuple(cols), q_factorial(d))


def test_reduce_by_qfactorial_exact_case():
    got = reduce_by_qfactorial([q_factorial(4) * (ONE + Q), ZERO, q_factorial(4)], 4)
    assert got == ((ONE + Q, ZERO, ONE), ONE)
    # Phi_2 divides both columns and leaves; Phi_3 divides only the first
    # and stays in the denominator
    phi3 = cyclotomic(3)
    got = reduce_by_qfactorial([phi3 * (ONE + Q), (ONE + Q).shifted(1)], 3)
    assert got == ((phi3, Q), phi3)
    # integer content stays in the columns: [d]_q! has content 1
    got = reduce_by_qfactorial([(ONE + Q) * 2, (ONE + Q).shifted(1) * 3], 2)
    assert got == ((QLaurent({0: 2}), QLaurent({1: 3})), ONE)
    got = reduce_by_qfactorial([(ONE + Q) * 2, ONE + Q * Q], 3)
    assert got == (((ONE + Q) * 2, ONE + Q * Q), q_factorial(3))
    # nothing to divide: the set comes back over [d]_q!
    assert reduce_by_qfactorial([ZERO], 4) == ((ZERO,), q_factorial(4))
    assert reduce_by_qfactorial([Q], 1) == ((Q,), ONE)


def test_qfactorial_coprime_cases():
    assert qfactorial_coprime([], 5) is True
    assert qfactorial_coprime([ONE + Q, ZERO], 1) is True
    # both columns share Phi_2 = 1 + q, which divides [3]_q!
    shared = [
        (ONE + Q) * QLaurent({0: 1, 1: 3}),
        (ONE + Q).shifted(2),
    ]
    assert qfactorial_coprime(shared, 3) is False
    # a common factor of q alone never counts: units in the Laurent ring
    assert qfactorial_coprime([Q, Q * Q], 4) is True
    # coprime columns
    assert qfactorial_coprime([ONE + Q, QLaurent({0: 1, 1: 1, 2: 1})], 6) is True
    # integer content is no factor of [d]_q! (Gauss's lemma)
    assert qfactorial_coprime([QLaurent({0: 2})], 3) is True
    two_phi2 = QLaurent({0: 2, 1: 2})
    assert qfactorial_coprime([two_phi2, (ONE + Q).shifted(1)], 3) is False
    assert qfactorial_coprime([two_phi2, ONE + Q + Q * Q], 3) is True


def test_qfactorial_coprime_agrees_with_reduction():
    # columns divisible by Phi_5 relative to [5]_q!
    phi5 = cyclotomic(5)
    cols = [phi5 * (ONE + Q), phi5.shifted(1)]
    assert qfactorial_coprime(cols, 5) is False
    assert qfactorial_coprime(cols, 4) is True  # Phi_5 does not divide [4]_q!


# ---------------------------------------------------------------------------
# the [j]_q window and the Newton-Horner sum, against QLaurent.__mul__ as the
# schoolbook reference

dense_laurents = st.builds(
    lambda cs, lo: QLaurent(enumerate(cs, lo)),
    st.lists(st.integers(min_value=-50, max_value=50), max_size=12),
    st.integers(-4, 4),
)


@given(dense_laurents, st.integers(min_value=0, max_value=9))
@settings(max_examples=80, deadline=None)
def test_qint_mul_dense_is_schoolbook(p, j):
    got = _qint_mul(p, j)
    assert got == p * q_int(j)


@given(dense_laurents, st.integers(min_value=1, max_value=9))
@settings(max_examples=80, deadline=None)
def test_qint_div_undoes_qint_mul(p, j):
    prod = _qint_mul(p, j)
    assert _qint_div(prod, j) == p
    assert _qint_div(prod, j) == ql_divexact(prod, q_int(j))


@given(dense_laurents, st.integers(min_value=1, max_value=9))
@settings(max_examples=80, deadline=None)
def test_qint_div_is_the_dense_division(p, j):
    # Either both divisions have the same quotient, or neither has one.
    try:
        want = ql_divexact(p, q_int(j))
    except ExactnessError:
        with pytest.raises(ExactnessError):
            _qint_div(p, j)
    else:
        assert _qint_div(p, j) == want


@given(
    dense_laurents,
    st.integers(min_value=2, max_value=9),
    st.integers(-12, 12),
    st.sampled_from([1, -1]),
)
@settings(max_examples=80, deadline=None)
def test_qint_div_rejects_a_remainder(p, j, m, sign):
    with pytest.raises(ExactnessError, match=rf"\[{j}\]_q"):
        _qint_div(_qint_mul(p, j) + QLaurent.monomial(m, sign), j)


def test_qint_div_small_cases():
    assert _qint_div(q_int(6), 3) == ONE + Q.shifted(2)
    assert _qint_div(ZERO, 4) == ZERO
    p = QLaurent({-3: 5, 0: -7})
    assert _qint_div(p, 1) is p
    with pytest.raises(ExactnessError):
        _qint_div(ONE, 2)
    with pytest.raises(ValueError):
        _qint_div(ONE, 0)


def test_recurrence_divides_by_the_qint_pass(monkeypatch):
    # c_recurrence divides each coordinate by [n]_q with the pass, not with
    # the dense synthetic division.
    def refuse(*args):
        raise AssertionError("dense division called")

    want = c_difference(10).coords
    for module in (qcyclo, qlaurent):
        monkeypatch.setattr(module, "_divexact_dense", refuse)
    assert c_recurrence(10).coords == want


@given(st.lists(st.one_of(dense_laurents, st.just(ZERO)), min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_qbinom_columns_is_the_schoolbook_newton_sum(bs):
    # sum_j bs[j] [j+1]_q...[d]_q (x - [0]_q)...(x - [j-1]_q), multiplied
    # out column by column with the schoolbook product
    d = len(bs) - 1
    want = [ZERO] * len(bs)
    basis = [ONE]  # x-columns of (x - [0]_q)...(x - [j-1]_q)
    for j, b in enumerate(bs):
        for i in range(j + 1, d + 1):
            b = b * q_int(i)
        for k, e in enumerate(basis):
            want[k] = want[k] + b * e
        basis = [
            lower - q_int(j) * e for lower, e in zip([ZERO] + basis, basis + [ZERO])
        ]
    assert list(qbinom_columns(bs)) == want


@pytest.mark.parametrize("c", [2**61 - 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_qbinom_columns_round_trip_a_wide_coordinate(c, sign):
    # One coordinate is its own column, so the packing width must hold the
    # coordinate's largest coefficient and its sign.
    c *= sign
    for b in (QLaurent({0: c}), QLaurent({-2: c, 0: -c, 3: c})):
        assert qbinom_columns([b]) == (b,)
    b = QLaurent({-1: c, 0: c})
    assert qbinom_columns([ZERO, b]) == (ZERO, b)


wide_int_laurents = st.builds(
    lambda cs, lo: QLaurent(enumerate(cs, lo)),
    st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=8),
    st.integers(-4, 4),
)


@given(st.lists(st.one_of(wide_int_laurents, st.just(ZERO)), min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_column_bound_dominates_the_y_columns(bs):
    # The kernel unpacks r_k = cols[k] (1 - q)^(d - k); the width is read off
    # the bound, so every coefficient of r_k must lie within it.
    d = len(bs) - 1
    bound = _column_bound([sum(map(abs, b.cs)) for b in bs])
    for k, col in enumerate(qbinom_columns(bs)):
        r = col
        for _ in range(d - k):
            r = r * (ONE - Q)
        assert all(abs(c) <= bound for c in r.cs), (k, r)


@st.composite
def digit_runs(draw):
    """(nbytes, run): digits of w = 8 nbytes bits in [-2^(w-1), 2^(w-1)),
    the two extremes favoured, with zero digits at either end."""
    nbytes = draw(st.integers(min_value=1, max_value=12))
    half = 1 << (8 * nbytes - 1)
    digit = st.one_of(st.integers(-half, half - 1), st.sampled_from([-half, half - 1, 0]))
    run = draw(st.lists(digit, max_size=8))
    zeros = st.integers(min_value=0, max_value=3)
    return nbytes, [0] * draw(zeros) + run + [0] * draw(zeros)


@given(digit_runs())
@settings(max_examples=200, deadline=None)
def test_pack_and_unpack_round_trip(case):
    nbytes, run = case
    w = 8 * nbytes
    v = _pack(run, nbytes)
    assert v == sum(c << w * i for i, c in enumerate(run))
    got = _unpack(v, nbytes)
    # _unpack may add or drop high zero digits, and keeps the low ones
    n = max(len(got), len(run))
    assert got + [0] * (n - len(got)) == run + [0] * (n - len(run))


@pytest.mark.parametrize("nbytes", [1, 2, 8])
def test_unpack_reads_every_digit_under_a_top_digit_of_one(nbytes):
    # The lower digits take most of a top 1 away: v has fewer bits than the
    # digits it spans, so the digit count must not be read off v alone.
    half = 1 << (8 * nbytes - 1)
    for run in ([-half, -half, 1], [0, -half, -half, 1], [-half] * 4 + [1]):
        assert _unpack(_pack(run, nbytes), nbytes)[:len(run)] == run


@pytest.mark.parametrize("extra", [[1], [1, -1]])
def test_qbinom_columns_rejects_a_run_1_minus_q_does_not_divide(monkeypatch, extra):
    # Prepending [1] makes r_0(1) = 1, so the first pass fails; prepending
    # [1, -1] adds 1 - q, so the first pass divides and the second fails.
    unpack = qcyclo._unpack
    monkeypatch.setattr(qcyclo, "_unpack", lambda v, nbytes: [*extra, *unpack(v, nbytes)])
    bs = [ONE, ONE + Q, Q]
    with pytest.raises(ExactnessError, match="not divisible by 1 - q"):
        qbinom_columns(bs)


@given(st.lists(st.dictionaries(
    st.integers(min_value=-3, max_value=4),
    st.integers(min_value=-9, max_value=9),
    max_size=3,
), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_qbinom_columns_clear_the_qfactorial(terms):
    bs = [QLaurent(t) for t in terms]
    d = len(bs) - 1
    want = XPoly.zero()
    for j, b in enumerate(bs):
        want = want + qbinom_x(j) * QRatFunc(b)
    got = XPoly([QRatFunc(c, q_factorial(d)) for c in qbinom_columns(bs)])
    assert got == want
