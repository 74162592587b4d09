"""Exact Laurent-polynomial and rational-function arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qballot.qlaurent import (
    ONE,
    Q,
    RF_ONE,
    RF_ZERO,
    ZERO,
    ExactnessError,
    QLaurent,
    QRatFunc,
    poly_gcd,
    ql_divexact,
)

# ---------------------------------------------------------------------------
# strategies

coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def laurents(draw, min_exp=-6, max_exp=6, max_terms=5):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    exps = draw(
        st.lists(
            st.integers(min_value=min_exp, max_value=max_exp),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return QLaurent({e: draw(coeffs) for e in exps})


@st.composite
def polynomials(draw, max_exp=6, max_terms=5):
    return draw(laurents(min_exp=0, max_exp=max_exp, max_terms=max_terms))


@st.composite
def nonzero_polynomials(draw):
    p = draw(polynomials())
    return p if not p.is_zero else p + ONE


@st.composite
def ratfuncs(draw):
    num = draw(laurents(min_exp=-3, max_exp=3, max_terms=3))
    den = draw(nonzero_polynomials())
    return QRatFunc(num, den)


# ---------------------------------------------------------------------------
# QLaurent construction and normalization


def test_zero_coefficients_are_dropped():
    assert QLaurent({0: 1, 1: 0, 2: Fraction(0)}) == ONE
    assert QLaurent({3: 0}).is_zero


def test_integral_fractions_collapse_to_int():
    p = QLaurent({1: Fraction(4, 2)})
    ((exp, c),) = p.items()
    assert exp == 1 and c == 2 and isinstance(c, int)
    half = QLaurent.monomial(1, Fraction(1, 2))
    for r in (half + half, half * 2, half * QLaurent.monomial(-1, 4), 1 - half.shifted(-1) * 2):
        assert r.ints and all(type(c) is int for c in r.cs)


def test_monomial_and_constants():
    assert QLaurent.monomial(0) == ONE == QLaurent.one()
    assert QLaurent.monomial(1) == Q
    assert QLaurent.zero() == ZERO
    assert QLaurent.monomial(-2, 3).coeff(-2) == 3
    assert QLaurent.monomial(0, 0).is_zero


def test_exponent_bounds():
    p = QLaurent({-2: 1, 5: 7})
    assert p.min_exp == -2
    assert p.max_exp == 5
    assert p.leading_coeff == 7
    for attr in ("min_exp", "max_exp", "leading_coeff"):
        with pytest.raises(ValueError):
            getattr(ZERO, attr)


def test_is_polynomial():
    assert ONE.is_polynomial and ZERO.is_polynomial
    assert not QLaurent.monomial(-1).is_polynomial


# ---------------------------------------------------------------------------
# the canonical dense run, against arithmetic on {exponent: coefficient} maps


def _assert_canonical(p):
    assert type(p.cs) is tuple
    if p.cs:
        assert p.cs[0] and p.cs[-1]
    else:
        assert p.lo == 0  # zero is the empty run
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.cs)
    assert p.ints == all(type(c) is int for c in p.cs)


def _map_sum(a, b, sign):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _map_product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def test_zero_is_the_empty_run():
    for z in (ZERO, QLaurent(), QLaurent({4: 0}), Q - Q, QLaurent.monomial(-3, 0)):
        assert (z.lo, z.cs, len(z), str(z)) == (0, (), 0, "0")
    gapped = QLaurent({-1: 2, 3: -1})
    assert (gapped.lo, gapped.cs, len(gapped)) == (-1, (2, 0, 0, 0, -1), 2)


@given(laurents(max_terms=6), laurents(max_terms=6))
@settings(max_examples=80, deadline=None)
def test_results_are_canonical_runs(a, b):
    ta, tb = dict(a.items()), dict(b.items())
    cases = [
        (a + b, _map_sum(ta, tb, 1)),
        (a - b, _map_sum(ta, tb, -1)),
        (a * b, _map_product(ta, tb)),
        (a.shifted(3), {e + 3: c for e, c in ta.items()}),
        (a.subs_q_inverse(), {-e: c for e, c in ta.items()}),
        (a.primitive(), {e: c / a.content() for e, c in ta.items()}),
    ]
    if b:
        cases.append((ql_divexact(a * b, b), ta))
    for got, terms in cases:
        _assert_canonical(got)
        want = QLaurent(terms)
        assert got == want and hash(got) == hash(want)
        assert len(got) == len(terms)  # nonzero terms, interior zeros not counted
        assert str(got) == str(want)
        again = QLaurent(got.items())
        assert again == got and hash(again) == hash(got)


# ---------------------------------------------------------------------------
# ring laws


@given(laurents(), laurents(), laurents())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    assert a + (-a) == ZERO


@given(laurents(), st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_power_is_repeated_multiplication(a, k):
    expect = ONE
    for _ in range(k):
        expect = expect * a
    assert a**k == expect


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        Q**-1


def test_scalar_mixing():
    assert (ONE + Q) * 2 == QLaurent({0: 2, 1: 2})
    assert Q + 1 == QLaurent({0: 1, 1: 1})
    assert 1 - Q == QLaurent({0: 1, 1: -1})
    assert Fraction(1, 2) * Q == QLaurent({1: Fraction(1, 2)})


@given(laurents(), st.integers(min_value=-4, max_value=4))
@settings(max_examples=40, deadline=None)
def test_shift_is_monomial_multiplication(a, m):
    assert a.shifted(m) == a * QLaurent.monomial(m)


# ---------------------------------------------------------------------------
# substitution and evaluation


@given(laurents())
@settings(max_examples=50, deadline=None)
def test_q_inverse_is_an_involution(a):
    assert a.subs_q_inverse().subs_q_inverse() == a


@given(laurents(), laurents())
@settings(max_examples=50, deadline=None)
def test_q_inverse_is_a_ring_map(a, b):
    assert (a + b).subs_q_inverse() == a.subs_q_inverse() + b.subs_q_inverse()
    assert (a * b).subs_q_inverse() == a.subs_q_inverse() * b.subs_q_inverse()


@given(laurents(), laurents())
@settings(max_examples=50, deadline=None)
def test_eval_is_a_ring_map(a, b):
    v = Fraction(2)
    assert (a + b).eval_at(v) == a.eval_at(v) + b.eval_at(v)
    assert (a * b).eval_at(v) == a.eval_at(v) * b.eval_at(v)


def test_eval_examples():
    p = ONE + Q + Q * Q  # [3]_q
    assert p.eval_at(1) == 3
    assert p.eval_at(2) == 7
    assert QLaurent.monomial(-2, 3).eval_at(Fraction(1, 2)) == 12
    with pytest.raises(ZeroDivisionError):
        QLaurent.monomial(-1).eval_at(0)
    assert ZERO.eval_at(0) == 0


# ---------------------------------------------------------------------------
# content and primitive part


def test_content_examples():
    assert QLaurent({0: 4, 1: -6}).content() == 2
    assert QLaurent({0: Fraction(3, 2), 2: 3}).content() == Fraction(3, 2)
    assert QLaurent({0: -5}).content() == 5  # always positive
    assert ZERO.content() == 0


@given(laurents())
@settings(max_examples=50, deadline=None)
def test_primitive_times_content_recovers(a):
    if a.is_zero:
        assert a.primitive() == ZERO
    else:
        assert a.primitive() * a.content() == a
        assert a.primitive().content() == 1


# ---------------------------------------------------------------------------
# text and JSON forms


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(QLaurent({0: 1, 1: 2, 2: 2, 3: 1})) == "1+2q+2q^2+q^3"
    assert str(QLaurent({0: 1, 1: -1})) == "1-q"
    assert str(QLaurent({1: Fraction(3, 2)})) == "(3/2)q"
    assert str(QLaurent({-2: 1, 0: -3})) == "q^-2-3"


@given(laurents())
@settings(max_examples=50, deadline=None)
def test_json_roundtrip(a):
    blob = a.to_json()
    assert blob == sorted(blob)
    assert QLaurent((e, Fraction(c)) for e, c in blob) == a


def test_json_shape():
    assert (Q + 1).to_json() == [[0, "1"], [1, "1"]]
    assert QLaurent({0: Fraction(-1, 3)}).to_json() == [[0, "-1/3"]]


# ---------------------------------------------------------------------------
# gcd and exact division


def test_gcd_examples():
    a = ONE - Q * Q  # (1-q)(1+q)
    b = (ONE + Q) * (ONE + Q)
    assert poly_gcd(a, b) == ONE + Q
    # shifts never contribute: q^m factors are units here
    assert poly_gcd(a.shifted(3), b.shifted(5)) == ONE + Q
    assert poly_gcd(a, ZERO) == (ONE - Q * Q) * -1  # positive leading coeff
    with pytest.raises(ValueError):
        poly_gcd(ZERO, ZERO)


def test_gcd_is_content_free():
    g = poly_gcd(QLaurent({0: 6, 1: 6}), QLaurent({0: 4, 1: 4}))
    assert g == ONE + Q


@given(laurents(max_terms=4), laurents(max_terms=4))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(a, b):
    if a.is_zero and b.is_zero:
        return
    g = poly_gcd(a, b)
    for p in (a, b):
        if not p.is_zero:
            assert ql_divexact(p, g) * g == p


@given(laurents(max_terms=4), laurents(max_terms=4))
@settings(max_examples=40, deadline=None)
def test_divexact_inverts_multiplication(a, b):
    if b.is_zero:
        return
    assert ql_divexact(a * b, b) == a


def test_divexact_rejects_remainders():
    with pytest.raises(ExactnessError):
        ql_divexact(ONE + Q, ONE - Q)
    with pytest.raises(ExactnessError):  # divisor longer than the dividend
        ql_divexact(ONE, ONE + Q)
    with pytest.raises(ExactnessError):  # a leading coefficient other than 1
        ql_divexact(ONE + Q, QLaurent({0: 2, 1: 1}))
    with pytest.raises(ZeroDivisionError):
        ql_divexact(ONE, ZERO)


def test_divexact_handles_laurent_shifts():
    a = (ONE + Q).shifted(-3)
    assert ql_divexact(a, QLaurent.monomial(-3)) == ONE + Q
    assert ql_divexact(a, ONE + Q) == QLaurent.monomial(-3)


# ---------------------------------------------------------------------------
# QRatFunc canonical form


def test_ratfunc_reduces_common_factors():
    r = QRatFunc(Q * Q - 1, Q - 1)
    assert r == QRatFunc(ONE + Q)
    assert r.is_polynomial
    assert r.num == ONE + Q


def test_ratfunc_moves_monomial_factors_to_numerator():
    r = QRatFunc(ONE, QLaurent.monomial(2))
    assert r.den == ONE
    assert r.num == QLaurent.monomial(-2)


def test_ratfunc_denominator_is_primitive_with_positive_lead():
    r = QRatFunc(ONE, QLaurent({0: 2, 1: 2}))
    assert r.den == ONE + Q
    assert r.num == QLaurent({0: Fraction(1, 2)})
    s = QRatFunc(ONE, QLaurent({0: -1, 1: -1}))
    assert s.den == ONE + Q
    assert s.num == QLaurent({0: -1})


def test_ratfunc_zero():
    assert QRatFunc(ZERO, ONE + Q) == RF_ZERO
    assert RF_ZERO.is_zero
    with pytest.raises(ZeroDivisionError):
        QRatFunc(ONE, ZERO)


@given(ratfuncs(), ratfuncs(), ratfuncs())
@settings(max_examples=30, deadline=None)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RF_ZERO
    assert a * RF_ONE == a
    if not a.is_zero:
        assert a / a == RF_ONE
        assert (b / a) * a == b


def test_division_by_zero_ratfunc():
    with pytest.raises(ZeroDivisionError):
        RF_ONE / RF_ZERO


@given(ratfuncs())
@settings(max_examples=30, deadline=None)
def test_ratfunc_q_inverse_involution(a):
    assert a.subs_q_inverse().subs_q_inverse() == a


def test_ratfunc_eval():
    r = QRatFunc(ONE - Q**3, ONE - Q)  # [3]_q
    assert r.eval_at(2) == 7
    with pytest.raises(ZeroDivisionError):
        QRatFunc(ONE, ONE - Q).eval_at(1)


def test_ratfunc_str():
    assert str(RF_ZERO) == "0"
    assert str(QRatFunc(ONE + Q)) == "1+q"
    assert str(QRatFunc(Q, ONE + Q)) == "q/(1+q)"
    assert str(QRatFunc(ONE + Q, QLaurent({0: 1, 1: 1, 2: 1}))) == "(1+q)/(1+q+q^2)"


@given(ratfuncs())
@settings(max_examples=30, deadline=None)
def test_ratfunc_hash_consistent_with_eq(a):
    b = QRatFunc(a.num * (ONE + Q), a.den * (ONE + Q))
    assert a == b
    assert hash(a) == hash(b)
