"""The interpolating polynomial family C_n(x|q): three constructions, special
values, and the q = 1 shadow."""

from fractions import Fraction
from math import comb

import pytest

import qballot.ballot as ballot_mod
import qballot.csequence as csequence
import qballot.report as report
from qballot.analysis import run_suite
from qballot.ballot import BallotTable, qballot, qcatalan, tilde_f, tilde_qcatalan
from qballot.csequence import (
    METHODS,
    CFamily,
    c_difference,
    c_eval_qint,
    c_family,
    c_q1,
    c_q1_at_int,
    c_recurrence,
    c_shifted_theorem1,
    c_theorem1,
    format_qbinom,
    theorem1_columns,
    theorem1_qbinom_coeffs,
)
from qballot.cli import main
from qballot.qcore import (
    XPoly,
    hahn_delta,
    q1_specialize,
    q_factorial,
    q_int,
    qbinom_columns,
    subst_affine,
    to_qbinom_basis,
)
from qballot.qlaurent import RF_ZERO, QRatFunc
from qballot.qring import ONE, Q, ExactnessError, QLaurent

# ---------------------------------------------------------------------------
# hardcoded small members


def test_c1_and_c2():
    assert c_theorem1(0) == XPoly.const(1)
    assert c_theorem1(1) == XPoly([QRatFunc(ONE), QRatFunc(Q)])  # 1 + qx


def test_c3_qbinom_coefficients():
    assert theorem1_qbinom_coeffs(2) == (
        ONE + Q,
        QLaurent({1: 1, 2: 1, 3: 1}),
        QLaurent.monomial(4),
    )


def test_c4_qbinom_coefficients():
    assert theorem1_qbinom_coeffs(3) == (
        QLaurent({0: 1, 1: 2, 2: 1, 3: 1}),
        QLaurent({1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1}),
        QLaurent({4: 1, 5: 1, 6: 1, 7: 1, 8: 1}),
        QLaurent.monomial(9),
    )


def test_c3_monomial_form():
    c3 = c_theorem1(2)
    inv = QRatFunc(ONE, ONE + Q)
    assert c3.coeff(0) == QRatFunc(ONE + Q)
    assert c3.coeff(1) == QRatFunc(QLaurent({1: 1, 2: 2, 3: 2})) * inv
    assert c3.coeff(2) == QRatFunc(QLaurent.monomial(4)) * inv


def test_shifted_family_small():
    # C_2(qx + 1 | q) = 1 + q + q^2 x
    got = c_shifted_theorem1(2)
    assert got == XPoly([QRatFunc(ONE + Q), QRatFunc(QLaurent.monomial(2))])


# ---------------------------------------------------------------------------
# the three constructions agree


def test_methods_tuple():
    assert METHODS == ("difference", "theorem1", "recurrence")


@pytest.mark.parametrize("method", METHODS)
def test_family_api(method):
    fam = c_family(method, 4)
    assert isinstance(fam, CFamily)
    assert fam.method == method
    assert len(fam) == 4
    assert fam.poly(2) == fam[2]
    assert list(fam)[0] == fam.poly(1)
    with pytest.raises(IndexError):
        fam.poly(0)
    with pytest.raises(IndexError):
        fam.poly(5)


def test_three_methods_agree():
    nmax = 8
    diff = c_difference(nmax)
    rec = c_recurrence(nmax)
    for n in range(1, nmax + 1):
        t = c_theorem1(n - 1)
        assert diff.poly(n) == t, n
        assert rec.poly(n) == t, n


def test_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        c_family("newton", 3)


def test_c_family_accepts_exactly_the_method_names():
    # the CLI's --method choices come from report.METHODS, without loading csequence
    assert METHODS is report.METHODS
    for method in METHODS:
        assert c_family(method, 2).method == method
    for method in ("", "Theorem1", "theorem", "difference "):
        with pytest.raises(ValueError) as exc:
            c_family(method, 2)
        assert str(exc.value) == f"unknown method {method!r}; choose from {METHODS}"


def test_family_bounds():
    with pytest.raises(ValueError):
        c_difference(0)
    with pytest.raises(ValueError):
        c_recurrence(-2)
    for method in METHODS:
        for nmax in (0, -1):
            with pytest.raises(ValueError, match="nmax must be >= 1"):
                c_family(method, nmax)


def test_difference_and_recurrence_agree_past_acceptance_range():
    diff = c_difference(16)
    rec = c_recurrence(16)
    for n in range(13, 17):
        t = c_theorem1(n - 1)
        assert diff.poly(n) == t, n
        assert rec.poly(n) == t, n


def test_recurrence_family_is_built_per_call(monkeypatch):
    # No family outlives its call, so a second call reads the ballot table
    # just as the first did.
    reads = []
    for _ in range(2):
        table = BallotTable()
        monkeypatch.setattr(ballot_mod, "TABLE", table)
        c_recurrence(6)
        reads.append(len(table.known()))
    assert reads[0] == reads[1] > 0


def test_difference_construction_does_no_field_arithmetic(monkeypatch):
    # every step works on Laurent columns; no Q(q) element is added,
    # multiplied, divided or negated on the way
    def refuse(*args):
        raise AssertionError("Q(q) field arithmetic in the difference construction")

    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
        monkeypatch.setattr(QRatFunc, op, refuse)
    fam = c_difference(10)
    for n in range(1, 11):
        assert fam.poly(n) == c_theorem1(n - 1), n


def test_difference_family_solves_the_defining_equation_in_sympy():
    # An oracle sharing no arithmetic with qlaurent: over Q(q)[x],
    # C_{n+1}(1 + qx) - C_{n+1}(x) = (1 + (q-1)x) q C_n(q^2 x + 1 + q)
    # and C_{n+1}(-1/q) = 0.
    sympy = pytest.importorskip("sympy")
    q, x = sympy.symbols("q x")
    field = sympy.QQ.frac_field(q)

    def scalar(expr):
        return field.from_sympy(sympy.sympify(expr))

    def laurent(p):
        return scalar(sum(c * q**e for e, c in p.items()))

    def line(a, b):  # the polynomial a x + b
        return sympy.Poly.from_list([scalar(a), scalar(b)], x, domain=field)

    def to_sympy(p):
        den = laurent(p.den)
        cols = [laurent(c) / den for c in reversed(p.nums)]
        return sympy.Poly.from_list(cols, x, domain=field)

    polys = [to_sympy(p) for p in c_family("difference", 8)]
    for n in range(1, 8):
        cur, nxt = polys[n - 1], polys[n]
        lhs = nxt.compose(line(q, 1)) - nxt
        rhs = line(q * (q - 1), q) * cur.compose(line(q**2, 1 + q))
        assert (lhs - rhs).is_zero, n
        assert nxt.compose(line(0, -1 / q)).is_zero, n


# ---------------------------------------------------------------------------
# structural invariants


def test_degree_and_leading_coefficient():
    for n in range(0, 8):
        c = c_theorem1(n)
        assert c.degree == n
        want = QRatFunc(QLaurent.monomial(n * n), q_factorial(n))
        assert c.leading == want


def test_difference_equation():
    # delta_q C_{n+1}(x) = q C_n(q^2 x + q + 1)
    q2 = QRatFunc(QLaurent.monomial(2))
    shift = QRatFunc(ONE + Q)
    for n in range(1, 6):
        lhs = hahn_delta(c_theorem1(n))
        rhs = subst_affine(c_theorem1(n - 1), q2, shift) * QRatFunc(Q)
        assert lhs == rhs, n


def test_side_condition_at_minus_one_over_q():
    node = QRatFunc(QLaurent.monomial(-1, -1))
    for n in range(1, 8):
        assert c_theorem1(n).eval(node) == RF_ZERO, n


def test_value_at_zero_and_one():
    one = QRatFunc(ONE)
    for n in range(1, 8):
        c = c_theorem1(n)
        # C_{n+1}(0) = reversed C_n = C_n evaluated at 1
        assert c.eval(0) == QRatFunc(tilde_qcatalan(n))
        assert c.eval(0) == c_theorem1(n - 1).eval(one)
        assert c.eval(one) == QRatFunc(tilde_qcatalan(n + 1))


def test_shifted_equals_substituted():
    for n in range(1, 6):
        got = c_shifted_theorem1(n)
        want = subst_affine(c_theorem1(n - 1), QRatFunc(Q), QRatFunc(ONE))
        assert got == want, n


# ---------------------------------------------------------------------------
# values at q-integers


def test_eval_qint_examples():
    assert c_eval_qint(2, 2) == QLaurent({0: 1, 1: 2, 2: 2, 3: 2, 4: 1, 5: 1})
    assert c_eval_qint(2, 1) == QLaurent({0: 1, 1: 2, 2: 1, 3: 1})
    assert c_eval_qint(2, 1) == tilde_qcatalan(3)
    assert c_eval_qint(2, 0) == qcatalan(2)


def test_eval_qint_matches_polynomial_evaluation():
    for n in range(0, 6):
        for k in range(0, 6):
            node = QRatFunc(q_int(k))
            assert QRatFunc(c_eval_qint(n, k)) == c_theorem1(n).eval(node), (n, k)


def test_eval_qint_closed_form():
    # C_{n+1}([k]_q) = q^(kn + binom(n+1,2)) f(k+n, n | 1/q)
    for n in range(0, 6):
        for k in range(0, 6):
            shift = k * n + n * (n + 1) // 2
            want = qballot(k + n, n).subs_q_inverse().shifted(shift)
            assert c_eval_qint(n, k) == want


def test_eval_qint_certifies_columns_beyond_the_benchmark_sizes():
    # c_eval_qint checks sum_i cols[i] [k]_q^i = [n]_q! tilde_f(k+n, n) with the
    # schoolbook product, on the packed kernel's columns at one n inside the
    # range `conjecture --max-n 27` reads (n <= 26) and one beyond it.
    for n in (16, 27):
        for k in (0, 1, 2, n):
            assert c_eval_qint(n, k) == tilde_f(k + n, n), (n, k)


@pytest.mark.parametrize("d", [*range(31), 37, 45])
def test_packed_theorem1_columns_equal_the_coordinate_route(d):
    # The rolling pass over packed tilde_f rows against the ballot table's
    # coordinates packed by qbinom_columns: the same runs and offsets.
    got = theorem1_columns(d)
    want = qbinom_columns(theorem1_qbinom_coeffs(d))
    assert [(c.lo, c.cs) for c in got] == [(c.lo, c.cs) for c in want]


def test_theorem1_columns_rejects_a_negative_n():
    with pytest.raises(ValueError):
        theorem1_columns(-1)


def test_theorem1_columns_keep_nothing():
    # A sweep holds one column set at a time; c_theorem1 keeps the reduction.
    assert not hasattr(theorem1_columns, "cache_info")
    assert theorem1_columns(5) is not theorem1_columns(5)
    assert not hasattr(c_shifted_theorem1, "cache_info")
    assert hasattr(c_theorem1, "cache_info")


@pytest.mark.parametrize("part", ["column", "closed-form"])
def test_eval_qint_cross_check_fires(monkeypatch, capsys, part):
    if part == "column":
        true_c = c_theorem1
        monkeypatch.setattr(csequence, "c_theorem1", lambda n: true_c(n) + Q)
    else:  # the columns come from their own packed pass, which reads no tilde_f
        monkeypatch.setattr(csequence, "tilde_f", lambda m, n: tilde_f(m, n).shifted(1))
    with pytest.raises(ExactnessError, match="n=2, k=1"):
        c_eval_qint(2, 1)
    assert main(["verify", "prop1", "--max-n", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "[FAIL] qint-evaluation n=2 k=1: q-integer evaluation disagrees" in "\n".join(lines)
    assert lines[-1] == "suite prop1: 0/16 ok (fail)"


def test_eval_qint_rejects_negatives():
    with pytest.raises(ValueError):
        c_eval_qint(-1, 0)
    with pytest.raises(ValueError):
        c_eval_qint(0, -1)


# ---------------------------------------------------------------------------
# the q = 1 shadow


def test_c_q1_small():
    # C_3(x|1) = 2 + (5/2)x + (1/2)x^2
    got = c_q1(2)
    halves = [Fraction(2), Fraction(5, 2), Fraction(1, 2)]
    assert list(got.coeffs) == halves
    # integer columns over the integer denominator 2
    assert (got.nums, got.den) == ((QLaurent({0: 4}), QLaurent({0: 5}), ONE), QLaurent({0: 2}))
    assert c_q1(0) == XPoly.const(1)


def test_c_q1_matches_specialization():
    for n in range(0, 8):
        assert c_q1(n) == q1_specialize(c_theorem1(n)), n


def test_c_q1_at_int():
    # C_4(1|1) = 14 and the closed form (m+1)/(m+1+n) binom(m+2n, n)
    assert c_q1_at_int(3, 1) == 14
    for n in range(0, 7):
        for m in range(0, 7):
            want = Fraction(m + 1, m + 1 + n) * comb(m + 2 * n, n)
            assert c_q1_at_int(n, m) == want
            assert c_q1(n).eval(QRatFunc(m)) == want


def test_q1_identity_reports():
    rep = run_suite("q1_identities", 10)
    assert rep.suite == "q1_identities"
    assert rep.passed
    ids = {r.id for r in rep.results}
    assert ids == {"q1-interpolation", "q1-shifted", "catalan-recurrence"}


# ---------------------------------------------------------------------------
# coefficient observations and display form


def test_theorem1_coefficient_data_shape():
    coeffs = theorem1_qbinom_coeffs(3)
    assert len(coeffs) == 4
    assert str(coeffs[3]) == "q^9"


def test_theorem1_coefficients_observed_positive():
    # every coordinate is a polynomial in q with positive integer coefficients
    for n in range(0, 9):
        for j, c in enumerate(theorem1_qbinom_coeffs(n)):
            assert c.is_polynomial, (n, j)
            assert all(type(v) is int and v > 0 for _, v in c.items()), (n, j)


def test_format_qbinom():
    e = to_qbinom_basis(c_theorem1(2))
    assert (
        format_qbinom(e)
        == "(1+q) + (q+q^2+q^3)*qbinom(x,1) + q^4*qbinom(x,2)"
    )
    assert format_qbinom(to_qbinom_basis(XPoly.const(1))) == "1"
