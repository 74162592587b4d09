"""The interpolating polynomial family C_n(x|q): three constructions, special
values, and the q = 1 shadow."""

import ast
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    from_qbinom_coords,
    hahn_delta,
    q1_specialize,
    q_factorial,
    q_int,
    qbinom_columns,
    qbinom_x,
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


def _named(method, nmax):
    """The coordinates of C_1..C_nmax from the constructor that method names."""
    if method == "theorem1":
        return tuple(theorem1_qbinom_coeffs(n - 1) for n in range(1, nmax + 1))
    return {"difference": c_difference, "recurrence": c_recurrence}[method](nmax).coords


@pytest.mark.parametrize("method", METHODS)
def test_family_api(method):
    fam = c_family(method, 4)
    assert isinstance(fam, CFamily)
    assert fam.coords == _named(method, 4)
    assert tuple(fam) == tuple(c_theorem1(n - 1) for n in range(1, 5))
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


def test_c_family_accepts_exactly_the_method_names(monkeypatch):
    # the CLI's --method choices come from report.METHODS, without loading csequence
    assert METHODS is report.METHODS
    # each name runs its own constructor, and nothing else
    ran = []

    def recording(name):
        real = getattr(csequence, name)

        def run(n):
            ran.append(name)
            return real(n)

        return run

    constructor = {"difference": "c_difference", "recurrence": "c_recurrence",
                   "theorem1": "theorem1_qbinom_coeffs"}
    for name in constructor.values():
        monkeypatch.setattr(csequence, name, recording(name))
    for method in METHODS:
        ran.clear()
        fam = c_family(method, 2)
        assert set(ran) == {constructor[method]}
        assert fam.coords == _named(method, 2)
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
    # every step works on Laurent q-binomial coordinates; no Q(q) element is
    # added, multiplied, divided or negated on the way
    def refuse(*args):
        raise AssertionError("Q(q) field arithmetic in the difference construction")

    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
        monkeypatch.setattr(QRatFunc, op, refuse)
    fam = c_difference(10)
    for n in range(1, 11):
        assert fam.poly(n) == c_theorem1(n - 1), n


def _count_in_qballot(monkeypatch, kernel):
    """Count the calls of `kernel` through every qballot module that binds it."""
    calls = []
    real = getattr(sys.modules["qballot.qcore"], kernel)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "qballot" or name.startswith("qballot.")) and kernel in vars(module):
            monkeypatch.setattr(module, kernel, counted)
    return calls


def test_difference_construction_stays_on_coordinates(monkeypatch):
    # The step maps Laurent coordinates to Laurent coordinates: no Hahn loop,
    # no substitution in x, no basis conversion and no reduction runs in it,
    # and no member is converted until one is asked for.
    want = tuple(c_theorem1(n - 1) for n in range(1, 13))

    def refuse(*args, **kwargs):
        raise AssertionError("the difference construction left the coordinates")

    patched = set()
    for name, module in list(sys.modules.items()):
        if name == "qballot" or name.startswith("qballot."):
            for kernel in ("qbinom_coords", "_subst_laurent", "_hahn_laurent",
                           "lowest_terms", "poly_gcd"):
                if kernel in vars(module):
                    monkeypatch.setattr(module, kernel, refuse)
                    patched.add(kernel)
    assert len(patched) == 5
    converted = _count_in_qballot(monkeypatch, "from_qbinom_coords")
    fam = c_difference(12)
    assert converted == []
    monkeypatch.undo()
    assert fam.coords == _named("theorem1", 12)
    assert tuple(fam) == want


def test_recurrence_construction_converts_no_member(monkeypatch):
    # the family holds coordinates; a member is converted only when read
    converted = _count_in_qballot(monkeypatch, "from_qbinom_coords")
    fam = c_recurrence(8)
    assert converted == []
    assert fam.coords == _named("theorem1", 8)
    assert fam.poly(8) == c_theorem1(7)
    assert len(converted) == 1


def test_q_pascal_identity():
    # {1 + qx choose j}_q = q^j {x choose j}_q + q^(j-1) {x choose j-1}_q,
    # the two-term map the difference step applies to coordinates
    assert subst_affine(qbinom_x(0), Q, ONE) == qbinom_x(0)
    for j in range(1, 9):
        want = qbinom_x(j) * QLaurent.monomial(j) + qbinom_x(j - 1) * QLaurent.monomial(j - 1)
        assert subst_affine(qbinom_x(j), Q, ONE) == want, j


_laurent = st.builds(
    lambda lo, cs: QLaurent({lo + i: c for i, c in enumerate(cs)}),
    st.integers(-5, 5),
    st.lists(st.integers(-(2**64), 2**64), max_size=4),
)


@given(st.lists(_laurent, min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_difference_step_solves_the_equation_on_any_coordinates(c):
    # Not only the C_n family: for any Laurent coordinates, the step's
    # result has Hahn difference q f(q^2 x + 1 + q) and vanishes at -1/q.
    cur = from_qbinom_coords(c)
    nxt = from_qbinom_coords(csequence._difference_step([c]))
    assert hahn_delta(nxt) == subst_affine(cur, QLaurent.monomial(2), ONE + Q) * Q
    assert nxt.eval(QRatFunc(QLaurent.monomial(-1, -1))) == RF_ZERO


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
    # c_eval_qint checks sum_i cols[i] [k]_q^i = den tilde_f(k+n, n) as one
    # packed integer identity, on the packed kernel's columns at one n inside
    # the range `conjecture --max-n 27` reads (n <= 26) and two beyond it.
    for n in (16, 27, 40):
        for k in (0, 1, 2, n):
            assert c_eval_qint(n, k) == tilde_f(k + n, n), (n, k)


# The packed identity `_holds_at_qint` against the schoolbook Horner rule in
# Z[q, q^-1], on Laurent columns with negative and 64-bit coefficients.

wide_laurents = st.builds(
    lambda cs, lo: QLaurent(enumerate(cs, lo)),
    st.lists(
        st.one_of(
            st.integers(-50, 50),
            st.sampled_from([2**64, -(2**64), 2**64 - 1, -(2**64) + 1]),
        ),
        max_size=8,
    ),
    st.integers(-4, 4),
)
nonzero_laurents = wide_laurents.filter(bool)


def schoolbook_lhs(nums, k):
    acc = QLaurent()
    for col in reversed(nums):
        acc = acc * q_int(k) + col
    return acc


@given(
    st.lists(wide_laurents, min_size=1, max_size=5),
    nonzero_laurents,
    nonzero_laurents,
    st.integers(0, 12),
    st.integers(-8, 40),
    st.sampled_from([1, -1]),
)
@settings(max_examples=150, deadline=None)
def test_packed_identity_is_the_schoolbook_identity(nums, den, val, k, m, sign):
    # Make the identity true by choosing the constant column, then break it
    # by one term.
    rest = schoolbook_lhs([QLaurent(), *nums[1:]], k)
    nums = [den * val - rest, *nums[1:]]
    assert schoolbook_lhs(nums, k) == den * val
    assert csequence._holds_at_qint(nums, den, val, k)
    wrong = val + QLaurent.monomial(m, sign)
    assert not csequence._holds_at_qint(nums, den, wrong, k)
    # a top column adds q^m [k]_q^len(nums), which is 0 only for k = 0
    extra = [*nums, QLaurent.monomial(m, sign)]
    assert csequence._holds_at_qint(extra, den, val, k) == (k == 0)


def test_packed_identity_takes_laurent_and_zero_columns():
    # C_3 at [2]_q with its columns moved down by q^-3 and a zero column
    # appended: both sides carry the same shift.
    c = c_theorem1(2)
    nums = [col.shifted(-3) for col in c.nums] + [QLaurent()]
    assert csequence._holds_at_qint(nums, c.den, tilde_f(4, 2).shifted(-3), 2)
    assert csequence._holds_at_qint([QLaurent()], ONE, QLaurent(), 5)
    assert not csequence._holds_at_qint([QLaurent()], ONE, ONE, 5)


def test_packed_identity_width_holds_the_whole_bound():
    # 2^64 and q agree at q = 2^64 but are different polynomials: a width of
    # 64 bits, one bit short of bit_length(2^64 + 1), would accept them.  64 is
    # a whole number of bytes, so no rounding up can hide a short width.
    assert not csequence._holds_at_qint([QLaurent({0: 2**64})], ONE, Q, 1)
    assert not csequence._holds_at_qint([QLaurent({0: -(2**64)})], ONE, -Q, 1)


@pytest.mark.parametrize("w", range(1, 17))
@pytest.mark.parametrize("side", ["den", "val"])
def test_packed_identity_width_counts_the_right_side(w, side):
    # q against 2^w agree at q = 2^w; the left side alone bounds them by 1,
    # so the right side's |den|_1 |val|_1 must widen the check past w bits.
    big = QLaurent({0: 2**w})
    den, val = (big, ONE) if side == "den" else (ONE, big)
    assert not csequence._holds_at_qint([Q], den, val, 1)


def test_packed_identity_shares_no_code_with_the_column_kernel():
    # The check certifies the columns that newton_horner builds on qcore's
    # packing, so it must not pack with them.
    tree = ast.parse(Path(csequence.__file__).read_text())
    fns = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    read = set()
    for name in ("c_eval_qint", "_holds_at_qint", "_at_pow2", "_l1"):
        read |= {sub.id for sub in ast.walk(fns[name]) if isinstance(sub, ast.Name)}
    assert not read & {"newton_horner", "_pack", "_unpack", "column_bytes", "_top_bits", "qcore"}


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
