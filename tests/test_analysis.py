"""Numerator structure of C_n(x|q), Newton polytopes, and the named
verification suites."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import qballot.analysis as analysis
import qballot.report as report
from qballot.analysis import (
    SUITES,
    NewtonPolytope,
    NumeratorReport,
    expected_upper_slopes,
    newton_polytope,
    numerator,
    run_suite,
    svg_polytope,
)
from qballot.csequence import c_theorem1
from qballot.qcore import XPoly
from qballot.qcyclo import cyclotomic, q_factorial, q_int
from qballot.qlaurent import QRatFunc
from qballot.qring import ONE, Q, ZERO, QLaurent
from qballot.sweep import theorem1_columns, theorem1_numerator

# ---------------------------------------------------------------------------
# numerator reports


def test_p2_report():
    c = c_theorem1(1)
    cols, r = numerator(2, c)
    assert q_factorial(1) == ONE
    assert XPoly([QRatFunc(col, q_factorial(1)) for col in cols]) == c
    assert cols == (ONE, Q)
    assert r.is_polynomial and r.is_irreducible_fraction and r.all_coeffs_positive
    assert r.ok
    assert r.coefficient_stats == ((0, 0), (1, 1))


def test_p3_report():
    c = c_theorem1(2)
    cols, r = numerator(3, c)
    assert q_factorial(2) == ONE + Q
    assert XPoly([QRatFunc(col, q_factorial(2)) for col in cols]) == c
    assert cols == (
        QLaurent({0: 1, 1: 2, 2: 1}),
        QLaurent({1: 1, 2: 2, 3: 2}),
        QLaurent.monomial(4),
    )
    assert r.ok
    assert r.coefficient_stats == ((0, 2), (1, 3), (4, 4))


def test_numerator_reconstructs_cn():
    for n in range(1, 9):
        c = c_theorem1(n - 1)
        cols, _ = numerator(n, c)
        rebuilt = XPoly([QRatFunc(col, q_factorial(n - 1)) for col in cols])
        assert rebuilt == c, n


def test_numerator_flags_hold_through_twelve():
    for n in range(2, 13):
        assert numerator(n, c_theorem1(n - 1))[1].ok, n


def test_theorem1_numerator_matches_numerator_oracle():
    # the column-built report against clearing the reduced C_n again
    for n in range(2, 16):
        got = theorem1_numerator(n)
        cols, want = numerator(n, c_theorem1(n - 1))
        for name in NumeratorReport._fields:
            assert getattr(got, name) == getattr(want, name), (n, name)
        assert cols == theorem1_columns(n - 1), n


def test_numerator_rejects_bad_n():
    with pytest.raises(ValueError):
        numerator(0, XPoly.const(1))
    with pytest.raises(ValueError):
        theorem1_numerator(0)


def test_numerator_uncleared_denominator():
    # a coefficient whose denominator is not inside [n-1]_q!
    c = XPoly([QRatFunc(ONE, cyclotomic(5))])
    cols, r = numerator(3, c)
    assert not r.is_polynomial
    assert cols == (ONE + Q,)  # the reduced numerator of [2]_q!/Phi_5
    assert not r.ok
    # no polytope for a column with a negative q-exponent, nor for columns
    # that are all zero
    cols, r = numerator(2, XPoly([ONE, QLaurent.monomial(-1)]))
    assert not r.is_polynomial
    with pytest.raises(ValueError, match="negative q-exponent"):
        newton_polytope(cols)
    with pytest.raises(ValueError, match="zero polynomial"):
        newton_polytope((ZERO, ZERO))


def test_numerator_two_columns_over_one_denominator():
    # C = 1/Phi_5 + q/(1+q) x: the shared denominator (1+q) Phi_5 is not
    # inside [2]_q! = 1+q, so [2]_q! C is left over Phi_5
    c = XPoly([QRatFunc(ONE, cyclotomic(5)), QRatFunc(Q, ONE + Q)])
    cols, r = numerator(3, c)
    assert cols == (ONE + Q, Q * cyclotomic(5))
    assert not r.is_polynomial
    assert r.is_irreducible_fraction
    # 1/(1+q) + q/[3]_q x: the shared denominator is [3]_q! itself
    c = XPoly([QRatFunc(ONE, ONE + Q), QRatFunc(Q, q_int(3))])
    cols, r = numerator(4, c)
    assert cols == (q_int(3), Q + Q * Q)
    assert r.is_polynomial and r.is_irreducible_fraction and r.ok


def test_numerator_reducible_fraction():
    # every column divisible by 1 + q = Phi_2, which divides [2]_q!
    c = XPoly([ONE + Q, (ONE + Q).shifted(3)])
    _, r = numerator(3, c)
    assert r.is_polynomial
    assert not r.is_irreducible_fraction
    assert not r.ok


def test_numerator_rational_coefficients_use_generic_gcd():
    # (1 + q)/2 is the integer column 1 + q over the integer denominator 2,
    # which [2]_q! does not clear: [2]_q! C = (1 + q)^2 / 2 is not in Z[q]
    c = XPoly([QRatFunc(ONE + Q, 2)])
    cols, r = numerator(3, c)
    assert cols == ((ONE + Q) * (ONE + Q),)
    assert not r.is_polynomial
    assert not r.is_irreducible_fraction


def test_numerator_negative_coefficient():
    c = XPoly([ONE - Q])
    _, r = numerator(2, c)
    assert r.is_polynomial and r.is_irreducible_fraction
    assert not r.all_coeffs_positive


@pytest.mark.parametrize(
    "n, cols, positive",
    [
        (2, [QLaurent({0: 1, 2: 1, 3: 2})], True),  # interior zero
        (3, [QRatFunc(ONE + Q, 2)], True),  # (1 + q)/2
        (3, [QRatFunc(QLaurent({0: 3, 2: -2}), 6)], False),  # 1/2 - q^2/3
        (2, [ZERO, ONE + Q], True),  # zero column
        (2, [QLaurent({0: 1, 1: 1, 3: -1, 4: 1})], False),  # one negative
    ],
    ids=["interior-zero", "fraction", "fraction-negative", "zero-column", "negative"],
)
def test_numerator_positivity_flag(n, cols, positive):
    cols, r = numerator(n, XPoly([QRatFunc(col) for col in cols]))
    assert r.all_coeffs_positive is positive
    # the flag is "every term of every column is positive"
    assert positive == all(v > 0 for col in cols for _, v in col.items())


# ---------------------------------------------------------------------------
# Newton polytopes


def test_polytope_p2():
    p = newton_polytope(numerator(2, c_theorem1(1))[0])
    assert p.points == ((0, 0), (1, 1))
    assert p.upper_hull == ((0, 0), (1, 1))
    assert p.upper_hull_slopes == (Fraction(1),)


def test_polytope_p3():
    p = newton_polytope(numerator(3, c_theorem1(2))[0])
    assert p.points == ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 1), (4, 2))
    assert p.hull == ((0, 0), (2, 0), (4, 2), (1, 1))
    assert p.lower_hull == ((0, 0), (2, 0), (4, 2))
    assert p.upper_hull == ((0, 0), (1, 1), (4, 2))
    assert p.upper_hull_slopes == (Fraction(1), Fraction(3))


def test_polytope_p6_slopes():
    p = newton_polytope(numerator(6, c_theorem1(5))[0])
    assert p.upper_hull_slopes == (1, 3, 5, 7, 9)


def test_expected_upper_slopes():
    assert expected_upper_slopes(2) == (Fraction(1),)
    assert expected_upper_slopes(6) == (1, 3, 5, 7, 9)
    for n in range(2, 16):
        p = newton_polytope(numerator(n, c_theorem1(n - 1))[0])
        assert p.upper_hull_slopes == expected_upper_slopes(n), n


def test_polytope_minimal_q_exponents():
    # column k of P_n starts at exponent k^2: the lower-left hull boundary
    for n in range(2, 12):
        _, r = numerator(n, c_theorem1(n - 1))
        for k, (lo, _hi) in enumerate(r.coefficient_stats):
            assert lo == k * k, (n, k)


def test_polytope_single_point():
    p = newton_polytope(numerator(1, XPoly.const(1))[0])
    assert p.points == ((0, 0),)
    assert p.hull == ((0, 0),)
    assert p.upper_hull_slopes == ()


def test_polytope_zero_polynomial():
    with pytest.raises(ValueError, match="zero polynomial"):
        newton_polytope(numerator(1, XPoly.zero())[0])


def _chain_of_all_points(pts):
    """The monotone chain over every point, lower and upper (right to left)."""
    pts = sorted(set(pts))
    chains = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and analysis._cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain)
    lower, upper = chains
    return tuple(lower[:-1] + upper[:-1]), tuple(lower), tuple(reversed(upper))


def _agrees_with_all_points_chain(p):
    hull, lower, upper = _chain_of_all_points(p.points)
    assert (p.hull, p.lower_hull, p.upper_hull) == (hull, lower, upper)


def test_polytope_hull_is_the_chain_of_all_points():
    for n in range(2, 17):
        _agrees_with_all_points_chain(newton_polytope(theorem1_columns(n - 1)))


# A column is zero or a run from q^lo with nonzero ends and any zeros inside.
_columns = st.lists(
    st.one_of(
        st.just(ZERO),
        st.builds(
            lambda lo, cs: QLaurent({lo + i: c for i, c in enumerate(cs) if c}),
            st.integers(-4, 12),
            st.lists(st.integers(0, 2), max_size=10).map(lambda cs: [1, *cs, 1]),
        ),
        st.builds(QLaurent.monomial, st.integers(-4, 12)),
    ),
    min_size=1,
    max_size=8,
).filter(lambda cols: any(not c.is_zero for c in cols))


@settings(max_examples=300, deadline=None)
@given(_columns)
@example([ONE + Q])  # one column: the upper hull is one level edge
def test_polytope_from_row_extremes_matches_all_points(cols):
    pts = sorted((e, k) for k, col in enumerate(cols) for e, _ in col.items())
    lo = pts[0][0]
    if lo < 0:
        # a negative q-exponent is no term of a polynomial; the columns
        # shifted up to q^0 have a polytope
        with pytest.raises(ValueError, match="negative q-exponent"):
            newton_polytope(cols)
        cols = [col.shifted(-lo) for col in cols]
        pts = [(e - lo, k) for e, k in pts]
    _, _, upper = _chain_of_all_points(pts)
    if any(a[1] == b[1] for a, b in zip(upper, upper[1:])):
        # a level edge on the upper hull has no dq/dx slope
        with pytest.raises(ValueError, match="level edge"):
            newton_polytope(cols)
        return
    p = newton_polytope(cols)
    assert p.points == tuple(pts)
    if len(pts) > 1:
        _agrees_with_all_points_chain(p)


def test_polytope_json():
    p = newton_polytope(numerator(3, c_theorem1(2))[0])
    blob = p.to_json()
    assert blob["upper_hull_slopes"] == ["1", "3"]
    assert blob["hull"] == [[0, 0], [2, 0], [4, 2], [1, 1]]


# ---------------------------------------------------------------------------
# SVG rendering


def test_svg_structure_and_determinism():
    p = newton_polytope(numerator(4, c_theorem1(3))[0])
    svg = svg_polytope(p, title="P4")
    assert svg.startswith('<?xml version="1.0"')
    assert "<!-- generated by qballot -->" in svg
    assert "q-exponent" in svg and "x-exponent" in svg
    assert svg == svg_polytope(p, title="P4")
    assert svg.endswith("</svg>\n")


def test_svg_degenerate_hull():
    p = newton_polytope(numerator(2, c_theorem1(1))[0])
    svg = svg_polytope(p)
    assert "<line" in svg or "<polygon" in svg


@pytest.mark.parametrize("title", ["a < b", "R&D"])
def test_svg_title_is_escaped(title):
    import xml.etree.ElementTree as ET

    svg = svg_polytope(newton_polytope(theorem1_columns(2)), title=title)
    texts = ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")
    assert next(texts).text == title


# ---------------------------------------------------------------------------
# named suites


def test_suite_names():
    assert SUITES == (
        "prop1",
        "corollary",
        "prop2",
        "thm1",
        "thm2",
        "key_identities",
        "q1_identities",
        "carlitz",
        "andrews",
        "stirling",
        "conjecture",
        "polytope",
    )


def test_suite_registry_follows_the_suite_names():
    # the CLI's choices come from report.SUITES, without loading analysis
    assert SUITES is report.SUITES
    assert tuple(analysis._SUITE_FNS) == SUITES


@pytest.mark.parametrize("name", [s for s in SUITES if s != "andrews"])
def test_each_suite_passes_small(name):
    rep = run_suite(name, 5)
    assert rep.suite == name
    assert rep.passed, rep.lines()
    assert rep.results


def test_prop1_suite_ids():
    rep = run_suite("prop1", 3)
    ids = {r.id for r in rep.results}
    assert ids == {"qint-evaluation", "qint-path-oracle"}
    # within the path cap every evaluation gets an oracle companion
    assert len(rep.results) == 2 * 16


def test_key_identities_full_contract_range():
    rep = run_suite("key_identities", 8)
    assert rep.passed
    ids = {r.id for r in rep.results}
    assert ids == {
        "interpolation-identity",
        "shifted-interpolation-identity",
        "pointed-path-identity",
    }


def test_andrews_suite_reports_without_failing():
    rep = run_suite("andrews", 5)
    assert rep.mode == "report"
    assert rep.passed  # report-only: mismatches are recorded, not asserted
    assert all(not r.passed and not r.asserted for r in rep.results)


def test_conjecture_suite():
    rep = run_suite("conjecture", 8)
    assert rep.passed
    assert [r.n for r in rep.results] == list(range(2, 9))
    assert all(r.id == "numerator-flags" for r in rep.results)


def test_polytope_suite_observation_flag():
    rep = run_suite("polytope", 12)
    assert rep.passed
    for r in rep.results:
        assert r.asserted == (r.n <= 10)
        assert "slopes=" in r.detail


def test_run_suite_errors():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything", 3)
    with pytest.raises(ValueError):
        run_suite("carlitz", -1)
    # a suite with nothing to check is refused, not passed vacuously
    for name, maxn in [
        ("conjecture", 1), ("polytope", 1), ("corollary", 0), ("carlitz", 0),
        ("q1_identities", 0), ("andrews", 0), ("thm1", 0), ("thm2", 0),
    ]:
        with pytest.raises(ValueError, match=f"^suite {name} runs no checks at --max-n {maxn}$"):
            run_suite(name, maxn)


def test_report_shapes():
    rep = run_suite("carlitz", 3)
    blob = rep.to_json()
    assert blob["suite"] == "carlitz"
    assert blob["passed"] is True
    assert all(set(r) == {"id", "n", "k", "pass", "detail"} for r in blob["results"])
    lines = rep.lines()
    assert lines[-1] == f"suite carlitz: {len(rep.results)}/{len(rep.results)} ok (pass)"
    assert all(line.startswith("[ok]") for line in lines[:-1])


class _Unprintable:
    """Equal to anything; formatting it fails."""

    def __eq__(self, other):
        return True

    def __str__(self):
        raise AssertionError("formatted a passing check")


def test_expect_formats_nothing_when_equal():
    rep = report.SuiteReport("s")
    rep.expect("same", 1, None, _Unprintable(), _Unprintable())
    assert rep.results == [report.CheckResult("same", 1, None, True, None)]


def test_expect_failure_detail():
    rep = report.SuiteReport("s")
    rep.expect("sum", 2, 3, ONE + Q, ONE)
    rep.expect("value", 4, None, Q, ZERO, ("C(0)", "prev(1)"), asserted=False)
    assert rep.results == [
        report.CheckResult("sum", 2, 3, False, "lhs=1+q rhs=1"),
        report.CheckResult("value", 4, None, False, "C(0)=q prev(1)=0", False),
    ]
    assert rep.lines()[:2] == [
        "[FAIL] sum n=2 k=3: lhs=1+q rhs=1",
        "[MISMATCH] value n=4: C(0)=q prev(1)=0",
    ]


def test_mode_follows_the_checks():
    rep = report.SuiteReport("s")
    assert rep.mode == "assert"  # no checks yet
    rep.expect("seen", 1, None, Q, ONE, asserted=False)
    rep.expect("seen", 2, None, Q, Q, asserted=False)
    assert rep.mode == "report"
    assert rep.lines()[-1] == "suite s: 1/2 ok (reported)"
    assert rep.to_json()["mode"] == "report"
    # one asserted check among the observations makes the suite assert
    rep.expect("held", 3, None, ONE, ONE)
    assert rep.mode == "assert"
    assert rep.lines()[-1] == "suite s: 2/3 ok (pass)"
    assert rep.to_json()["mode"] == "assert"
    rep.expect("held", 4, None, Q, ONE)
    assert rep.lines()[-1] == "suite s: 2/4 ok (fail)"
    assert rep.to_json()["mode"] == "assert"
