"""Acceptance suite: ten end-to-end checks, one test per criterion.

Every comparison is exact (tolerance zero).  Each test asserts its runtime
budget and prints a one-line summary; run ``pytest -v tests/test_acceptance.py``
for the per-criterion pass/fail listing.  A budget is also a hard deadline: a
test still running when it passes is stopped and fails, so a fault that makes
the arithmetic blow up shows as a failure, not a hang.
"""

import json
import signal
import time
from fractions import Fraction

import pytest

from qballot.analysis import run_suite
from qballot.ballot import qballot, qballot_paths, qcatalan, tilde_qcatalan
from qballot.cli import main
from qballot.csequence import (
    c_difference,
    c_q1,
    c_recurrence,
    c_theorem1,
    theorem1_qbinom_coeffs,
)
from qballot.qcore import XPoly
from qballot.qlaurent import ONE, Q, QLaurent, QRatFunc


class BudgetExceeded(Exception):
    """Raised by SIGALRM when a criterion runs past its budget."""


def _arm(num: int, seconds: float):
    """Start criterion ``num``'s clock with ``seconds`` as a hard deadline;
    the returned ``finish()`` prints the summary line and asserts the time."""

    def expire(signum, frame):
        raise BudgetExceeded(f"criterion {num} ran past its {seconds} s budget")

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    t0 = time.perf_counter()

    def finish() -> None:
        elapsed = time.perf_counter() - t0
        print(f"criterion {num}: PASS ({elapsed:.2f} s)")
        assert elapsed < seconds, f"criterion {num} exceeded {seconds} s: {elapsed:.2f} s"

    return finish


@pytest.fixture
def budget():
    """Hands the test ``_arm``; afterwards disarms the timer and puts the
    previous SIGALRM handler back."""
    handler = signal.getsignal(signal.SIGALRM)
    yield _arm
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, handler)


def test_01_table_reproduction(capsys, budget):
    finish = budget(1, 1.0)
    assert main(["table", "1", "--max-n", "6"]) == 0
    table1 = capsys.readouterr().out
    assert table1.splitlines() == [
        "n=0: 1",
        "n=1: 1, 1",
        "n=2: 1, 2, 2",
        "n=3: 1, 3, 5, 5",
        "n=4: 1, 4, 9, 14, 14",
        "n=5: 1, 5, 14, 28, 42, 42",
        "n=6: 1, 6, 20, 48, 90, 132, 132",
    ]
    assert main(["table", "2", "--max-n", "4"]) == 0
    table2 = capsys.readouterr().out
    assert table2.splitlines() == [
        "n=0: 1",
        "n=1: 1, q",
        "n=2: 1, q+q^2, q^2+q^3",
        "n=3: 1, q+q^2+q^3, q^2+q^3+2q^4+q^5, q^3+q^4+2q^5+q^6",
        "n=4: 1, q+q^2+q^3+q^4, q^2+q^3+2q^4+2q^5+2q^6+q^7, "
        "q^3+q^4+2q^5+3q^6+3q^7+3q^8+q^9, q^4+q^5+2q^6+3q^7+3q^8+3q^9+q^10",
    ]
    # the factored spot checks
    y = QLaurent({0: 1, 1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 1})
    assert qballot(4, 3) == y.shifted(3)
    assert qballot(6, 4).eval_at(1) == 90
    assert qballot(6, 6).eval_at(1) == 132
    finish()


def test_02_display_reproduction(budget):
    finish = budget(2, 1.0)
    assert c_theorem1(1) == XPoly([QRatFunc(ONE), QRatFunc(Q)])  # 1 + qx
    assert theorem1_qbinom_coeffs(2) == (
        ONE + Q,
        QLaurent({1: 1, 2: 1, 3: 1}),
        QLaurent.monomial(4),
    )
    c4 = theorem1_qbinom_coeffs(3)
    # the second-degree coefficient is displayed as (q^9+q^8+q^7+q^6+q^5)/q
    displayed = QLaurent({5: 1, 6: 1, 7: 1, 8: 1, 9: 1}).shifted(-1)
    assert c4 == (
        QLaurent({0: 1, 1: 2, 2: 1, 3: 1}),
        QLaurent({1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1}),
        displayed,
        QLaurent.monomial(9),
    )
    finish()


def test_03_three_method_agreement(budget):
    finish = budget(3, 30.0)
    nmax = 12
    diff = c_difference(nmax)
    rec = c_recurrence(nmax)
    for n in range(1, nmax + 1):
        expansion = c_theorem1(n - 1)
        assert diff.poly(n) == expansion, n
        assert rec.poly(n) == expansion, n
    finish()


def test_04_oracle_equivalence(budget):
    finish = budget(4, 60.0)
    assert qballot_paths(1, 1) == QLaurent.monomial(1)
    assert qballot_paths(2, 2) == QLaurent({2: 1, 3: 1})
    for n in range(13):
        for k in range(13 - n):
            assert qballot_paths(n, k) == qballot(n, k), (n, k)
    finish()


def test_05_prop1_and_corollary(budget):
    finish = budget(5, 10.0)
    rep = run_suite("prop1", 8)
    assert rep.passed, rep.lines()
    # every q-integer evaluation in range carries its lattice-path companion
    assert sum(r.id == "qint-evaluation" for r in rep.results) == 81
    assert sum(r.id == "qint-path-oracle" for r in rep.results) == 81
    corollary = run_suite("corollary", 10)
    assert corollary.passed, corollary.lines()
    c4 = QLaurent({0: 1, 1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 1})
    assert qcatalan(4) == c4
    c4_tilde = QLaurent({0: 1, 1: 3, 2: 3, 3: 3, 4: 2, 5: 1, 6: 1})
    assert c4.subs_q_inverse().shifted(6) == c4_tilde
    assert tilde_qcatalan(4) == c4_tilde
    finish()


def test_06_prop2_q1_shadow(budget):
    finish = budget(6, 5.0)
    rep = run_suite("prop2", 10)
    assert rep.passed, rep.lines()
    # C_3(x|1) = (x+1)(x+4)/2
    want = [Fraction(2), Fraction(5, 2), Fraction(1, 2)]
    assert [c.num.coeff(0) for c in c_q1(2).coeffs] == want
    finish()


def test_07_identity_suites(budget):
    finish = budget(7, 60.0)
    for name, maxn in (
        ("key_identities", 8),
        ("carlitz", 10),
        ("q1_identities", 15),
        ("stirling", 7),
    ):
        rep = run_suite(name, maxn)
        assert rep.passed, (name, rep.lines())
    finish()


def test_08_conjecture_sweep(budget):
    finish = budget(8, 600.0)
    t0 = time.perf_counter()
    first = run_suite("conjecture", 15)
    mid = time.perf_counter() - t0
    assert first.passed, first.lines()
    assert mid < 30.0, f"n <= 15 sweep took {mid:.2f} s"
    full = run_suite("conjecture", 27)
    assert full.passed, full.lines()
    assert [r.n for r in full.results] == list(range(2, 28))
    finish()


def test_09_polytope_slopes(budget):
    finish = budget(9, 120.0)
    rep = run_suite("polytope", 27)
    assert rep.passed, rep.lines()
    for r in rep.results:
        assert r.asserted == (r.n <= 10)
        assert r.passed  # the observed pattern continues beyond the assertion
    by_n = {r.n: r for r in rep.results}
    assert "slopes=['1', '3', '5', '7', '9']" in by_n[6].detail
    assert len([r for r in rep.results if not r.asserted]) == 17
    finish()


def test_10_andrews_reporting(tmp_path, budget):
    finish = budget(10, 5.0)
    rep = run_suite("andrews", 5)
    assert rep.mode == "report"
    assert rep.passed  # mismatches are recorded, never raised
    assert len(rep.results) == 5
    assert all(not r.passed and not r.asserted for r in rep.results)
    assert all(r.detail and "lhs=" in r.detail for r in rep.results)
    out = tmp_path / "andrews.txt"
    assert main(["verify", "andrews", "--max-n", "5", "--out", str(out)]) == 0
    text = out.read_text()
    assert "[MISMATCH]" in text
    assert text.splitlines()[-1].endswith("(reported)")
    assert main(["verify", "andrews", "--max-n", "5", "--format", "json",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True
    finish()
