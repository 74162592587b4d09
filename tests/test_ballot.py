"""Ballot numbers, their q-analogues, path-statistic oracles, and the
q-Catalan sums."""

import functools
import itertools
import json
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qballot.ballot as ballot_mod
from qballot.analysis import ANDREWS_READINGS, andrews_check, verify_carlitz_convolution
from qballot.ballot import (
    DEFAULT_PATH_CAP,
    BallotTable,
    TABLE,
    ballot,
    path_cap,
    qballot,
    qballot_paths,
    qcatalan,
    tilde_f,
    tilde_f_paths,
    tilde_qcatalan,
)
from qballot.qlaurent import ONE, Q, ZERO, QLaurent

# ---------------------------------------------------------------------------
# integer ballot numbers


def test_ballot_triangle_row_six():
    assert [ballot(6, k) for k in range(7)] == [1, 6, 20, 48, 90, 132, 132]


def test_ballot_triangle_small_rows():
    rows = {
        0: [1],
        1: [1, 1],
        2: [1, 2, 2],
        3: [1, 3, 5, 5],
        4: [1, 4, 9, 14, 14],
        5: [1, 5, 14, 28, 42, 42],
    }
    for n, row in rows.items():
        assert [ballot(n, k) for k in range(n + 1)] == row


def test_ballot_outside_triangle():
    assert ballot(3, 4) == 0
    assert ballot(0, 0) == 1
    with pytest.raises(ValueError):
        ballot(-1, 0)
    with pytest.raises(ValueError):
        ballot(2, -1)


def test_ballot_results_are_integers():
    for n in range(12):
        for k in range(n + 1):
            v = ballot(n, k)
            assert v == int(v)


# ---------------------------------------------------------------------------
# q-ballot table values


def _poly(spec: dict) -> QLaurent:
    return QLaurent(spec)


# Y = 1 + q + 2q^2 + 3q^3 + 3q^4 + 3q^5 + q^6
_Y = _poly({0: 1, 1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 1})


def test_qballot_first_rows():
    rows = {
        (0, 0): ONE,
        (1, 0): ONE,
        (1, 1): Q,
        (2, 1): _poly({1: 1, 2: 1}),
        (2, 2): _poly({2: 1, 3: 1}),
        (3, 1): _poly({1: 1, 2: 1, 3: 1}),
        (3, 2): _poly({2: 1, 3: 1, 4: 2, 5: 1}),
        (3, 3): _poly({3: 1, 4: 1, 5: 2, 6: 1}),
        (4, 1): _poly({1: 1, 2: 1, 3: 1, 4: 1}),
        (4, 2): _poly({2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 1}),
        (4, 3): _Y.shifted(3),
        (4, 4): _Y.shifted(4),
    }
    for (n, k), want in rows.items():
        assert qballot(n, k) == want, (n, k)


def test_qballot_outside_triangle_and_errors():
    assert qballot(2, 5) == ZERO
    with pytest.raises(ValueError):
        qballot(-1, 0)


def test_qballot_recurrence():
    # f(n, k) = q f(n, k-1) + q^k f(n-1, k)
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert qballot(n, k) == qballot(n, k - 1).shifted(1) + qballot(n - 1, k).shifted(k)


def test_qballot_degree_and_valuation():
    for n in range(1, 9):
        for k in range(1, n + 1):
            p = qballot(n, k)
            assert p.max_exp == k * n - k * (k - 1) // 2
            assert p.min_exp == k
            assert p.leading_coeff == 1


def test_qballot_diagonal_boundary():
    for n in range(1, 9):
        assert qballot(n, n) == qballot(n, n - 1).shifted(1)


def test_qballot_counts_at_one():
    for n in range(9):
        for k in range(n + 1):
            assert qballot(n, k).eval_at(1) == ballot(n, k)


# ---------------------------------------------------------------------------
# lattice-path oracles


def test_path_oracle_matches_recurrence():
    for n in range(7):
        for k in range(n + 1):
            assert qballot_paths(n, k) == qballot(n, k), (n, k)


def test_tilde_path_oracle():
    for m in range(7):
        for n in range(m + 1):
            assert tilde_f_paths(m, n) == tilde_f(m, n), (m, n)


def _naive_paths(n, k, east):
    # Every arrangement of k north steps among the n + k steps, kept when
    # it never rises above y = x: {sum of east(x, y) over east steps: count}.
    counts = {}
    for north in itertools.combinations(range(n + k), k):
        x = y = area = 0
        for step in range(n + k):
            if step in north:
                y += 1
                if y > x:
                    break
            else:
                area += east(x, y)
                x += 1
        else:
            counts[area] = counts.get(area, 0) + 1
    return counts


def test_path_oracles_match_naive_enumeration():
    for total in range(15):
        for k in range(total // 2 + 1):
            n = total - k
            below = _naive_paths(n, k, lambda x, y: y)
            assert qballot_paths(n, k) == QLaurent({a + k: c for a, c in below.items()}), (n, k)
            above = _naive_paths(n, k, lambda x, y: min(x, k) - y)
            assert tilde_f_paths(n, k) == QLaurent(above), (n, k)


def test_path_oracles_past_default_cap():
    pairs = [(t - k, k) for t in range(27, 31) for k in range(t // 2 + 1)]
    assert len(pairs) == 60
    for n, k in pairs:
        assert qballot_paths(n, k, cap=30) == qballot(n, k), (n, k)
        assert tilde_f_paths(n, k, cap=30) == tilde_f(n, k), (n, k)


def test_path_walk_visits_halves_not_paths():
    # The walk from each end stops at the anti-diagonal x + y = 13, so
    # each is a tree of depth 13 with fewer than 2^14 edges, while
    # ballot(13, 13) = 2,674,440 paths reach (13, 13).
    steps = []

    def east(x, y):
        steps.append((x, y))
        return y

    counts = ballot_mod._path_areas(13, 13, east)
    assert sum(counts.values()) == ballot(13, 13)
    assert len(steps) < 2 * 2**14


def test_tilde_is_q_reversal():
    # tilde f(m, n) = q^((m-n)n + binom(n+1,2)) f(m, n | 1/q)
    for m in range(8):
        for n in range(m + 1):
            shift = (m - n) * n + n * (n + 1) // 2
            assert tilde_f(m, n) == qballot(m, n).subs_q_inverse().shifted(shift)


def test_path_cap_guard():
    with pytest.raises(ValueError, match="QBALLOT_PATH_CAP"):
        qballot_paths(14, 14)
    # explicit cap overrides the default
    assert qballot_paths(3, 2, cap=100) == qballot(3, 2)
    with pytest.raises(ValueError):
        qballot_paths(3, 2, cap=4)


def test_path_cap_env(monkeypatch):
    assert path_cap() == DEFAULT_PATH_CAP
    monkeypatch.setenv("QBALLOT_PATH_CAP", "30")
    assert path_cap() == 30
    assert qballot_paths(14, 14) == qballot(14, 14)
    monkeypatch.setenv("QBALLOT_PATH_CAP", "not-a-number")
    with pytest.raises(ValueError):
        path_cap()
    monkeypatch.setenv("QBALLOT_PATH_CAP", "0")
    assert path_cap() == 0
    monkeypatch.setenv("QBALLOT_PATH_CAP", "-5")
    with pytest.raises(ValueError, match=">= 0"):
        path_cap()


# ---------------------------------------------------------------------------
# q-Catalan numbers


def test_qcatalan_small():
    assert qcatalan(0) == ONE
    assert qcatalan(1) == ONE
    assert qcatalan(2) == ONE + Q
    assert qcatalan(3) == _poly({0: 1, 1: 1, 2: 2, 3: 1})
    assert qcatalan(4) == _Y


def test_qcatalan_two_routes_inline():
    # row sum and rescaled diagonal
    for n in range(1, 10):
        row = ZERO
        for k in range(n):
            row = row + qballot(n - 1, k)
        assert qcatalan(n) == row
        assert qcatalan(n).shifted(n) == qballot(n, n)


def test_tilde_qcatalan():
    assert tilde_qcatalan(4) == _poly({0: 1, 1: 3, 2: 3, 3: 3, 4: 2, 5: 1, 6: 1})
    for n in range(9):
        shift = n * (n - 1) // 2
        assert tilde_qcatalan(n) == qcatalan(n).subs_q_inverse().shifted(shift)
        assert tilde_qcatalan(n) == tilde_f(n, n)


def test_catalan_counts_at_one():
    want = [1, 1, 2, 5, 14, 42, 132, 429]
    for n, c in enumerate(want):
        assert qcatalan(n).eval_at(1) == c
        assert tilde_qcatalan(n).eval_at(1) == c


def test_carlitz_convolutions():
    rep = verify_carlitz_convolution(10)
    assert rep.passed
    assert len(rep.results) == 20
    assert {r.id for r in rep.results} == {"convolution-area", "convolution-reversed"}


# ---------------------------------------------------------------------------
# the transcribed hypergeometric recurrence


def test_andrews_literal_reading_mismatches():
    rep = andrews_check(5)
    assert rep.mode == "report"
    assert rep.passed  # nothing is asserted, so the suite still reports clean
    assert all(not r.passed for r in rep.results)
    assert all(not r.asserted for r in rep.results)
    first = rep.results[0]
    assert first.n == 1
    assert first.detail == "lhs=1 rhs=2q-q^2"


def test_andrews_lowered_exponent_reading_holds():
    rep = andrews_check(8, readings=("lowered-exponent",))
    assert all(r.passed for r in rep.results)
    assert len(rep.results) == 8


def test_andrews_other_readings_mismatch():
    for reading in ("reversed-catalan", "inverse-catalan"):
        rep = andrews_check(4, readings=(reading,))
        assert not all(r.passed for r in rep.results), reading


def test_andrews_unknown_reading():
    with pytest.raises(ValueError, match="unknown reading"):
        andrews_check(3, readings=("majorized",))
    assert set(ANDREWS_READINGS) >= {"literal", "lowered-exponent"}


def test_andrews_report_lines():
    lines = andrews_check(2).lines()
    assert any("MISMATCH" in line for line in lines)
    assert lines[-1].endswith("(reported)")


# ---------------------------------------------------------------------------
# table persistence


def test_table_roundtrip(tmp_path):
    t = BallotTable()
    t.get(4, 3)
    blob = t.dump_json()
    assert blob["schema"] == BallotTable.SCHEMA
    fresh = BallotTable()
    assert fresh.load_json(blob) == len(t.known())
    assert fresh.known() == t.known()
    p = tmp_path / "cache.json"
    t.save(str(p))
    reloaded = BallotTable()
    assert reloaded.load(str(p)) > 0
    assert reloaded.get(4, 3) == qballot(4, 3)
    # the same entries, filled in another order, give the same bytes
    other = BallotTable()
    other.get(4, 1)
    other.get(4, 3)
    other.save(str(tmp_path / "other.json"))
    assert (tmp_path / "other.json").read_bytes() == p.read_bytes()


def test_table_rejects_unknown_schema(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema": "other", "entries": {}}))
    with pytest.raises(ValueError, match="schema"):
        BallotTable().load(str(p))


def test_table_load_is_all_or_nothing():
    t = BallotTable()
    t.get(4, 3)
    blob = t.dump_json()
    # right at q = 1, wrong as a polynomial: the recurrence catches it, after
    # every other entry of the file has been proven
    blob["entries"]["4,3"] = [3, [13, 0, 0, 0, 0, 0, 1]]
    fresh = BallotTable()
    with pytest.raises(ValueError, match="recurrence"):
        fresh.load_json(blob)
    assert fresh.known() == {}


def test_table_load_counts_paths_without_the_row_kernel(monkeypatch):
    # A faulty row recurrence fills wrong rows and would prove them against
    # each other; the count at q = 1 comes from the closed form instead.
    def without_up(left, up, k):
        return left.shifted(1)

    monkeypatch.setattr(ballot_mod, "_next_row", without_up)
    t = BallotTable()
    t.get(4, 3)
    with pytest.raises(ValueError, match=r"'2,1' does not count"):
        BallotTable().load_json(t.dump_json())


def test_table_concurrent_reads_match_serial():
    serial = {(n, k): qballot(n, k) for n in range(8) for k in range(n + 1)}
    t = BallotTable()
    results = {}
    lock = threading.Lock()

    def worker(nk):
        v = t.get(*nk)
        with lock:
            results[nk] = v

    threads = [threading.Thread(target=worker, args=(nk,)) for nk in serial]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert results == serial


# ---------------------------------------------------------------------------
# properties


@functools.cache
def _sparse_reference(n, k):
    # The same recurrence on sparse QLaurent values, with no row arithmetic.
    if k > n:
        return ZERO
    if k == 0:
        return ONE
    return _sparse_reference(n, k - 1).shifted(1) + _sparse_reference(n - 1, k).shifted(k)


_NK = st.integers(0, 25).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))


@given(_NK)
@settings(max_examples=60, deadline=None)
def test_table_rows_match_sparse_recurrence_and_paths(nk):
    n, k = nk
    got = BallotTable().get(n, k)
    assert got == _sparse_reference(n, k)
    if n + k <= 14:
        assert got == qballot_paths(n, k)


@given(_NK, _NK)
@settings(max_examples=30, deadline=None)
def test_table_rows_survive_save_and_load(stored, asked):
    t = BallotTable()
    t.get(*stored)
    with tempfile.TemporaryDirectory() as d:
        path = str(Path(d, "cache.json"))
        t.save(path)
        fresh = BallotTable()
        assert fresh.load(path) == len(t.known())
    assert fresh.known() == t.known()
    assert fresh.get(*stored) == t.get(*stored)
    assert fresh.get(*asked) == t.get(*asked)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10))
@settings(max_examples=30, deadline=None)
def test_row_sums_give_catalan(n, k):
    # every entry divides into the triangle scheme: f(n,k) is monic of
    # valuation k, and summing row n-1 gives C_n
    if k > n:
        assert qballot(n, k) == ZERO
    else:
        p = qballot(n, k)
        assert p.min_exp == k if k else p == ONE


def test_module_table_is_usable():
    assert TABLE.get(6, 6).eval_at(1) == 132
