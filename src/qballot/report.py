"""Structured pass/fail reporting shared by the verification suites, and
the names the CLI offers for them.

The suite and method names live here, not beside the code they select, so
that building the CLI parser loads neither `analysis` nor `csequence`."""

from __future__ import annotations

from typing import NamedTuple, Optional

# The named verification suites, in the order `analysis` registers them.
SUITES = (
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

# The constructions of C_n(x|q) that `csequence.c_family` accepts.
METHODS = ("difference", "theorem1", "recurrence")


class CheckResult(NamedTuple):
    """Outcome of one identity instance at one parameter point.

    `asserted` distinguishes checks that must hold from observations that
    are recorded only (conjecture territory, known-mismatched sources).
    """

    id: str
    n: Optional[int]
    k: Optional[int]
    passed: bool
    detail: Optional[str] = None
    asserted: bool = True


class SuiteReport:
    """All results of one named suite plus its pass/report semantics."""

    __slots__ = ("suite", "results")

    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.results: list[CheckResult] = []

    def expect(
        self,
        id: str,
        n: Optional[int],
        k: Optional[int],
        got: object,
        want: object,
        names: tuple[str, str] = ("lhs", "rhs"),
        asserted: bool = True,
    ) -> None:
        """Record whether got == want; both sides are formatted, as
        "name=value" pairs, only when they differ."""
        ok = got == want
        detail = None if ok else f"{names[0]}={got} {names[1]}={want}"
        self.results.append(CheckResult(id, n, k, ok, detail, asserted))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results if r.asserted)

    @property
    def mode(self) -> str:
        """The suite's mode: "report" when every check is an observation,
        else "assert"."""
        if self.results and not any(r.asserted for r in self.results):
            return "report"
        return "assert"

    @property
    def counts(self) -> tuple[int, int]:
        ok = sum(1 for r in self.results if r.passed)
        return ok, len(self.results)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "mode": self.mode,
            "passed": self.passed,
            "results": [
                {
                    "id": r.id,
                    "n": r.n,
                    "k": r.k,
                    "pass": r.passed,
                    "detail": r.detail,
                }
                for r in self.results
            ],
        }

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            mark = "ok" if r.passed else ("MISMATCH" if not r.asserted else "FAIL")
            where = f"n={r.n}" if r.n is not None else ""
            if r.k is not None:
                where += f" k={r.k}"
            line = f"[{mark}] {r.id} {where}".rstrip()
            if r.detail and not r.passed:
                line += f": {r.detail}"
            out.append(line)
        ok, total = self.counts
        status = "pass" if self.passed else "fail"
        if self.mode == "report":
            status = "reported"
        out.append(f"suite {self.suite}: {ok}/{total} ok ({status})")
        return out
