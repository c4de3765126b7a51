"""Dual Haglund positivity checker and batch scanner.

For a pair (lambda, mu) and k >= 0 the check substitutes q := t^k into
the integral-form coefficient, divides by (1-t)^|lambda| and inspects
the quotient.  The value is the reduction tree replayed with closed-form
leaves when every leaf is multiplicity-one (fast_k; a row or a column
is one such leaf), and k_coeff on the whole pair otherwise.  The branch
that names the route sets the coverage tag: the paper's theorem covers
each multiplicity-one leaf, and at q = t^k each cofactor 1 - q^a t^b is
(1 - t)[ka + b]_t, so it covers the pair.  Tests cross-check the routes
against generic_quotient, which replays the tree with k_coeff leaves.
"""

from __future__ import annotations

import os
from itertools import starmap
from typing import Iterable, NamedTuple

from .errors import DomainError
from .macdonald import k_coeff
from .partitions import Partition, dominance_leq, partition, partitions_of
from .qt import (
    QtPolynomial,
    q_power_row,
    row_nonnegative,
    row_polynomial,
)
from .reductions import decompose_irreducible, fast_k
from .tableaux import kostka_number  # noqa: F401; perfbench wraps this binding

COVERAGE_MULT_ONE = "theorem_mult_one"
COVERAGE_ROW_OR_COL = "theorem_row_or_col"
COVERAGE_CONJECTURE = "conjecture_only"


class HaglundVerdict(NamedTuple):
    """Outcome of one (lambda, mu, k) positivity check.

    The quotient is kept as q_power_row gives it: the dense t-row ``row``
    from t^lo, or None when the division is not exact.  A scan holds every
    verdict, so a row (one pointer per term) rather than a QtPolynomial.
    """

    lam: Partition
    mu: Partition
    k: int
    lo: int
    row: tuple[int, ...] | None
    coverage: str
    route: str

    @property
    def quotient(self) -> QtPolynomial | None:
        """The row as a QtPolynomial, built on each read; None if inexact."""
        return None if self.row is None else row_polynomial(self.lo, self.row)

    @property
    def is_polynomial(self) -> bool:
        return self.row is not None

    @property
    def is_nonnegative(self) -> bool:
        return self.row is not None and row_nonnegative(self.lo, self.row)

    @property
    def is_zero(self) -> bool:
        return self.row == ()

    def to_obj(self) -> dict:
        # t-only terms in increasing t-exponent: QtPolynomial.to_obj's order
        quotient = None if self.row is None else [
            [0, self.lo + i, str(c)] for i, c in enumerate(self.row) if c
        ]
        return {
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "k": self.k,
            "quotient": quotient,
            "is_polynomial": self.is_polynomial,
            "is_nonnegative": self.is_nonnegative,
            "is_zero": self.is_zero,
            "coverage": self.coverage,
            "route": self.route,
        }


def generic_quotient(
    lam: Partition, mu: Partition, k: int
) -> tuple[int, tuple[int, ...] | None, int]:
    """Tests' reference route: the tree replayed with k_coeff leaves, as q_power_row."""
    value = decompose_irreducible(lam, mu).replay()
    return q_power_row(value, k, sum(lam))


def pair_verdicts(
    lam: Partition, mu: Partition, ks: Iterable[int]
) -> list[HaglundVerdict]:
    """Verdicts for one pair at each k of ks, in order.

    The route, the coverage tag and the bivariate value do not depend on
    k, so they are found once for the pair, from at most one tree.  The
    tag is read off the route: theorem_mult_one is the theorem on every
    leaf of the canonical tree, not K = 1 on the whole pair.
    """
    lam = partition(lam)
    mu = partition(mu)
    ks = list(ks)
    if sum(lam) != sum(mu):
        raise DomainError(f"|{lam}| != |{mu}|")
    for k in ks:
        if k < 0:
            raise DomainError(f"negative substitution power {k}")
    if not dominance_leq(mu, lam):
        # K2 vanishes above the diagonal, so the quotient is identically 0
        return [
            HaglundVerdict(lam, mu, k, 0, (), COVERAGE_CONJECTURE, "dominance_zero")
            for k in ks
        ]
    n = sum(lam)
    value = fast_k(lam, mu)
    if len(lam) <= 1:
        route, coverage = "closed_row", COVERAGE_ROW_OR_COL
    elif mu == (1,) * n:
        route, coverage = "closed_column", COVERAGE_ROW_OR_COL
    elif value is not None:
        route, coverage = "mult_one_tree", COVERAGE_MULT_ONE
    else:
        route, coverage = "reduction_pipeline", COVERAGE_CONJECTURE
        value = k_coeff(lam, mu)
    # the closed forms need no case for small k: when l(mu) > k (row) or
    # lambda_1 > k (column), one factor is 1 - q t^-k, which vanishes at
    # q = t^k, so the value divides exactly to 0
    verdicts = []
    for k in ks:
        lo, row, _ = q_power_row(value, k, n)
        verdicts.append(HaglundVerdict(lam, mu, k, lo, row, coverage, route))
    return verdicts


def check_pair(lam: Partition, mu: Partition, k: int) -> HaglundVerdict:
    """Verdict for one pair, via the cheapest applicable route."""
    return pair_verdicts(lam, mu, (k,))[0]


class ScanReport(NamedTuple):
    max_n: int
    max_k: int
    verdicts: tuple[HaglundVerdict, ...]

    @property
    def violations(self) -> tuple[HaglundVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.is_nonnegative)

    def summary(self) -> dict:
        counts = {
            COVERAGE_MULT_ONE: 0,
            COVERAGE_ROW_OR_COL: 0,
            COVERAGE_CONJECTURE: 0,
        }
        for v in self.verdicts:
            counts[v.coverage] += 1
        return {
            "pairs_checked": len(self.verdicts),
            "violations": len(self.violations),
            "by_coverage": counts,
        }

    def to_obj(self) -> dict:
        return {
            "max_n": self.max_n,
            "max_k": self.max_k,
            "summary": self.summary(),
            "verdicts": [v.to_obj() for v in self.verdicts],
        }


def scan(max_n: int, max_k: int, jobs: int = 1) -> ScanReport:
    """Verdicts for every dominance pair of each degree n <= max_n and every
    0 <= k <= max_k, lambda-major, run grouped by mu for k_coeff's row of J."""
    if max_n < 0 or max_k < 0:
        raise DomainError("scan bounds must be nonnegative")
    if jobs < 0:
        raise DomainError(f"jobs must be positive, or 0 for all cores; got {jobs}")
    ks = range(max_k + 1)
    args = [
        (lam, mu, ks)
        for n in range(1, max_n + 1)
        for lam in partitions_of(n)
        for mu in partitions_of(n)
        if dominance_leq(mu, lam)
    ]
    order = sorted(range(len(args)), key=lambda i: args[i][1])
    grouped = [args[i] for i in order]
    cores = os.cpu_count() or 1
    jobs = min(jobs, cores) or cores  # more workers than cores only wait
    if jobs == 1 or len(args) < 2 * jobs:
        results = starmap(pair_verdicts, grouped)
    else:
        # imported here, so a serial scan and every other command skip it
        from multiprocessing import get_context

        # starmap keeps the order and deals out contiguous chunks of pairs
        with get_context("fork").Pool(jobs) as pool:
            results = pool.starmap(pair_verdicts, grouped)
    verdicts = tuple(v for _, pair in sorted(zip(order, results)) for v in pair)
    return ScanReport(max_n, max_k, verdicts)
