"""Reduction algebra for integral-form coefficients: row splits with
rectangle removal, complementation transport, the BZ multiplicity-one
classification, its fast evaluation paths, and the f statistic.

The canonical decomposition always splits at the smallest index with
equal partial sums and removes the full-width common rectangle there,
so each tree node's cofactor is a genuine polynomial (the kmultcor
product) and replaying the tree reproduces k(lambda, mu) exactly.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import Callable, NamedTuple

from .errors import ConsistencyError, DomainError
from .macdonald import (
    build_matrices,
    c_prime_factors,
    closed_form_column,
    closed_form_row,
    k_coeff,
)
from .partitions import (
    Partition,
    box_stats,
    complement,
    conjugate,
    dominance_leq,
    partition,
    split_rows,
    subtract_rectangle,
)
from .qt import (
    ONE,
    QtPolynomial,
    QtRational,
    binomial_poly,
    exact_div_binomial,
    t_number,
    times_binomials,
)


# -- decomposition trees ------------------------------------------------------


class ReductionStep(NamedTuple):
    """One node of a decomposition tree.

    kind is "empty" (trivial pair), "leaf" (irreducible pair),
    "row_split" (split at row ``rows`` plus removal of the common
    ``width``-wide rectangle) or "rectangle_removal" (the degenerate
    split at the last row).  ``cofactor`` holds the binomial exponents
    of the product multiplying the children's values.
    """

    kind: str
    lam: Partition
    mu: Partition
    rows: int = 0
    width: int = 0
    cofactor: tuple[tuple[int, int], ...] = ()
    children: tuple["ReductionStep", ...] = ()

    def leaves(self) -> list["ReductionStep"]:
        if self.kind in ("leaf", "empty"):
            return [self]
        out: list[ReductionStep] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def leaf_classes(self) -> dict[tuple[Partition, Partition], BzClass]:
        """classify_bz of each irreducible leaf, keyed (lam, mu), in leaf order."""
        return {
            (leaf.lam, leaf.mu): classify_bz(leaf.lam, leaf.mu)
            for leaf in self.leaves()
            if leaf.kind == "leaf"
        }

    def replay(
        self,
        leaf_eval: Callable[[Partition, Partition], QtPolynomial] | None = None,
    ) -> QtPolynomial:
        """Product of leaf values and cofactors; defaults to the pipeline."""
        if leaf_eval is None:
            leaf_eval = k_coeff
        if self.kind == "empty":
            return QtPolynomial.one()
        if self.kind == "leaf":
            return leaf_eval(self.lam, self.mu)
        value = prod((child.replay(leaf_eval) for child in self.children), start=ONE)
        return times_binomials(value, self.cofactor)

    def to_obj(self) -> dict:
        obj = {
            "kind": self.kind,
            "lambda": list(self.lam),
            "mu": list(self.mu),
        }
        if self.kind in ("row_split", "rectangle_removal"):
            obj["rectangle"] = {"rows": self.rows, "width": self.width}
            obj["cofactor"] = [[a, b] for a, b in self.cofactor]
            obj["children"] = [c.to_obj() for c in self.children]
        return obj

    def ascii_art(self, indent: int = 0) -> str:
        pad = "  " * indent
        label = f"{pad}{list(self.lam)} / {list(self.mu)}  [{self.kind}]"
        if self.kind in ("row_split", "rectangle_removal"):
            label += f"  R={self.width}^{self.rows}"
            if self.cofactor:
                rendered = "".join(
                    f"({binomial_poly(a, b)})" for a, b in self.cofactor
                )
                label += f"  cofactor={rendered}"
        lines = [label]
        for child in self.children:
            lines.append(child.ascii_art(indent + 1))
        return "\n".join(lines)


def _first_equal_split(lam: Partition, mu: Partition) -> int | None:
    total_l = 0
    total_m = 0
    for i in range(len(lam)):
        total_l += lam[i]
        total_m += mu[i] if i < len(mu) else 0
        if total_l == total_m:
            return i + 1
    return None


def decompose_irreducible(lam: Partition, mu: Partition) -> ReductionStep:
    """Canonical decomposition of a dominance pair into irreducible leaves."""
    lam = partition(lam)
    mu = partition(mu)
    if not dominance_leq(mu, lam):
        raise DomainError(f"{mu} is not dominated by {lam}")
    if not lam:
        return ReductionStep("empty", (), ())
    r = _first_equal_split(lam, mu)
    if r is None:
        return ReductionStep("leaf", lam, mu)
    if len(mu) < r or mu[r - 1] <= 0:
        raise ConsistencyError(
            f"split block length mismatch at r={r} for ({lam}, {mu})"
        )
    lam1, lam2 = split_rows(lam, r)
    mu1, mu2 = mu[:r], mu[r:]
    width = lam[r - 1]
    cofactor = [
        (s.arm + 1, s.leg)
        for (row, col), s in box_stats(mu).items()
        if row <= r and col <= width
    ]
    children = [
        decompose_irreducible(
            subtract_rectangle(lam1, r, width),
            subtract_rectangle(mu1, r, width),
        )
    ]
    kind = "rectangle_removal"
    if lam2:
        kind = "row_split"
        children.append(decompose_irreducible(lam2, mu2))
    return ReductionStep(
        kind,
        lam,
        mu,
        rows=r,
        width=width,
        cofactor=tuple(sorted(cofactor)),
        children=tuple(children),
    )


def is_irreducible_pair(lam: Partition, mu: Partition) -> bool:
    """Strictly dominating proper prefix sums up to l(lambda)."""
    lam = partition(lam)
    mu = partition(mu)
    if not dominance_leq(mu, lam) or not lam:
        return False
    return _first_equal_split(lam, mu) is None


# -- BZ multiplicity-one classification ---------------------------------------


class BzClass(NamedTuple):
    """Multiplicity-one tag with its rectangle parameters when applicable."""

    tag: str  # row_case | rectangle_case | dual_row_case | dual_rectangle_case | not_multiplicity_one
    m: int | None = None
    n: int | None = None

    @property
    def is_multiplicity_one(self) -> bool:
        return self.tag != "not_multiplicity_one"


def classify_bz(lam: Partition, mu: Partition) -> BzClass:
    """BZ tag of a pair; multiplicity-one tags are K = 1 certificates.

    The shape certificates stay valid for reducible pairs (peel
    full-width rows), so any dominance pair matching one is accepted;
    a reducible pair with no certificate has no BZ class and is a
    domain error.  Completeness of not_multiplicity_one is only claimed
    for irreducible pairs, where the BZ theorem is an equivalence.
    """
    lam = partition(lam)
    mu = partition(mu)
    if not dominance_leq(mu, lam):
        raise DomainError(f"{mu} is not dominated by {lam}")
    if lam and len(lam) == 1:
        return BzClass("row_case", n=lam[0])
    if lam and len(set(lam)) == 1 and len(mu) == len(lam) + 1:
        return BzClass("rectangle_case", m=lam[0], n=len(lam))
    if mu and mu == (1,) * len(mu):
        return BzClass("dual_row_case", m=len(mu))
    mu_conj = conjugate(mu)
    if (
        mu_conj
        and len(set(mu_conj)) == 1
        and lam
        and lam[0] == len(mu_conj) + 1
    ):
        return BzClass("dual_rectangle_case", m=mu_conj[0], n=len(mu_conj))
    if not is_irreducible_pair(lam, mu):
        raise DomainError(
            f"({lam}, {mu}) is not irreducible and matches no BZ certificate"
        )
    return BzClass("not_multiplicity_one")


# -- complementation transport -------------------------------------------------


def transport_complement(
    lam: Partition, mu: Partition, m: int, n: int
) -> tuple[Partition, Partition]:
    """The complementary pair inside (m^n); entries transport unchanged."""
    return complement(partition(lam), m, n), complement(partition(mu), m, n)


def verify_complement_identity(
    lam: Partition, mu: Partition, m: int, n: int
) -> bool:
    """Check all five matrix families on one complementary pair of entries."""
    lam_c, mu_c = transport_complement(lam, mu, m, n)
    if sum(lam) != sum(mu):
        return sum(lam_c) != sum(mu_c)  # both entries vacuously zero
    big = build_matrices(sum(lam))
    small = build_matrices(sum(lam_c))
    return all(
        m_big.entry(lam, mu) == m_small.entry(lam_c, mu_c)
        for m_big, m_small in zip(big, small)
    )


# -- multiplicity-one fast paths ------------------------------------------------


def fast_k_multiplicity_one(
    lam: Partition, mu: Partition, cls: BzClass
) -> QtPolynomial:
    """k(lambda, mu) through the closed forms, given a mult-one tag.

    Rectangle tags go through complementation; the c'-ratio must clear
    completely, anything left over is an internal error.
    """
    lam = partition(lam)
    mu = partition(mu)
    if cls.tag == "row_case":
        return closed_form_row(sum(mu), mu)
    if cls.tag == "dual_row_case":
        return closed_form_column(lam, sum(lam))
    if cls.tag == "rectangle_case":
        small = complement(mu, cls.m, cls.n + 1)
        base = closed_form_row(cls.m, small)
    elif cls.tag == "dual_rectangle_case":
        lam_c = conjugate(complement(conjugate(lam), cls.m, cls.n + 1))
        base = closed_form_column(lam_c, cls.m)
        small = (1,) * cls.m
    else:
        raise DomainError(f"no fast path for tag {cls.tag}")
    return QtRational(
        times_binomials(base, c_prime_factors(mu)), c_prime_factors(small)
    ).as_polynomial()


def fast_k(lam: Partition, mu: Partition) -> QtPolynomial | None:
    """k(lambda, mu) via the reduction tree with fast leaves, when every
    leaf is multiplicity-one; None otherwise, having evaluated no leaf."""
    tree = decompose_irreducible(lam, mu)
    classes = tree.leaf_classes()
    if not all(cls.is_multiplicity_one for cls in classes.values()):
        return None
    return tree.replay(lambda a, b: fast_k_multiplicity_one(a, b, classes[a, b]))


# -- the f statistic -----------------------------------------------------------


def f_stat(mu: Partition) -> QtPolynomial:
    """f_mu = sum over boxes of q^arm t^leg."""
    mu = partition(mu)
    return QtPolynomial(Counter((s.arm, s.leg) for s in box_stats(mu).values()))


def f_stat_closed(mu: Partition) -> QtPolynomial:
    """Row-wise closed form of f_mu (per-leg runs of consecutive arms)."""
    mu = partition(mu)
    ell = len(mu)
    ext = list(mu) + [0]
    total = QtPolynomial.zero()
    for j in range(ell):
        inner = QtPolynomial.zero()
        for i in range(1, ell - j + 1):
            gap = t_number(ext[i + j - 1] - ext[i + j]).swap_qt()  # [.]_q
            inner = inner + QtPolynomial.monomial(
                1, mu[i - 1] - ext[i + j - 1], 0
            ) * gap
        total = total + QtPolynomial.monomial(1, 0, j) * inner
    return total


class FmuComplementCheck(NamedTuple):
    """f_mu - f_(mu^c) inside (m^(n+1)), with the telescoped closed
    form attached when its hypotheses hold."""

    difference: QtPolynomial
    closed_form: QtPolynomial | None
    hypotheses_hold: bool
    nonneg_expected: bool


def check_fmu_complement(mu: Partition, m: int, n: int) -> FmuComplementCheck:
    mu = partition(mu)
    mu_c = complement(mu, m, n + 1)
    difference = f_stat(mu) - f_stat(mu_c)
    hypotheses = bool(mu) and mu[0] < m and len(mu) == n + 1
    closed = None
    if hypotheses:
        padded_mu = list(mu) + [0] * (n + 1 - len(mu))
        padded_c = list(mu_c) + [0] * (n + 1 - len(mu_c))
        closed = QtPolynomial.zero()
        for j in range(n + 1):
            delta = QtPolynomial.monomial(
                1, padded_c[n - j], 0
            ) - QtPolynomial.monomial(1, padded_mu[n - j], 0)
            quotient = exact_div_binomial(delta, 1, 0)
            if quotient is None:
                raise ConsistencyError("1-q must divide q^a - q^b")
            closed = closed + QtPolynomial.monomial(1, 0, j) * quotient
    return FmuComplementCheck(
        difference=difference,
        closed_form=closed,
        hypotheses_hold=hypotheses,
        nonneg_expected=hypotheses and sum(mu) == m * n,
    )
