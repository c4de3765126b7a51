"""Exact certificate that the pipeline's K1 is the monomial expansion of
Macdonald's P.

Macdonald (*Symmetric Functions and Hall Polynomials*, VI (4.7)) pins P
down by two properties: it is unitriangular in dominance, and it is
orthogonal under the q,t pairing, which is diagonal on power sums,
<p_rho, p_sigma> = delta z_rho prod (1 - q^rho_i) / (1 - t^rho_i).  The
checks read K1 only as data (numerator terms and binomial denominator
factors) and do all their arithmetic on Python ints, so they share no
arithmetic with qt.py.

Each check is a family of identities ``lhs = rhs`` between integer
polynomials in q, t, cleared of denominators.  One evaluation per side
at the Kronecker point t = T, q = T^D decides each identity exactly: T
is a power of two above twice an l1 bound on ``lhs - rhs`` and D
exceeds its t-degree, so every monomial lands on its own power of T
with a coefficient below T/2.  A monomial is then a shift, and a factor
1 - q^a t^b is a shift and a subtraction.  The bound comes from
evaluating the same expressions on ``_Bound``s, where every coefficient
is replaced by its absolute value and every binomial by 2.  Each family
is decided at the point its own bound picks, so a family of small
identities does not pay for the largest one.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from typing import NamedTuple

from .errors import DomainError
from .macdonald import TriangularMatrix, k1_entry
from .partitions import (
    Partition,
    dominance_leq,
    hook_pairs,
    partitions_of,
    unitriangular_inverse,
)


def zee(lam: Partition) -> int:
    """z_lambda = prod over part values i of i^mult * mult!."""
    out = 1
    for value in set(lam):
        mult = lam.count(value)
        out *= value**mult * factorial(mult)
    return out


def powersum_in_monomials(n: int) -> tuple[tuple[int, ...], ...]:
    """Integer matrix C with C[lam][mu] = coefficient of m_mu in p_lam,
    both indices running over the descending-lex partitions of n.

    The coefficient of x^mu in prod_i (x_1^lam_i + ... + x_n^lam_i) counts
    the ways to place the parts of lam into bins of sizes mu.  It is 0
    unless mu dominates lam, so C is lower triangular.
    """
    if n < 1:
        raise DomainError(f"degree must be positive, got {n}")

    @cache
    def placements(lam: Partition, bins: Partition) -> int:
        # the count depends only on the multiset of bin sizes
        if not lam:
            return 1
        first, rest = lam[0], lam[1:]
        total = 0
        for j, b in enumerate(bins):
            if b >= first:
                left = sorted(bins[:j] + (b - first,) + bins[j + 1 :], reverse=True)
                total += placements(rest, tuple(left))
        return total

    parts = partitions_of(n)
    return tuple(tuple(placements(lam, mu) for mu in parts) for lam in parts)


def kronecker_point(bound: int, t_degree: int) -> tuple[int, int]:
    """(q, t) = (T^D, T) with T = 2^(bit_length(bound) + 1), the smallest
    power of two above 2 bound, and D = t_degree + 1.

    An integer polynomial with nonnegative exponents, l1 norm at most
    ``bound`` and t-degree at most ``t_degree`` vanishes there only if
    it is 0: its value is sum c_ab T^(aD + b) with distinct powers and
    every |c_ab| < T/2.
    """
    t = 1 << (bound.bit_length() + 1)
    return t ** (t_degree + 1), t


class _Bound:
    """An l1 norm and a t-degree bounding an integer polynomial in q, t.

    Sums and products of bounds bound the sums and products of what they
    bound; an int stands for a constant polynomial.  The class is also
    the evaluation of the leaves as bounds.
    """

    __slots__ = ("norm", "t_degree")

    def __init__(self, norm: int, t_degree: int = 0):
        self.norm = norm
        self.t_degree = t_degree

    def __add__(self, other: "_Bound | int") -> "_Bound":
        if isinstance(other, int):
            other = _Bound(abs(other))
        return _Bound(self.norm + other.norm, max(self.t_degree, other.t_degree))

    def __mul__(self, other: "_Bound | int") -> "_Bound":
        if isinstance(other, int):
            other = _Bound(abs(other))
        return _Bound(self.norm * other.norm, self.t_degree + other.t_degree)

    __radd__ = __add__
    __rmul__ = __mul__

    @staticmethod
    def poly(terms) -> "_Bound":
        return _Bound(sum(abs(c) for _, c in terms), max(b for (_, b), _ in terms))

    @staticmethod
    def times_binomials(x: "_Bound | int", pairs) -> "_Bound":
        """x prod (1 - q^a t^b) over (a, b) in ``pairs``."""
        x = _Bound(0) + x
        for _, b in pairs:
            x = _Bound(2 * x.norm, x.t_degree + b)
        return x


class _Point:
    """Leaves evaluated at the Kronecker point of a bound: q and t are
    powers of two, so the monomial q^a t^b is one shift of 1."""

    def __init__(self, bound: _Bound):
        q, self.t = kronecker_point(bound.norm, bound.t_degree)
        self._q_shift, self._t_shift = q.bit_length() - 1, self.t.bit_length() - 1

    def poly(self, terms) -> int:
        return sum(c << (a * self._q_shift + b * self._t_shift) for (a, b), c in terms)

    def times_binomials(self, x: int, pairs) -> int:
        """x prod (1 - q^a t^b) over (a, b) in ``pairs``."""
        for a, b in pairs:
            x -= x << (a * self._q_shift + b * self._t_shift)
        return x


def pipeline_k1(n: int):
    """The matrix the certificate checks: the pipeline's K1 at degree n,
    built entry by entry as the bundle builds it."""
    return TriangularMatrix.from_function(n, k1_entry)


def _inverse_transition(n: int) -> tuple[list[list[int]], int]:
    """(M, s): s is the lcm of the denominators of C^-1, for C the
    power-sum-to-monomial matrix, and M = s C^-1, so that
    m_mu = sum_rho M[mu][rho] p_rho / s."""
    c = powersum_in_monomials(n)
    size = len(c)
    # C is lower triangular, so A = D^-1 C^T is upper unitriangular for D
    # the diagonal of C, and C^-1 = D^-1 X^T for X the inverse of A
    inv = unitriangular_inverse(
        [[Fraction(row[i], c[i][i]) for row in c] for i in range(size)],
        Fraction(0),
    )
    cinv = [[row[i] / c[i][i] for row in inv] for i in range(size)]
    s = lcm(*(x.denominator for row in cinv for x in row))
    return [[int(x * s) for x in row] for row in cinv], s


class _Degree(NamedTuple):
    """K1 at one degree, cleared of denominators, in one evaluation.

    Row lam of K1 is ``numerators[lam]`` over L_lam = ``lcms[lam]``, the
    product of the row's denominator factors at their largest
    multiplicity, and s L_lam P_lam = sum_rho v[lam][rho] p_rho.  With
    E = prod_k (1 - t^k)^(n//k) and
    w_rho = z_rho prod_i (1 - q^rho_i) E / prod_i (1 - t^rho_i),
    ``w[lam][rho]`` is v[lam][rho] w_rho, so that
    <f, g> = sum_rho f_rho g_rho w_rho / E on power-sum coefficients.
    """

    ring: object
    parts: tuple
    m_rows: list
    s: int
    e: object
    lcms: list
    numerators: list
    v: list
    w: list


def _degree(ring, n: int, k1, m_rows, s) -> _Degree:
    """K1 at degree n cleared of denominators, with leaves from ``ring``."""
    parts = partitions_of(n)
    e_counts = Counter({(0, k): n // k for k in range(1, n + 1)})
    # w_rho / z_rho as its binomials: prod_i (1 - q^rho_i) times E with
    # each 1 - t^rho_i taken out
    weights = [
        [(part, 0) for part in rho]
        + list((e_counts - Counter((0, part) for part in rho)).elements())
        for rho in parts
    ]
    lcms, numerators, v, w = [], [], [], []
    for row in k1.entries:
        dens = [Counter({(a, b): m for a, b, m in entry.den}) for entry in row]
        top = Counter()
        for den in dens:
            top |= den
        lcms.append(ring.times_binomials(1, top.elements()))
        numerators.append([
            ring.times_binomials(ring.poly(entry.num.terms()), (top - den).elements())
            if entry.num.terms() else 0
            for entry, den in zip(row, dens)
        ])
        v_row = [
            sum(x * m_rows[j][r] for j, x in enumerate(numerators[-1]) if x)
            for r in range(len(parts))
        ]
        v.append(v_row)
        w.append([
            ring.times_binomials(zee(rho) * x, pairs)
            for rho, x, pairs in zip(parts, v_row, weights)
        ])
    e = ring.times_binomials(1, e_counts.elements())
    return _Degree(ring, parts, m_rows, s, e, lcms, numerators, v, w)


def _k1_identities(d: _Degree):
    """K1 is unitriangular in dominance, and <P_lam, m_nu> = 0 for every
    nu after lam in descending lex: K1 is P's transition matrix by
    VI (4.7)."""
    for i, lam in enumerate(d.parts):
        for j, mu in enumerate(d.parts):
            if i == j:
                yield d.numerators[i][j], d.lcms[i]
            elif not dominance_leq(mu, lam):
                yield d.numerators[i][j], 0
            if j > i:
                yield sum(x * y for x, y in zip(d.w[i], d.m_rows[j]) if y), 0


def _orthogonality_identities(d: _Degree):
    """<P_lam, P_kappa> = 0 for lam != kappa."""
    for i, v_row in enumerate(d.v):
        for w_row in d.w[i + 1 :]:
            yield sum(x * y for x, y in zip(v_row, w_row)), 0


def _normalization_identities(d: _Degree):
    """c_lam <P_lam, P_lam> = c'_lam, for c_lam = prod (1 - q^arm t^(leg+1))
    and c'_lam = prod (1 - q^(arm+1) t^leg) over the cells."""
    for lam, v_row, w_row, lcm_row in zip(d.parts, d.v, d.w, d.lcms):
        pairing = sum(x * y for x, y in zip(v_row, w_row))
        cleared = d.s * d.s * lcm_row * lcm_row * d.e
        yield (
            d.ring.times_binomials(pairing, hook_pairs(lam, 0, 1)),
            d.ring.times_binomials(cleared, hook_pairs(lam, 1, 0)),
        )


def _plethysm_identities(d: _Degree):
    """h_n[X (1-t)/(1-q)] = b_(n) P_(n), one power-sum coefficient at a
    time: z_rho^-1 prod_i (1 - t^rho_i) / (1 - q^rho_i) on the left."""
    ring, row = d.ring, d.parts[0]
    c, c_prime = hook_pairs(row, 0, 1), hook_pairs(row, 1, 0)
    for rho, value in zip(d.parts, d.v[0]):
        yield (
            ring.times_binomials(d.s * d.lcms[0], [(0, part) for part in rho] + c_prime),
            ring.times_binomials(zee(rho) * value, [(part, 0) for part in rho] + c),
        )


@cache
def _bounded_degree(n: int) -> tuple[object, _Degree] | None:
    """The pipeline's K1 at degree n and its ``_Bound`` evaluation, from
    which each family sizes its own point; None if a K1 numerator has a
    negative exponent."""
    k1 = pipeline_k1(n)
    terms = [term for row in k1.entries for entry in row for term in entry.num.terms()]
    if any(a < 0 or b < 0 for (a, b), _ in terms):
        return None
    m_rows, s = _inverse_transition(n)
    return k1, _degree(_Bound, n, k1, m_rows, s)


def _holds(family, n: int) -> bool:
    """Every identity of ``family`` at degree n, decided at the Kronecker
    point that the family's own bound picks."""
    setup = _bounded_degree(n)
    if setup is None:
        return False
    k1, bounds = setup
    norm, t_degree = 0, 0
    for lhs, rhs in family(bounds):
        both = _Bound(0) + lhs + rhs
        norm = max(norm, both.norm)
        t_degree = max(t_degree, both.t_degree)
    d = _degree(_Point(_Bound(norm, t_degree)), n, k1, bounds.m_rows, bounds.s)
    return all(lhs == rhs for lhs, rhs in family(d))


def check_k1_match(n: int) -> bool:
    """Is the pipeline's K1 the transition matrix from P to m?"""
    return _holds(_k1_identities, n)


def orthogonality_audit(n: int) -> bool:
    """Are the pipeline's P_lambda pairwise orthogonal?"""
    return _holds(_orthogonality_identities, n)


def check_pairing_normalization(n: int) -> bool:
    """<P_lam, Q_lam> = 1, i.e. b_lam <P_lam, P_lam> = 1."""
    return _holds(_normalization_identities, n)


def check_Qn_plethysm(n: int) -> bool:
    """Does h_n[X (1-t)/(1-q)] equal b_(n) P_(n)?"""
    return _holds(_plethysm_identities, n)
