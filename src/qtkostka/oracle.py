"""First-principles Macdonald P construction by Gram-Schmidt against the
q,t-deformed Hall scalar product on power sums.

This is the anti-bug oracle for the psi-formula pipeline.  Its exact
arithmetic runs in sympy's rational function field ZZ(q,t), so the two
routes share no arithmetic stack; results cross into the package's own
representation only as (numerator, denominator) polynomial pairs,
compared downstream by integer cross-multiplication.  Every solved
system is verified by substitution before being accepted.

Sums of pairings never run in the field, where every ``+`` and ``*``
cancels through a gcd: the Gram matrix is kept as ZZ[q,t] numerators
over one shared denominator, each vector is brought to one denominator,
and images and pairings add in the polynomial ring.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, lcm

from sympy import ZZ
from sympy.polys.fields import field
from sympy.polys.heuristicgcd import heugcd
from sympy.polys.polyerrors import HeuristicGCDFailed
from sympy.polys.rings import PolyElement

from .errors import ConsistencyError, DomainError
from .partitions import (
    Partition,
    cells,
    diagram_stats,
    dominance_leq,
    partitions_of,
)
from .qt import QtPolynomial, QtRational

_FIELD, _q, _t = field("q,t", ZZ)
_RING = _FIELD.ring

FractionPair = tuple[QtPolynomial, QtPolynomial]


def _gcd_zz_with_fallback(f, g):
    # sympy 1.14's ring gcd over ZZ gives up when its heuristic runs out
    # of retries; fall back to the dense PRS gcd it ships for other domains
    try:
        return heugcd(f, g)
    except HeuristicGCDFailed:
        return f.ring.dmp_inner_gcd(f, g)


@contextmanager
def _gcd_fallback():
    """Route sympy's ZZ gcd through the fallback for the enclosed calls.

    Re-entrant: a nested entry leaves the patch to the outermost one,
    which restores sympy's own method on exit.  Used as a decorator on
    the public entry points, so importing this module patches nothing.
    """
    original = PolyElement._gcd_ZZ
    if original is _gcd_zz_with_fallback:
        yield
        return
    PolyElement._gcd_ZZ = _gcd_zz_with_fallback
    try:
        yield
    finally:
        PolyElement._gcd_ZZ = original


def zee(lam: Partition) -> int:
    """z_lambda = prod over part values i of i^mult * mult!."""
    out = 1
    for value in set(lam):
        mult = lam.count(value)
        out *= value**mult * factorial(mult)
    return out


def _multiply_by_powersum(
    f: dict[tuple[int, ...], int], k: int, nvars: int
) -> dict[tuple[int, ...], int]:
    # symmetric polynomials keyed by sorted exponent vectors; the stored
    # coefficient is the raw coefficient of that monomial
    candidates = set()
    for w in f:
        for i in range(nvars):
            v = list(w)
            v[i] += k
            candidates.add(tuple(sorted(v, reverse=True)))
    out: dict[tuple[int, ...], int] = {}
    for z in candidates:
        total = 0
        for i in range(nvars):
            if z[i] >= k:
                v = list(z)
                v[i] -= k
                c = f.get(tuple(sorted(v, reverse=True)))
                if c:
                    total += c
        if total:
            out[z] = total
    return out


@cache
def powersum_in_monomials(n: int) -> tuple[tuple[int, ...], ...]:
    """Integer matrix S with S[lam][mu] = coefficient of m_mu in p_lam,
    both indices running over the descending-lex partitions of n."""
    if n < 1:
        raise DomainError(f"degree must be positive, got {n}")
    parts = partitions_of(n)
    rows = []
    for lam in parts:
        f = {(0,) * n: 1}
        for k in lam:
            f = _multiply_by_powersum(f, k, n)
        rows.append(
            tuple(f.get(tuple(mu) + (0,) * (n - len(mu)), 0) for mu in parts)
        )
    return tuple(rows)


def _solve_linear(matrix: list[list], rhs_columns: list[list]) -> list[list]:
    """Gauss-Jordan elimination over any exact field (Fractions, ZZ(q,t)).

    Returns one solution column x with ``matrix . x = b`` per column b of
    ``rhs_columns``.
    """
    size = len(matrix)
    work = [list(matrix[i]) + [b[i] for b in rhs_columns] for i in range(size)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot is None:
            raise ConsistencyError("singular linear system")
        work[col], work[pivot] = work[pivot], work[col]
        inv_pivot = 1 / work[col][col]
        work[col] = [x * inv_pivot for x in work[col]]
        for r in range(size):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [[row[j] for row in work] for j in range(size, len(work[0]))]


@cache
def gram_matrix_monomials(n: int):
    """Pairings <m_a, m_b>_{q,t} over the degree-n partition index, as
    ``(rows, denominator)``: <m_a, m_b> = rows[a][b] / denominator.

    The shared denominator is an integer multiple of
    prod_k (1-t^k)^(n//k); every numerator is built in the polynomial
    ring, so no entry needs a gcd.
    """
    parts = partitions_of(n)
    size = len(parts)
    ring = _RING
    rq, rt = ring.gens
    transition = [[Fraction(x) for x in row] for row in powersum_in_monomials(n)]
    identity = [[Fraction(int(i == j)) for i in range(size)] for j in range(size)]
    # the columns of the inverse, transposed to rows
    cinv = list(zip(*_solve_linear(transition, identity)))
    denominator_lcm = 1
    for row in cinv:
        for x in row:
            denominator_lcm = lcm(denominator_lcm, x.denominator)
    scale = denominator_lcm * denominator_lcm
    common = ring.one * scale
    for k in range(1, n + 1):
        common = common * (ring.one - rt**k) ** (n // k)
    lam_terms = []
    for lam in parts:
        term = ring.one * zee(lam)
        mult = [0] + [n // k for k in range(1, n + 1)]
        for part in lam:
            term = term * (ring.one - rq**part)
            mult[part] -= 1
        for k in range(1, n + 1):
            term = term * (ring.one - rt**k) ** mult[k]
        lam_terms.append(term)
    rows = [[ring.zero] * size for _ in range(size)]
    for a in range(size):
        for b in range(a, size):
            acc = ring.zero
            for k in range(size):
                r = cinv[a][k] * cinv[b][k] * scale
                if r:
                    if r.denominator != 1:
                        raise ConsistencyError("gram scaling not integral")
                    acc = acc + lam_terms[k] * int(r)
            rows[a][b] = acc
            rows[b][a] = acc
    return tuple(tuple(row) for row in rows), common


def _element_to_pair(element) -> FractionPair:
    """A field element as an integer-coefficient (num, den) pair."""

    def to_qt(poly_element) -> QtPolynomial:
        return QtPolynomial(
            {
                (int(eq), int(et)): int(c)
                for (eq, et), c in poly_element.terms()
            }
        )

    return to_qt(element.numer), to_qt(element.denom)


def pair_equals_qtrational(pair: FractionPair, value: QtRational) -> bool:
    """Cross-multiplication equality between the two representations."""
    num, den = pair
    return num * value.den_expanded() == value.num * den


@dataclass(frozen=True)
class SymFuncInBasis:
    """A degree-homogeneous symmetric function as a coefficient vector
    over the descending-lex partition index (entries in ZZ(q,t))."""

    degree: int
    basis: str  # "monomial" | "powersum"
    coefficients: tuple

    def coefficient(self, lam: Partition):
        return self.coefficients[partitions_of(self.degree).index(tuple(lam))]

    def coefficient_pair(self, lam: Partition) -> FractionPair:
        return _element_to_pair(self.coefficient(lam))


def _over_common_denominator(u) -> tuple[list, object]:
    """Field entries u_a = U_a / L over one ring denominator L, the lcm
    of the entries' denominators: returns ([U_a], L)."""
    den = _RING.one
    for x in u:
        if x:
            den = den.lcm(x.denom)
    return [x.numer * den.exquo(x.denom) for x in u], den


def _gram_image(gram_rows, u_num) -> list:
    """w = G . U in the ring; for a Gram matrix G / D and a vector
    U / L, <u, v> = sum_b v[b] w[b] / (L D) for any v."""
    nonzero = [a for a, x in enumerate(u_num) if x]
    return [
        sum((u_num[a] * gram_rows[a][b] for a in nonzero), _RING.zero)
        for b in range(len(u_num))
    ]


def _pairing(v_num, w):
    return sum((x * y for x, y in zip(v_num, w) if x), _RING.zero)


@cache
@_gcd_fallback()
def gram_schmidt_P(n: int) -> dict[Partition, SymFuncInBasis]:
    """Monomial expansions of all P_lambda at degree n.

    Partitions are processed upward in dominance; for each lambda the
    coefficients on strictly dominated monomials solve the
    orthogonality system against everything already built, and each
    solution is verified by substitution before being accepted.
    """
    parts = partitions_of(n)
    size = len(parts)
    pos = {p: i for i, p in enumerate(parts)}
    gram, gram_den = gram_matrix_monomials(n)
    built: dict[Partition, SymFuncInBasis] = {}
    # images[nu] = the numerators of <m_gamma, P_nu> over gamma, and
    # g_rows[nu] the same pairings as field entries for the solve
    images: dict[Partition, list] = {}
    g_rows: dict[Partition, list] = {}
    for lam in reversed(parts):
        below = [mu for mu in parts if mu != lam and dominance_leq(mu, lam)]
        vec = [_FIELD(0)] * size
        vec[pos[lam]] = _FIELD(1)
        if below:
            matrix = [[g_rows[nu][pos[mu]] for mu in below] for nu in below]
            rhs = [-g_rows[nu][pos[lam]] for nu in below]
            (solution,) = _solve_linear(matrix, [rhs])
            for mu, value in zip(below, solution):
                vec[pos[mu]] = value
        vec_num, vec_den = _over_common_denominator(vec)
        for nu in below:
            if _pairing(vec_num, images[nu]):
                raise ConsistencyError(
                    f"Gram-Schmidt verification failed at {lam} vs {nu}"
                )
        built[lam] = SymFuncInBasis(n, "monomial", tuple(vec))
        if lam == parts[0]:
            break  # P_(n) is built last: no later system reads its image
        images[lam] = _gram_image(gram, vec_num)
        image_den = vec_den * gram_den
        g_rows[lam] = [_FIELD.new(w, image_den) for w in images[lam]]
    return built


@_gcd_fallback()
def orthogonality_audit(n: int) -> bool:
    """Recompute every off-diagonal pairing from the built basis."""
    parts = partitions_of(n)
    gram, _ = gram_matrix_monomials(n)
    built = gram_schmidt_P(n)
    numerators = [
        _over_common_denominator(built[lam].coefficients)[0] for lam in parts
    ]
    for i, u_num in enumerate(numerators):
        w = _gram_image(gram, u_num)
        if any(_pairing(v_num, w) for v_num in numerators[i + 1 :]):
            return False
    return True


@_gcd_fallback()
def b_norm_factor(lam: Partition):
    """b_lambda = c_lambda / c'_lambda read off the diagram."""
    value = _FIELD(1)
    for x in cells(lam):
        s = diagram_stats(lam, x)
        value = (
            value
            * (1 - _q**s.arm * _t ** (s.leg + 1))
            / (1 - _q ** (s.arm + 1) * _t**s.leg)
        )
    return value


@_gcd_fallback()
def check_pairing_normalization(n: int) -> bool:
    """<P_lam, Q_lam> = 1, i.e. b_lam <P_lam, P_lam> = 1."""
    gram, gram_den = gram_matrix_monomials(n)
    built = gram_schmidt_P(n)
    for lam in partitions_of(n):
        u_num, u_den = _over_common_denominator(built[lam].coefficients)
        # <P_lam, P_lam> = norm / (u_den^2 gram_den)
        norm = _pairing(u_num, _gram_image(gram, u_num))
        b = b_norm_factor(lam)
        if b.numer * norm != b.denom * u_den**2 * gram_den:
            return False
    return True


@_gcd_fallback()
def check_Qn_plethysm(n: int) -> bool:
    """Does h_n[X (1-t)/(1-q)] equal b_(n) P_(n) in the monomial basis?"""
    parts = partitions_of(n)
    transition = powersum_in_monomials(n)
    size = len(parts)
    # h_n = sum_lam p_lam / z_lam; the plethysm scales p_k by (1-t^k)/(1-q^k)
    lhs = [_FIELD(0)] * size
    for i, lam in enumerate(parts):
        coeff = _FIELD(1) / _FIELD(zee(lam))
        for part in lam:
            coeff = coeff * (1 - _t**part) / (1 - _q**part)
        for j in range(size):
            if transition[i][j]:
                lhs[j] = lhs[j] + coeff * transition[i][j]
    b_row = b_norm_factor((n,))
    p_row = gram_schmidt_P(n)[(n,)].coefficients
    return all(lhs[j] == b_row * p_row[j] for j in range(size))
