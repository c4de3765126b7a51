"""The psi weights, the K1/K2 transition matrices and inverses, the
normalization constants c, c', b, the integral-form coefficients
k(lambda, mu), and the row/column closed forms.

All matrices for one degree are indexed by the descending-lex list of
partitions of that degree, which makes unitriangularity literal.
"""

from __future__ import annotations

import errno
import json
import os
from collections import Counter
from contextlib import ExitStack, contextmanager
from functools import cache
from typing import Callable, Iterator, NamedTuple, TextIO

from .errors import ConsistencyError, DomainError
from .partitions import (
    Partition,
    box_stats,
    conjugate,
    dominance_leq,
    hook_pairs,
    n_stat,
    ordered_dot,
    partition,
    partitions_of,
    unitriangular_inverse,
)
from .qt import ONE, QtPolynomial, QtRational, expand_factors, times_binomials
from .tableaux import chain_column, chain_entry, is_horizontal_strip, kostka_inverse, kostka_number

CACHE_FORMAT_VERSION = 1


# -- normalization constants -----------------------------------------------


def c_factors(mu: Partition) -> tuple[tuple[int, int], ...]:
    """Binomial exponents of c_mu: one (a, l+1) per box."""
    return tuple(sorted(hook_pairs(mu, 0, 1)))


def c_prime_factors(mu: Partition) -> tuple[tuple[int, int], ...]:
    """Binomial exponents of c'_mu: one (a+1, l) per box."""
    return tuple(sorted(hook_pairs(mu, 1, 0)))


class NormalizationConstants(NamedTuple):
    c: QtPolynomial
    c_prime: QtPolynomial
    b: QtRational


def normalization(mu: Partition) -> NormalizationConstants:
    """c_mu, c'_mu as expanded polynomials and b_mu = c_mu / c'_mu."""
    cf = c_factors(mu)
    cpf = c_prime_factors(mu)
    c = expand_factors(cf)
    return NormalizationConstants(
        c=c, c_prime=expand_factors(cpf), b=QtRational(c, cpf)
    )


# -- psi weights and K1 ------------------------------------------------------


def psi_strip(lam: Partition, mu: Partition) -> QtRational:
    """Macdonald's psi weight of the horizontal strip lam/mu.

    The product runs over boxes of mu whose row gained a box but whose
    column did not, that is whose arm grows and whose leg does not; each
    contributes a four-binomial factor built from its arms and legs in mu
    and in lam.
    """
    lam = partition(lam)
    mu = partition(mu)
    if not is_horizontal_strip(lam, mu):
        raise DomainError(f"{lam}/{mu} is not a horizontal strip")
    in_lam = box_stats(lam)
    num: list[tuple[int, int]] = []
    den: list[tuple[int, int]] = []
    for cell, sm in box_stats(mu).items():
        sl = in_lam[cell]
        if sl.arm != sm.arm and sl.leg == sm.leg:
            num += [(sm.arm, sm.leg + 1), (sl.arm + 1, sl.leg)]
            den += [(sm.arm + 1, sm.leg), (sl.arm, sl.leg + 1)]
    return QtRational(times_binomials(ONE, num), den)


@cache
def _psi_cached(lam: Partition, mu: Partition) -> QtRational:
    return psi_strip(lam, mu)


def k1_entry(lam: Partition, mu: Partition) -> QtRational:
    """K1 coefficient: the psi-sum over SSYT(lam, mu)."""
    lam = partition(lam)
    mu = partition(mu)
    if sum(lam) != sum(mu):
        return QtRational(0)
    return chain_column(mu, _psi_cached).get(lam, QtRational(0))


# -- partition-indexed matrices ---------------------------------------------


class TriangularMatrix:
    """Square matrix of QtRationals over the descending-lex partitions of n."""

    __slots__ = ("n", "index", "entries", "_pos")

    def __init__(self, n: int, entries: list[list[QtRational]]):
        self.n = n
        self.index = partitions_of(n)
        if len(entries) != len(self.index) or any(
            len(row) != len(self.index) for row in entries
        ):
            raise DomainError(f"entry grid does not match degree {n}")
        self.entries = entries
        self._pos = {p: i for i, p in enumerate(self.index)}

    @classmethod
    def from_function(
        cls, n: int, fn: Callable[[Partition, Partition], QtRational]
    ) -> "TriangularMatrix":
        parts = partitions_of(n)
        return cls(n, [[fn(lam, mu) for mu in parts] for lam in parts])

    @classmethod
    def identity(cls, n: int) -> "TriangularMatrix":
        parts = partitions_of(n)
        return cls(
            n,
            [
                [QtRational(1 if i == j else 0) for j in range(len(parts))]
                for i in range(len(parts))
            ],
        )

    def entry(self, lam: Partition, mu: Partition) -> QtRational:
        i = self._pos.get(tuple(lam))
        j = self._pos.get(tuple(mu))
        if i is None or j is None:
            raise DomainError(f"{lam}, {mu}: not both partitions of {self.n}")
        return self.entries[i][j]

    def is_unitriangular(self) -> bool:
        for i in range(len(self.index)):
            if not self.entries[i][i] == 1:
                return False
            for j in range(i):
                if not self.entries[i][j].is_zero:
                    return False
        return True

    def __matmul__(self, other: "TriangularMatrix") -> "TriangularMatrix":
        if self.n != other.n:
            raise DomainError("degree mismatch in matrix product")
        size = len(self.index)
        zero = QtRational(0)
        return TriangularMatrix(self.n, [
            [
                ordered_dot(row[i:j + 1], [r[j] for r in other.entries[i:j + 1]], zero)
                for j in range(size)
            ]
            for i, row in enumerate(self.entries)
        ])

    def inverse(self) -> "TriangularMatrix":
        """Invert by back-substitution; the unit diagonal means no division."""
        if not all(row[i] == 1 for i, row in enumerate(self.entries)):
            raise ConsistencyError("non-unit diagonal in triangular inverse")
        return TriangularMatrix(
            self.n, unitriangular_inverse(self.entries, QtRational(0))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriangularMatrix) or self.n != other.n:
            return NotImplemented
        return all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(len(self.index))
            for j in range(len(self.index))
        )

    __hash__ = None

    def to_obj(self, which: str = "") -> dict:
        return {
            "format_version": CACHE_FORMAT_VERSION,
            "which": which,
            "n": self.n,
            "index": [list(p) for p in self.index],
            "entries": [[e.to_obj() for e in row] for row in self.entries],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "TriangularMatrix":
        if not isinstance(obj, dict):
            raise DomainError("cache file does not hold a matrix object")
        if obj.get("format_version") != CACHE_FORMAT_VERSION:
            raise DomainError("cache format version mismatch")
        n = obj["n"]
        if type(n) is not int:
            raise DomainError(f"cache degree {n!r} is not an int")
        if [list(p) for p in partitions_of(n)] != obj["index"]:
            raise DomainError("cache index does not match the degree")
        return cls(
            n,
            [[QtRational.from_obj(e) for e in row] for row in obj["entries"]],
        )

    def latex(self) -> str:
        header = " & ".join(str(list(p)) for p in self.index)
        lines = [
            "\\begin{tabular}{l|" + "c" * len(self.index) + "}",
            f" & {header} \\\\ \\hline",
        ]
        for lam, row in zip(self.index, self.entries):
            body = " & ".join(f"${e.latex()}$" for e in row)
            lines.append(f"{list(lam)} & {body} \\\\")
        lines.append("\\end{tabular}")
        return "\n".join(lines)


class MatrixBundle(NamedTuple):
    """The five degree-n transition matrices."""

    kostka: TriangularMatrix
    k1: TriangularMatrix
    k1_inv: TriangularMatrix
    k2: TriangularMatrix
    k2_inv: TriangularMatrix


# CLI and cache-file name of each bundle field, in field order
MATRIX_FIELDS = dict(
    zip(("k", "k1", "k1inv", "k2", "k2inv"), MatrixBundle._fields)
)


def _cache_path(cache_dir: str, name: str, n: int) -> str:
    return os.path.join(cache_dir, f"{name}_n{n}.json")


_memory_cache: dict[int, MatrixBundle] = {}


def _compute_matrices(n: int) -> MatrixBundle:
    kostka = TriangularMatrix.from_function(
        n, lambda lam, mu: QtRational(kostka_number(lam, mu))
    )
    kostka_inv = TriangularMatrix(
        n, [[QtRational(x) for x in row] for row in kostka_inverse(n)]
    )
    k1 = TriangularMatrix.from_function(n, k1_entry)
    k1_inv = k1.inverse()
    k2 = kostka @ k1_inv
    k2_inv = k1 @ kostka_inv
    return MatrixBundle(kostka, k1, k1_inv, k2, k2_inv)


def _load_matrix(n: int, which: str, path: str) -> TriangularMatrix | None:
    """The matrix ``which`` of degree n from its cache file, or None when
    the file is missing, stale, foreign or damaged."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        # a file written for another degree or matrix is stale; this
        # runs before from_obj lists the partitions of the claimed degree
        if not isinstance(obj, dict) or (
            (obj.get("n"), obj.get("which")) != (n, which)
        ):
            return None
        return TriangularMatrix.from_obj(obj)
    # a deeply nested file exhausts the parser's recursion limit
    except (DomainError, KeyError, RecursionError, TypeError, ValueError):
        return None


@contextmanager
def atomic_writer(path: str) -> Iterator[TextIO]:
    """A text file at ``path`` that readers see old or whole, never partial.

    The temp file beside ``path`` is opened before the caller's work, so
    an unusable path fails at once; it is moved into place only if the
    block completes.  An OSError from opening or moving names ``path``.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fh = open(tmp, "w", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def build_matrices(n: int) -> MatrixBundle:
    """K, K1, K1^-1, K2, K2^-1 at degree n, kept in memory."""
    if n < 0:
        raise DomainError(f"negative degree {n}")
    if n not in _memory_cache:
        _memory_cache[n] = _compute_matrices(n)
    return _memory_cache[n]


def read_matrix(n: int, which: str, cache_dir: str) -> TriangularMatrix:
    """The matrix ``which`` (a key of MATRIX_FIELDS) at degree n, the one
    reader and writer of the cache files.

    A degree not in memory is served from ``which``'s cache file alone.
    A missing or rejected file, or a degree in memory with a file
    missing, rewrites all five; their files are opened before any matrix
    is computed.
    """
    if which not in MATRIX_FIELDS:
        raise DomainError(f"unknown matrix {which!r}")
    if n < 0:
        raise DomainError(f"negative degree {n}")
    paths = [_cache_path(cache_dir, name, n) for name in MATRIX_FIELDS]
    if n in _memory_cache:
        if all(os.path.exists(p) for p in paths):
            return getattr(_memory_cache[n], MATRIX_FIELDS[which])
    else:
        mat = _load_matrix(n, which, _cache_path(cache_dir, which, n))
        if mat is not None:
            return mat
    os.makedirs(cache_dir, exist_ok=True)
    with ExitStack() as stack:
        files = [stack.enter_context(atomic_writer(p)) for p in paths]
        bundle = build_matrices(n)
        for name, fh, mat in zip(MATRIX_FIELDS, files, bundle):
            # one text: only a one-shot dumps takes the C encoder
            fh.write(json.dumps(mat.to_obj(name), sort_keys=True))
    return getattr(bundle, MATRIX_FIELDS[which])


# -- integral form coefficients ----------------------------------------------


@cache
def _j_entry(mu: Partition, nu: Partition) -> QtPolynomial:
    """J(mu, nu) = c_mu K1(mu, nu), an integer polynomial, for nu <= mu."""
    # K1 is unitriangular: the diagonal needs no K1 column.  Off it, one
    # strip step on the cached nu[:-1] column, so nu's whole column is
    # not built
    k1 = chain_entry(nu, _psi_cached, mu, QtRational(0)) if nu != mu else QtRational(1)
    # c_mu already holds most of the entry's denominator: cancel those
    # factors as multisets, and divide only by the ones left over
    c = Counter(c_factors(mu))
    den = Counter({(f.a, f.b): f.multiplicity for f in k1.den})
    num = times_binomials(k1.num, (c - den).elements())
    return QtRational(num, (den - c).elements()).as_polynomial()


def k_coeff(lam: Partition, mu: Partition) -> QtPolynomial:
    """k(lambda, mu) = K2 entry times c'_mu, normalized to a polynomial."""
    # Duality, omega_{q,t} P_lam(q,t) = Q_lam'(t,q) (Macdonald VI (5.1)),
    # makes k(lam, mu)(q,t) the Schur coefficient <J_mu', s_lam'> at (t,q):
    # sum over nu of J(mu', nu) times the integer K^-1(nu, lam').  Both
    # are triangular in dominance, so only lam' <= nu <= mu' counts, and
    # k vanishes unless mu <= lam.
    lam, mu = partition(lam), partition(mu)
    if sum(lam) != sum(mu):
        return QtPolynomial.zero()
    lam_c, mu_c = conjugate(lam), conjugate(mu)
    n = sum(lam_c)
    column = partitions_of(n).index(lam_c)
    total = QtPolynomial.zero()
    for nu, row in zip(partitions_of(n), kostka_inverse(n)):
        weight = row[column]
        if weight and dominance_leq(nu, mu_c):
            total = total + _j_entry(mu_c, nu) * weight
    return total.swap_qt()


def closed_form_row(n: int, mu: Partition) -> QtPolynomial:
    """k((n), mu) by the coarm/coleg product formula."""
    mu = partition(mu)
    if sum(mu) != n:
        raise DomainError(f"|{mu}| != {n}")
    # 1 - q^(a'+1) t^(-l') per box, Laurent until the prefactor clears it
    result = times_binomials(
        QtPolynomial.monomial(1, 0, n_stat(mu)),
        ((s.coarm + 1, -s.coleg) for s in box_stats(mu).values()),
    )
    if not result.is_genuine_polynomial():
        raise ConsistencyError(f"row closed form not polynomial for mu={mu}")
    return result


def kostka_foulkes_hook_form(lam: Partition) -> QtPolynomial:
    """K(lambda, 1^n)(t) via the t-analogue of the hook length formula."""
    lam = partition(lam)
    n = sum(lam)
    num = times_binomials(
        QtPolynomial.monomial(1, 0, n_stat(conjugate(lam))),
        ((0, j) for j in range(1, n + 1)),
    )
    hooks = [(0, s.hook) for s in box_stats(lam).values()]
    return QtRational(num, hooks).as_polynomial()


def closed_form_column(lam: Partition, n: int) -> QtPolynomial:
    """k(lambda, 1^n) = K(lambda, 1^n)(t) times the content product."""
    lam = partition(lam)
    if sum(lam) != n:
        raise DomainError(f"|{lam}| != {n}")
    result = times_binomials(
        kostka_foulkes_hook_form(lam),
        ((1, -s.content) for s in box_stats(lam).values()),
    )
    if not result.is_genuine_polynomial():
        raise ConsistencyError(f"column closed form not polynomial for {lam}")
    return result


def principal_specialization_P(
    lam: Partition, z: str | tuple[int, int]
) -> QtRational:
    """P_lambda evaluated at the alphabet (1-z)/(1-t), z a q,t-monomial.

    Returns the product over boxes of (t^coleg - q^coarm z) over
    (1 - q^arm t^(leg+1)).
    """
    lam = partition(lam)
    if z == "q":
        alpha, beta = 1, 0
    elif z == "t":
        alpha, beta = 0, 1
    else:
        alpha, beta = z
        if alpha < 0 or beta < 0:
            raise DomainError(f"z must be a monomial with nonneg exponents: {z}")
    # a box's t^l' - q^(a'+alpha) t^beta is t^l' (1 - q^(a'+alpha) t^(beta-l'))
    stats = box_stats(lam).values()
    num = times_binomials(
        QtPolynomial.monomial(1, 0, sum(s.coleg for s in stats)),
        ((s.coarm + alpha, beta - s.coleg) for s in stats),
    )
    return QtRational(num, [(s.arm, s.leg + 1) for s in stats])
