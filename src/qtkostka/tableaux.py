"""Semistandard tableaux as horizontal-strip chains, Kostka numbers, charge.

A tableau is stored as its chain of shapes: the i-th shape is the region
filled by letters <= i.  Successive shapes differ by a horizontal strip
(at most one new box per column).
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import DomainError
from .partitions import Partition, ordered_dot, partition, partitions_of, unitriangular_inverse
from .qt import QtPolynomial

_W = TypeVar("_W")


def is_horizontal_strip(outer: Partition, inner: Partition) -> bool:
    """True iff inner <= outer and outer/inner has at most one box per column."""
    if len(inner) > len(outer):
        return False
    for i in range(len(outer)):
        hi = outer[i]
        lo = inner[i] if i < len(inner) else 0
        if lo > hi:
            return False
        # interlacing: every column of outer/inner gains at most one box
        if i + 1 < len(outer) and outer[i + 1] > lo:
            return False
    return True


def horizontal_strip_extensions(
    base: Partition, strip_size: int, limit: Partition | None = None
) -> list[Partition]:
    """All shapes obtained from base by adding a horizontal strip of the
    given size (kept inside ``limit`` when one is supplied), ascending lex."""
    rows = len(base) + 1
    out: list[Partition] = []

    def choose(i: int, prefix: list[int], budget: int) -> None:
        if i == rows:
            if budget == 0:
                out.append(tuple(p for p in prefix if p > 0))
            return
        lo = base[i] if i < len(base) else 0
        hi = base[i - 1] if i > 0 else lo + budget
        if limit is not None:
            hi = min(hi, limit[i] if i < len(limit) else 0)
        hi = min(hi, lo + budget)
        if i > 0 and prefix:
            hi = min(hi, prefix[-1])
        for v in range(lo, hi + 1):
            prefix.append(v)
            choose(i + 1, prefix, budget - (v - lo))
            prefix.pop()

    choose(0, [], strip_size)
    out.sort()
    return out


class Ssyt:
    """A semistandard tableau encoded as its nested chain of shapes."""

    __slots__ = ("_chain",)

    def __init__(self, chain: Sequence[Partition]):
        chain = tuple(tuple(v) for v in chain)
        if not chain or chain[0] != ():
            chain = ((),) + chain
        for prev, nxt in zip(chain, chain[1:]):
            if not is_horizontal_strip(nxt, prev):
                raise DomainError(f"{nxt}/{prev} is not a horizontal strip")
        self._chain = chain

    @property
    def chain(self) -> tuple[Partition, ...]:
        return self._chain

    @property
    def shape(self) -> Partition:
        return self._chain[-1]

    @property
    def content(self) -> tuple[int, ...]:
        return tuple(
            sum(b) - sum(a) for a, b in zip(self._chain, self._chain[1:])
        )

    def rows(self) -> list[list[int]]:
        """Row-filling form: rows of letters, weakly increasing."""
        filling: list[list[int]] = [[] for _ in self.shape]
        for letter, (prev, nxt) in enumerate(
            zip(self._chain, self._chain[1:]), start=1
        ):
            for r in range(len(nxt)):
                lo = prev[r] if r < len(prev) else 0
                filling[r].extend([letter] * (nxt[r] - lo))
        return filling

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Ssyt":
        max_letter = max((x for row in rows for x in row), default=0)
        chain = []
        for letter in range(1, max_letter + 1):
            shape = tuple(
                cnt for cnt in (sum(1 for x in row if x <= letter) for row in rows) if cnt
            )
            chain.append(shape)
        return cls(chain)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ssyt) and self._chain == other._chain

    def __hash__(self) -> int:
        return hash(self._chain)

    def __repr__(self) -> str:
        return f"Ssyt({'/'.join(''.join(map(str, row)) for row in self.rows())})"


def enumerate_ssyt(shape: Partition, content: Sequence[int]) -> Iterator[Ssyt]:
    """All tableaux of the given shape and content, in a fixed order.

    Content may be any weak composition.  Chains are grown letter by
    letter, lexicographically smallest next shape first.
    """
    shape = partition(shape)
    content = tuple(int(c) for c in content)
    if any(c < 0 for c in content):
        raise DomainError(f"negative content {content}")
    if sum(shape) != sum(content):
        raise DomainError(
            f"size mismatch: |{shape}| != |{content}|"
        )

    def grow(chain: list[Partition], i: int) -> Iterator[Ssyt]:
        if i == len(content):
            if chain[-1] == shape:
                yield Ssyt(chain)
            return
        for nxt in horizontal_strip_extensions(chain[-1], content[i], shape):
            chain.append(nxt)
            yield from grow(chain, i + 1)
            chain.pop()

    yield from grow([()], 0)


@cache
def chain_column(
    content: tuple[int, ...], weight: Callable[[Partition, Partition], _W]
) -> dict[Partition, _W]:
    """Weighted sums over the horizontal-strip chains of the given content,
    keyed by last shape: each strip weighs ``weight(bigger, shape)``.

    Each shape of the ``content[:-1]`` column is extended by every strip
    of size ``content[-1]``; terms are added in a fixed order, the first
    one stored as is, so non-canonical sums come out in the same form.
    """
    if not content:
        return {(): weight((), ())}
    out: dict[Partition, _W] = {}
    for shape, acc in chain_column(content[:-1], weight).items():
        for bigger in horizontal_strip_extensions(shape, content[-1]):
            term = acc * weight(bigger, shape)
            out[bigger] = out[bigger] + term if bigger in out else term
    return out


def chain_entry(
    content: tuple[int, ...],
    weight: Callable[[Partition, Partition], _W],
    shape: Partition,
    zero: _W,
) -> _W:
    """``chain_column(content, weight).get(shape, zero)`` for a non-empty
    content and a shape of its size, by one strip step on the cached
    ``content[:-1]`` column, so the column of ``content`` is not built."""
    below = chain_column(content[:-1], weight)
    strips = [rho for rho in below if is_horizontal_strip(shape, rho)]
    terms = [below[rho] for rho in strips]
    return ordered_dot(terms, [weight(shape, rho) for rho in strips], zero)


def _count(bigger: Partition, shape: Partition) -> int:
    """The unit weight: ``chain_column`` under it counts the chains."""
    return 1


def kostka_number(shape: Partition, content: Sequence[int]) -> int:
    """Number of tableaux of the given shape and content (0 on size mismatch)."""
    content = tuple(int(c) for c in content)
    if any(c < 0 for c in content):
        raise DomainError(f"negative content {content}")
    # a zero part adds no strip; dropping it keeps the recursion shallow
    return chain_column(tuple(c for c in content if c), _count).get(partition(shape), 0)


@cache
def kostka_inverse(n: int) -> tuple[tuple[int, ...], ...]:
    """The inverse of the integer Kostka matrix K(lam, mu) of degree n,
    as int rows over the descending-lex partitions of n."""
    parts = partitions_of(n)
    kostka = [[chain_column(mu, _count).get(lam, 0) for mu in parts] for lam in parts]
    return tuple(map(tuple, unitriangular_inverse(kostka, 0)))


def reading_word(tab: Ssyt) -> list[int]:
    """Rows top to bottom, each read right to left."""
    return [x for row in tab.rows() for x in reversed(row)]


def _charge_standard(word: Sequence[int]) -> int:
    # word is a permutation of 1..m; letter r+1 left of r bumps the index
    pos = {letter: i for i, letter in enumerate(word)}
    idx = 0
    total = 0
    for r in range(1, len(word)):
        if pos[r + 1] < pos[r]:
            idx += 1
        total += idx
    return total


def charge_word(word: Sequence[int]) -> int:
    """Lascoux-Schutzenberger charge of a word with partition content.

    Standard subwords are extracted by cyclic left-to-right scans: find
    the leftmost 1, then continue rightward (wrapping) for a 2, and so
    on; each subword contributes its standard charge.
    """
    word = list(word)
    counts = Counter(word)
    letters = sorted(counts)
    if letters != list(range(1, len(letters) + 1)):
        raise DomainError(f"letters not contiguous from 1: {sorted(set(word))}")
    content = [counts[i] for i in letters]
    if any(content[i] < content[i + 1] for i in range(len(content) - 1)):
        raise DomainError(f"content {content} is not a partition")

    n = len(word)
    used = [False] * n
    remaining = n
    total = 0
    while remaining:
        # the largest remaining letter sets the next subword's span
        max_letter = max(word[i] for i in range(n) if not used[i])
        positions = []
        p = -1
        for letter in range(1, max_letter + 1):
            found = -1
            for step in range(n):
                i = (p + 1 + step) % n
                if not used[i] and word[i] == letter:
                    found = i
                    break
            if found < 0:
                raise DomainError(f"missing letter {letter} during extraction")
            used[found] = True
            positions.append(found)
            p = found
        subword = [word[i] for i in sorted(positions)]
        total += _charge_standard(subword)
        remaining -= len(positions)
    return total


def charge(tab: Ssyt) -> int:
    """Charge of a tableau; its content must be a partition."""
    content = tab.content
    if any(content[i] < content[i + 1] for i in range(len(content) - 1)):
        raise DomainError(f"content {content} is not a partition")
    if not tab.shape:
        return 0
    return charge_word(reading_word(tab))


def kostka_foulkes(shape: Partition, content: Partition) -> QtPolynomial:
    """Charge generating function over SSYT(shape, content), in t."""
    content = partition(content)
    terms: dict[tuple[int, int], int] = {}
    for tab in enumerate_ssyt(shape, content):
        e = (0, charge(tab))
        terms[e] = terms.get(e, 0) + 1
    return QtPolynomial(terms)
