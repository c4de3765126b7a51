"""Integer partitions, Young diagram statistics, and structural operations.

A partition is a plain ``tuple[int, ...]`` of weakly decreasing positive
integers; the empty partition is ``()``.  Cells are 1-based ``(row, col)``
pairs.  All functions treat partitions as immutable values.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError

Partition = tuple[int, ...]
Cell = tuple[int, int]


def partition(parts: Iterable[int]) -> Partition:
    """Normalize an iterable of parts into a partition, dropping zeros."""
    seq = [int(p) for p in parts]
    if any(p < 0 for p in seq):
        raise DomainError(f"negative part in {seq}")
    if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
        raise DomainError(f"parts not weakly decreasing: {seq}")
    return tuple(p for p in seq if p > 0)


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0]))


def cells(lam: Partition) -> Iterator[Cell]:
    """All cells of the diagram, row-major, 1-based."""
    for r, row_len in enumerate(lam, start=1):
        for c in range(1, row_len + 1):
            yield (r, c)


class DiagramStats(NamedTuple):
    """Arm, coarm, leg, coleg of one cell; content and hook are derived."""

    arm: int
    coarm: int
    leg: int
    coleg: int

    @property
    def content(self) -> int:
        return self.coarm - self.coleg

    @property
    def hook(self) -> int:
        return self.arm + self.leg + 1


def box_stats(lam: Partition) -> dict[Cell, DiagramStats]:
    """Every cell's arm/coarm/leg/coleg, keyed row-major, from one conjugate."""
    conj = conjugate(lam)
    return {
        (r, c): DiagramStats(lam[r - 1] - c, c - 1, conj[c - 1] - r, r - 1)
        for r, c in cells(lam)
    }


def hook_pairs(
    lam: Partition, arm_shift: int, leg_shift: int
) -> list[tuple[int, int]]:
    """(arm + arm_shift, leg + leg_shift) over the cells of lam, row-major."""
    return [(s.arm + arm_shift, s.leg + leg_shift) for s in box_stats(lam).values()]


def diagram_stats(lam: Partition, cell: Cell) -> DiagramStats:
    """Arm/coarm/leg/coleg of a cell that must lie inside the diagram."""
    stats = box_stats(lam).get(tuple(cell))
    if stats is None:
        raise DomainError(f"cell {cell} outside diagram of {lam}")
    return stats


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """True iff |mu| = |lam| and every prefix sum of mu is <= that of lam."""
    if sum(mu) != sum(lam):
        return False
    total_l = 0
    total_m = 0
    for i in range(max(len(mu), len(lam))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_m > total_l:
            return False
    return True


def n_stat(lam: Partition) -> int:
    """Sum of colegs over the diagram: sum (i-1)*lam_i."""
    return sum(i * p for i, p in enumerate(lam))


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order.

    Descending lex refines the dominance order, so matrices indexed this
    way are literally upper triangular.
    """
    if n < 0:
        raise DomainError(f"negative degree {n}")
    if n == 0:
        return ((),)
    result: list[Partition] = []

    def grow(remaining: int, bound: int, prefix: list[int]) -> None:
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(bound, remaining), 0, -1):
            prefix.append(part)
            grow(remaining - part, part, prefix)
            prefix.pop()

    grow(n, n, [])
    return tuple(result)


def ordered_dot(xs: Iterable, ys: Iterable, zero):
    """The sum of x * y over the pairs of xs and ys, in order, from ``zero``.

    A term is skipped when either factor is zero.  Only ring operations
    are used, so any exact entries (ints, Fractions, QtRationals) work,
    and the fixed order fixes a non-canonical form.
    """
    acc = zero
    for x, y in zip(xs, ys):
        if x and y:
            acc = acc + x * y
    return acc


def unitriangular_inverse(rows: list, zero):
    """The inverse of an upper unitriangular matrix, by back-substitution.

    Row i of the inverse X has X[i][j] = -sum_{k=i}^{j-1} X[i][k] rows[k][j],
    an ordered_dot over ascending k; the unit diagonal means no division.
    """
    size = len(rows)
    one = zero + 1
    inv = [[one if i == j else zero for j in range(size)] for i in range(size)]
    for i, row in enumerate(inv):
        for j in range(i + 1, size):
            row[j] = -ordered_dot(row[i:j], [r[j] for r in rows[i:j]], zero)
    return inv


def complement(lam: Partition, m: int, n: int) -> Partition:
    """Complement of lam inside the m-by-n rectangle (n rows of width m)."""
    if len(lam) > n or (lam and lam[0] > m):
        raise DomainError(f"{lam} does not fit inside ({m}^{n})")
    padded = list(lam) + [0] * (n - len(lam))
    return tuple(p for p in (m - v for v in reversed(padded)) if p > 0)


def split_rows(lam: Partition, r: int) -> tuple[Partition, Partition]:
    """Split into the first r rows and the rest."""
    if not (1 <= r <= len(lam)):
        raise DomainError(f"row index {r} out of range for {lam}")
    return lam[:r], lam[r:]


def subtract_rectangle(lam: Partition, rows: int, width: int) -> Partition:
    """Remove a (width^rows) rectangle column-wise from the left of lam."""
    if rows < 1 or width < 0:
        raise DomainError(f"bad rectangle {width}^{rows}")
    if len(lam) > rows or (width > 0 and len(lam) < rows):
        raise DomainError(f"rectangle {width}^{rows} not removable from {lam}")
    if any(p < width for p in lam):
        raise DomainError(f"rectangle {width}^{rows} not removable from {lam}")
    return tuple(p - width for p in lam if p - width > 0)
