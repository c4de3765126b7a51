from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtkostka.errors import DomainError
from qtkostka.partitions import (
    box_stats,
    cells,
    complement,
    conjugate,
    diagram_stats,
    dominance_leq,
    n_stat,
    partition,
    partitions_of,
    split_rows,
    subtract_rectangle,
    unitriangular_inverse,
)


@st.composite
def partitions(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return draw(st.sampled_from(partitions_of(n)))


def test_partition_normalization():
    assert partition([5, 3, 3, 0, 0]) == (5, 3, 3)
    assert partition([]) == ()
    with pytest.raises(DomainError):
        partition([1, 2])
    with pytest.raises(DomainError):
        partition([3, -1])


def test_diagram_stats_paper_figure():
    # lambda = (8,7,4,4,1), cell (2,4)
    s = diagram_stats((8, 7, 4, 4, 1), (2, 4))
    assert (s.arm, s.coarm, s.leg, s.coleg) == (3, 3, 2, 1)


def test_diagram_stats_small():
    s = diagram_stats((1,), (1, 1))
    assert (s.arm, s.coarm, s.leg, s.coleg) == (0, 0, 0, 0)
    s = diagram_stats((3, 2), (1, 1))
    assert (s.arm, s.coarm, s.leg, s.coleg) == (2, 0, 1, 0)
    assert s.hook == 4
    assert s.content == 0
    with pytest.raises(DomainError):
        diagram_stats((3, 2), (2, 3))


def test_box_stats_counts_the_cells_around_each_cell():
    # every partition to degree 10, each statistic counted off the set of
    # cells rather than read from the conjugate
    for n in range(11):
        for lam in partitions_of(n):
            table = box_stats(lam)
            assert list(table) == list(cells(lam))
            shape = set(cells(lam))
            for (r, c), s in table.items():
                assert s.arm == sum((r, j) in shape for j in range(c + 1, n + 1))
                assert s.leg == sum((i, c) in shape for i in range(r + 1, n + 1))
                assert s.coarm == sum((r, j) in shape for j in range(1, c))
                assert s.coleg == sum((i, c) in shape for i in range(1, r))
                assert diagram_stats(lam, [r, c]) == s
            past_rows = [(r, p + 1) for r, p in enumerate(lam, start=1)]
            for cell in [(0, 1), (1, 0)] + past_rows:
                with pytest.raises(DomainError):
                    diagram_stats(lam, cell)


def test_dominance():
    assert dominance_leq((2, 1, 1), (3, 1))
    assert dominance_leq((4, 2), (4, 2))
    assert not dominance_leq((3, 3), (4, 1, 1))
    assert not dominance_leq((2,), (1, 1))
    assert not dominance_leq((3,), (2, 1, 1))  # size mismatch


def test_n_stat():
    assert n_stat((2, 1)) == 1
    assert n_stat(()) == 0
    assert n_stat((1, 1, 1)) == 3


def test_partitions_of_descending_lex():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(0) == ((),)
    assert len(partitions_of(7)) == 15


@given(partitions())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


def test_dominance_conjugate_reversal_exhaustive():
    for n in range(9):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                assert dominance_leq(mu, lam) == dominance_leq(
                    conjugate(lam), conjugate(mu)
                )


def test_lex_refines_dominance():
    for n in range(9):
        parts = partitions_of(n)
        pos = {p: i for i, p in enumerate(parts)}
        for lam in parts:
            for mu in parts:
                if dominance_leq(mu, lam) and mu != lam:
                    assert pos[lam] < pos[mu]


def test_complement_paper_figure():
    # definition wins over the mislabeled figure: sizes must add to m*n
    assert complement((8, 7, 4, 4, 2), 9, 5) == (7, 5, 5, 2, 1)
    assert complement((3, 3), 3, 2) == ()
    assert complement((3, 1), 3, 2) == (2,)
    with pytest.raises(DomainError):
        complement((4, 1), 3, 2)


def test_complement_involution_and_size():
    for m in range(1, 6):
        for n in range(1, 6):
            for s in range(m * n + 1):
                for lam in partitions_of(s):
                    if len(lam) > n or (lam and lam[0] > m):
                        continue
                    comp = complement(lam, m, n)
                    assert sum(lam) + sum(comp) == m * n
                    assert complement(comp, m, n) == lam


def test_split_rows():
    assert split_rows((5, 3, 3), 2) == ((5, 3), (3,))
    assert split_rows((4,), 1) == ((4,), ())
    assert split_rows((3, 2, 1), 3) == ((3, 2, 1), ())
    with pytest.raises(DomainError):
        split_rows((3, 2), 3)


def test_subtract_rectangle():
    assert subtract_rectangle((5, 3), 2, 3) == (2,)
    assert subtract_rectangle((4, 4), 2, 3) == (1, 1)
    assert subtract_rectangle((2, 2), 2, 2) == ()
    with pytest.raises(DomainError):
        subtract_rectangle((5, 2), 2, 3)
    with pytest.raises(DomainError):
        subtract_rectangle((5,), 2, 3)


@given(partitions(), st.integers(min_value=1, max_value=6))
def test_split_then_concatenate(lam, r):
    if r > len(lam):
        return
    top, rest = split_rows(lam, r)
    assert top + rest == lam


@st.composite
def unitriangular(draw, entries, one):
    """An upper unitriangular matrix of size <= 7 with ``entries`` above
    the diagonal."""
    size = draw(st.integers(min_value=0, max_value=7))
    return [
        [one if i == j else draw(entries) if j > i else 0 * one for j in range(size)]
        for i in range(size)
    ]


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@given(
    st.one_of(
        unitriangular(st.integers(min_value=-9, max_value=9), 1),
        unitriangular(
            st.fractions(min_value=-4, max_value=4, max_denominator=6), Fraction(1)
        ),
    )
)
@settings(max_examples=200, deadline=None)
def test_unitriangular_inverse_is_a_two_sided_inverse(a):
    zero = 0 * a[0][0] if a else 0
    inv = unitriangular_inverse(a, zero)
    identity = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    assert _product(inv, a) == identity
    assert _product(a, inv) == identity
    # integer input stays in the integers: no division happens
    if all(type(x) is int for row in a for x in row):
        assert all(type(x) is int for row in inv for x in row)
