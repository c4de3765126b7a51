from itertools import product

import pytest

from qtkostka.errors import DomainError
from qtkostka.partitions import partitions_of, split_rows
from qtkostka.qt import QtPolynomial, T
from qtkostka.tableaux import (
    Ssyt,
    charge,
    charge_word,
    enumerate_ssyt,
    is_horizontal_strip,
    kostka_foulkes,
    kostka_number,
    reading_word,
)


def brute_force_fillings(shape, content):
    """Independent SSYT count: grow row fillings cell by cell."""
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]
    counts = list(content)
    grid = [[0] * row_len for row_len in shape]
    found = []

    def fill(pos):
        if pos == len(cells):
            found.append([row[:] for row in grid])
            return
        r, c = cells[pos]
        for letter in range(1, len(counts) + 1):
            if counts[letter - 1] == 0:
                continue
            if c > 0 and grid[r][c - 1] > letter:
                continue
            if r > 0 and grid[r - 1][c] >= letter:
                continue
            counts[letter - 1] -= 1
            grid[r][c] = letter
            fill(pos + 1)
            grid[r][c] = 0
            counts[letter - 1] += 1

    fill(0)
    return found


def test_horizontal_strip_predicate():
    assert is_horizontal_strip((2,), (1,))
    assert is_horizontal_strip((3, 1), (2,))
    assert not is_horizontal_strip((1, 1), ())
    assert is_horizontal_strip((2, 2), (2,))  # one new box per column
    assert not is_horizontal_strip((2, 2), (1,))
    assert is_horizontal_strip((2, 1), (2, 1))


def test_enumerate_ssyt_examples():
    tabs = list(enumerate_ssyt((2, 1), (1, 1, 1)))
    assert len(tabs) == 2
    assert {tuple(map(tuple, t.rows())) for t in tabs} == {
        ((1, 2), (3,)),
        ((1, 3), (2,)),
    }
    assert len(list(enumerate_ssyt((3, 1), (3, 1)))) == 1
    assert list(enumerate_ssyt((1, 1), (2,))) == []
    with pytest.raises(DomainError):
        list(enumerate_ssyt((2,), (1, 1, 1)))


def test_enumerate_ssyt_composition_content():
    # weak compositions are accepted; zero steps repeat the shape
    tabs = list(enumerate_ssyt((2, 1), (1, 0, 2)))
    assert len(tabs) == 1
    assert tabs[0].rows() == [[1, 3], [3]]
    assert kostka_number((2, 1), (1, 0, 2)) == 1
    # every content with a zero part, in any position, of at most 4 parts
    for n in range(6):
        for k in range(1, 5):
            for mu in product(range(n + 1), repeat=k):
                if sum(mu) != n or 0 not in mu:
                    continue
                for lam in partitions_of(n):
                    count = len(list(enumerate_ssyt(lam, mu)))
                    assert kostka_number(lam, mu) == count
                    assert len(brute_force_fillings(lam, mu)) == count
    # zero parts first and last, and a long zero padding: a zero part
    # adds no strip step, so it must not deepen the column recursion
    for mu in [(0, 2, 1), (2, 1, 0)]:
        for lam in partitions_of(3):
            assert kostka_number(lam, mu) == len(list(enumerate_ssyt(lam, mu)))
    assert kostka_number((1,), (0,) * 2000 + (1,)) == 1


def test_ssyt_round_trip():
    for tab in enumerate_ssyt((3, 2, 1), (2, 2, 1, 1)):
        assert Ssyt.from_rows(tab.rows()) == tab
        assert tab.shape == (3, 2, 1)
        assert tab.content == (2, 2, 1, 1)


def test_kostka_number_examples():
    assert kostka_number((3, 1), (2, 1, 1)) == 2
    assert kostka_number((2, 2), (2, 1, 1)) == 1
    assert kostka_number((1, 1), (2,)) == 0
    assert kostka_number((2,), (1, 1, 1)) == 0  # size mismatch
    assert kostka_number((), ()) == 1


def test_kostka_number_rejects_negative_content():
    # the same input enumerate_ssyt rejects, not a count of 0
    with pytest.raises(DomainError, match="negative content"):
        kostka_number((2,), (3, -1))
    with pytest.raises(DomainError, match="negative content"):
        list(enumerate_ssyt((2,), (3, -1)))


def test_kostka_number_vs_brute_force():
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                brute = len(brute_force_fillings(lam, mu))
                assert kostka_number(lam, mu) == brute
                assert len(list(enumerate_ssyt(lam, mu))) == brute


def test_kostka_zero_unless_dominated_and_diag_one():
    from qtkostka.partitions import dominance_leq

    for n in range(7):
        for lam in partitions_of(n):
            assert kostka_number(lam, lam) == 1
            for mu in partitions_of(n):
                if not dominance_leq(mu, lam):
                    assert kostka_number(lam, mu) == 0


def test_reading_word_convention():
    tab = Ssyt.from_rows([[1, 2], [3]])
    assert reading_word(tab) == [2, 1, 3]


def test_charge_known_values():
    # superstandard filling has charge 0
    assert charge(Ssyt.from_rows([[1, 1], [2]])) == 0
    assert charge(Ssyt.from_rows([[1, 1, 1]])) == 0
    charges = sorted(
        charge(t) for t in enumerate_ssyt((2, 1), (1, 1, 1))
    )
    assert charges == [1, 2]
    assert charge(Ssyt.from_rows([[1, 2]])) == 1
    assert charge_word([2, 1, 4, 3]) == 4
    assert charge_word([3, 1, 4, 2]) == 2
    assert charge_word([1, 1, 3, 2]) == 1


def test_charge_rejects_non_partition_content():
    with pytest.raises(DomainError):
        charge(Ssyt.from_rows([[1, 2, 2]]))


def test_kostka_foulkes_examples():
    assert kostka_foulkes((2, 1), (1, 1, 1)) == T + T**2
    assert kostka_foulkes((2,), (1, 1)) == T
    assert kostka_foulkes((3, 1), (3, 1)) == QtPolynomial.one()
    assert kostka_foulkes((2, 2), (2, 1, 1)) == T
    assert kostka_foulkes((2, 2), (1, 1, 1, 1)) == T**2 + T**4


def test_kostka_foulkes_at_one_is_kostka():
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                kf = kostka_foulkes(lam, mu)
                assert kf.at_t_one() == QtPolynomial.from_int(
                    kostka_number(lam, mu)
                )


def test_row_split_multiplicativity():
    # K factorizes when partial sums agree with matching block lengths
    for n in range(2, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if kostka_number(lam, mu) == 0:
                    continue
                for r in range(1, len(lam)):
                    if sum(lam[:r]) != sum(mu[:r]) or len(mu) < r:
                        continue
                    if mu[r - 1] == 0:
                        continue
                    l1, l2 = split_rows(lam, r)
                    m1, m2 = mu[:r], mu[r:]
                    assert kostka_number(lam, mu) == kostka_number(
                        l1, m1
                    ) * kostka_number(l2, m2)
