import hashlib
import json

import pytest

from qtkostka.errors import DomainError
from qtkostka.haglund import (
    COVERAGE_CONJECTURE,
    COVERAGE_MULT_ONE,
    COVERAGE_ROW_OR_COL,
    check_pair,
    pair_verdicts,
    generic_quotient,
    scan,
)
from qtkostka.partitions import (
    cells,
    diagram_stats,
    dominance_leq,
    n_stat,
    partitions_of,
)
from qtkostka.qt import T, QtPolynomial, t_number
from qtkostka.tableaux import kostka_foulkes


def test_check_pair_examples():
    v = check_pair((2,), (1, 1), 2)
    assert v.quotient == T * (1 + T)
    assert v.is_nonnegative and not v.is_zero
    assert v.coverage == COVERAGE_ROW_OR_COL

    v = check_pair((2,), (1, 1), 1)
    assert v.is_zero  # l(mu) = 2 > k = 1

    for k in range(4):
        v = check_pair((1,), (1,), k)
        assert v.quotient == t_number(k)


def test_closed_row_examples():
    assert check_pair((2,), (1, 1), 2).quotient == T * (1 + T)
    assert check_pair((3,), (1, 1, 1), 2).is_zero  # l(mu) > k
    assert check_pair((1,), (1,), 0).is_zero  # l(mu) = 1 > 0
    with pytest.raises(DomainError):
        check_pair((3,), (2,), 1)


def test_closed_column_examples():
    # lambda_1 > k forces a zero factor
    v = check_pair((3, 1), (1,) * 4, 2)
    assert v.route == "closed_column" and v.is_zero
    # k = lambda_1 keeps every content factor positive
    assert not check_pair((2, 2), (1,) * 4, 2).is_zero


def _t_numbers(p, js):
    # p [j_1]_t [j_2]_t ..., with [j]_t = 0 for j <= 0
    for j in js:
        p = p * t_number(max(j, 0))
    return p


def test_closed_routes_match_product_formulas():
    # the paper's product formulas, built with multiplication alone:
    # lambda = (n) gives t^n(mu) prod [k(a'+1) - l']_t over the cells of
    # mu, and mu = 1^n gives K(lambda, 1^n)(t) prod [k - c]_t over the
    # cells of lambda; at lambda = (n) both formulas give the one verdict
    ks = range(9)
    for n in range(1, 8):
        ones = (1,) * n
        for shape in partitions_of(n):
            stats = [diagram_stats(shape, x) for x in cells(shape)]
            hook_form = kostka_foulkes(shape, ones)
            row = pair_verdicts((n,), shape, ks)
            column = pair_verdicts(shape, ones, ks)
            for k, v_row, v_column in zip(ks, row, column):
                want_row = _t_numbers(
                    QtPolynomial.monomial(1, 0, n_stat(shape)),
                    [k * (s.coarm + 1) - s.coleg for s in stats],
                )
                want_column = _t_numbers(hook_form, [k - s.content for s in stats])
                assert v_row.is_polynomial and v_column.is_polynomial
                assert v_row.quotient == want_row, (shape, k)
                assert v_column.quotient == want_column, (shape, k)
                assert v_row.route == "closed_row"
                if len(shape) > 1:
                    assert v_column.route == "closed_column"


def test_routes_agree_exhaustively():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if not dominance_leq(mu, lam):
                    continue
                for k in range(5):
                    v = check_pair(lam, mu, k)
                    quotient, exact = generic_quotient(lam, mu, k)
                    assert exact == v.is_polynomial
                    assert quotient == v.quotient, (lam, mu, k, v.route)


def test_coverage_tags():
    assert check_pair((4,), (2, 1, 1), 1).coverage == COVERAGE_ROW_OR_COL
    assert check_pair((2, 2), (2, 1, 1), 2).coverage == COVERAGE_MULT_ONE
    assert check_pair((2, 2, 1, 1), (1,) * 6, 0).coverage == COVERAGE_ROW_OR_COL
    assert check_pair((4, 2), (3, 2, 1), 2).coverage == COVERAGE_CONJECTURE


def test_check_pair_incomparable_is_zero():
    v = check_pair((3, 3), (4, 1, 1), 2)
    assert v.is_zero and v.is_nonnegative
    assert v.route == "dominance_zero"


def test_scan_small():
    report = scan(2, 2)
    assert report.summary()["violations"] == 0
    # every pair at n <= 2 is theorem-covered
    assert report.summary()["by_coverage"][COVERAGE_CONJECTURE] == 0
    assert report.max_n == 2


def test_scan_empty():
    report = scan(0, 3)
    assert report.verdicts == ()
    assert report.summary()["pairs_checked"] == 0


def test_scan_parallel_matches_serial():
    serial = scan(4, 2, jobs=1)
    parallel = scan(4, 2, jobs=2)
    assert [v.to_obj() for v in serial.verdicts] == [
        v.to_obj() for v in parallel.verdicts
    ]


def test_scan_n4_tags():
    report = scan(4, 3)
    assert report.summary()["violations"] == 0
    tags = {
        (v.lam, v.mu): v.coverage for v in report.verdicts if v.k == 0
    }
    assert tags[((2, 2), (2, 1, 1))] == COVERAGE_MULT_ONE
    assert tags[((4,), (2, 2))] == COVERAGE_ROW_OR_COL


def test_known_quotient_value():
    # quotient for ((2,1),(1^3), k=2) is t(1+t)^2(1+t+t^2)
    v = check_pair((2, 1), (1, 1, 1), 2)
    assert v.is_nonnegative
    expected, exact = generic_quotient((2, 1), (1, 1, 1), 2)
    assert exact and v.quotient == expected
    assert v.quotient == T * (1 + T) ** 2 * (1 + T + T**2)


def test_pair_verdicts_match_check_pair_per_k():
    ks = [3, 0, 5, 1]
    pairs = [
        ((4,), (2, 1, 1)),  # closed_row
        ((3, 1), (1, 1, 1, 1)),  # closed_column, zero for k < 3
        ((2, 2), (2, 1, 1)),  # mult_one_tree
        ((4, 2), (3, 2, 1)),  # reduction_pipeline
        ((3, 3), (4, 1, 1)),  # dominance_zero
    ]
    for lam, mu in pairs:
        together = pair_verdicts(lam, mu, ks)
        assert [v.k for v in together] == ks
        assert together == [check_pair(lam, mu, k) for k in ks]
    assert pair_verdicts((3, 1), (1, 1, 1, 1), [0, 1, 2])[2].is_zero
    assert pair_verdicts((2, 1), (1, 1, 1), []) == []
    with pytest.raises(DomainError):
        pair_verdicts((2, 1), (1, 1, 1), [2, -1])


# SHA-256 of json.dumps(scan(6, 24).to_obj(), sort_keys=True): 2925
# verdicts, one per k for each pair, byte for byte as the per-k checks
# made them
SCAN_6_24_SHA256 = "cbe44367a42296847e5809e7c705d934e63e26725ffdc1e9f5729ed7dbf25468"


def test_scan_golden():
    obj = scan(6, 24).to_obj()
    assert obj["summary"]["pairs_checked"] == 2925
    assert obj["summary"]["violations"] == 0
    digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert digest == SCAN_6_24_SHA256
