import hashlib
import itertools
import json
import os
import pickle

import pytest

from qtkostka import haglund, reductions
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
    conjugate,
    diagram_stats,
    dominance_leq,
    n_stat,
    partitions_of,
)
from qtkostka.qt import Q, T, QtPolynomial, divide_at_q_power, t_number
from qtkostka.reductions import classify_bz, decompose_irreducible
from qtkostka.tableaux import kostka_foulkes, kostka_number


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


def _assert_verdict_is_division(v, value, n):
    # the verdict's row against the polynomial division of the same value
    r = divide_at_q_power(value, v.k, n)
    where = (v.lam, v.mu, v.k, v.route)
    assert v.quotient == r.quotient, where
    assert v.is_polynomial == r.exact, where
    assert v.is_nonnegative == r.nonnegative, where
    assert v.is_zero == (r.exact and r.quotient.is_zero), where
    want = None if r.quotient is None else r.quotient.to_obj()
    assert v.to_obj()["quotient"] == want, where


def test_routes_agree_exhaustively():
    # the scan's routes (closed forms, the tree with closed-form leaves,
    # k_coeff on the whole pair) against the tree with k_coeff leaves,
    # divided as a polynomial; pairs off the dominance order are 0
    ks = range(9)
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if dominance_leq(mu, lam):
                    value = decompose_irreducible(lam, mu).replay()
                else:
                    value = QtPolynomial.zero()
                for v in pair_verdicts(lam, mu, ks):
                    _assert_verdict_is_division(v, value, n)


def test_verdict_rows_with_zeros_negatives_and_remainders(monkeypatch):
    # no scan verdict to degree 6 has a zero inside its row, a negative
    # term or a remainder, so a stubbed pipeline value supplies them
    lam, mu = (4, 2), (3, 2, 1)
    t_inv = QtPolynomial.monomial(1, 0, -1)
    values = [
        (1 - T) ** 6 * (1 + 2 * T**2),  # a zero between two terms
        (1 - T) ** 6 * (1 + Q - T),  # 2 - t at k = 0; the top term cancels at k = 1
        (1 - T) ** 6 * (3 + t_inv),  # a negative exponent only
        (1 - T) ** 6 * (Q - T),  # zero at k = 1 only
        (1 - T) ** 4 * T,  # two divisions short
        QtPolynomial.zero(),
    ]
    for value in values:
        monkeypatch.setattr(haglund, "k_coeff", lambda lam, mu: value)
        verdicts = pair_verdicts(lam, mu, range(4))
        assert {v.route for v in verdicts} == {"reduction_pipeline"}
        for v in verdicts:
            _assert_verdict_is_division(v, value, 6)


def test_verdicts_survive_pickling():
    # the --jobs pool sends verdicts back from its workers by pickle
    pairs = [
        ((4,), (2, 1, 1)),  # closed_row
        ((3, 1), (1, 1, 1, 1)),  # closed_column
        ((2, 2), (2, 1, 1)),  # mult_one_tree
        ((4, 2), (3, 2, 1)),  # reduction_pipeline
        ((3, 3), (4, 1, 1)),  # dominance_zero
    ]
    routes = set()
    for lam, mu in pairs:
        v = check_pair(lam, mu, 3)
        routes.add(v.route)
        copy = pickle.loads(pickle.dumps(v))
        assert copy == v
        assert copy.to_obj() == v.to_obj()
    assert len(routes) == len(pairs)


def _dominance_pairs(max_n):
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if dominance_leq(mu, lam):
                    yield n, lam, mu


def _theorem_pair(lam, mu):
    # the paper's theorem covers K(lambda, mu) = 1 or K(mu', lambda') = 1
    return (
        kostka_number(lam, mu) == 1
        or kostka_number(conjugate(mu), conjugate(lam)) == 1
    )


def _cofactors(tree):
    # every cofactor (a, b) of every node; leaves have none
    below = (c for child in tree.children for c in _cofactors(child))
    return [*tree.cofactor, *below]


def test_theorem_pairs_have_multiplicity_one_trees():
    # the converse that lets the route set the tag: every pair the
    # theorem covers outside the closed shapes takes mult_one_tree, so
    # none falls to the pipeline and loses its tag
    for n, lam, mu in _dominance_pairs(12):
        if len(lam) <= 1 or mu == (1,) * n or not _theorem_pair(lam, mu):
            continue
        for leaf in decompose_irreducible(lam, mu).leaves():
            if leaf.kind == "leaf":
                cls = classify_bz(leaf.lam, leaf.mu)
                assert cls.is_multiplicity_one, (lam, mu, leaf)


def test_product_rule_premises():
    # (i) the cofactors and the leaves' sizes add up to n, so (1 - t)^n
    # gives one 1 - t to each cofactor 1 - q^a t^b, which a >= 1 turns
    # into (1 - t)[ka + b]_t at q = t^k, and |leaf| to each leaf;
    # (ii) the paper's theorem applies to each multiplicity-one leaf
    for n, lam, mu in _dominance_pairs(12):
        tree = decompose_irreducible(lam, mu)
        cofactors, leaves = _cofactors(tree), tree.leaves()
        assert len(cofactors) + sum(sum(leaf.lam) for leaf in leaves) == n
        assert all(a >= 1 for a, _ in cofactors), (lam, mu)
        for leaf in leaves:
            if leaf.kind == "empty":
                continue
            if classify_bz(leaf.lam, leaf.mu).is_multiplicity_one:
                assert _theorem_pair(leaf.lam, leaf.mu), (lam, mu, leaf)


def test_product_rule_covers_a_pair_with_kostka_two():
    # the tree row-splits into (3)/(2,1) and (2,1)/(1,1,1), both
    # multiplicity one, so the theorem covers every leaf although
    # K = 2 both ways on the whole pair
    lam, mu = (5, 2, 2, 1), (4, 3, 1, 1, 1)
    assert kostka_number(lam, mu) == 2
    assert kostka_number(conjugate(mu), conjugate(lam)) == 2
    leaves = decompose_irreducible(lam, mu).leaves()
    assert [(leaf.lam, leaf.mu) for leaf in leaves] == [
        ((3,), (2, 1)),
        ((2, 1), (1, 1, 1)),
    ]
    (v,) = pair_verdicts(lam, mu, (0,))
    assert v.route == "mult_one_tree"
    assert v.coverage == COVERAGE_MULT_ONE


def test_pair_verdicts_builds_at_most_one_tree(monkeypatch):
    built = []
    decompose = reductions.decompose_irreducible

    def counting(lam, mu):
        built.append((tuple(lam), tuple(mu)))
        return decompose(lam, mu)

    monkeypatch.setattr(reductions, "decompose_irreducible", counting)
    monkeypatch.setattr(haglund, "decompose_irreducible", counting)
    routes = set()
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if dominance_leq(mu, lam):
                    built.clear()
                    routes.add(pair_verdicts(lam, mu, [2])[0].route)
                    # subtrees recurse through the same binding
                    assert built.count((lam, mu)) <= 1, (lam, mu)
    assert {"mult_one_tree", "reduction_pipeline"} <= routes


def test_pipeline_pair_evaluates_no_closed_form_leaf(monkeypatch):
    # each tree has one leaf with a BZ certificate and one without, the
    # certified leaf first in the first tree and last in the second
    pairs = [
        ((5, 3, 3, 1), (4, 4, 2, 1, 1)),
        ((5, 3, 2, 2), (4, 3, 3, 1, 1)),
    ]
    whole = []

    def no_leaf(*args):
        raise AssertionError(f"closed-form leaf {args[:2]} evaluated")

    # k at degree 12 is slow, and only the route is under test here
    monkeypatch.setattr(reductions, "fast_k_multiplicity_one", no_leaf)
    monkeypatch.setattr(
        haglund, "k_coeff", lambda lam, mu: whole.append((lam, mu)) or T
    )
    for lam, mu in pairs:
        tags = [
            classify_bz(leaf.lam, leaf.mu).is_multiplicity_one
            for leaf in decompose_irreducible(lam, mu).leaves()
        ]
        assert sorted(tags) == [False, True]
        (v,) = pair_verdicts(lam, mu, [1])
        assert v.route == "reduction_pipeline"
    assert whole == pairs


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
    # (6, 2) gives the pool eight contiguous chunks, three spanning degrees
    for max_n, max_k in [(4, 2), (6, 2)]:
        serial = scan(max_n, max_k, jobs=1)
        parallel = scan(max_n, max_k, jobs=2)
        assert [v.to_obj() for v in serial.verdicts] == [
            v.to_obj() for v in parallel.verdicts
        ]


class _SerialContext:
    """A stand-in for a fork context whose pools map in this process."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.calls = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, items):
        self.calls.append(list(items))
        return list(itertools.starmap(fn, self.calls[-1]))


def test_scan_jobs_capped_at_core_count(monkeypatch):
    import multiprocessing

    serial = scan(4, 2, jobs=1)
    sizes = []
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda method: _SerialContext(sizes)
    )
    # 25 pairs: enough for a pool of 8 workers, were they not capped
    capped = scan(4, 2, jobs=8)
    assert sizes == [2]
    assert json.dumps(capped.to_obj()) == json.dumps(serial.to_obj())


def test_scan_pool_maps_each_pair_once_in_scan_order(monkeypatch):
    import multiprocessing

    serial = scan(5, 2, jobs=1)
    context = _SerialContext([])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
    pooled = scan(5, 2, jobs=2)
    # one starmap over every pair, each with every k, in the serial order
    (args,) = context.calls
    assert [(lam, mu) for lam, mu, _ in args] == [
        (v.lam, v.mu) for v in serial.verdicts if v.k == 0
    ]
    assert all(list(ks) == [0, 1, 2] for _, _, ks in args)
    assert pooled == serial


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
