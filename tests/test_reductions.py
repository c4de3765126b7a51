import pytest

from qtkostka.errors import DomainError
from qtkostka.macdonald import (
    build_matrices,
    c_prime_factors,
    k_coeff,
)
from qtkostka.partitions import conjugate, dominance_leq, partitions_of
from qtkostka.qt import Q, T, QtPolynomial, expand_factors
from qtkostka.reductions import (
    check_fmu_complement,
    classify_bz,
    decompose_irreducible,
    f_stat,
    f_stat_closed,
    fast_k,
    fast_k_multiplicity_one,
    is_irreducible_pair,
    transport_complement,
    verify_complement_identity,
)
from qtkostka.tableaux import kostka_number


def test_decompose_worked_example():
    tree = decompose_irreducible((5, 3, 3), (4, 4, 1, 1, 1))
    leaves = [(s.lam, s.mu) for s in tree.leaves()]
    assert leaves == [((2,), (1, 1)), ((3,), (1, 1, 1))]
    assert tree.kind == "row_split"
    assert (tree.rows, tree.width) == (2, 3)
    # the cofactor times the leaf c's reassembles c'_mu exactly
    reassembled = sorted(
        tree.cofactor + c_prime_factors((1, 1)) + c_prime_factors((1, 1, 1))
    )
    assert reassembled == sorted(c_prime_factors((4, 4, 1, 1, 1)))


def test_decompose_trivial_cases():
    tree = decompose_irreducible((3,), (1, 1, 1))
    assert tree.kind == "leaf"
    tree = decompose_irreducible((), ())
    assert tree.kind == "empty"
    assert tree.replay() == QtPolynomial.one()
    with pytest.raises(DomainError):
        decompose_irreducible((2, 2), (3, 1))


def test_decompose_identity_pair():
    # lambda == mu: the tree replays to c'_lambda
    for lam in [(2, 1), (3, 2, 1), (2, 2)]:
        tree = decompose_irreducible(lam, lam)
        assert tree.replay() == expand_factors(c_prime_factors(lam))


def test_replay_identity_small():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if not dominance_leq(mu, lam):
                    continue
                tree = decompose_irreducible(lam, mu)
                assert tree.replay() == k_coeff(lam, mu)


def test_is_irreducible():
    assert is_irreducible_pair((3,), (1, 1, 1))
    assert not is_irreducible_pair((2, 2), (2, 1, 1))
    assert not is_irreducible_pair((2, 1), (2, 1))


def test_classify_examples():
    assert classify_bz((2, 2), (2, 1, 1)).tag == "rectangle_case"
    assert classify_bz((3,), (1, 1, 1)).tag == "row_case"
    assert classify_bz((4, 2), (3, 2, 1)).tag == "not_multiplicity_one"
    assert classify_bz((2, 1), (1, 1, 1)).tag == "dual_row_case"
    assert classify_bz((3, 3), (2, 2, 2)).tag == "rectangle_case"
    assert classify_bz((3, 1), (2, 2)).tag == "dual_rectangle_case"
    with pytest.raises(DomainError):
        classify_bz((2, 1), (2, 1))  # reducible, no certificate
    with pytest.raises(DomainError):
        classify_bz((2, 2), (3, 1))  # not dominated


def test_classify_agrees_with_kostka_counts():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if not is_irreducible_pair(lam, mu):
                    continue
                cls = classify_bz(lam, mu)
                mult_one = (
                    kostka_number(lam, mu) == 1
                    or kostka_number(conjugate(mu), conjugate(lam)) == 1
                )
                assert cls.is_multiplicity_one == mult_one, (lam, mu)
                if cls.tag == "row_case":
                    assert kostka_number(lam, mu) == 1
                if cls.tag == "rectangle_case":
                    assert kostka_number(lam, mu) == 1
                if cls.tag in ("dual_row_case", "dual_rectangle_case"):
                    assert (
                        kostka_number(conjugate(mu), conjugate(lam)) == 1
                    )


def test_transport_complement_example():
    assert transport_complement((2, 2), (2, 1, 1), 2, 3) == ((2,), (1, 1))
    assert verify_complement_identity((2, 2), (2, 1, 1), 2, 3)
    assert transport_complement((2, 2, 2), (2, 2, 2), 2, 3) == ((), ())
    with pytest.raises(DomainError):
        transport_complement((4, 1), (3, 2), 3, 2)


def test_k2_transport_example():
    b4 = build_matrices(4)
    b2 = build_matrices(2)
    assert b4.k2.entry((2, 2), (2, 1, 1)) == b2.k2.entry((2,), (1, 1))


def test_fast_k_rectangle_case():
    cls = classify_bz((2, 2), (2, 1, 1))
    value = fast_k_multiplicity_one((2, 2), (2, 1, 1), cls)
    assert value == k_coeff((2, 2), (2, 1, 1))
    assert value == (1 - Q) ** 2 * (T - Q) * (1 - Q**2 * T**2)


def test_fast_k_row_and_column_cases():
    assert fast_k_multiplicity_one(
        (4,), (2, 1, 1), classify_bz((4,), (2, 1, 1))
    ) == k_coeff((4,), (2, 1, 1))
    assert fast_k_multiplicity_one(
        (2, 1), (1, 1, 1), classify_bz((2, 1), (1, 1, 1))
    ) == k_coeff((2, 1), (1, 1, 1))


def test_fast_k_dual_rectangle_case():
    cls = classify_bz((3, 1), (2, 2))
    assert cls.tag == "dual_rectangle_case"
    assert fast_k_multiplicity_one((3, 1), (2, 2), cls) == k_coeff(
        (3, 1), (2, 2)
    )


def test_fast_k_on_both_route_pair():
    # (3,3)/(2,2,2) matches both the primal and the dual rectangle form
    lam, mu = (3, 3), (2, 2, 2)
    want = k_coeff(lam, mu)
    assert fast_k_multiplicity_one(lam, mu, classify_bz(lam, mu)) == want
    from qtkostka.reductions import BzClass

    dual = BzClass("dual_rectangle_case", m=3, n=2)
    assert fast_k_multiplicity_one(lam, mu, dual) == want


def test_fast_k_equals_pipeline_on_mult_one_pairs():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if not dominance_leq(mu, lam):
                    continue
                value = fast_k(lam, mu)
                if value is not None:
                    assert value == k_coeff(lam, mu), (lam, mu)


def _split_product_matches(n, families=("k1", "k1_inv", "k2", "k2_inv")):
    """Row and column split identities, entrywise, wherever they apply."""
    big = build_matrices(n)
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            if not dominance_leq(mu, lam):
                continue
            # row splits: equal partial sums with both blocks full length
            for r in range(1, len(lam)):
                if sum(lam[:r]) != sum(mu[:r]) or len(mu) <= r:
                    continue
                blocks = ((lam[:r], mu[:r]), (lam[r:], mu[r:]))
                _check_blocks(big, lam, mu, blocks, families)
            # column splits at width w: both tops share first part w
            for w in range(1, min(lam[0], mu[0] if mu else 0)):
                lam1 = tuple(min(p, w) for p in lam)
                mu1 = tuple(min(p, w) for p in mu)
                lam2 = tuple(p - w for p in lam if p > w)
                mu2 = tuple(p - w for p in mu if p > w)
                if not (
                    dominance_leq(mu1, lam1) and dominance_leq(mu2, lam2)
                ):
                    continue
                blocks = ((lam1, mu1), (lam2, mu2))
                _check_blocks(big, lam, mu, blocks, families)


def _check_blocks(big, lam, mu, blocks, families):
    for name in families:
        whole = getattr(big, name).entry(lam, mu)
        product = None
        for block_lam, block_mu in blocks:
            part = getattr(build_matrices(sum(block_lam)), name).entry(
                block_lam, block_mu
            )
            product = part if product is None else product * part
        assert whole == product, (name, lam, mu, blocks)


def test_row_and_column_split_identities():
    for n in range(2, 7):
        _split_product_matches(n)


def test_rectangle_prepend_cofactor():
    # k for ((3,2,1),(3,1,1,1)) = cofactor * k((2,1),(1,1,1)) via the tree
    tree = decompose_irreducible((3, 2, 1), (3, 1, 1, 1))
    assert tree.rows == 1 and tree.width == 3
    leaves = [(s.lam, s.mu) for s in tree.leaves() if s.kind == "leaf"]
    assert leaves == [((2, 1), (1, 1, 1))]
    assert tree.replay() == k_coeff((3, 2, 1), (3, 1, 1, 1))


def test_f_stat_examples():
    assert f_stat((1,)) == QtPolynomial.one()
    assert f_stat((2,)) == 1 + Q
    assert f_stat((2, 1)) == Q * T + 2
    assert f_stat(()) == QtPolynomial.zero()


def test_f_stat_closed_form_agrees():
    for n in range(9):
        for mu in partitions_of(n):
            assert f_stat(mu) == f_stat_closed(mu), mu


def test_fmu_complement_self_complementary():
    res = check_fmu_complement((1, 1), 2, 1)
    assert res.difference.is_zero
    assert res.hypotheses_hold
    assert res.closed_form == res.difference


def test_fmu_complement_guard_path():
    # mu_1 = m violates the closed form's hypothesis; difference still computed
    res = check_fmu_complement((2, 1, 1), 2, 2)
    assert not res.hypotheses_hold
    assert res.closed_form is None
    assert res.difference == Q * T**2 + 1  # (qt^2 + t + 2) - (t + 1)


def test_fmu_complement_nonneg_case():
    res = check_fmu_complement((2, 2, 2), 3, 2)
    assert res.hypotheses_hold and res.nonneg_expected
    assert res.difference == Q * (1 + T + T**2)
    assert res.closed_form == res.difference


def test_fmu_complement_sweep():
    from helpers import is_nonneg_polynomial

    for m in range(1, 5):
        for n in range(1, 4):
            for s in range(m * (n + 1) + 1):
                for mu in partitions_of(s):
                    if len(mu) > n + 1 or (mu and mu[0] > m):
                        continue
                    res = check_fmu_complement(mu, m, n)
                    if res.hypotheses_hold:
                        assert res.closed_form == res.difference, (mu, m, n)
                    if res.nonneg_expected:
                        assert is_nonneg_polynomial(res.difference), (mu, m, n)
