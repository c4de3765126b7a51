"""Acceptance suite: one test per criterion, exact assertions only.

Each test prints a single PASS line (visible with -s or in failure
output); tolerances are literal equality because all arithmetic is
exact.
"""

import time

from helpers import is_nonneg_polynomial
from qtkostka.cli import oracle_verify_degree
from qtkostka.macdonald import (
    build_matrices,
    c_prime_factors,
    closed_form_column,
    closed_form_row,
    k_coeff,
)
from qtkostka.oracle import check_Qn_plethysm
from qtkostka.partitions import (
    complement,
    conjugate,
    dominance_leq,
    partitions_of,
)
from qtkostka.qt import expand_factors
from qtkostka.reductions import (
    check_fmu_complement,
    classify_bz,
    decompose_irreducible,
    f_stat,
    f_stat_closed,
    is_irreducible_pair,
)
from qtkostka.haglund import COVERAGE_CONJECTURE, scan
from qtkostka.tableaux import kostka_foulkes, kostka_number


def test_a1_oracle_equivalence():
    start = time.time()
    for n in range(1, 6):
        result = oracle_verify_degree(n)
        assert result["k1_match"], f"oracle mismatch at n={n}"
    elapsed = time.time() - start
    assert elapsed < 120, f"oracle equivalence took {elapsed:.1f}s"
    print(f"A1 oracle equivalence n<=5 ({elapsed:.1f}s): PASS")


def test_a2_kostka_factorization():
    for n in range(7):
        b = build_matrices(n)
        assert (b.k2 @ b.k1) == b.kostka, f"K != K2*K1 at n={n}"
    print("A2 K = K2*K1 for n<=6: PASS")


def test_a3_charge_pin_down():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert k_coeff(lam, mu).at_q_zero() == kostka_foulkes(
                    lam, mu
                ), (lam, mu)
    print("A3 k(0,t) = charge Kostka-Foulkes for n<=6: PASS")


def test_a4_t_one_specialization():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                lhs = k_coeff(lam, mu).at_t_one()
                rhs = expand_factors(c_prime_factors(mu)).at_t_one() * (
                    kostka_number(lam, mu)
                )
                assert lhs == rhs, (lam, mu)
    print("A4 K2(q,1) = Kostka numbers for n<=6: PASS")


def test_a5_duality():
    for n in range(1, 6):
        b = build_matrices(n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                lhs = b.k2.entry(lam, mu)
                rhs = b.k2_inv.entry(conjugate(mu), conjugate(lam)).swap_qt()
                assert lhs == rhs, (lam, mu)
    print("A5 K2(q,t) = K2^-1 conjugate-swapped for n<=5: PASS")


def test_a6_polynomiality():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                value = k_coeff(lam, mu)  # raises if a denominator survives
                assert value.is_genuine_polynomial(), (lam, mu)
    print("A6 every k is denominator-free for n<=6: PASS")


def test_a7_closed_forms():
    for n in range(1, 7):
        ones = (1,) * n
        for mu in partitions_of(n):
            assert closed_form_row(n, mu) == k_coeff((n,), mu), mu
            assert closed_form_column(mu, n) == k_coeff(mu, ones), mu
    print("A7 row/column closed forms match the pipeline for n<=6: PASS")


def test_a8_reduction_replay():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if not dominance_leq(mu, lam):
                    continue
                tree = decompose_irreducible(lam, mu)
                assert tree.replay() == k_coeff(lam, mu), (lam, mu)
    # the 533/44111 factorization at n=11, leaves evaluated at tiny degree
    tree = decompose_irreducible((5, 3, 3), (4, 4, 1, 1, 1))
    leaves = [(s.lam, s.mu) for s in tree.leaves()]
    assert leaves == [((2,), (1, 1)), ((3,), (1, 1, 1))]
    k2_small = build_matrices(2).k2.entry((2,), (1, 1))
    k2_three = build_matrices(3).k2.entry((3,), (1, 1, 1))
    product = k2_small * k2_three
    # K2_{533,44111} = k_{533,44111} / c'_{44111}; the tree's value for k
    # must therefore equal the product of the two leaf K2 entries times c'
    big_cprime = expand_factors(c_prime_factors((4, 4, 1, 1, 1)))
    assert tree.replay() == (product * big_cprime).as_polynomial()
    print("A8 reduction replay n<=6 and the 533/44111 example: PASS")


def test_a9_complementation():
    box = [
        lam
        for s in range(10)
        for lam in partitions_of(s)
        if len(lam) <= 3 and (not lam or lam[0] <= 3)
    ]
    checked = 0
    for lam in box:
        for mu in box:
            if sum(lam) != sum(mu):
                continue  # entries live in different degrees: both vanish
            lam_c = complement(lam, 3, 3)
            mu_c = complement(mu, 3, 3)
            if lam == mu:
                assert lam_c == mu_c  # both diagonal entries are 1
                continue
            degree = sum(lam)
            big = build_matrices(degree)
            small = build_matrices(9 - degree)
            for name in ("kostka", "k1", "k1_inv", "k2", "k2_inv"):
                assert getattr(big, name).entry(lam, mu) == getattr(
                    small, name
                ).entry(lam_c, mu_c), (name, lam, mu)
            checked += 1
    assert checked > 0
    print(f"A9 complement identity inside (3^3), {checked} pairs x 5: PASS")


def test_a10_bz_classifier():
    checked = 0
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
                checked += 1
    assert checked > 0
    print(f"A10 BZ classifier vs brute force, {checked} pairs n<=7: PASS")


def test_a11_haglund_scan():
    start = time.time()
    report = scan(6, 4)
    elapsed = time.time() - start
    assert not report.violations, report.violations[:3]
    for verdict in report.verdicts:
        if verdict.coverage != COVERAGE_CONJECTURE:
            assert verdict.is_nonnegative, verdict
    support = report.summary()["by_coverage"][COVERAGE_CONJECTURE]
    assert elapsed < 300, f"scan took {elapsed:.1f}s"
    print(
        f"A11 scan n<=6, k<=4 ({elapsed:.1f}s): 0 violations, "
        f"{support} conjecture-support checks: PASS"
    )


def test_a12_f_statistics():
    for total in range(9):
        for mu in partitions_of(total):
            assert f_stat(mu) == f_stat_closed(mu), mu
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
    print("A12 f statistic closed forms and complement difference: PASS")


def test_a13_qn_plethysm():
    for n in range(1, 6):
        assert check_Qn_plethysm(n), n
    print("A13 Q_(n) plethysm identity for n<=5: PASS")
