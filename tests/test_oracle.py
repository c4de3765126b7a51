import hashlib
import json
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from qtkostka import oracle
from qtkostka.macdonald import TriangularMatrix, build_matrices
from qtkostka.oracle import (
    check_k1_match,
    check_pairing_normalization,
    check_Qn_plethysm,
    kronecker_point,
    orthogonality_audit,
    powersum_in_monomials,
    zee,
)
from qtkostka.partitions import partitions_of
from qtkostka.qt import Q, T, QtPolynomial, QtRational

CHECKS = {
    "k1_match": check_k1_match,
    "orthogonality": orthogonality_audit,
    "normalization": check_pairing_normalization,
    "qn_plethysm": check_Qn_plethysm,
}


@pytest.fixture
def substitute_k1(monkeypatch):
    """Certify a given matrix in place of the pipeline's K1."""

    def substitute(matrix):
        monkeypatch.setattr(oracle, "pipeline_k1", lambda _n: matrix)
        oracle._bounded_degree.cache_clear()

    yield substitute
    oracle._bounded_degree.cache_clear()


def flags(n: int) -> dict[str, bool]:
    return {name: check(n) for name, check in CHECKS.items()}


def test_zee():
    assert zee(()) == 1
    assert zee((1,)) == 1
    assert zee((1, 1)) == 2
    assert zee((2,)) == 2
    assert zee((2, 1)) == 2
    assert zee((3, 1, 1)) == 6
    assert zee((2, 2, 1)) == 8


def test_powersum_in_monomials_small():
    parts2 = partitions_of(2)
    S = powersum_in_monomials(2)
    # p_(2) = m_(2); p_(1,1) = m_(2) + 2 m_(1,1)
    assert S[parts2.index((2,))] == (1, 0)
    assert S[parts2.index((1, 1))] == (1, 2)
    parts3 = partitions_of(3)
    S = powersum_in_monomials(3)
    # p_(2,1) = m_(3) + m_(2,1); p_(1,1,1) = m_3 + 3 m_21 + 6 m_111
    assert S[parts3.index((2, 1))] == (1, 1, 0)
    assert S[parts3.index((3,))] == (1, 0, 0)
    assert S[parts3.index((1, 1, 1))] == (1, 3, 6)
    # the monomial coefficients of prod_i (x_1^lam_i + ... + x_n^lam_i),
    # expanded term by term: one variable chosen per part
    for n in range(1, 7):
        parts = partitions_of(n)
        for lam, row in zip(parts, powersum_in_monomials(n)):
            exponents = Counter()
            for choice in product(range(n), repeat=len(lam)):
                vector = [0] * n
                for part, var in zip(lam, choice):
                    vector[var] += part
                exponents[tuple(vector)] += 1
            expected = tuple(exponents[mu + (0,) * (n - len(mu))] for mu in parts)
            assert row == expected, lam


def test_inverse_transition_digests():
    # s C^-1 and s, recorded from the Gauss-Jordan solve this replaced
    digests = {
        8: "5943a68035253b70f9db65c7187129d7e559114462636e146dbb0342e6e2d10c",
        10: "43a87fa40244eafc05b50fab28bc7ab1574259cf16fff78e582bef08eee0a79a",
    }
    for n, digest in digests.items():
        dumped = json.dumps(oracle._inverse_transition(n)).encode()
        assert hashlib.sha256(dumped).hexdigest() == digest, n


def test_gram_schmidt_degree_one_and_two(substitute_k1):
    # P by hand: P_(1) = m_(1); P_(2) = m_(2) + (1+q)(1-t)/(1-qt) m_(1,1)
    substitute_k1(TriangularMatrix(1, [[QtRational(1)]]))
    assert all(flags(1).values())
    one, zero = QtRational(1), QtRational(0)
    coefficient = QtRational((1 + Q) * (1 - T), [(1, 1)])
    substitute_k1(TriangularMatrix(2, [[one, coefficient], [zero, one]]))
    assert all(flags(2).values())
    # q and t swapped: unitriangular, but not orthogonal
    swapped = QtRational((1 + T) * (1 - Q), [(1, 1)])
    substitute_k1(TriangularMatrix(2, [[one, swapped], [zero, one]]))
    assert flags(2) == dict.fromkeys(CHECKS, False)


def test_oracle_matches_pipeline_small():
    for n in range(1, 5):
        assert check_k1_match(n)


def test_orthogonality_audit():
    for n in range(1, 5):
        assert orthogonality_audit(n)


def test_pairing_normalization():
    for n in range(1, 5):
        assert check_pairing_normalization(n)


def test_qn_plethysm():
    for n in range(1, 5):
        assert check_Qn_plethysm(n)


def _perturbed_k1(n, lam, mu, change):
    k1 = build_matrices(n).k1
    entries = [list(row) for row in k1.entries]
    parts = partitions_of(n)
    i, j = parts.index(lam), parts.index(mu)
    entries[i][j] = change(entries[i][j])
    return TriangularMatrix(n, entries)


def test_audits_catch_a_perturbed_basis(substitute_k1):
    # (degree, P_lambda, coefficient of m_mu changed by adding q)
    cases = [
        (3, (2, 1), (1, 1, 1)),
        # K1((3,1), (2,1,1)) has a non-trivial denominator
        (4, (3, 1), (2, 1, 1)),
        (5, (3, 2), (2, 2, 1)),
        # the row of P_(n), which the plethysm reads
        (5, (5,), (1, 1, 1, 1, 1)),
    ]
    for n, lam, mu in cases:
        k1 = _perturbed_k1(n, lam, mu, lambda entry: entry + Q)
        if n == 4:
            assert k1.entry(lam, mu).den
        substitute_k1(k1)
        expected = {
            "k1_match": False,
            "orthogonality": False,
            "normalization": False,
            "qn_plethysm": lam != (n,),
        }
        assert flags(n) == expected, (n, lam, mu)


def test_k1_match_reads_the_diagonal_and_the_upper_triangle(substitute_k1):
    # 2 P_(2,1) is still orthogonal to every other P and to m_(1,1,1)
    k1 = build_matrices(3).k1
    entries = [list(row) for row in k1.entries]
    entries[1] = [entry * 2 for entry in entries[1]]
    substitute_k1(TriangularMatrix(3, entries))
    assert not check_k1_match(3)
    assert orthogonality_audit(3)
    # q m_(2,1) in P_(1,1,1) leaves every <P_lam, m_nu>, nu after lam, at 0
    substitute_k1(_perturbed_k1(3, (1, 1, 1), (2, 1), lambda entry: entry + Q))
    assert not check_k1_match(3)


def test_each_family_is_decided_at_its_own_point(monkeypatch):
    # t of the point each check evaluates at, against the point sized
    # from that family's bounds alone
    seen = []
    degree = oracle._degree

    def spy(ring, *args):
        if isinstance(ring, oracle._Point):
            seen.append(ring.t)
        return degree(ring, *args)

    monkeypatch.setattr(oracle, "_degree", spy)
    n = 5
    _, bounds = oracle._bounded_degree(n)
    families = {
        "k1_match": oracle._k1_identities,
        "orthogonality": oracle._orthogonality_identities,
        "normalization": oracle._normalization_identities,
        "qn_plethysm": oracle._plethysm_identities,
    }
    points = {}
    for name, check in CHECKS.items():
        seen.clear()
        assert check(n)
        both = [oracle._Bound(0) + lhs + rhs for lhs, rhs in families[name](bounds)]
        norm = max(bound.norm for bound in both)
        t_degree = max(bound.t_degree for bound in both)
        assert seen == [kronecker_point(norm, t_degree)[1]], name
        points[name] = seen[0]
    assert points["orthogonality"] == 2**50 < points["normalization"] == 2**57


def test_negative_exponent_fails_every_check(substitute_k1):
    # K1((2,1), (1,1,1)) over t: outside the row of P_(3), which is all
    # the plethysm reads, so only the exponent check can fail it
    def laurent(entry):
        return QtRational(entry.num * QtPolynomial.monomial(1, 0, -1), entry.den)

    substitute_k1(_perturbed_k1(3, (2, 1), (1, 1, 1), laurent))
    assert flags(3) == dict.fromkeys(CHECKS, False)


@st.composite
def int_polynomials(draw):
    # a sum of terms over a small exponent box, so that terms often
    # collide and cancel
    terms: dict[tuple[int, int], int] = {}
    for _ in range(draw(st.integers(0, 6))):
        e = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[e] = terms.get(e, 0) + draw(st.integers(-4, 4))
    return terms


def _at(terms, point):
    q, t = point
    return sum(c * q**a * t**b for (a, b), c in terms.items())


@given(int_polynomials())
@example({(1, 0): 1, (0, 1): -1})  # q - t: zero at any point with q = t^D, D = 1
@settings(max_examples=200, deadline=None)
def test_kronecker_point_decides_zero(terms):
    bound = sum(abs(c) for c in terms.values())
    t_degree = max((b for (_, b), c in terms.items() if c), default=0)
    value = _at(terms, kronecker_point(bound, t_degree))
    assert (value == 0) == (not any(terms.values()))


def test_kronecker_point_beats_a_naive_point():
    # q - t^2 vanishes at (4, 2) but not at its certified point
    terms = {(1, 0): 1, (0, 2): -1}
    assert _at(terms, (4, 2)) == 0
    assert kronecker_point(2, 2) == (512, 8)
    assert _at(terms, kronecker_point(2, 2)) != 0


def _times(f, g):
    out: dict[tuple[int, int], int] = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            e = (a1 + a2, b1 + b2)
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _plus(f, g):
    return {e: f.get(e, 0) + g.get(e, 0) for e in f.keys() | g.keys()}


@given(int_polynomials(), int_polynomials(), st.integers(0, 3), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_bounds_and_point_follow_the_arithmetic(f, g, a, b):
    # f (1 - q^a t^b) + g, by dict arithmetic, through the bound and at
    # the point that bound picks
    f = {e: c for e, c in f.items() if c} or {(0, 0): 1}
    g = {e: c for e, c in g.items() if c} or {(0, 0): 1}
    exact = _plus(_times(f, {(0, 0): 1, (a, b): -1}), g)

    def evaluate(ring):
        terms_f, terms_g = sorted(f.items()), sorted(g.items())
        return ring.times_binomials(ring.poly(terms_f), [(a, b)]) + ring.poly(terms_g)

    bound = evaluate(oracle._Bound)
    assert bound.norm >= sum(abs(c) for c in exact.values())
    assert bound.t_degree >= max((e[1] for e, c in exact.items() if c), default=0)
    point = oracle._Point(bound)
    assert evaluate(point) == _at(exact, kronecker_point(bound.norm, bound.t_degree))
