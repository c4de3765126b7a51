from qtkostka import oracle
from qtkostka.macdonald import build_matrices
from qtkostka.oracle import (
    SymFuncInBasis,
    _FIELD,
    _q,
    _t,
    check_pairing_normalization,
    check_Qn_plethysm,
    gram_matrix_monomials,
    gram_schmidt_P,
    orthogonality_audit,
    pair_equals_qtrational,
    powersum_in_monomials,
    qt_gram_powersums,
    zee,
)
from qtkostka.partitions import partitions_of
from qtkostka.qt import Q, T, QtRational


def oracle_matches_pipeline(n: int) -> bool:
    """Cross-multiplication equality of the oracle and psi-route K1."""
    k1 = build_matrices(n).k1
    built = gram_schmidt_P(n)
    parts = partitions_of(n)
    for lam in parts:
        for mu in parts:
            pair = built[lam].coefficient_pair(mu)
            if not pair_equals_qtrational(pair, k1.entry(lam, mu)):
                return False
    return True


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


def test_qt_gram_powersums():
    diag = qt_gram_powersums(2)
    parts = partitions_of(2)
    assert diag[parts.index((2,))] == QtRational(2 * (1 - Q**2), [(0, 2)])
    assert diag[parts.index((1, 1))] == QtRational(
        2 * (1 - Q) ** 2, [(0, 1, 2)]
    )
    assert qt_gram_powersums(1) == [QtRational(1 - Q, [(0, 1)])]


def test_gram_matrix_symmetry():
    for n in (2, 3):
        gram = gram_matrix_monomials(n)
        size = len(partitions_of(n))
        for i in range(size):
            for j in range(size):
                assert gram[i][j] == gram[j][i]


def test_gram_schmidt_degree_one_and_two():
    built = gram_schmidt_P(1)
    assert built[(1,)].coefficient((1,)) == _FIELD(1)
    built = gram_schmidt_P(2)
    coeff = built[(2,)].coefficient((1, 1))
    assert coeff == (1 + _q) * (1 - _t) / (1 - _q * _t)
    assert built[(1, 1)].coefficient((2,)) == 0
    assert built[(1, 1)].basis == "monomial"
    pair = built[(2,)].coefficient_pair((1, 1))
    assert pair_equals_qtrational(
        pair, QtRational((1 + Q) * (1 - T), [(1, 1)])
    )


def test_oracle_matches_pipeline_small():
    for n in range(1, 5):
        assert oracle_matches_pipeline(n)


def test_orthogonality_audit():
    for n in range(1, 5):
        assert orthogonality_audit(n)


def test_pairing_normalization():
    for n in range(1, 5):
        assert check_pairing_normalization(n)


def test_qn_plethysm():
    for n in range(1, 5):
        assert check_Qn_plethysm(n)


def test_audits_catch_a_perturbed_basis(monkeypatch):
    real = gram_schmidt_P(3)
    parts = partitions_of(3)
    coeffs = list(real[(2, 1)].coefficients)
    coeffs[parts.index((1, 1, 1))] += 1
    perturbed = dict(real)
    perturbed[(2, 1)] = SymFuncInBasis(3, "monomial", tuple(coeffs))
    monkeypatch.setattr(oracle, "gram_schmidt_P", lambda n: perturbed)
    assert not orthogonality_audit(3)
    assert not check_pairing_normalization(3)
