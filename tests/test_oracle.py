from sympy.polys.rings import PolyElement

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


def test_gram_matrix_symmetry():
    for n in (2, 3):
        gram, _ = gram_matrix_monomials(n)
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
    # (degree, P_lambda, coefficient changed by adding 1); at n = 4 the
    # coefficient of m_(2,1,1) in P_(3,1) has a non-trivial denominator
    for n, lam, mu in ((3, (2, 1), (1, 1, 1)), (4, (3, 1), (2, 1, 1))):
        real = gram_schmidt_P(n)
        coeffs = list(real[lam].coefficients)
        index = partitions_of(n).index(mu)
        if n == 4:
            assert coeffs[index].denom != 1
        coeffs[index] += 1
        perturbed = dict(real)
        perturbed[lam] = SymFuncInBasis(n, "monomial", tuple(coeffs))
        monkeypatch.setattr(oracle, "gram_schmidt_P", lambda _n: perturbed)
        assert not orthogonality_audit(n)
        assert not check_pairing_normalization(n)
        monkeypatch.undo()


def _field_image(gram, u):
    # the term-by-term sum in ZZ(q,t) that the ring image replaces
    size = len(u)
    return [
        sum((u[a] * gram[a][b] for a in range(size) if u[a] != 0), _FIELD(0))
        for b in range(size)
    ]


def _field_pairing(v, w):
    return sum((x * y for x, y in zip(v, w) if x != 0), _FIELD(0))


def test_ring_image_matches_field_sum():
    for n in range(1, 5):
        rows, gram_den = gram_matrix_monomials(n)
        gram = [[_FIELD.new(x, gram_den) for x in row] for row in rows]
        built = gram_schmidt_P(n)
        vectors = [built[lam].coefficients for lam in partitions_of(n)]
        for u in vectors:
            u_num, u_den = oracle._over_common_denominator(u)
            assert [_FIELD.new(x, u_den) for x in u_num] == list(u)
            image = oracle._gram_image(rows, u_num)
            field_image = _field_image(gram, u)
            image_den = u_den * gram_den
            assert [_FIELD.new(x, image_den) for x in image] == field_image
            for v in vectors:
                v_num, v_den = oracle._over_common_denominator(v)
                pairing = oracle._pairing(v_num, image)
                assert _FIELD.new(pairing, v_den * image_den) == (
                    _field_pairing(v, field_image)
                )


def test_gcd_fallback_is_scoped_to_oracle_calls(monkeypatch):
    def sympy_own():
        return PolyElement._gcd_ZZ.__module__ == "sympy.polys.rings"

    assert sympy_own()
    seen = []
    real = gram_schmidt_P

    def spy(n):
        seen.append(PolyElement._gcd_ZZ is oracle._gcd_zz_with_fallback)
        # a nested entry point must leave the outer call's patch in place
        assert oracle.b_norm_factor((2, 1)) != 0
        seen.append(PolyElement._gcd_ZZ is oracle._gcd_zz_with_fallback)
        return real(n)

    monkeypatch.setattr(oracle, "gram_schmidt_P", spy)
    assert orthogonality_audit(3)
    assert seen == [True, True]
    assert sympy_own()
