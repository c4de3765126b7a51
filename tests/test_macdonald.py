import json
import os
from collections import Counter

import pytest

from qtkostka import macdonald, tableaux
from qtkostka.errors import ConsistencyError, DomainError
from qtkostka.macdonald import (
    TriangularMatrix,
    build_matrices,
    c_factors,
    c_prime_factors,
    closed_form_column,
    closed_form_row,
    k1_entry,
    k_coeff,
    kostka_foulkes_hook_form,
    normalization,
    principal_specialization_P,
    psi_strip,
    read_matrix,
)
from qtkostka.partitions import conjugate, dominance_leq, partitions_of
from qtkostka.qt import (
    ONE,
    Q,
    T,
    QtPolynomial,
    QtRational,
    exact_div_binomial,
    expand_factors,
)
from qtkostka.tableaux import (
    enumerate_ssyt,
    is_horizontal_strip,
    kostka_foulkes,
    kostka_inverse,
    kostka_number,
)


def test_psi_strip_examples():
    assert psi_strip((1,), ()) == QtRational(1)
    expected = QtRational((1 - T) * (1 - Q**2), [(1, 0), (1, 1)])
    assert psi_strip((2,), (1,)) == expected
    assert psi_strip((2, 1), (2,)) == QtRational(1)
    assert psi_strip((2, 1), (1, 1)) == QtRational(
        (1 - T**2) * (1 - Q**2 * T), [(1, 1), (1, 2)]
    )
    with pytest.raises(DomainError):
        psi_strip((2, 2), (1,))


def test_k1_entry_examples():
    assert k1_entry((2,), (1, 1)) == QtRational((1 + Q) * (1 - T), [(1, 1)])
    assert k1_entry((2,), (2,)) == QtRational(1)
    assert k1_entry((1, 1), (2,)).is_zero
    assert k1_entry((3, 1), (3, 1)) == QtRational(1)


def test_k1_entry_matches_direct_psi_sum():
    # the layered DP must agree with a plain sum over enumerated tableaux
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                direct = QtRational(0)
                for tab in enumerate_ssyt(lam, mu):
                    prod = QtRational(1)
                    for prev, nxt in zip(tab.chain, tab.chain[1:]):
                        prod = prod * psi_strip(nxt, prev)
                    direct = direct + prod
                assert k1_entry(lam, mu) == direct


# the three steps on tableaux.chain_column, with their units
STEPS = [(tableaux._count, 1), (macdonald._k1_step, 1), (macdonald._j_step, ONE)]


def _strip_preds(lam, column):
    """The entries of ``column`` at the strips lam/rho, in column order."""
    return {rho: e for rho, e in column.items() if is_horizontal_strip(lam, rho)}


def test_columns_extend_the_cached_prefix_column(monkeypatch):
    # with the column of mu[:-1] cached, the column of mu calls
    # horizontal_strip_extensions once per shape of that prefix column,
    # under each of the three steps
    calls = []
    extensions = tableaux.horizontal_strip_extensions

    def counting(base, strip_size, limit=None):
        calls.append(base)
        return extensions(base, strip_size, limit)

    tableaux.chain_column.cache_clear()
    for (step, unit), mu in zip(STEPS, [(1, 3, 2, 2), (3, 2, 2, 1), (2, 2, 1, 1, 2)]):
        prefix = tableaux.chain_column(mu[:-1], step, unit)
        monkeypatch.setattr(tableaux, "horizontal_strip_extensions", counting)
        calls.clear()
        tableaux.chain_column(mu, step, unit)
        monkeypatch.undo()
        assert sorted(calls) == sorted(prefix), step.__name__


def test_steps_see_their_strip_predecessors_in_column_order():
    # a step gets the prefix column's entries at the strips lam/rho, in
    # that column's order; K1 sums its non-canonical terms in this order,
    # so another order moves stored bytes
    for step, unit in STEPS:
        seen = []

        def spy(lam, preds):
            seen.append((lam, preds))
            return step(lam, preds)

        for content in [(2, 1, 2, 1), (3, 1, 1, 2), (1, 2, 2, 1, 1)]:
            prefix = tableaux.chain_column(content[:-1], spy, unit)
            seen.clear()
            column = tableaux.chain_column(content, spy, unit)
            assert column == tableaux.chain_column(content, step, unit)
            assert [lam for lam, _ in seen] == list(column), step.__name__
            for lam, preds in seen:
                assert list(preds.items()) == list(_strip_preds(lam, prefix).items())
            assert any(len(preds) > 1 for _, preds in seen)


def test_j_step_is_the_column_entry():
    # one strip step on the prefix column gives each entry of the J
    # column, zero where the column has no such shape; the column holds
    # every shape with a tableau of its content
    for content in [(3, 2, 1), (2, 2, 1, 1), (4, 2), (1, 3, 2)]:
        column = tableaux.chain_column(content, macdonald._j_step, ONE)
        below = tableaux.chain_column(content[:-1], macdonald._j_step, ONE)
        shapes = partitions_of(sum(content))
        assert set(column) == {s for s in shapes if kostka_number(s, content)}
        for shape in shapes:
            got = macdonald._j_step(shape, _strip_preds(shape, below))
            assert got == column.get(shape, QtPolynomial.zero()), (content, shape)


def test_j_is_c_times_k1():
    # the J that k reads, an entry by one strip step on the nu[:-1]
    # column, is c_lam K1(lam, nu) by cross-multiplication at every
    # dominance pair to degree 8; so the exact K1 certificate holds for it
    for n in range(1, 9):
        for nu in partitions_of(n):
            below = tableaux.chain_column(nu[:-1], macdonald._j_step, ONE)
            for lam in partitions_of(n):
                if dominance_leq(nu, lam):
                    k1 = k1_entry(lam, nu)
                    j = macdonald._j_step(lam, _strip_preds(lam, below))
                    assert j * expand_factors(k1.den) == (
                        expand_factors(c_factors(lam)) * k1.num
                    ), (lam, nu)


def test_j_step_raises_on_an_inexact_division(monkeypatch):
    # J is integral, so a sum its denominators do not divide is a bug,
    # raised rather than skipped
    below = tableaux.chain_column((1,), macdonald._j_step, ONE)
    monkeypatch.setattr(
        macdonald, "_j_weight", lambda lam, rho: (Counter(), Counter({(1, 1): 1}))
    )
    with pytest.raises(ConsistencyError, match="residual denominator"):
        macdonald._j_step((2,), below)


def test_inexact_j_step_on_a_large_entry_has_a_short_message(monkeypatch):
    # the CLI prints the message as its one line: it names the factors
    # left and the numerator's size, not the whole rational
    lam, nu = (3, 2, 1, 1), (2, 2, 1, 1, 1)
    below = tableaux.chain_column(nu[:-1], macdonald._j_step, ONE)
    real = macdonald._j_weight

    def one_more_factor(lam, rho):
        num, den = real(lam, rho)
        return num, den + Counter({(1, 1): 1})

    monkeypatch.setattr(macdonald, "_j_weight", one_more_factor)
    with pytest.raises(ConsistencyError, match="residual denominator") as err:
        macdonald._j_step(lam, _strip_preds(lam, below))
    assert len(str(err.value)) < 200, str(err.value)


def test_normalization_examples():
    nc = normalization((1,))
    assert nc.c == 1 - T
    assert nc.c_prime == 1 - Q
    assert nc.b == QtRational(1 - T, [(1, 0)])
    assert normalization((1, 1)).c_prime == (1 - Q * T) * (1 - Q)
    for n in range(1, 6):
        expected = ONE
        for i in range(1, n + 1):
            expected = expected * (1 - Q**i)
        assert normalization((n,)).c_prime == expected


def test_c_equals_conjugate_c_prime_swapped():
    # c_lambda(q,t) = c'_(lambda')(t,q)
    for n in range(1, 7):
        for lam in partitions_of(n):
            lhs = expand_factors(c_factors(lam))
            rhs = expand_factors(c_prime_factors(conjugate(lam))).swap_qt()
            assert lhs == rhs


def test_build_matrices_degree_one_and_two():
    bundle = build_matrices(1)
    for mat in bundle:
        assert mat.entries[0][0] == 1
    b2 = build_matrices(2)
    assert b2.k2.entry((2,), (1, 1)) == QtRational(T - Q, [(1, 1)])
    assert b2.k1.entry((2,), (1, 1)) == QtRational((1 + Q) * (1 - T), [(1, 1)])


def test_unitriangularity_every_computed_degree():
    from qtkostka.macdonald import _memory_cache

    for n in range(6):
        build_matrices(n)
    for n, bundle in sorted(_memory_cache.items()):
        for mat in bundle:
            assert mat.is_unitriangular(), n


def test_stored_entries_keep_the_normal_form():
    # the premise of QtRational's skipped division trials: no factor left
    # in a stored denominator divides the stored numerator
    for n in range(1, 7):
        for mat in build_matrices(n):
            for row in mat.entries:
                for entry in row:
                    for f in entry.den:
                        quotient = exact_div_binomial(entry.num, f.a, f.b)
                        assert quotient is None, (n, entry)


def test_entry_rejects_partition_of_other_degree():
    k1 = build_matrices(3).k1
    with pytest.raises(DomainError):
        k1.entry((2, 1), (2,))
    with pytest.raises(DomainError):
        k1.entry((4,), (3,))


def test_inverse_roundtrip():
    for n in range(5):
        b = build_matrices(n)
        assert (b.k1 @ b.k1_inv) == TriangularMatrix.identity(n)
        assert (b.k2 @ b.k2_inv) == TriangularMatrix.identity(n)


@pytest.mark.parametrize("position", [0, 1])
def test_inverse_rejects_a_non_unit_diagonal(position):
    one, zero = QtRational(1), QtRational(0)
    entries = [[one, QtRational(Q)], [zero, one]]
    entries[position][position] = QtRational(1 + Q)
    with pytest.raises(ConsistencyError, match="non-unit diagonal"):
        TriangularMatrix(2, entries).inverse()


def test_k_coeff_examples():
    assert k_coeff((1,), (1,)) == 1 - Q
    assert k_coeff((2,), (1, 1)) == (1 - Q) * (T - Q)
    kf = k_coeff((2, 1), (1, 1, 1)).at_q_zero().swap_qt().swap_qt()
    assert kf == T + T**2
    assert k_coeff((2,), (2, 1)).is_zero  # size mismatch


def test_k_coeff_matches_bundle():
    # duality against the bundle's K2 = K K1^-1, a route that shares no
    # code with it, including pairs incomparable in dominance (k is zero);
    # mu-major, the order in which k keeps its row of J
    for n in range(9):
        k2 = build_matrices(n).k2
        for mu in partitions_of(n):
            c_prime = QtRational(expand_factors(c_prime_factors(mu)))
            for lam in partitions_of(n):
                expected = (k2.entry(lam, mu) * c_prime).as_polynomial()
                assert k_coeff(lam, mu) == expected, (lam, mu)


def test_k_coeff_builds_no_psi_column_of_its_degree(monkeypatch):
    # k reads J by the integer recursion, so it builds no psi column; an
    # entry J(mu', nu) is one strip step on the nu[:-1] column, so no J
    # column of the pair's degree is built either
    lam, mu = (4, 2), (2, 2, 1, 1)
    want = k_coeff(lam, mu)
    macdonald._j_row.cache_clear()
    tableaux.chain_column.cache_clear()
    psi, built = [], []
    real_chain = tableaux.chain_column

    def chain_spy(content, step, unit):
        if step is macdonald._k1_step:
            psi.append(content)
        if step is macdonald._j_step:
            built.append(content)
        return real_chain(content, step, unit)

    monkeypatch.setattr(tableaux, "chain_column", chain_spy)
    monkeypatch.setattr(macdonald, "chain_column", chain_spy)
    assert k_coeff(lam, mu) == want
    assert not psi, psi
    assert built
    assert all(sum(content) < 6 for content in built), built


def test_k_coeff_computes_each_entry_of_a_j_row_once(monkeypatch):
    # k over every lambda of one mu reads the row J(mu', .), and its one
    # row memo computes each top-degree entry once; the spy also sees the
    # lower columns' steps, which it rebuilds under its own cache key
    mu = (3, 2, 1, 1)
    lams = partitions_of(sum(mu))
    want = [k_coeff(lam, mu) for lam in lams]
    macdonald._j_row.cache_clear()
    top = []
    real = macdonald._j_step

    def spy(lam, preds):
        if sum(lam) == sum(mu):
            top.append(lam)
        return real(lam, preds)

    monkeypatch.setattr(macdonald, "_j_step", spy)
    assert [k_coeff(lam, mu) for lam in lams] == want
    row = macdonald._j_row(conjugate(mu))
    assert top == [conjugate(mu)] * len(row) and len(row) > 1, top


def test_k_coeff_of_unequal_sizes_is_zero_before_any_work(monkeypatch):
    def no_inverse(n):
        raise AssertionError(f"built kostka_inverse({n})")

    monkeypatch.setattr(macdonald, "kostka_inverse", no_inverse)
    assert k_coeff((18,), (1,)) == 0


def test_kostka_inverse_is_an_integer_inverse():
    for n in range(9):
        parts = partitions_of(n)
        inv = kostka_inverse(n)
        assert all(type(x) is int for row in inv for x in row)
        for lam in parts:
            for j, rho in enumerate(parts):
                total = sum(
                    kostka_number(lam, nu) * row[j] for nu, row in zip(parts, inv)
                )
                assert total == (lam == rho), (lam, rho)


def test_k_coeff_accepts_lists():
    assert k_coeff([2], [1, 1]) == k_coeff((2,), (1, 1))
    assert k_coeff([3, 1, 0], [2, 1, 1]) == k_coeff((3, 1), (2, 1, 1))


def test_k_coeff_q_zero_matches_charge():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert k_coeff(lam, mu).at_q_zero() == kostka_foulkes(lam, mu)


def test_closed_form_row():
    assert closed_form_row(2, (1, 1)) == (1 - Q) * (T - Q)
    assert closed_form_row(1, (1,)) == 1 - Q
    for n in range(1, 6):
        expected = ONE
        for i in range(1, n + 1):
            expected = expected * (1 - Q**i)
        assert closed_form_row(n, (n,)) == expected
    with pytest.raises(DomainError):
        closed_form_row(3, (2,))


def test_closed_form_column():
    assert closed_form_column((1, 1), 2) == (1 - Q) * (1 - T * Q)
    assert closed_form_column((2,), 2) == (1 - Q) * (T - Q)


def test_hook_form_matches_charge():
    for n in range(1, 7):
        ones = (1,) * n
        for lam in partitions_of(n):
            assert kostka_foulkes_hook_form(lam) == kostka_foulkes(lam, ones)


def test_closed_forms_match_pipeline():
    for n in range(1, 6):
        ones = (1,) * n
        for mu in partitions_of(n):
            assert closed_form_row(n, mu) == k_coeff((n,), mu)
            assert closed_form_column(mu, n) == k_coeff(mu, ones)


def test_principal_specialization():
    assert principal_specialization_P((1,), "q") == QtRational(
        1 - Q, [(0, 1)]
    )
    assert principal_specialization_P((1, 1), "t").is_zero
    assert principal_specialization_P((), "q") == QtRational(1)
    # general monomial z = q^2 t
    assert principal_specialization_P((1,), (2, 1)) == QtRational(
        1 - Q**2 * T, [(0, 1)]
    )


def test_principal_specialization_gives_k2_row():
    # K2[(n), lam] = b_lam * P_lam[(1-q)/(1-t)]
    for n in range(1, 5):
        k2 = build_matrices(n).k2
        for lam in partitions_of(n):
            expected = normalization(lam).b * principal_specialization_P(
                lam, "q"
            )
            assert k2.entry((n,), lam) == expected


def test_specialization_t_one_gives_kostka():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                lhs = k_coeff(lam, mu).at_t_one()
                rhs = (
                    expand_factors(c_prime_factors(mu)).at_t_one()
                    * kostka_number(lam, mu)
                )
                assert lhs == rhs


def test_matrix_identity_k_equals_k2_k1():
    for n in range(6):
        b = build_matrices(n)
        assert (b.k2 @ b.k1) == b.kostka


def test_duality_small():
    for n in range(1, 5):
        b = build_matrices(n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                lhs = b.k2.entry(lam, mu)
                rhs = b.k2_inv.entry(conjugate(mu), conjugate(lam)).swap_qt()
                assert lhs == rhs


def test_q_one_identity_where_safe():
    # K2(1,t) = J K^-T J on entries whose denominators survive q = 1
    checked = 0
    for n in range(1, 5):
        b = build_matrices(n)
        kinv = b.kostka.inverse()
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                entry = b.k2.entry(lam, mu)
                if not all(f.b for f in entry.den):
                    continue
                num_q1 = entry.num.swap_qt().at_t_one().swap_qt()
                den_q1 = expand_factors(entry.den).swap_qt().at_t_one().swap_qt()
                target = kinv.entry(conjugate(mu), conjugate(lam))
                assert num_q1 == target.as_polynomial() * den_q1
                checked += 1
    assert checked > 0


def test_matrix_json_round_trip(tmp_path, monkeypatch):
    b = read_matrix(3, "k2", str(tmp_path))
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    again = read_matrix(3, "k2", str(tmp_path))
    assert again == b
    assert (tmp_path / "k2_n3.json").exists()


def _fill_cache(tmp_path, monkeypatch, n=3):
    """Write the degree-n cache, then forget the in-memory bundle so the
    next read_matrix call reads the files."""
    read_matrix(n, "k", str(tmp_path))
    texts = {p.name: p.read_text() for p in tmp_path.iterdir()}
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    return texts


def test_cache_version_invalidation(tmp_path, monkeypatch):
    texts = _fill_cache(tmp_path, monkeypatch, n=2)
    path = tmp_path / "k1_n2.json"
    path.write_text(
        texts["k1_n2.json"].replace('"format_version": 1', '"format_version": 0')
    )
    rebuilt = read_matrix(2, "k1", str(tmp_path))
    assert rebuilt.is_unitriangular()
    assert path.read_text() == texts["k1_n2.json"]


def _bad_coefficient(obj):
    obj["entries"][0][0]["num"][0][2] = "x1"
    return obj


@pytest.mark.parametrize(
    "damage", [_bad_coefficient, lambda obj: [obj]], ids=["coefficient", "array"]
)
def test_cache_damaged_file_is_rejected_and_rewritten(
    tmp_path, monkeypatch, damage
):
    texts = _fill_cache(tmp_path, monkeypatch)
    path = tmp_path / "k2_n3.json"
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    assert read_matrix(3, "k2", str(tmp_path)) == build_matrices(3).k2
    assert path.read_text() == texts["k2_n3.json"]


def test_cache_truncated_file_is_repaired(tmp_path, monkeypatch):
    texts = _fill_cache(tmp_path, monkeypatch)
    path = tmp_path / "k1_n3.json"
    path.write_text(texts["k1_n3.json"][: len(texts["k1_n3.json"]) // 2])
    assert read_matrix(3, "k1", str(tmp_path)).is_unitriangular()
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == texts


def test_cache_of_another_degree_is_rejected_and_rewritten(
    tmp_path, monkeypatch
):
    read_matrix(2, "k", str(tmp_path))
    texts = _fill_cache(tmp_path, monkeypatch)
    for name in macdonald.MATRIX_FIELDS:
        (tmp_path / f"{name}_n3.json").write_text(texts[f"{name}_n2.json"])
    assert read_matrix(3, "k", str(tmp_path)).n == 3
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == texts


def test_cache_of_another_matrix_is_rejected_and_rewritten(
    tmp_path, monkeypatch
):
    texts = _fill_cache(tmp_path, monkeypatch, n=2)
    (tmp_path / "k1_n2.json").write_text(texts["k2_n2.json"])
    assert read_matrix(2, "k1", str(tmp_path)).is_unitriangular()
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == texts


def test_cache_claiming_a_large_degree_is_rejected_unread(
    tmp_path, monkeypatch
):
    # the degree is checked before the index is compared with the
    # partitions of the degree the file claims, which would take hours
    texts = _fill_cache(tmp_path, monkeypatch, n=2)
    path = tmp_path / "k_n2.json"
    path.write_text(texts["k_n2.json"].replace('"n": 2', '"n": 200'))
    listed = macdonald.partitions_of

    def small_degrees_only(n):
        if n > 2:
            raise AssertionError(f"listed the partitions of {n}")
        return listed(n)

    monkeypatch.setattr(macdonald, "partitions_of", small_degrees_only)
    read_matrix(2, "k", str(tmp_path))
    assert path.read_text() == texts["k_n2.json"]


def test_cache_write_is_atomic(tmp_path, monkeypatch):
    # a write that fails part-way leaves the old file whole and no debris
    texts = _fill_cache(tmp_path, monkeypatch)
    (tmp_path / "k1_n3.json").unlink()

    # the first file's temp file gets a part of its text, then the
    # second's text fails: a temp file moved into place would show
    dumps = json.dumps
    calls = []

    def failing_dumps(obj, **kwargs):
        calls.append(obj)
        if len(calls) > 1:
            raise OSError("disk full")
        return dumps(obj, **kwargs)[:1]

    monkeypatch.setattr(macdonald.json, "dumps", failing_dumps)
    with pytest.raises(OSError):
        read_matrix(3, "k1", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name for name in texts if name != "k1_n3.json"
    )
    assert (tmp_path / "k_n3.json").read_text() == texts["k_n3.json"]


def _spy(monkeypatch, name):
    """Record the first argument of each call to macdonald.<name>."""
    calls = []
    real = getattr(macdonald, name)

    def spy(first, *args):
        calls.append(first)
        return real(first, *args)

    monkeypatch.setattr(macdonald, name, spy)
    return calls


@pytest.mark.parametrize("n, which", [(4, "bogus"), (-1, "k")])
def test_read_matrix_checks_its_arguments_before_the_disk(
    tmp_path, monkeypatch, n, which
):
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    built = _spy(monkeypatch, "_compute_matrices")
    with pytest.raises(DomainError):
        read_matrix(n, which, str(tmp_path / "cache"))
    assert not (tmp_path / "cache").exists()
    assert built == []


def test_rejected_file_is_read_once_before_the_rebuild(tmp_path, monkeypatch):
    # the other four files cannot make a bundle without the fifth, so
    # the rebuild reads none of them
    texts = _fill_cache(tmp_path, monkeypatch, n=5)
    path = tmp_path / "k2inv_n5.json"
    path.write_text(texts["k2inv_n5.json"][:100])
    loaded = _spy(monkeypatch, "_load_matrix")
    built = _spy(monkeypatch, "_compute_matrices")
    mat = read_matrix(5, "k2inv", str(tmp_path))
    assert loaded == [5] and built == [5]
    assert json.dumps(mat.to_obj("k2inv"), sort_keys=True) == texts["k2inv_n5.json"]
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == texts


def test_degree_in_memory_rewrites_only_a_missing_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    read_matrix(3, "k", str(tmp_path))
    texts = {p.name: p.read_text() for p in tmp_path.iterdir()}
    built = _spy(monkeypatch, "_compute_matrices")
    opened = _spy(monkeypatch, "atomic_writer")
    # one file missing: all five are written from the bundle in memory
    (tmp_path / "k1_n3.json").unlink()
    read_matrix(3, "k1", str(tmp_path))
    assert built == []
    assert [os.path.basename(p) for p in opened] == [
        f"{name}_n3.json" for name in macdonald.MATRIX_FIELDS
    ]
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == texts
    # all five present: nothing is opened for writing or touched
    stamps = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
    opened.clear()
    read_matrix(3, "k1", str(tmp_path))
    assert built == [] and opened == []
    assert {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()} == stamps
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == texts
