import operator
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import is_nonneg_polynomial
from qtkostka import qt
from qtkostka.errors import ConsistencyError, DomainError, PoleError
from qtkostka.oracle import kronecker_point
from qtkostka.qt import (
    MAX_ROW_SPAN,
    ONE,
    Q,
    T,
    QtPolynomial,
    QtRational,
    binomial_poly,
    divide_binomial_power,
    divide_by_one_minus_t_power,
    exact_div_binomial,
    expand_factors,
    q_power_row,
    row_nonnegative,
    row_polynomial,
    t_number,
    times_binomials,
)


@st.composite
def qt_polynomials(draw):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n_terms):
        eq = draw(st.integers(min_value=-2, max_value=4))
        et = draw(st.integers(min_value=-2, max_value=4))
        c = draw(st.integers(min_value=-5, max_value=5))
        terms[(eq, et)] = terms.get((eq, et), 0) + c
    return QtPolynomial(terms)


@st.composite
def qt_rationals(draw):
    num = draw(qt_polynomials())
    # binomials in the numerator give the denominator something to cancel
    binomials = st.tuples(st.integers(0, 4), st.integers(0, 3))
    for a, b in draw(st.lists(binomials, max_size=2)):
        if (a, b) != (0, 0):
            num = num * binomial_poly(a, b)
    n_factors = draw(st.integers(min_value=0, max_value=2))
    # repeated factors, so sums must take the larger multiplicity
    factors = [
        (draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(1, 3)))
        for _ in range(n_factors)
    ]
    factors = [f for f in factors if f[:2] != (0, 0)]
    return QtRational(num, factors)


def test_polynomial_basics():
    p = (1 + Q) * (1 - T)
    assert p.coefficient(0, 0) == 1
    assert p.coefficient(1, 1) == -1
    assert str(binomial_poly(1, 1)) == "1 - q*t"
    assert QtPolynomial.zero().is_zero
    assert (Q - Q).is_zero
    assert Q**3 == QtPolynomial.monomial(1, 3, 0)


def test_constant_polynomials_hash_like_ints():
    for n in (0, 5, -3, 12345678901234567890):
        p = QtPolynomial.from_int(n)
        assert p == n and hash(p) == hash(n)
        assert len({n, p}) == 1
    assert len({0, QtPolynomial.zero(), Q - Q}) == 1
    assert hash(Q) != hash(1)


def test_exact_division_by_binomial():
    # (1 - q^2) / (1 - q) = 1 + q
    assert exact_div_binomial(binomial_poly(2, 0), 1, 0) == 1 + Q
    # inexact division reports None
    assert exact_div_binomial(1 + T, 0, 1) is None
    assert exact_div_binomial(QtPolynomial.zero(), 1, 1) == 0
    # Laurent dividend
    tinv = QtPolynomial.monomial(1, 0, -1)
    assert exact_div_binomial(tinv - T, 0, 1) == tinv * (1 + T)


def test_rational_normalization_examples():
    # (1 - q^2)/(1 - q) normalizes to the polynomial 1 + q
    r = QtRational(binomial_poly(2, 0), [(1, 0)])
    assert r.is_polynomial()
    assert r.as_polynomial() == 1 + Q

    # 1 - q^2 stays, yet 1 - q^3 divides: only a primitive factor that
    # stays rules out the rest of its direction
    r = QtRational(1 - Q**3, [(2, 0), (3, 0)])
    assert r.to_obj() == {"num": ONE.to_obj(), "den": [[2, 0, 1]]}

    # 1/(1-qt) + (-1)/(1-qt) = 0
    a = QtRational(ONE, [(1, 1)])
    assert (a + (-a)).is_zero

    # (1-t)/(1-qt) * (1-q^2)/(1-q) = (1+q)(1-t)/(1-qt)
    left = QtRational(binomial_poly(0, 1), [(1, 1)])
    right = QtRational(binomial_poly(2, 0), [(1, 0)])
    product = left * right
    assert product.den == ((1, 1, 1),)
    assert product.num == (1 + Q) * (1 - T)


def test_as_polynomial_raises_on_residual_denominator():
    r = QtRational(ONE, [(1, 1)])
    with pytest.raises(ConsistencyError):
        r.as_polynomial()


def test_substitute_q_power():
    assert binomial_poly(1, 1).substitute_q_power(2) == 1 - T**3
    r = QtRational(T - Q, [(1, 1)])
    assert r.substitute_q_power(1).is_zero
    p = T * (1 - Q) * (ONE - Q * QtPolynomial.monomial(1, 0, -1))
    assert p.substitute_q_power(2) == T * (1 - T**2) * (1 - T)
    with pytest.raises(PoleError):
        QtRational(ONE, [(1, 0)]).substitute_q_power(0)
    # t-only denominators survive k = 0
    assert QtRational(ONE, [(1, 1)]).substitute_q_power(0) == QtRational(
        ONE, [(0, 1)]
    )


# q t^-2 - t^-1 + 1 - t: at q := t the two lowest terms cancel
LOWEST_CANCELS = QtPolynomial({(1, -2): 1, (0, -1): -1, (0, 0): 1, (0, 1): -1})


def test_divide_by_one_minus_t_power():
    assert q_power_row(1 - T**3, 0, 1) == (0, (1, 1, 1), 1)
    assert row_nonnegative(0, (1, 1, 1))
    p = T * (1 - T**2) * (1 - T)
    assert q_power_row(p, 0, 2) == (1, (1, 1), 2)
    assert q_power_row(1 + T, 0, 1) == (0, None, 0)
    # q := t^k comes first: 1 - q is 1 - t^2 at k = 2, and 0 at k = 0
    assert q_power_row(1 - Q, 2, 1) == (0, (1, 1), 1)
    assert q_power_row(1 - Q, 0, 3) == (0, (), 3)
    assert q_power_row((1 - Q) * (T - Q), 1, 2) == (0, (), 2)
    # a negative exponent or coefficient is not nonnegative, but terms
    # that cancel under the substitution are no exponent at all
    t_inv = QtPolynomial.monomial(1, 0, -1)
    assert q_power_row(t_inv - T**2, 0, 1) == (-1, (1, 1, 1), 1)
    assert row_polynomial(-1, (1, 1, 1)) == t_inv + 1 + T
    assert not row_nonnegative(-1, (1, 1, 1))
    assert q_power_row(T - 1, 0, 1) == (0, (-1,), 1)
    assert not row_nonnegative(0, (-1,))
    p = LOWEST_CANCELS
    assert q_power_row(p, 1, 1) == (0, (1,), 1)
    assert row_nonnegative(0, (1,))
    with pytest.raises(DomainError):
        q_power_row(p, -1, 1)
    with pytest.raises(DomainError):
        q_power_row(p, 0, -1)
    # the bivariate division keeps q: each q-row is divided on its own
    got = divide_by_one_minus_t_power(Q * (1 - T) + 1 - T**2, 1)
    assert got == (Q + 1 + T, 1)
    assert is_nonneg_polynomial(got[0])
    assert divide_by_one_minus_t_power(Q + T, 1) == (Q + T, 0)


def test_dense_row_span_is_bounded():
    # 1 + q at q := t^k spans k + 1 exponents: the limit itself is served,
    # one step past it (or far past it) raises before any row is built
    k = MAX_ROW_SPAN - 1
    lo, row, done = q_power_row(1 + Q, k, 0)
    assert (lo, len(row), done) == (0, MAX_ROW_SPAN, 0)
    assert row_polynomial(lo, row) == 1 + QtPolynomial.monomial(1, 0, k)
    assert row_nonnegative(lo, row)
    for k in (MAX_ROW_SPAN, 10**19):
        with pytest.raises(DomainError, match=f"more than {MAX_ROW_SPAN}"):
            q_power_row(1 + Q, k, 0)


def test_is_nonneg_polynomial():
    assert is_nonneg_polynomial(T + T**2)
    assert not is_nonneg_polynomial(1 - T)
    assert is_nonneg_polynomial(QtPolynomial.zero())
    assert not is_nonneg_polynomial(QtPolynomial.monomial(1, 0, -1))


def test_t_number():
    assert t_number(0).is_zero
    assert t_number(1) == ONE
    assert t_number(3) == 1 + T + T**2
    with pytest.raises(DomainError):
        t_number(-1)


def test_swap_qt():
    r = QtRational(T - Q, [(2, 1)])
    s = r.swap_qt()
    assert s.num == Q - T
    assert s.den == ((1, 2, 1),)


def test_json_round_trip():
    p = (1 + Q) * (1 - T) * 12345678901234567890
    assert QtPolynomial.from_obj(p.to_obj()) == p
    r = QtRational(p, [(1, 1), (1, 1), (2, 0)])
    back = QtRational.from_obj(r.to_obj())
    assert back == r


def test_expand_factors_rejects_unit():
    with pytest.raises(DomainError):
        expand_factors([(0, 0)])


@given(
    qt_polynomials(),
    # a small range repeats pairs and holds (0, 0) and negative exponents
    st.lists(st.tuples(st.integers(-2, 3), st.integers(-2, 3)), max_size=4),
)
@example(QtPolynomial.zero(), [(1, 0)])
@example(1 + Q, [])
@example(1 + Q, [(0, 0)])
@example(Q - T, [(1, -1), (1, -1), (0, 2)])
@settings(max_examples=300, deadline=None)
def test_times_binomials_matches_the_generic_product(p, pairs):
    expected = p
    for a, b in pairs:
        # 1 - q^a t^b as a two-term polynomial, through the generic product
        expected = expected * (ONE - QtPolynomial.monomial(1, a, b))
    got = times_binomials(p, pairs)
    assert got == expected
    assert 0 not in got._terms.values()


@given(qt_rationals(), qt_rationals(), qt_rationals())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(qt_rationals())
@settings(max_examples=60, deadline=None)
def test_normalization_idempotent(r):
    again = QtRational(r.num, r.den)
    assert again.num == r.num and again.den == r.den


units = st.builds(
    lambda c, eq, et: QtRational(QtPolynomial.monomial(c, eq, et)),
    st.integers(-5, 5).filter(bool),
    st.integers(-2, 4),
    st.integers(-2, 4),
)


def _by_full_greedy(num, den):
    # the stored form with no shortcut: every factor, in the (a+b, a, b)
    # order, is divided into num as often as it divides
    counts = {}
    for a, b, m in den:
        counts[(a, b)] = counts.get((a, b), 0) + m
    if num.is_zero:
        return {"num": [], "den": []}
    remaining = []
    for a, b in sorted(counts, key=lambda k: (k[0] + k[1], k[0], k[1])):
        num, done = divide_binomial_power(num, a, b, counts[(a, b)])
        if done < counts[(a, b)]:
            remaining.append([a, b, counts[(a, b)] - done])
    return {"num": num.to_obj(), "den": remaining}


def _sum_by_expanded_lifts(x, y):
    # the sum with no shortcut: each numerator times the expanded product
    # of the factors it lacks, then full greedy cancellation
    d1 = {(f.a, f.b): f.multiplicity for f in x.den}
    d2 = {(f.a, f.b): f.multiplicity for f in y.den}
    union = {k: max(d1.get(k, 0), d2.get(k, 0)) for k in d1.keys() | d2.keys()}
    lift1 = [(*k, m - d1.get(k, 0)) for k, m in union.items() if m > d1.get(k, 0)]
    lift2 = [(*k, m - d2.get(k, 0)) for k, m in union.items() if m > d2.get(k, 0)]
    num = x.num * expand_factors(lift1) + y.num * expand_factors(lift2)
    return _by_full_greedy(num, [(*k, m) for k, m in union.items()])


def _coerce_num(unit):
    return unit.num if isinstance(unit, QtRational) else QtPolynomial.from_int(unit)


@given(qt_rationals(), qt_rationals(), units, st.integers(-5, 5).filter(bool))
@example(QtRational(ONE, [(1, 1, 2)]), QtRational(ONE, [(1, 1)]), QtRational(T), 1)
@example(QtRational(ONE, [(1, 0)]), QtRational(1 - Q), QtRational(-Q), -1)
# a sum whose differing factors share a direction: (1 - q) divides it
@example(QtRational(ONE, [(1, 0)]), QtRational(Q * (1 + Q), [(2, 0)]), QtRational(T), 1)
# a product whose factor 1 - q^2 is no prime: it divides neither numerator,
# but it divides their product
@example(QtRational(1 - Q, [(2, 0)]), QtRational(1 + Q, [(0, 1)]), QtRational(T), 1)
# a numerator holding 1 - q more often than the other denominator
@example(QtRational(ONE, [(1, 0)]), QtRational((1 - Q) ** 2, [(0, 1)]), QtRational(T), 1)
# operands whose numerators cancel each other's denominators
@example(QtRational(1 - Q * T, [(1, 0)]), QtRational(1 - Q, [(1, 1)]), QtRational(Q), 2)
# a factor shared at equal multiplicity, cancelled by the difference
@example(QtRational(ONE, [(1, 0)]), QtRational(Q, [(1, 0)]), QtRational(T), 1)
@settings(max_examples=200, deadline=None)
def test_fast_paths_keep_the_normal_form(x, y, u, n):
    # every shortcut in +, * and the constructor stores exactly the
    # (num, den) that full greedy cancellation stores
    for unit in (u, n):
        by_cancellation = _by_full_greedy(x.num * _coerce_num(unit), x.den)
        assert (x * unit).to_obj() == by_cancellation
        assert (unit * x).to_obj() == by_cancellation
    zero = QtRational(QtPolynomial.zero())
    for z in (0, QtPolynomial.zero(), zero):
        assert (x + z).to_obj() == x.to_obj()
        assert (z + x).to_obj() == x.to_obj()
    product = _by_full_greedy(x.num * y.num, x.den + y.den)
    assert (x * y).to_obj() == product
    assert QtRational(x.num * y.num, x.den + y.den).to_obj() == product
    assert (x + y).to_obj() == _sum_by_expanded_lifts(x, y)
    assert (x - y).to_obj() == _sum_by_expanded_lifts(x, -y)


def test_trials_that_cannot_divide_are_skipped(monkeypatch):
    one_over_1mq = QtRational(1, [(1, 0)])
    one_over_1mt = QtRational(1, [(0, 1)])
    cross = QtRational(1 - Q * T, [(1, 0)]), QtRational(1 - Q, [(1, 1)])
    trials = []
    divide = qt.divide_binomial_power

    def counting(p, a, b, m):
        trials.append((p, a, b))
        return divide(p, a, b, m)

    monkeypatch.setattr(qt, "divide_binomial_power", counting)
    # each factor is alone in its direction and missing from one summand
    total = one_over_1mq + one_over_1mt
    assert trials == []
    assert total.num == 2 - Q - T and total.den == ((0, 1, 1), (1, 0, 1))
    # 1 - q stays, so 1 - q^2, a multiple of it, is not tried
    trials.clear()
    assert QtRational(1 + T, [(1, 0), (2, 0)]).den == ((1, 0, 1), (2, 0, 1))
    assert trials == [(1 + T, 1, 0)]
    # each primitive factor divides the other operand, not the product
    trials.clear()
    product = cross[0] * cross[1]
    assert product.num == 1 and product.den == ()
    assert sorted(trials, key=lambda trial: trial[1:]) == [
        (1 - Q, 1, 0), (1 - Q * T, 1, 1)
    ]


binomial_exponents = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
    lambda e: e != (0, 0)
)


def _reference_div(p, a, b):
    # Brute-force reference sharing no code with the library: move the
    # graded-lex-smallest remainder term into the quotient until the
    # remainder is empty (exact) or passes the top degree (inexact).
    def key(e):
        return (e[0] + e[1], e[0], e[1])

    remainder = dict(p._terms)
    if not remainder:
        return {}
    top = max(key(e) for e in remainder)
    quotient = {}
    while remainder:
        e = min(remainder, key=key)
        if key(e) > top:
            return None
        c = remainder.pop(e)
        quotient[e] = c
        shifted = (e[0] + a, e[1] + b)
        new = remainder.get(shifted, 0) + c
        if new:
            remainder[shifted] = new
        else:
            remainder.pop(shifted, None)
    return quotient


@given(qt_polynomials(), binomial_exponents)
@settings(max_examples=200, deadline=None)
def test_multiply_then_divide(p, ab):
    a, b = ab
    product = p * binomial_poly(a, b)
    assert exact_div_binomial(product, a, b) == p


@given(qt_polynomials(), binomial_exponents, st.sampled_from([None, 0, Q, -T]))
@settings(max_examples=300, deadline=None)
def test_division_matches_reference_scan(p, ab, offset):
    # an arbitrary p, or a multiple of the binomial, exact or one term off
    if offset is not None:
        p = p * binomial_poly(*ab) + offset
    got = exact_div_binomial(p, *ab)
    want = _reference_div(p, *ab)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == QtPolynomial(want)


def _reference_binomial_power(p, a, b, m):
    # the brute-force reference, one division at a time: the quotient by
    # the largest power <= m that divides exactly, and that power
    for i in range(m):
        quotient = _reference_div(p, a, b)
        if quotient is None:
            return p, i
        p = QtPolynomial(quotient)
    return p, m


def test_divide_binomial_power_examples():
    p = (1 + Q) * binomial_poly(1, 1) ** 2
    assert divide_binomial_power(p, 1, 1, 3) == (1 + Q, 2)
    assert divide_binomial_power(p, 1, 1, 1) == ((1 + Q) * binomial_poly(1, 1), 1)
    assert divide_binomial_power(p, 1, 1, 0) == (p, 0)
    assert divide_binomial_power(p, 2, 0, 2) == (p, 0)
    assert divide_binomial_power(QtPolynomial.zero(), 0, 2, 4) == (0, 4)
    # one key b*e_q - a*e_t holds two lines when gcd(a, b) > 1: the bucket
    # sums to 0 but the lines to +-1, so the division must still fail
    assert divide_binomial_power(1 - Q, 2, 0, 1) == (1 - Q, 0)
    assert divide_binomial_power(1 - T, 0, 2, 1) == (1 - T, 0)
    assert divide_binomial_power(1 - Q**2, 2, 0, 1) == (ONE, 1)
    with pytest.raises(DomainError):
        divide_binomial_power(p, 1, 1, -1)
    with pytest.raises(DomainError):
        divide_binomial_power(p, 0, 0, 1)


@given(
    qt_polynomials(),
    binomial_exponents,
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from([None, Q, -T, 1 + T]),
)
@settings(max_examples=300, deadline=None)
def test_binomial_power_matches_reference_chain(p, ab, r, m, offset):
    p = p * binomial_poly(*ab) ** r
    if offset is not None:
        p = p + offset
    quotient, done = divide_binomial_power(p, *ab, m)
    assert (quotient, done) == _reference_binomial_power(p, *ab, m)
    assert 0 not in quotient._terms.values()


ONE_MINUS_T = binomial_poly(0, 1)


two_row_polynomials = st.builds(
    # a on q-rows -2..4, b moved to q-rows 5..11, each carrying its own
    # power of (1 - t), so the stall index varies from row to row
    lambda a, b, ra, rb: a * ONE_MINUS_T**ra + Q**7 * b * ONE_MINUS_T**rb,
    qt_polynomials(),
    qt_polynomials(),
    st.integers(0, 4),
    st.integers(0, 4),
)


@given(two_row_polynomials, st.integers(0, 4), st.integers(0, 4))
@example(QtPolynomial.zero(), 2, 3)
@example(Q - T, 1, 2)  # every term cancels: the row is all zero
@example(LOWEST_CANCELS, 1, 1)
@settings(max_examples=300, deadline=None)
def test_one_minus_t_power_matches_binomial_chain(p, k, m):
    lo, row, done = q_power_row(p, k, m)
    want, want_done = _reference_binomial_power(p.substitute_q_power(k), 0, 1, m)
    assert done == want_done
    assert (row is None) == (done < m)
    if row is not None:
        quotient = row_polynomial(lo, row)
        assert quotient == want
        assert 0 not in quotient._terms.values()
        # the row starts at its lowest term; the zero quotient is (0, ())
        if want.is_zero:
            assert (lo, row) == (0, ())
        else:
            assert row[0] != 0
        assert row_nonnegative(lo, row) == is_nonneg_polynomial(want)


@given(
    qt_polynomials(),
    qt_polynomials(),
    st.integers(-3, 3),
    st.integers(0, 3),
    binomial_exponents,
)
@settings(max_examples=200, deadline=None)
def test_results_store_no_zero_coefficient(a, b, n, k, ab):
    # results that may cancel go through the zero-dropping constructor,
    # the rest are wrapped as they stand; both must stay zero-free, since
    # equality and hashing compare the stored dicts
    quotient = exact_div_binomial(a * binomial_poly(*ab), *ab)
    results = [
        a + b,
        a - b,
        a - a,
        a * b,
        a * n,
        n * a,
        -a,
        a.substitute_q_power(k),
        a.at_t_one(),
        a.swap_qt(),
        (a * Q**2).at_q_zero(),
        quotient,
    ]
    for r in results:
        assert 0 not in r._terms.values()
    equal_pairs = [
        (a + b, b + a),
        (a - b, -(b - a)),
        (a - a, QtPolynomial.zero()),
        (a * b, b * a),
        (a * n, QtPolynomial({e: c * n for e, c in a.terms()})),
        (a.swap_qt().swap_qt(), a),
        ((a * b).at_t_one(), a.at_t_one() * b.at_t_one()),
        (
            (a * b).substitute_q_power(k),
            a.substitute_q_power(k) * b.substitute_q_power(k),
        ),
        (quotient, a),
    ]
    for x, y in equal_pairs:
        assert x == y and hash(x) == hash(y)


def _point_for(*rationals):
    """A Kronecker point deciding r = a op b exactly, for op in +, -, *
    and r, a, b among ``rationals``.

    Cleared of denominators the identity is N = 0 for
    N = r.num a.den b.den - X r.den, with X one of a.num b.den +- b.num a.den
    and a.num b.num.  If every numerator has l1 norm at most ``norm`` and
    t-exponents in [-e, e], and every denominator is a product of at most
    k binomials of total t-degree at most d, then ||N||_1 <= (norm+2)^2 4^k
    and some q^i t^(2e) N is a polynomial of t-degree at most 4e + 2d.
    """
    norm = max(sum(abs(c) for _, c in r.num.terms()) for r in rationals)
    e = max((abs(et) for r in rationals for (_, et), _ in r.num.terms()), default=0)
    k = max(sum(f.multiplicity for f in r.den) for r in rationals)
    d = max(sum(f.b * f.multiplicity for f in r.den) for r in rationals)
    return kronecker_point((norm + 2) ** 2 * 4**k, 4 * e + 2 * d)


def _value(r, point):
    # the denominator from its factors, so no qt arithmetic is involved
    q, t = map(Fraction, point)
    num = sum((c * q**a * t**b for (a, b), c in r.num.terms()), Fraction(0))
    den = prod((1 - q**f.a * t**f.b) ** f.multiplicity for f in r.den)
    return num / den


@given(qt_rationals(), qt_rationals())
@example(QtRational(ONE, [(1, 1, 2)]), QtRational(ONE, [(1, 1)]))
@settings(max_examples=40, deadline=None)
def test_arithmetic_matches_independent_stack(a, b):
    # plain Fractions at a point where agreement proves the identity
    results = {op: op(a, b) for op in (operator.add, operator.sub, operator.mul)}
    point = _point_for(a, b, *results.values())
    for op, r in results.items():
        assert _value(r, point) == op(_value(a, point), _value(b, point))
