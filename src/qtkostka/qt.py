"""Exact sparse Laurent arithmetic in q and t over arbitrary-precision integers.

QtPolynomial is a sparse Laurent polynomial (exponents may be negative).
QtRational keeps its denominator as a multiset of binomial factors
(1 - q^a t^b); the only divisions the pipeline ever needs are by such
factors, so no multivariate gcd is required anywhere.  Equality of
rationals is decided by cross-multiplication, never by canonical forms.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from operator import add
from typing import Container, Iterable, Iterator, NamedTuple

from .errors import ConsistencyError, DomainError, PoleError

ExponentPair = tuple[int, int]


def _grading_key(exps: ExponentPair) -> tuple[int, int, int]:
    # graded lexicographic with q > t; pins iteration and serialization order
    eq, et = exps
    return (eq + et, eq, et)


def _wrap(terms: dict[ExponentPair, int]) -> "QtPolynomial":
    """A polynomial on ``terms`` as given; they must hold no zero coefficient.

    Results that may hold cancelled terms go through the public
    constructor instead, which drops them.
    """
    out = QtPolynomial.__new__(QtPolynomial)
    out._terms = terms
    return out


class QtPolynomial:
    """Sparse Laurent polynomial in q, t with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[ExponentPair, int] | None = None):
        terms = dict(terms) if terms else {}
        # results of +, * and the substitutions rarely cancel, so check
        # before paying for a filtering pass
        if not all(terms.values()):
            terms = {e: c for e, c in terms.items() if c}
        self._terms: dict[ExponentPair, int] = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "QtPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QtPolynomial":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, coeff: int, eq: int = 0, et: int = 0) -> "QtPolynomial":
        return cls({(eq, et): coeff})

    @classmethod
    def from_int(cls, n: int) -> "QtPolynomial":
        return cls({(0, 0): n})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[ExponentPair, int]]:
        """Terms sorted in the canonical graded-lex order."""
        return sorted(self._terms.items(), key=lambda kv: _grading_key(kv[0]))

    def coefficient(self, eq: int, et: int) -> int:
        return self._terms.get((eq, et), 0)

    def is_genuine_polynomial(self) -> bool:
        """No negative exponents anywhere."""
        return all(eq >= 0 and et >= 0 for eq, et in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "QtPolynomial | int") -> "QtPolynomial":
        if isinstance(other, int):
            other = QtPolynomial.from_int(other)
        if not isinstance(other, QtPolynomial):
            return NotImplemented
        result = dict(self._terms)
        for e, c in other._terms.items():
            result[e] = result.get(e, 0) + c
        return QtPolynomial(result)

    __radd__ = __add__

    def __neg__(self) -> "QtPolynomial":
        return _wrap({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "QtPolynomial | int") -> "QtPolynomial":
        if isinstance(other, int):
            other = QtPolynomial.from_int(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "QtPolynomial":
        return QtPolynomial.from_int(other) + (-self)

    def __mul__(self, other: "QtPolynomial | int") -> "QtPolynomial":
        if isinstance(other, int):
            if other == 0:
                return QtPolynomial.zero()
            return _wrap({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, QtPolynomial):
            return NotImplemented
        left, right = self._terms, other._terms
        if len(left) == 1:
            left, right = right, left
        if len(right) == 1:
            # a one-term factor shifts and scales: no two terms collide
            ((dq, dt), k), = right.items()
            return _wrap({(eq + dq, et + dt): c * k for (eq, et), c in left.items()})
        result: dict[ExponentPair, int] = {}
        get = result.get
        right_items = right.items()
        for (eq1, et1), c1 in left.items():
            for (eq2, et2), c2 in right_items:
                e = (eq1 + eq2, et1 + et2)
                result[e] = get(e, 0) + c1 * c2
        return QtPolynomial(result)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "QtPolynomial":
        if exponent < 0:
            raise DomainError("negative power of a polynomial")
        result = QtPolynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ({} if other == 0 else {(0, 0): other})
        if isinstance(other, QtPolynomial):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it too
        if not self._terms.keys() - {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    # -- substitutions -----------------------------------------------------

    def substitute_q_power(self, k: int) -> "QtPolynomial":
        """Substitute q := t^k; result lives on the t-axis."""
        if k < 0:
            raise DomainError(f"q-power substitution needs k >= 0, got {k}")
        result: dict[ExponentPair, int] = {}
        for (eq, et), c in self._terms.items():
            e = (0, k * eq + et)
            result[e] = result.get(e, 0) + c
        return QtPolynomial(result)

    def swap_qt(self) -> "QtPolynomial":
        return _wrap({(et, eq): c for (eq, et), c in self._terms.items()})

    def at_t_one(self) -> "QtPolynomial":
        """Evaluate t = 1, collapsing onto the q-axis."""
        result: dict[ExponentPair, int] = {}
        for (eq, _), c in self._terms.items():
            e = (eq, 0)
            result[e] = result.get(e, 0) + c
        return QtPolynomial(result)

    def at_q_zero(self) -> "QtPolynomial":
        """Evaluate q = 0; only legal on genuine polynomials in q."""
        if any(eq < 0 for eq, _ in self._terms):
            raise PoleError("q = 0 hits a negative q-exponent")
        return _wrap({e: c for e, c in self._terms.items() if e[0] == 0})

    # -- presentation ------------------------------------------------------

    def to_obj(self) -> list[list]:
        """JSON form: [e_q, e_t, "coeff"] triples, coefficient as string."""
        return [[eq, et, str(c)] for (eq, et), c in self.terms()]

    @classmethod
    def from_obj(cls, obj: list) -> "QtPolynomial":
        """The inverse of ``to_obj``: a term with a non-int exponent or a
        non-string coefficient, or a repeated exponent pair, is a DomainError."""
        terms = {
            (eq, et): int(c) for eq, et, c in obj
            if type(eq) is type(et) is int and type(c) is str
        }
        if len(terms) != len(obj):
            raise DomainError("malformed or repeated term")
        return cls(terms)

    def _term_strings(self, mul: str, pow_open: str, pow_close: str) -> Iterator[str]:
        for (eq, et), c in self.terms():
            vars_part = []
            for sym, e in (("q", eq), ("t", et)):
                if e == 1:
                    vars_part.append(sym)
                elif e != 0:
                    vars_part.append(f"{sym}{pow_open}{e}{pow_close}")
            body = mul.join(vars_part)
            if not body:
                yield str(c)
            elif c == 1:
                yield body
            elif c == -1:
                yield f"-{body}"
            else:
                yield f"{c}{mul}{body}"

    def _render(self, mul: str, pow_open: str, pow_close: str) -> str:
        if self.is_zero:
            return "0"
        first, *rest = self._term_strings(mul, pow_open, pow_close)
        return first + "".join(
            f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in rest
        )

    def __str__(self) -> str:
        return self._render("*", "^", "")

    def __repr__(self) -> str:
        return f"QtPolynomial({self})"

    def latex(self) -> str:
        return self._render("", "^{", "}")


ONE = QtPolynomial.one()
Q = QtPolynomial.monomial(1, 1, 0)
T = QtPolynomial.monomial(1, 0, 1)


def binomial_poly(a: int, b: int) -> QtPolynomial:
    """The factor 1 - q^a t^b."""
    if (a, b) == (0, 0):
        raise DomainError("1 - q^0 t^0 is zero, not a binomial factor")
    return QtPolynomial({(0, 0): 1, (a, b): -1})


def times_binomials(p: QtPolynomial, pairs: Iterable[ExponentPair]) -> QtPolynomial:
    """p times the product of 1 - q^a t^b over the (a, b) in pairs.

    Repeats count, exponents may be negative, (0, 0) gives zero and no
    pairs give p.  Each factor is one pass, p minus its copy shifted by
    (a, b); cancelled terms are dropped once, at the end.
    """
    terms = p._terms
    for a, b in pairs:
        shifted = dict(terms)
        get = shifted.get
        for (eq, et), c in terms.items():
            e = (eq + a, et + b)
            shifted[e] = get(e, 0) - c
        terms = shifted
    return p if terms is p._terms else QtPolynomial(terms)


def t_number(j: int) -> QtPolynomial:
    """[j]_t = 1 + t + ... + t^(j-1); [0]_t = 0."""
    if j < 0:
        raise DomainError(f"t-number needs j >= 0, got {j}")
    return QtPolynomial({(0, i): 1 for i in range(j)})


def divide_binomial_power(
    p: QtPolynomial, a: int, b: int, m: int
) -> tuple[QtPolynomial, int]:
    """p / (1 - q^a t^b)^done for the largest done <= m that divides exactly.

    Works on Laurent polynomials.  With X = q^a t^b, p splits along the
    lattice lines e0 + j(a, b) as p = sum_e0 q^e0_q t^e0_t f_e0(X), and
    multiplying by 1 - X keeps each line to itself.  Since (1 - X) divides
    f exactly when f(1) = 0, p is divisible if and only if the coefficients
    on every line sum to 0.  The quotient at a point is then the running
    sum of p along its line, up to and including the point.  Most attempts
    fail the first test, so it runs before any sum is built, on the
    buckets of the integer key b*e_q - a*e_t: each bucket is a union of
    whole lines, so a nonzero bucket sum proves the division fails.  When
    gcd(a, b) = 1 a bucket is one line.

    The running sums run on a flat list over p's bounding box: one row
    per e_q, each padded by b zero columns, and a zero rows appended, so
    that a step of (a, b) is a step of a*width + b along the list; the
    sums are built one chunk of that length at a time, each chunk the
    previous one plus the matching chunk of the list.  A step back from a
    box slot stays on its line inside the box, or leaves the box: before
    the list, or onto a padding slot.  An exact quotient lies
    inside p's bounding box, so its sums vanish on every padding slot;
    conversely, when they do, the box holds a q with p = (1 - X) q.  A
    round is therefore exact just when its sums vanish off the box.  Time
    and memory grow with the area of the box, which the pipeline's
    numerators fill to about two thirds.
    """
    if (a, b) == (0, 0) or a < 0 or b < 0:
        raise DomainError(f"not a binomial denominator: (1 - q^{a} t^{b})")
    if m < 0:
        raise DomainError(f"negative power {m}")
    terms = p._terms
    if not terms:
        return p, m
    buckets: dict[int, int] = {}
    get = buckets.get
    for (eq, et), c in terms.items():
        key = b * eq - a * et
        buckets[key] = get(key, 0) + c
    if any(buckets.values()):
        return p, 0
    eqs, ets = zip(*terms)
    lo_q, lo_t = min(eqs), min(ets)
    span_q = max(eqs) - lo_q + 1
    span_t = max(ets) - lo_t + 1
    width = span_t + b
    step = a * width + b
    flat = [0] * ((span_q + a) * width)
    origin = lo_q * width + lo_t
    for (eq, et), c in terms.items():
        flat[eq * width + et - origin] = c
    box_end = span_q * width
    done = 0
    while done < m:
        sums = flat[:step]
        for i in range(step, len(flat), step):
            sums += map(add, flat[i:i + step], sums[i - step:i])
        if any(sums[box_end:]) or any(
            any(sums[i:i + b]) for i in range(span_t, box_end, width)
        ):
            break
        flat = sums
        done += 1
    if not done:
        return p, 0
    quotient = {}
    for row, eq in zip(range(0, box_end, width), range(lo_q, lo_q + span_q)):
        for et, c in enumerate(flat[row:row + span_t], lo_t):
            if c:
                quotient[(eq, et)] = c
    return _wrap(quotient), done


def exact_div_binomial(p: QtPolynomial, a: int, b: int) -> QtPolynomial | None:
    """Exact quotient p / (1 - q^a t^b), or None if the division leaves a remainder."""
    quotient, done = divide_binomial_power(p, a, b, 1)
    return quotient if done else None


# The most t-exponents one dense row of q_power_row may span.  The
# recorded checks need at most a few thousand (degree 14 at k <= 24 about
# 2,600); a row of 10^6 Python ints already takes tens of megabytes.
MAX_ROW_SPAN = 10**6


def q_power_row(
    p: QtPolynomial, k: int, m: int
) -> tuple[int, tuple[int, ...] | None, int]:
    """p(q := t^k) / (1-t)^m as a dense t-row: (lo, row, done).

    When the division is exact, ``row`` holds the coefficients of
    t^lo, t^(lo+1), ... (interior zeros included), its first entry is
    nonzero, and ``done`` is m; the zero quotient is (0, (), m).  When it
    is not, ``row`` is None and ``done`` counts the divisions that went
    through.  The substitution is folded into the build of the row at the
    exponents k*e_q + e_t.  Each division by 1 - t replaces the row by its
    running sums and pops the last one, the total, which must be 0.  A
    nonzero row keeps its first nonzero entry, so it never runs empty.
    A row spanning more than MAX_ROW_SPAN exponents is a DomainError,
    raised before it is allocated.
    """
    if k < 0:
        raise DomainError(f"q-power substitution needs k >= 0, got {k}")
    if m < 0:
        raise DomainError(f"negative power {m}")
    exps = [k * eq + et for eq, et in p._terms]
    lo = min(exps, default=0)
    span = max(exps, default=lo) - lo + 1
    if span > MAX_ROW_SPAN:
        raise DomainError(
            f"q := t^{k} spans {span} t-exponents, more than {MAX_ROW_SPAN}"
        )
    row = [0] * span
    for e, c in zip(exps, p._terms.values()):
        row[e - lo] += c
    first = next((i for i, c in enumerate(row) if c), None)
    if first is None:
        return 0, (), m
    del row[:first]
    lo += first
    for done in range(m):
        row = list(accumulate(row))
        if row.pop():
            return lo, None, done
    return lo, tuple(row), m


def row_nonnegative(lo: int, row: tuple[int, ...]) -> bool:
    """A q_power_row quotient has no negative exponent or coefficient."""
    return lo >= 0 and min(row, default=0) >= 0


def row_polynomial(lo: int, row: tuple[int, ...]) -> QtPolynomial:
    """The QtPolynomial of a q_power_row quotient."""
    return _wrap({(0, lo + i): c for i, c in enumerate(row) if c})


def divide_by_one_minus_t_power(p: QtPolynomial, m: int) -> tuple[QtPolynomial, int]:
    """divide_binomial_power at (a, b) = (0, 1): each q-row divided on its own."""
    return divide_binomial_power(p, 0, 1, m)


class BinomialFactor(NamedTuple):
    """(1 - q^a t^b)^multiplicity with (a, b) != (0, 0)."""

    a: int
    b: int
    multiplicity: int


def _normalize_factors(factors: Iterable) -> tuple[BinomialFactor, ...]:
    counts: dict[tuple[int, int], int] = {}
    for f in factors:
        if len(f) == 2:
            a, b, mult = f[0], f[1], 1
        else:
            a, b, mult = f
        if (a, b) == (0, 0) or a < 0 or b < 0 or mult < 1:
            raise DomainError(f"invalid binomial factor {f}")
        counts[(a, b)] = counts.get((a, b), 0) + mult
    return _sorted_factors(counts)


def _sorted_factors(counts: dict[ExponentPair, int]) -> tuple[BinomialFactor, ...]:
    return tuple(
        BinomialFactor(a, b, counts[(a, b)])
        for (a, b) in sorted(counts, key=_grading_key)
    )


def _repeated(factors: Iterable[tuple[int, int, int]]) -> Iterator[ExponentPair]:
    """Each factor's (a, b), once per unit of its multiplicity."""
    for a, b, mult in factors:
        for _ in range(mult):
            yield a, b


def expand_factors(factors: Iterable) -> QtPolynomial:
    """Multiply out a product of binomial factors."""
    return times_binomials(ONE, _repeated(_normalize_factors(factors)))


# Why +, * and the constructor may skip division trials and still store
# exactly what full greedy cancellation stores.
#
# Invariant: no factor left in a stored denominator divides the stored
# numerator.  Greedy cancellation leaves it so, since a factor that does
# not divide N does not divide N / g either; negation, unit products and
# cache reads keep it.
#
# Directions: with g = gcd(a, b) and X = q^(a/g) t^(b/g), 1 - q^a t^b is
# 1 - X^g, a product of cyclotomic polynomials in X.  A monomial change of
# variables from GL2(Z) takes the primitive monomial X to a single
# variable u, and each cyclotomic polynomial in u stays irreducible in
# the unique factorisation domain Z[u^±1, v^±1].  So binomials of
# different directions (a, b)/g share no factor, and a primitive binomial
# (g = 1) is prime.  Dividing by factors of one direction never changes
# whether a factor of another divides, so greedy cancellation runs
# direction by direction; only the order within a direction matters.
#
# R1 (sums): let f be the only factor of its direction in the union, with
# multiplicity m1 > m2 in the two summands.  The lifted sum is
# n1 L1 + n2 L2, where f divides L2 and L1 holds only other directions.
# f dividing the sum would make it divide n1 L1, hence n1, since it
# shares no factor with L1: against the invariant.  So every trial of f
# fails.
#
# R2 (products): let f = 1 - X be primitive: it is prime, and it comes
# first among the factors of its direction in the fixed order, whose
# key (a + b, a, b) grows with the multiple.  If both denominators
# hold it, f divides neither numerator, and so not their product.  If
# only the first holds it, m times, f does not divide n1, so f^k divides
# n1 n2 exactly when it divides n2: dividing n2 by f up to m times first
# leaves the quotient that the trials on the product leave, and the
# later factors of its direction are tried on that same quotient.
#
# R3 (lifts) multiply by times_binomials, not the generic product; they
# change no value.
#
# R4 (every cancellation): a primitive factor that stays in the
# denominator does not divide the numerator, nor any later quotient of
# it.  Each later factor of its direction, 1 - X^k, is a multiple of it,
# so none of them can divide either.


def _direction(a: int, b: int) -> ExponentPair:
    g = gcd(a, b)
    return (a // g, b // g)


def _alone(counts: dict[ExponentPair, int]) -> set[ExponentPair]:
    """The factors of counts that no other factor shares a direction with."""
    by_direction: dict[ExponentPair, ExponentPair | None] = {}
    for a, b in counts:
        d = _direction(a, b)
        by_direction[d] = None if d in by_direction else (a, b)
    return {k for k in by_direction.values() if k is not None}


def _cancel(
    num: QtPolynomial,
    factors: tuple[BinomialFactor, ...],
    skip: Container[ExponentPair],
) -> tuple[QtPolynomial, tuple[BinomialFactor, ...]]:
    """Greedy cancellation of num over factors, in their order: each is
    divided into num as often as it divides exactly.  The factors in
    ``skip`` are known not to divide and stay whole without a trial, and
    so do the factors of a direction whose primitive factor stayed."""
    if num.is_zero:
        return QtPolynomial.zero(), ()
    remaining: list[BinomialFactor] = []
    # R4: directions whose primitive factor stays
    stuck: set[ExponentPair] = set()
    for f in factors:
        direction = _direction(f.a, f.b)
        if (f.a, f.b) in skip or direction in stuck:
            done = 0
        else:
            num, done = divide_binomial_power(num, f.a, f.b, f.multiplicity)
        if done < f.multiplicity:
            remaining.append(BinomialFactor(f.a, f.b, f.multiplicity - done))
            if direction == (f.a, f.b):
                stuck.add(direction)
    return num, tuple(remaining)


class QtRational:
    """Quotient of a QtPolynomial by a multiset of binomial factors.

    Construction normalizes by greedy cancellation: each denominator
    factor (taken in the fixed (a+b, a, b) order) is divided into the
    numerator as long as the division is exact.  The representation is
    not canonical; use ``==`` (cross-multiplication) for equality.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: QtPolynomial | int, den: Iterable = ()):
        if isinstance(num, int):
            num = QtPolynomial.from_int(num)
        self._num, self._den = _cancel(num, _normalize_factors(den), ())

    @classmethod
    def _raw(cls, num: QtPolynomial, den: tuple[BinomialFactor, ...]) -> "QtRational":
        # skips __init__: the parts are already normalised, and perfbench
        # counts __init__ calls as qt.rational.new
        out = cls.__new__(cls)
        out._num = num
        out._den = den
        return out

    @property
    def num(self) -> QtPolynomial:
        return self._num

    @property
    def den(self) -> tuple[BinomialFactor, ...]:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    def __bool__(self) -> bool:
        return not self._num.is_zero

    def is_polynomial(self) -> bool:
        return not self._den

    def as_polynomial(self) -> QtPolynomial:
        """The numerator, provided normalization cleared the denominator."""
        if self._den:
            raise ConsistencyError(
                f"residual denominator {self._den} on {self}"
            )
        return self._num

    def _is_unit(self) -> bool:
        return not self._den and len(self._num) == 1

    # -- field operations (no general division; see module docstring) ------

    def _den_counts(self) -> dict[tuple[int, int], int]:
        return {(f.a, f.b): f.multiplicity for f in self._den}

    def __add__(self, other: "QtRational | QtPolynomial | int") -> "QtRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # a normalised summand stays normalised over its own denominator
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        d1 = self._den_counts()
        d2 = other._den_counts()
        union = {k: max(d1.get(k, 0), d2.get(k, 0)) for k in d1.keys() | d2.keys()}
        # R1: a lone factor of its direction whose multiplicities differ
        skip = {k for k in _alone(union) if d1.get(k, 0) != d2.get(k, 0)}
        # R3: each numerator is lifted by the factors it lacks
        lift1 = _repeated((a, b, m - d1.get((a, b), 0)) for (a, b), m in union.items())
        lift2 = _repeated((a, b, m - d2.get((a, b), 0)) for (a, b), m in union.items())
        return QtRational._raw(*_cancel(
            times_binomials(self._num, lift1) + times_binomials(other._num, lift2),
            _sorted_factors(union),
            skip,
        ))

    __radd__ = __add__

    def __neg__(self) -> "QtRational":
        return QtRational._raw(-self._num, self._den)

    def __sub__(self, other) -> "QtRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QtRational":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "QtRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # a unit c q^i t^j moves lattice lines onto lines and scales each
        # line sum by c != 0, so no factor of the other (normalised)
        # operand can start to divide: skip the cancellation attempts
        if other._is_unit():
            return QtRational._raw(self._num * other._num, self._den)
        if self._is_unit():
            return QtRational._raw(self._num * other._num, other._den)
        n1, n2 = self._num, other._num
        d1 = self._den_counts()
        d2 = other._den_counts()
        counts = dict(d1)
        for k, m in d2.items():
            counts[k] = counts.get(k, 0) + m
        # R2: a primitive factor is tried on the other operand, if at all,
        # never on the product
        skip = set()
        for k in counts:
            a, b = k
            if gcd(a, b) != 1:
                continue
            skip.add(k)
            if k not in d2:
                n2, done = divide_binomial_power(n2, a, b, d1[k])
            elif k not in d1:
                n1, done = divide_binomial_power(n1, a, b, d2[k])
            else:
                continue
            counts[k] -= done
        return QtRational._raw(*_cancel(
            n1 * n2, _sorted_factors({k: m for k, m in counts.items() if m}), skip
        ))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        lhs = times_binomials(self._num, _repeated(other._den))
        return lhs == times_binomials(other._num, _repeated(self._den))

    __hash__ = None  # non-canonical representation

    # -- substitutions -----------------------------------------------------

    def substitute_q_power(self, k: int) -> "QtRational":
        """Substitute q := t^k in numerator and denominator."""
        new_den = []
        for f in self._den:
            e = k * f.a + f.b
            if e == 0:
                raise PoleError(
                    f"q := t^{k} kills denominator factor (1 - q^{f.a} t^{f.b})"
                )
            new_den.append((0, e, f.multiplicity))
        return QtRational(self._num.substitute_q_power(k), new_den)

    def swap_qt(self) -> "QtRational":
        return QtRational(
            self._num.swap_qt(),
            [(f.b, f.a, f.multiplicity) for f in self._den],
        )

    # -- presentation ------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "num": self._num.to_obj(),
            "den": [[f.a, f.b, f.multiplicity] for f in self._den],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "QtRational":
        """The inverse of ``to_obj``: a denominator factor with a non-int
        field, or a repeated (a, b), is a DomainError."""
        den = obj["den"]
        pairs = {(a, b) for a, b, m in den if type(a) is type(b) is type(m) is int}
        if len(pairs) != len(den):
            raise DomainError("malformed or repeated denominator factor")
        return cls._raw(QtPolynomial.from_obj(obj["num"]), _normalize_factors(den))

    def _den_str(self, fmt: str) -> str:
        pieces = []
        for f in self._den:
            base = binomial_poly(f.a, f.b)
            body = base.latex() if fmt == "latex" else str(base)
            piece = f"({body})"
            if f.multiplicity > 1:
                piece += (
                    f"^{{{f.multiplicity}}}" if fmt == "latex" else f"^{f.multiplicity}"
                )
            pieces.append(piece)
        return "".join(pieces) if fmt == "latex" else "*".join(pieces)

    def __str__(self) -> str:
        if not self._den:
            return str(self._num)
        return f"({self._num}) / ({self._den_str('str')})"

    def __repr__(self) -> str:
        return f"QtRational({self})"

    def latex(self) -> str:
        if not self._den:
            return self._num.latex()
        return f"\\frac{{{self._num.latex()}}}{{{self._den_str('latex')}}}"


def _coerce(value) -> QtRational:
    if isinstance(value, QtRational):
        return value
    if isinstance(value, QtPolynomial):
        return QtRational._raw(value, ())
    if isinstance(value, int):
        return QtRational._raw(QtPolynomial.from_int(value), ())
    return NotImplemented

