"""Checks shared by several test modules."""


def is_nonneg_polynomial(p) -> bool:
    """All coefficients >= 0 and all exponents >= 0 in a QtPolynomial."""
    return all(c >= 0 and a >= 0 and b >= 0 for (a, b), c in p.terms())
