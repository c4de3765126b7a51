"""Exact q,t-Kostka matrices for Macdonald symmetric functions, the
integral-form coefficients k(lambda, mu), their reduction algebra, and a
dual Haglund positivity checker, with K1 certified exactly at a Kronecker
point by the oracle.
"""

from .errors import ConsistencyError, DomainError, PoleError
from .partitions import Partition, partition, partitions_of
from .qt import QtPolynomial, QtRational

__all__ = [
    "ConsistencyError",
    "DomainError",
    "Partition",
    "PoleError",
    "QtPolynomial",
    "QtRational",
    "partition",
    "partitions_of",
]
