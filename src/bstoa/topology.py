"""Topology constraints of MIMO backscatter delay matrices.

Every backscatter delay matrix is an outer sum ``delta + h (+) g``, so each
2x2 submatrix of adjacent-index entries satisfies a linear identity.  This
module builds the integer correlation matrix ``A`` encoding those identities,
the orthogonal projector ``B = I - A^T (A A^T)^-1 A`` onto their null space,
and the closed-form values taken by the entries of ``B``.

Flat subchannel indices are column-major throughout the package: index ``z``
of an m x n matrix maps to transmitter ``z % m`` and receiver ``z // m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import IndexOutOfRange, InvalidValue, SingularSystem


class Kind(str, Enum):
    BISTATIC = "bistatic"
    MONOSTATIC = "monostatic"


@dataclass(frozen=True)
class Topology:
    """Channel topology: m transmit antennas, n receive antennas.

    Monostatic channels share one antenna array, so m == n is enforced.
    """

    kind: Kind
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise InvalidValue(f"antenna counts must be >= 1, got m={self.m}, n={self.n}")
        if self.kind is Kind.MONOSTATIC and self.m != self.n:
            raise InvalidValue(f"monostatic requires m == n, got m={self.m}, n={self.n}")

    @classmethod
    def bistatic(cls, m: int, n: int) -> "Topology":
        return cls(Kind.BISTATIC, m, n)

    @classmethod
    def monostatic(cls, m: int) -> "Topology":
        return cls(Kind.MONOSTATIC, m, m)

    @property
    def mn(self) -> int:
        return self.m * self.n


class EntryType(IntEnum):
    """Relation of subchannel r to subchannel z, for z = (tx i, rx j)."""

    SHARED_BOTH = 1   # r == z
    SHARED_TX = 2     # same transmitter, different receiver
    SHARED_RX = 3     # same receiver, different transmitter
    SHARED_NONE = 4   # neither shared


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.ravel(matrix, order="F")


def unvec(values: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inverse of :func:`vec` for an m x n matrix."""
    return np.reshape(values, (m, n), order="F")


def correlation_matrix(topo: Topology) -> np.ndarray:
    """Build the constraint matrix A for the given topology.

    Row p (1-based) places the pattern ``1, -1, -1, 1`` at columns
    ``q, q+1, q+m, q+m+1`` with ``q = p + ceil(p / (m-1)) - 1``, which pins
    one 2x2 submatrix of the column-major delay vector.  With m == 1 or
    n == 1 there is no 2x2 submatrix and the matrix has zero rows.

    Returns an ``(m-1)(n-1) x m*n`` array of int8 in {-1, 0, 1}.
    """
    m, n = topo.m, topo.n
    rows = (m - 1) * (n - 1)
    a = np.zeros((rows, m * n), dtype=np.int8)
    for p in range(1, rows + 1):
        q = p + math.ceil(p / (m - 1)) - 1
        a[p - 1, q - 1] = 1
        a[p - 1, q] = -1
        a[p - 1, q + m - 1] = -1
        a[p - 1, q + m] = 1
    return a


def weighting_matrix(a: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the null space of ``a``.

    Computed as ``I - A^T X`` where ``X`` solves ``(A A^T) X = A``; the
    Gram matrix is never inverted explicitly.  A zero-row ``a`` yields the
    identity (no constraints).

    Raises:
        SingularSystem: if the Gram solve fails, which cannot happen for a
            matrix produced by :func:`correlation_matrix` and signals a
            corrupted input.
    """
    a = np.asarray(a)
    order = a.shape[1]
    if a.shape[0] == 0:
        return np.eye(order)
    af = a.astype(np.float64)
    try:
        x = np.linalg.solve(af @ af.T, af)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"constraint Gram matrix is singular: {exc}") from exc
    return np.eye(order) - af.T @ x


def entry_weights(topo: Topology) -> tuple[float, float, float, float]:
    """Closed-form entry values of the projector, by entry type.

    Returns ``(w1, w2, w3, w4)`` for the shared-both, shared-TX, shared-RX
    and shared-none entries:

        w1 = (m + n - 1) / (m n)
        w2 = (m - 1) / (m n)
        w3 = (n - 1) / (m n)
        w4 = -1 / (m n)

    The monostatic values are the same expressions with n == m, where the
    shared-TX and shared-RX weights coincide at (m - 1) / m^2.
    """
    m, n = topo.m, topo.n
    mn = m * n
    return ((m + n - 1) / mn, (m - 1) / mn, (n - 1) / mn, -1.0 / mn)


def classify_entry(topo: Topology, z: int, r: int) -> EntryType:
    """Classify projector entry (z, r) by what subchannels z and r share.

    Both indices are 0-based column-major flat subchannel indices.
    """
    mn = topo.mn
    if not (0 <= z < mn):
        raise IndexOutOfRange(f"z={z} outside 0..{mn - 1}")
    if not (0 <= r < mn):
        raise IndexOutOfRange(f"r={r} outside 0..{mn - 1}")
    if r == z:
        return EntryType.SHARED_BOTH
    m = topo.m
    zi, zj = z % m, z // m
    ri, rj = r % m, r // m
    if ri == zi:
        return EntryType.SHARED_TX
    if rj == zj:
        return EntryType.SHARED_RX
    return EntryType.SHARED_NONE
