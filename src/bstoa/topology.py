"""Topology constraints of MIMO backscatter delay matrices.

Every backscatter delay matrix is an outer sum ``delta + h (+) g``, so each
2x2 submatrix of adjacent-index entries satisfies a linear identity.  This
module builds the integer correlation matrix ``A`` encoding those identities,
the orthogonal projector ``B`` onto their null space, and the closed-form
values taken by the entries of ``B``.  Both matrices are Kronecker forms
with no solve: ``A = D_n (x) D_m`` for the first-difference matrix ``D_k``,
and ``B`` is row mean + column mean - grand mean.

Flat subchannel indices are column-major throughout the package: index ``z``
of an m x n matrix maps to transmitter ``z % m`` and receiver ``z // m``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidValue, _require_integer


class Kind(str, Enum):
    BISTATIC = "bistatic"
    MONOSTATIC = "monostatic"


@dataclass(frozen=True)
class Topology:
    """Channel topology: m transmit antennas, n receive antennas.

    ``kind`` may be given as a :class:`Kind` or its value (``"bistatic"``,
    ``"monostatic"``) and is stored as the member.  m and n are integers
    (``operator.index``) >= 1.  Monostatic channels share one antenna
    array, so m == n is enforced.
    """

    kind: Kind
    m: int
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.kind, Kind):
            try:
                object.__setattr__(self, "kind", Kind(self.kind))
            except ValueError as exc:
                raise InvalidValue(f"unknown topology kind {self.kind!r}") from exc
        if min(_require_integer(self.m, "m"), _require_integer(self.n, "n")) < 1:
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


def correlation_matrix(topo: Topology) -> np.ndarray:
    """Build the constraint matrix ``A = D_n (x) D_m`` for the given topology.

    ``D_k`` is the (k-1) x k first-difference matrix, so row
    ``j (m-1) + i`` of A is the double difference of the 2x2 submatrix at
    (i, j): ``1, -1, -1, 1`` at columns ``q, q+1, q+m, q+m+1`` with
    ``q = j m + i``.  These are the rows of the paper's loop, in its order
    (1-based row p at ``q = p + ceil(p / (m-1)) - 1``).  With m == 1 or
    n == 1 there is no 2x2 submatrix and the matrix has zero rows.

    Returns an ``(m-1)(n-1) x m*n`` array of int8 in {-1, 0, 1}.
    """
    d_m, d_n = (np.diff(np.eye(k, dtype=np.int8), axis=0) for k in (topo.m, topo.n))
    return np.kron(d_n, d_m)


def weighting_matrix(topo: Topology) -> np.ndarray:
    """Orthogonal projector B onto the null space of the correlation matrix.

    ``B vec(T) = vec(row mean + column mean - grand mean of T)``, with
    ``vec`` the column-major flattening, that is

        B = (J_n / n) (x) I_m + I_n (x) (J_m / m) - 1 / (m n)

    with ``J_k`` the k x k all-ones matrix.  Entry (z, r) depends only on
    whether subchannels z and r share their transmitter or receiver, so B
    is exactly symmetric.  A topology with m == 1 or n == 1 has no
    constraint and B is the identity up to rounding.
    """
    m, n = topo.m, topo.n
    b = np.kron(np.full((n, n), 1.0 / n), np.eye(m))
    b += np.kron(np.eye(n), np.full((m, m), 1.0 / m))
    b -= 1.0 / (m * n)
    return b


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
