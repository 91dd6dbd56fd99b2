"""Constraint matrix, projector, and entry-pattern tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bstoa.errors import BstoaError, InvalidValue
from bstoa.topology import (
    Kind,
    Topology,
    correlation_matrix,
    entry_weights,
    weighting_matrix,
)

GRID = [(m, n) for m in range(1, 9) for n in range(1, 9)]


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology.bistatic(0, 3)
    with pytest.raises(ValueError):
        Topology(Kind.MONOSTATIC, 2, 3)
    assert Topology.monostatic(4).n == 4


@pytest.mark.parametrize(
    "kind, m, n",
    [
        (Kind.BISTATIC, 0, 3),
        (Kind.BISTATIC, 2, 0),
        (Kind.MONOSTATIC, 2, 3),
        ("bi", 4, 3),
        ("BISTATIC", 4, 3),
        ("", 4, 3),
        (None, 4, 3),
    ],
)
def test_topology_validation_raises_package_error(kind, m, n):
    with pytest.raises(BstoaError):
        Topology(kind, m, n)


@pytest.mark.parametrize("m, n", [(2.5, 3), ("2", 3), (4, 3.0), (np.float64(4.0), 3)])
def test_topology_counts_must_be_integers(m, n):
    """A count that ``operator.index`` rejects is InvalidValue: 2.5 used to
    construct a topology, and "2" raised TypeError."""
    with pytest.raises(InvalidValue, match="must be an integer"):
        Topology.bistatic(m, n)


def test_topology_takes_numpy_integer_counts():
    """Each count is stored as the int ``operator.index`` returns, so
    ``True`` is the count 1, not a bool that ``np.full`` rejects."""
    for m, n, want in ((np.int64(4), np.uint8(3), (4, 3)), (True, np.int64(3), (1, 3))):
        topo = Topology.bistatic(m, n)
        assert topo == Topology.bistatic(*want)
        assert type(topo.m) is int and type(topo.n) is int


def test_topology_stores_the_kind_member_for_its_value():
    for kind in Kind:
        topo = Topology(kind.value, 3, 3)
        assert topo.kind is kind
        assert topo == Topology(kind, 3, 3)


def _topologies(m, n):
    yield Topology.bistatic(m, n)
    if m == n:
        yield Topology.monostatic(m)


def _paper_rows(m, n):
    """The paper's construction of A: row p (1-based) holds 1, -1, -1, 1 at
    columns q, q+1, q+m, q+m+1 with q = p + ceil(p / (m-1)) - 1."""
    rows = (m - 1) * (n - 1)
    a = np.zeros((rows, m * n), dtype=np.int8)
    for p in range(1, rows + 1):
        q = p + math.ceil(p / (m - 1)) - 1
        a[p - 1, q - 1] = 1
        a[p - 1, q] = -1
        a[p - 1, q + m - 1] = -1
        a[p - 1, q + m] = 1
    return a


@pytest.mark.parametrize("m,n", GRID)
def test_correlation_matrix_is_the_paper_row_loop(m, n):
    for topo in _topologies(m, n):
        a = correlation_matrix(topo)
        assert a.dtype == np.int8
        assert a.shape == ((m - 1) * (n - 1), m * n)
        assert np.array_equal(a, _paper_rows(m, n))


def test_correlation_matrix_2x2():
    a = correlation_matrix(Topology.bistatic(2, 2))
    assert a.tolist() == [[1, -1, -1, 1]]


def test_correlation_matrix_3x2():
    a = correlation_matrix(Topology.bistatic(3, 2))
    assert a.tolist() == [[1, -1, 0, -1, 1, 0], [0, 1, -1, 0, -1, 1]]


def test_correlation_matrix_degenerate_row_counts():
    a = correlation_matrix(Topology.bistatic(1, 5))
    assert a.shape == (0, 5)
    a = correlation_matrix(Topology.bistatic(5, 1))
    assert a.shape == (0, 5)


@pytest.mark.parametrize("m,n", GRID)
def test_correlation_matrix_row_structure(m, n):
    a = correlation_matrix(Topology.bistatic(m, n))
    assert a.shape == ((m - 1) * (n - 1), m * n)
    for row in a:
        assert row.sum() == 0
        values = sorted(row[row != 0].tolist())
        assert values == [-1, -1, 1, 1]


@pytest.mark.parametrize("m,n", GRID)
def test_correlation_matrix_rank(m, n):
    a = correlation_matrix(Topology.bistatic(m, n)).astype(float)
    if a.shape[0] == 0:
        return
    singular_values = np.linalg.svd(a, compute_uv=False)
    assert (singular_values > 1e-8).sum() == (m - 1) * (n - 1)


def test_weighting_matrix_2x2_value():
    # Frozen from the pseudoinverse oracle: B = I - pinv(A) @ A.
    b = weighting_matrix(Topology.bistatic(2, 2))
    expected = 0.25 * np.array(
        [
            [3, 1, 1, -1],
            [1, 3, -1, 1],
            [1, -1, 3, 1],
            [-1, 1, 1, 3],
        ]
    )
    assert np.abs(b - expected).max() < 1e-14


def test_weighting_matrix_empty_constraints_is_identity():
    b = weighting_matrix(Topology.bistatic(1, 4))
    assert np.array_equal(b, np.eye(4))


def test_weighting_matrix_trace_4x3():
    b = weighting_matrix(Topology.bistatic(4, 3))
    assert abs(np.trace(b) - 6.0) < 1e-12


@pytest.mark.parametrize("m,n", GRID)
def test_weighting_matrix_matches_pseudoinverse_oracle(m, n):
    topo = Topology.bistatic(m, n)
    a = correlation_matrix(topo).astype(float)
    b = weighting_matrix(topo)
    oracle = np.eye(m * n) - np.linalg.pinv(a) @ a if a.shape[0] else np.eye(m * n)
    assert np.abs(b - oracle).max() < 1e-12


@pytest.mark.parametrize("m,n", GRID)
def test_projector_identities(m, n):
    topo = Topology.bistatic(m, n)
    a = correlation_matrix(topo)
    b = weighting_matrix(topo)
    mn = m * n
    assert np.abs(b @ np.ones(mn) - 1.0).max() < 1e-10
    if a.shape[0]:
        assert np.abs(b @ a.T.astype(float)).max() < 1e-10
    assert np.abs(b @ b - b).max() < 1e-10
    assert np.abs(b - b.T).max() < 1e-10
    assert abs(np.trace(b) - (m + n - 1)) < 1e-9


def test_entry_weights_examples():
    assert entry_weights(Topology.bistatic(2, 2)) == (0.75, 0.25, 0.25, -0.25)
    w = entry_weights(Topology.bistatic(4, 3))
    assert np.allclose(w, (0.5, 0.25, 1 / 6, -1 / 12))
    assert entry_weights(Topology.monostatic(2)) == (0.75, 0.25, 0.25, -0.25)


def test_entry_weights_rational_row_sum_identity():
    # w1 + (n-1) w2 + (m-1) w3 + (m-1)(n-1) w4 == 1, exactly in rationals.
    for m, n in GRID:
        mn = Fraction(m * n)
        w1 = Fraction(m + n - 1) / mn
        w2 = Fraction(m - 1) / mn
        w3 = Fraction(n - 1) / mn
        w4 = Fraction(-1) / mn
        assert w1 + (n - 1) * w2 + (m - 1) * w3 + (m - 1) * (n - 1) * w4 == 1
        floats = entry_weights(Topology.bistatic(m, n))
        for exact, got in zip((w1, w2, w3, w4), floats):
            assert abs(float(exact) - got) < 1e-15


def _entry_pattern(topo):
    """The closed-form weight of every projector entry (z, r), chosen by
    whether the subchannels share transmitter z % m and receiver z // m."""
    z = np.arange(topo.mn)
    same_tx = (z % topo.m)[:, None] == z % topo.m
    same_rx = (z // topo.m)[:, None] == z // topo.m
    w1, w2, w3, w4 = entry_weights(topo)
    return np.select([same_tx & same_rx, same_tx, same_rx], [w1, w2, w3], w4)


def test_entry_pattern_examples():
    # z = (tx z % m, rx z // m): in 2x2, 0 = (0, 0), 1 = (1, 0), 2 = (0, 1).
    pattern = _entry_pattern(Topology.bistatic(2, 2))
    assert pattern[0, 0] == 0.75
    assert pattern[0, 2] == 0.25
    assert pattern[0, 1] == 0.25
    assert _entry_pattern(Topology.bistatic(2, 3))[0, 3] == -1 / 6


@pytest.mark.parametrize("m,n", GRID)
def test_entry_pattern_matches_projector(m, n):
    """Every projector entry equals the closed-form weight of its type."""
    for topo in _topologies(m, n):
        assert np.abs(weighting_matrix(topo) - _entry_pattern(topo)).max() < 1e-10


@pytest.mark.parametrize("m,n", GRID)
def test_weighting_matrix_is_bitwise_symmetric(m, n):
    for topo in _topologies(m, n):
        b = weighting_matrix(topo)
        assert np.array_equal(b, b.T)

