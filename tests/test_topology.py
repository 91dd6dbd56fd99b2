"""Constraint matrix, projector, and entry-pattern tests."""

from fractions import Fraction

import numpy as np
import pytest

from bstoa.errors import BstoaError, IndexOutOfRange, SingularSystem
from bstoa.topology import (
    EntryType,
    Kind,
    Topology,
    classify_entry,
    correlation_matrix,
    entry_weights,
    unvec,
    vec,
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
    "kind, m, n", [(Kind.BISTATIC, 0, 3), (Kind.BISTATIC, 2, 0), (Kind.MONOSTATIC, 2, 3)]
)
def test_topology_validation_raises_package_error(kind, m, n):
    with pytest.raises(BstoaError):
        Topology(kind, m, n)


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
    b = weighting_matrix(correlation_matrix(Topology.bistatic(2, 2)))
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
    b = weighting_matrix(correlation_matrix(Topology.bistatic(1, 4)))
    assert np.array_equal(b, np.eye(4))


def test_weighting_matrix_trace_4x3():
    b = weighting_matrix(correlation_matrix(Topology.bistatic(4, 3)))
    assert abs(np.trace(b) - 6.0) < 1e-12


@pytest.mark.parametrize("m,n", GRID)
def test_weighting_matrix_matches_pseudoinverse_oracle(m, n):
    a = correlation_matrix(Topology.bistatic(m, n)).astype(float)
    b = weighting_matrix(a)
    oracle = np.eye(m * n) - np.linalg.pinv(a) @ a if a.shape[0] else np.eye(m * n)
    assert np.abs(b - oracle).max() < 1e-12


@pytest.mark.parametrize("m,n", GRID)
def test_projector_identities(m, n):
    a = correlation_matrix(Topology.bistatic(m, n))
    b = weighting_matrix(a)
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


def test_classify_entry_examples():
    topo = Topology.bistatic(2, 2)
    assert classify_entry(topo, 0, 0) is EntryType.SHARED_BOTH
    assert classify_entry(topo, 0, 2) is EntryType.SHARED_TX
    assert classify_entry(topo, 0, 1) is EntryType.SHARED_RX
    wide = Topology.bistatic(2, 3)
    assert classify_entry(wide, 0, 3) is EntryType.SHARED_NONE


def test_classify_entry_rejects_bad_indices():
    topo = Topology.bistatic(2, 2)
    with pytest.raises(IndexOutOfRange):
        classify_entry(topo, -1, 0)
    with pytest.raises(IndexOutOfRange):
        classify_entry(topo, 0, 4)


def _topologies(m, n):
    yield Topology.bistatic(m, n)
    if m == n:
        yield Topology.monostatic(m)


@pytest.mark.parametrize("m,n", GRID)
def test_entry_pattern_matches_projector(m, n):
    """Every projector entry equals the closed-form weight of its type."""
    for topo in _topologies(m, n):
        b = weighting_matrix(correlation_matrix(topo))
        weights = entry_weights(topo)
        mn = m * n
        for z in range(mn):
            for r in range(mn):
                expected = weights[classify_entry(topo, z, r) - 1]
                assert abs(b[z, r] - expected) < 1e-10


def test_weighting_matrix_singular_input():
    row = np.array([[1, -1, -1, 1]], dtype=np.int8)
    corrupted = np.vstack([row, row])
    with pytest.raises(SingularSystem):
        weighting_matrix(corrupted)


def test_vec_unvec_column_major_round_trip():
    matrix = np.arange(12.0).reshape(3, 4)
    flat = vec(matrix)
    assert flat[1] == matrix[1, 0]
    assert np.array_equal(unvec(flat, 3, 4), matrix)
