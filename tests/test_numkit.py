import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhspace.grouprep import intertwiner_basis
from qhspace.numkit import (
    NumericalRankError,
    dagger,
    kron,
    max_residual,
    phase_fix,
    solution_basis,
)

complex_vectors = st.lists(
    st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=8
).map(lambda pairs: np.array([complex(a, b) for a, b in pairs]))


@given(complex_vectors)
# an exact modulus tie: the rotation rounds the second coordinate above the pivot
@example(np.array([1 + 3j, 3 + 1j]))
@settings(max_examples=50, deadline=None)
def test_phase_fix_idempotent_and_norm_preserving(v):
    w = phase_fix(v)
    assert np.allclose(np.abs(w), np.abs(v))
    assert np.allclose(phase_fix(w), w)
    if np.max(np.abs(v)) > 0:
        j = int(np.argmax(np.abs(w)))
        assert w[j].real > 0 and abs(w[j].imag) < 1e-12 * max(1.0, abs(w[j]))


@given(complex_vectors, st.floats(0.1, 3.0), st.floats(0, 2 * np.pi))
@settings(max_examples=50, deadline=None)
def test_phase_fix_gauge_independent(v, r, t):
    if np.max(np.abs(v)) == 0:
        return
    mags = np.abs(v)
    top = np.sort(mags)[::-1]
    # skip near-ties: the winning coordinate may switch under rounding
    if len(top) > 1 and top[0] - top[1] < 1e-6 * (1 + top[0]):
        return
    w = phase_fix(v * r * np.exp(1j * t))
    assert np.allclose(w, r * phase_fix(v), atol=1e-8)


def test_solution_basis_empty_constraints_is_standard_basis():
    basis = solution_basis(np.zeros((0, 4)))
    assert len(basis) == 4
    assert np.array_equal(basis, np.eye(4))


def test_solution_basis_kernel():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    basis = solution_basis(a)
    assert len(basis) == 1
    v = basis[0]
    assert max_residual(a @ v, np.zeros(2)) < 1e-12


def test_solution_basis_zero_map_full_kernel():
    basis = solution_basis(np.zeros((2, 3)))
    assert len(basis) == 3


def test_solution_basis_threshold_cluster_raises():
    a = np.diag([1.0, 5e-9, 1e-15])
    with pytest.raises(NumericalRankError):
        solution_basis(a, tol=1e-9)


def test_solution_basis_tall_known_kernel():
    # 12 constraints on C^3 whose joint kernel is spanned by (1, -2j, 0)
    rng = np.random.default_rng(7)
    k = np.array([1.0, -2j, 0.0]) / np.sqrt(5.0)
    a = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    a -= np.outer(a @ k, np.conj(k))
    basis = solution_basis(np.vstack([a[:6], a[6:]]))
    assert len(basis) == 1
    v = basis[0]
    assert abs(v[1].imag) < 1e-12 and v[1].real > 0  # the largest coordinate is real positive
    assert max_residual(v, phase_fix(k)) < 1e-12


def test_solution_basis_tall_threshold_cluster_raises():
    a = np.vstack([np.diag([1.0, 5e-9, 1e-15]), np.zeros((5, 3))])
    with pytest.raises(NumericalRankError):
        solution_basis(a, tol=1e-9)


def test_kron_index_convention():
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 5.0])
    k = kron(a, b)
    assert k[1 * 2 + 0, 1 * 2 + 0] == pytest.approx(2.0 * 3.0)


def test_dagger():
    m = np.array([[1 + 2j, 3.0], [0.0, 4j]])
    assert max_residual(dagger(dagger(m)), m) == 0.0


def test_empty_kernel_is_complex_array(s3_table):
    basis = solution_basis(np.diag([1.0, 2.0, 3.0]))
    assert basis.shape == (0, 3) and basis.dtype == np.complex128
    one, _, two = s3_table.irreps  # dimensions 1, 1, 2
    basis = intertwiner_basis(one, two)
    assert basis.shape == (0, 2, 1) and basis.dtype == np.complex128
