from dataclasses import replace

import numpy as np
import pytest

from chve.grid import (GridSpec, PreconditionError, ScalarField, SimState,
                       StaggeredVectorField, TensorField, cofactor,
                       determinant, frobenius)


def test_frobenius_identity_traces():
    assert frobenius(np.eye(2), np.eye(2)) == 2.0
    assert frobenius(np.eye(3), np.eye(3)) == 3.0


def test_frobenius_diagonal_product():
    assert frobenius(np.diag([2.0, 3.0]), np.diag([5.0, 7.0])) == 31.0


def test_frobenius_dimension_mismatch():
    with pytest.raises(PreconditionError):
        frobenius(np.eye(2), np.eye(3))


def test_frobenius_symmetric_bilinear(rng):
    for _ in range(20):
        d = rng.choice([2, 3])
        A, B, C = (rng.standard_normal((d, d)) for _ in range(3))
        a, b = rng.standard_normal(2)
        assert frobenius(A, B) == pytest.approx(frobenius(B, A), rel=1e-13)
        assert frobenius(a * A + b * B, C) == pytest.approx(
            a * frobenius(A, C) + b * frobenius(B, C), rel=1e-12, abs=1e-13)


def test_determinant_closed_forms():
    assert determinant(np.eye(2)) == 1.0
    assert determinant(np.diag([2.0, 3.0])) == 6.0
    assert determinant(np.diag([1.0, 2.0, 3.0])) == 6.0


def test_cofactor_closed_forms():
    assert np.allclose(cofactor(np.eye(2)), np.eye(2))
    assert np.allclose(cofactor(np.diag([2.0, 3.0])), np.diag([3.0, 2.0]))
    a, b, c = 2.0, 5.0, 7.0
    assert np.allclose(cofactor(np.diag([a, b, c])), np.diag([b * c, a * c, a * b]))


def test_cofactor_transpose_identity(rng):
    # cof(F) F^T = det(F) I for random invertible F
    for d in (2, 3):
        for _ in range(25):
            F = np.eye(d) + 0.5 * rng.standard_normal((d, d))
            if abs(determinant(F)) < 0.1:
                continue
            lhs = cofactor(F) @ F.T
            ref = determinant(F) * np.eye(d)
            assert np.max(np.abs(lhs - ref)) <= 1e-12 * max(1.0, abs(determinant(F)))


def test_det_directional_derivative_matches_cofactor(rng):
    # second-order finite differences of det along H against <cof F, H>
    for d in (2, 3):
        F = np.eye(d) + 0.3 * rng.standard_normal((d, d))
        H = rng.standard_normal((d, d))
        ref = frobenius(cofactor(F), H)
        errs = []
        for h in (2e-1, 1e-1, 5e-2):
            fd = (determinant(F + h * H) - determinant(F - h * H)) / (2 * h)
            errs.append(abs(fd - ref))
        if d == 2:
            assert max(errs) <= 1e-12  # det is quadratic: central diff exact
        else:
            order = np.log(errs[0] / errs[2]) / np.log(4.0)
            assert 1.9 <= order <= 2.1


def test_cofactor_stack_shapes(rng):
    F = rng.standard_normal((5, 4, 3, 3))
    C = cofactor(F)
    assert C.shape == F.shape
    J = determinant(F)
    lhs = np.einsum("...ij,...kj->...ik", C, F)
    assert np.allclose(lhs, J[..., None, None] * np.eye(3), atol=1e-12)


def test_grid_invariants():
    g = GridSpec(8, 4, 2.0, 1.0)
    assert g.hx == 0.25 and g.hy == 0.25
    with pytest.raises(PreconditionError):
        GridSpec(3, 8)
    with pytest.raises(PreconditionError):
        GridSpec(8, 8, lx=-1.0)


def test_scalar_field_validation(grid8):
    with pytest.raises(PreconditionError):
        ScalarField(grid8, np.zeros((3, 3)))
    bad = np.zeros((8, 8))
    bad[0, 0] = np.nan
    with pytest.raises(PreconditionError):
        ScalarField(grid8, bad)


def test_staggered_field_noslip_enforced(grid8):
    u = np.zeros((9, 8))
    w = np.zeros((8, 9))
    u[0, 3] = 1.0
    with pytest.raises(PreconditionError):
        StaggeredVectorField(grid8, u, w)


def test_fields_are_frozen(grid8):
    phi = ScalarField.uniform(grid8, 1.0)
    with pytest.raises(ValueError):
        phi.values[0, 0] = 2.0
    F = TensorField.identity(grid8)
    with pytest.raises(ValueError):
        F.comps[0, 0, 0, 0] = 2.0


def test_stream_function_field_is_divergence_free(grid8, rng):
    from chve.operators import face_divergence
    psi = rng.standard_normal((9, 9))
    psi[0, :] = psi[-1, :] = psi[:, 0] = psi[:, -1] = 0.0
    v = StaggeredVectorField.from_stream_function(grid8, psi)
    assert np.max(np.abs(face_divergence(v.u, v.w, grid8))) <= 1e-13


def test_sim_state_replace(grid8):
    phi = ScalarField.uniform(grid8, 0.0)
    s = SimState(phi=phi, phi_prev=phi, mu=phi, F=TensorField.identity(grid8),
                 v=StaggeredVectorField.zeros(grid8), q=phi, t=0.0)
    s2 = replace(s, t=0.1, step_index=1)
    assert s2.t == 0.1 and s2.step_index == 1 and s2.phi is s.phi
    with pytest.raises(PreconditionError):
        SimState(phi=phi, phi_prev=phi, mu=phi, F=TensorField.identity(grid8),
                 v=StaggeredVectorField.zeros(grid8), q=phi, t=-1.0)
