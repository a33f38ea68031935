import numpy as np
import pytest

import chve.operators
from chve import verification as ver
from chve.grid import GridSpec, ModelParams, ScalarField, TensorField


def test_dense_oracle_grid_limit():
    with pytest.raises(ValueError):
        ver.DenseOracle(GridSpec(16, 16))


def test_dense_oracle_compare_passes(grid8):
    rep = ver.dense_oracle_compare(grid8)
    assert rep["passed"], rep
    assert rep["max_dev_grad"] <= 1e-12
    assert rep["max_dev_div"] <= 1e-12
    assert rep["max_dev_lap"] <= 1e-12
    assert rep["max_adjointness_defect"] <= 1e-13
    assert rep["laplacian_null_dim"] == 1


def test_dense_oracle_nonsquare():
    rep = ver.dense_oracle_compare(GridSpec(6, 9, 2.0, 1.0), n_fields=10)
    assert rep["passed"], rep


@pytest.mark.parametrize("kernel", ["face_gradient", "face_divergence"])
def test_mutation_is_caught_by_dense_oracle(grid8, monkeypatch, kernel):
    """Perturbing a stencil coefficient in a kernel the step calls must fail
    the dense comparison: the oracle is genuinely independent."""
    real = getattr(chve.operators, kernel)

    def scaled(*args):
        out = real(*args)
        if isinstance(out, tuple):
            return tuple((1.0 + 1e-6) * a for a in out)
        return (1.0 + 1e-6) * out

    monkeypatch.setattr(chve.operators, kernel, scaled)
    rep = ver.dense_oracle_compare(grid8)
    assert not rep["passed"]


def test_fd_chemical_potential_uniform_well(grid8, params):
    phi = ScalarField.uniform(grid8, 1.0)
    rep = ver.fd_check_chemical_potential(phi, TensorField.identity(grid8), params)
    assert rep["pairing"] == 0.0
    assert max(rep["errors"]) <= 1e-12


def test_fd_chemical_potential_order_random(rng):
    grid = GridSpec(12, 12)
    params = ModelParams(eps=0.6)
    phi = ScalarField(grid, 0.4 * rng.standard_normal((12, 12)) + 0.1)
    rep = ver.fd_check_chemical_potential(phi, TensorField.identity(grid), params)
    assert 1.9 <= rep["observed_order"] <= 2.1, rep


def test_fd_chemical_potential_with_elastic_coupling(rng):
    # phi inside the stiffness window and F away from the identity: the
    # coupling term contributes and the order must survive
    grid = GridSpec(12, 12)
    params = ModelParams(eps=0.6, c_elastic=1.5)
    phi = ScalarField(grid, 0.3 * rng.standard_normal((12, 12)))
    F = TensorField(grid, np.eye(2) + 0.3 * rng.standard_normal((12, 12, 2, 2)))
    rep = ver.fd_check_chemical_potential(phi, F, params)
    assert 1.9 <= rep["observed_order"] <= 2.1, rep


def test_fd_elastic_stress_report(params):
    rep = ver.fd_check_elastic_stress(params, n_samples=25)
    assert rep["passed"], rep
    assert rep["neo_hookean_d2_max_rel"] <= 1e-6
    assert rep["neo_hookean_d3_max_rel"] <= 1e-6
    assert rep["mooney_rivlin_max_rel"] <= 1e-6


def test_fd_det_derivative_report():
    rep = ver.fd_check_det_derivative()
    assert rep["passed"], rep


def test_interior_vortex_properties(grid16):
    from chve.operators import face_divergence
    v = ver.interior_vortex(grid16, target_max=2.0)
    assert v.max_abs() == pytest.approx(2.0, rel=1e-12)
    assert np.max(np.abs(face_divergence(v.u, v.w, grid16))) <= 1e-12
    # support stays away from the walls
    assert np.all(v.u[:2, :] == 0.0) and np.all(v.u[-2:, :] == 0.0)
    assert np.all(v.w[:, :2] == 0.0) and np.all(v.w[:, -2:] == 0.0)


def test_korteweg_check_uniform_phi(grid16, params):
    rep = ver.korteweg_identity_check(ScalarField.uniform(grid16, 0.5),
                                      TensorField.identity(grid16), params)
    assert rep["v_mu_max"] <= 1e-12
    assert rep["v_kw_max"] <= 1e-12
    assert rep["v_diff"] <= 1e-12


def test_korteweg_equivalence_tanh_interface():
    """Both capillary-force assemblies are discretely curl-free for a
    one-directional interface profile, so the Stokes solves must agree to
    solver tolerance; the pressure difference recovers the potential."""
    params = ModelParams(eps=0.25, c_elastic=0.5)
    devs = []
    for n in (32, 64):
        g = GridSpec(n, n)
        _, Y = g.cell_centers()
        phi = ScalarField(g, np.tanh((Y - 0.5 * g.ly) / 0.15))
        rep = ver.korteweg_identity_check(phi, TensorField.identity(g), params)
        assert rep["v_diff"] <= 1e-8, rep
        devs.append(rep["q_potential_dev"])
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.6)  # O(h^2)


def test_korteweg_uniform_F_nonidentity():
    # constant F != I adds a phase-dependent energy density w(phi, F); the
    # identity still holds with w included in the potential
    params = ModelParams(eps=0.25, c_elastic=0.8)
    g = GridSpec(48, 48)
    _, Y = g.cell_centers()
    phi = ScalarField(g, np.tanh((Y - 0.5 * g.ly) / 0.15))
    F = TensorField(g, np.tile(np.array([[1.2, 0.1], [0.0, 0.9]]), (48, 48, 1, 1)))
    rep = ver.korteweg_identity_check(phi, F, params)
    assert rep["v_diff"] <= 1e-8, rep


def test_stokes_mms_table_shape():
    rep = ver.stokes_mms(levels=(16, 32))
    assert len(rep["err_v"]) == 2 and len(rep["order_v"]) == 1
    assert rep["order_v"][0] >= 1.9


def test_stokes_mms_fields_match_central_differences():
    """The hand-written u, w, fu, fw against central differences of psi and q
    at random interior points.  The k-th derivative of sin^2(pi s) is bounded
    by (2 pi)^k / 2, so with step h the first differences err by less than
    (2 pi)^3 h^2 and the nested ones (fifth derivatives of psi) by less than
    (2 pi)^5 h^2 for nu <= 1; rounding adds about 1e-7 at h = 1e-3."""
    nu, h = 0.7, 1e-3
    fns = ver.stokes_mms_fields(nu)

    def psi(x, y):
        return np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2

    def q(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def dx(f):
        return lambda x, y: (f(x + h, y) - f(x - h, y)) / (2 * h)

    def dy(f):
        return lambda x, y: (f(x, y + h) - f(x, y - h)) / (2 * h)

    def lap(f):
        return lambda x, y: (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h)
                             - 4 * f(x, y)) / h ** 2

    u = dy(psi)

    def w(x, y):
        return -dx(psi)(x, y)

    x, y = np.random.default_rng(5).uniform(0.02, 0.98, (2, 200))
    assert np.array_equal(fns["q"](x, y), q(x, y))
    tol1, tol2 = (2 * np.pi) ** 3 * h ** 2, (2 * np.pi) ** 5 * h ** 2
    assert np.max(np.abs(fns["u"](x, y) - u(x, y))) <= tol1
    assert np.max(np.abs(fns["w"](x, y) - w(x, y))) <= tol1
    assert np.max(np.abs(fns["fu"](x, y) - (-nu * lap(u)(x, y) + dx(q)(x, y)))) <= tol2
    assert np.max(np.abs(fns["fw"](x, y) - (-nu * lap(w)(x, y) + dy(q)(x, y)))) <= tol2
