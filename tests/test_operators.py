import numpy as np
import pytest
from scipy.fft import dct
from scipy.integrate import solve_ivp

from chve import operators as ops
from chve.grid import (GridSpec, PreconditionError, ScalarField,
                       StaggeredVectorField, TensorField)


def random_noslip(grid, rng):
    u = np.zeros((grid.nx + 1, grid.ny))
    w = np.zeros((grid.nx, grid.ny + 1))
    u[1:-1, :] = rng.standard_normal((grid.nx - 1, grid.ny))
    w[:, 1:-1] = rng.standard_normal((grid.nx, grid.ny - 1))
    return StaggeredVectorField(grid, u, w)


def random_solenoidal(grid, rng):
    psi = rng.standard_normal((grid.nx + 1, grid.ny + 1))
    psi[0, :] = psi[-1, :] = psi[:, 0] = psi[:, -1] = 0.0
    return StaggeredVectorField.from_stream_function(grid, psi)


# ---------------------------------------------------------------------------
# gradient / divergence


def test_grad_of_constant_is_zero(grid8):
    g = ops.grad_cc(ScalarField.uniform(grid8, 3.7))
    assert np.all(g.u == 0.0) and np.all(g.w == 0.0)


def test_grad_exact_on_linear_interior():
    grid = GridSpec(8, 8, 2.0, 1.0)
    X, _ = grid.cell_centers()
    g = ops.grad_cc(ScalarField(grid, X))
    assert np.allclose(g.u[1:-1, :], 1.0, atol=1e-13)
    assert np.all(g.w == 0.0)


def test_div_of_grad_constant(grid8):
    v = ops.grad_cc(ScalarField.uniform(grid8, 1.0))
    assert np.all(ops.div_fc(v).values == 0.0)


def test_adjointness_exact(grid16, rng):
    a = grid16.cell_area
    for _ in range(20):
        phi = ScalarField(grid16, rng.standard_normal((16, 16)))
        v = random_noslip(grid16, rng)
        g = ops.grad_cc(phi)
        lhs = (np.sum(g.u * v.u) + np.sum(g.w * v.w)) * a
        rhs = -np.sum(phi.values * ops.div_fc(v).values) * a
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_divergence_sums_to_zero(grid16, rng):
    for _ in range(10):
        v = random_noslip(grid16, rng)
        total = np.sum(ops.div_fc(v).values) * grid16.cell_area
        assert abs(total) <= 1e-13


# ---------------------------------------------------------------------------
# Laplacian


def test_laplacian_constant(grid8):
    out = ops.div_fc(ops.grad_cc(ScalarField.uniform(grid8, 2.0)))
    assert np.max(np.abs(out.values)) <= 1e-12


def test_laplacian_cosine_richardson():
    # L cos(pi x / lx) -> -(pi/lx)^2 cos, error O(h^2): ratio ~ 4 when h halves
    errs = []
    for n in (32, 64):
        grid = GridSpec(n, n, 2.0, 1.0)
        X, _ = grid.cell_centers()
        phi = np.cos(np.pi * X / grid.lx)
        out = ops.div_fc(ops.grad_cc(ScalarField(grid, phi))).values
        ref = -(np.pi / grid.lx) ** 2 * phi
        errs.append(np.max(np.abs(out - ref)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_laplacian_symmetry(grid16, rng):
    # each face weight enters (a, b) and (b, a) as the same number
    L = ops.laplacian_matrix(grid16, 1.0 + rng.random((16, 16))).toarray()
    assert np.array_equal(L, L.T)


def test_laplacian_rejects_nonpositive_coefficient(grid8):
    # non-finite entries are rejected too (np.min of a NaN array is NaN)
    for bad in (0.0, np.nan, np.inf):
        coeff = np.ones((8, 8))
        coeff[2, 2] = bad
        with pytest.raises(PreconditionError):
            ops.laplacian_matrix(grid8, coeff)


def test_assembled_matrices_match_matrix_free(grid8, rng):
    # deviation bounded by 1e-13 relative to the output magnitude
    def close(a, b):
        scale = max(1.0, float(np.max(np.abs(b))))
        assert np.max(np.abs(a - b)) <= 1e-13 * scale

    L = ops.laplacian_matrix(grid8)
    for _ in range(20):
        p = rng.standard_normal((8, 8))
        phi = ScalarField(grid8, p)
        close(L @ p.ravel(), ops.div_fc(ops.grad_cc(phi)).values.ravel())


def test_laplacian_eigenvalues_diagonalize_matrix():
    # non-square grid with hx != hy; C is the orthonormal 2-D DCT-II in the
    # C-order cell numbering, so C L C^T must be diag(eigenvalues)
    grid = GridSpec(5, 7, 1.0, 1.3)
    C = np.kron(dct(np.eye(5), type=2, norm="ortho", axis=0),
                dct(np.eye(7), type=2, norm="ortho", axis=0))
    eig = ops.laplacian_eigenvalues(grid)
    dev = C @ ops.laplacian_matrix(grid).toarray() @ C.T - np.diag(eig.ravel())
    assert eig.shape == (5, 7)
    assert np.max(np.abs(dev)) <= 1e-12 * np.max(np.abs(eig))


def test_dct_diagonal_with_eigenvalues_applies_laplacian(rng):
    # a scalar field and a stack of three, on a non-square grid
    grid = GridSpec(5, 7, 1.0, 1.3)
    L = ops.laplacian_matrix(grid)
    eig = ops.laplacian_eigenvalues(grid)
    r = rng.standard_normal((5, 7))
    np.testing.assert_allclose(ops.dct_diagonal(r, eig).ravel(), L @ r.ravel(),
                               rtol=0.0, atol=1e-12 * np.max(np.abs(eig)))
    stack = rng.standard_normal((5, 7, 3))
    out = ops.dct_diagonal(stack, eig[:, :, None])
    for k in range(3):
        np.testing.assert_allclose(out[:, :, k].ravel(), L @ stack[:, :, k].ravel(),
                                   rtol=0.0, atol=1e-12 * np.max(np.abs(eig)))


def test_laplacian_rows_sum_to_zero(grid8, rng):
    L = ops.laplacian_matrix(grid8, 1.0 + rng.random((8, 8)))
    assert np.max(np.abs(np.asarray(L.sum(axis=1)))) <= 1e-13


def _laplacian_matrix_loop(grid, coeff):
    """Cell-by-cell reference assembly: each neighbor adds its face weight
    off the diagonal and subtracts it on the diagonal."""
    nx, ny = grid.nx, grid.ny
    L = np.zeros((nx * ny, nx * ny))
    for i in range(nx):
        for j in range(ny):
            r = i * ny + j
            for di, dj, h in ((1, 0, grid.hx), (-1, 0, grid.hx),
                              (0, 1, grid.hy), (0, -1, grid.hy)):
                a, b = i + di, j + dj
                if 0 <= a < nx and 0 <= b < ny:
                    w = 0.5 * (coeff[i, j] + coeff[a, b]) * (1.0 / (h * h))
                    L[r, a * ny + b] += w
                    L[r, r] -= w
    return L


@pytest.mark.parametrize("shape", [(8, 8), (5, 7)])
def test_laplacian_matrix_equals_loop_assembly(rng, shape):
    grid = GridSpec(*shape, lx=1.0, ly=1.3)
    coeff = 1.0 + rng.random(shape)
    # same face weights, same diagonal summation order: equal, not close
    assert np.array_equal(ops.laplacian_matrix(grid, coeff).toarray(),
                          _laplacian_matrix_loop(grid, coeff))
    assert np.array_equal(ops.laplacian_matrix(grid).toarray(),
                          _laplacian_matrix_loop(grid, np.ones(shape)))


# ---------------------------------------------------------------------------
# velocity gradient


def test_velocity_gradient_zero(grid8):
    gv = ops.velocity_gradient(StaggeredVectorField.zeros(grid8))
    assert np.all(gv.comps == 0.0)


def test_velocity_gradient_interior_shear_constant():
    # u = gamma * y inside a masked block, zero outside: cells whose whole
    # stencil sees the linear profile get the exact constant gradient
    grid = GridSpec(32, 32)
    _, Yu = grid.xface_coords()
    u = np.where((Yu > 0.25) & (Yu < 0.75), 2.0 * Yu, 0.0)
    u[0, :] = u[-1, :] = 0.0
    v = StaggeredVectorField(grid, u, np.zeros((32, 33)))
    gv = ops.velocity_gradient(v)
    core = gv.comps[4:-4, 14:18]
    assert np.max(np.abs(core[:, :, 0, 1] - 2.0)) <= 1e-12
    assert np.max(np.abs(core[:, :, 0, 0])) <= 1e-12
    assert np.max(np.abs(core[:, :, 1, 0])) <= 1e-12
    assert np.max(np.abs(core[:, :, 1, 1])) <= 1e-12


def test_velocity_gradient_smooth_convergence():
    def bump(s):
        t = (s - 0.2) * (0.8 - s)
        return np.where((s > 0.2) & (s < 0.8), np.maximum(t, 0.0) ** 3, 0.0)

    def bump_prime(s):
        t = (s - 0.2) * (0.8 - s)
        return np.where((s > 0.2) & (s < 0.8), 3 * np.maximum(t, 0.0) ** 2 * (1.0 - 2 * s), 0.0)

    errs = []
    for n in (32, 64):
        grid = GridSpec(n, n)
        Xu, Yu = grid.xface_coords()
        u = bump(Xu) * bump(Yu)
        u[0, :] = u[-1, :] = 0.0
        v = StaggeredVectorField(grid, u, np.zeros((n, n + 1)))
        gv = ops.velocity_gradient(v)
        Xc, Yc = grid.cell_centers()
        e = max(np.max(np.abs(gv.comps[:, :, 0, 0] - bump_prime(Xc) * bump(Yc))),
                np.max(np.abs(gv.comps[:, :, 0, 1] - bump(Xc) * bump_prime(Yc))))
        errs.append(e)
    assert errs[0] / errs[1] >= 3.0  # second order


def test_velocity_gradient_trace_equals_divergence(grid16, rng):
    v = random_noslip(grid16, rng)
    gv = ops.velocity_gradient(v)
    tr = gv.comps[:, :, 0, 0] + gv.comps[:, :, 1, 1]
    assert np.max(np.abs(tr - ops.div_fc(v).values)) <= 1e-12


# ---------------------------------------------------------------------------
# advection


def test_advect_constant_field_is_zero(grid16, rng):
    v = random_solenoidal(grid16, rng)
    out = ops.advect_scalar(v, ScalarField.uniform(grid16, 0.8))
    assert np.max(np.abs(out.values)) <= 1e-12


def test_advect_conserves_cell_sum(grid16, rng):
    for _ in range(10):
        v = random_solenoidal(grid16, rng)
        phi = ScalarField(grid16, rng.standard_normal((16, 16)))
        total = np.sum(ops.advect_scalar(v, phi).values) * grid16.cell_area
        assert abs(total) <= 1e-12


def test_advect_tensor_matches_scalar_per_component(grid16, rng):
    v = random_solenoidal(grid16, rng)
    comps = rng.standard_normal((16, 16, 2, 2))
    F = TensorField(grid16, comps)
    out = ops.advect_tensor(v, F)
    for a in range(2):
        for b in range(2):
            ref = ops.advect_scalar(v, ScalarField(grid16, comps[:, :, a, b]))
            assert np.allclose(out.comps[:, :, a, b], ref.values, atol=1e-13)


def _face_values_loop(q, vel):
    """kappa = 1/3 face values on the interior faces 1..n-1 of a 1-D line.

    The upwind cell C, its downwind neighbor D and the far upwind cell W
    follow the sign of the face velocity; where W is off the grid (face 1
    with vel >= 0, face n-1 with vel < 0) the face takes plain upwind q[C].
    """
    n = len(q)
    out = [0.0] * (n + 1)
    for k in range(1, n):
        c, d, w = (k - 1, k, k - 2) if vel[k] >= 0.0 else (k, k - 1, k + 1)
        if 0 <= w < n:
            out[k] = q[c] + 0.25 * ((1.0 - 1.0 / 3.0) * (q[c] - q[w])
                                    + (1.0 + 1.0 / 3.0) * (q[d] - q[c]))
        else:
            out[k] = q[c]
    return out


def _advect_loop(v, q):
    """div(v q) cell by cell from the loop face values."""
    g = v.grid
    qx = np.array([_face_values_loop(q[:, j], v.u[:, j]) for j in range(g.ny)]).T
    qy = np.array([_face_values_loop(q[i, :], v.w[i, :]) for i in range(g.nx)])
    out = np.empty((g.nx, g.ny))
    for i in range(g.nx):
        for j in range(g.ny):
            out[i, j] = ((v.u[i + 1, j] * qx[i + 1, j] - v.u[i, j] * qx[i, j]) / g.hx
                         + (v.w[i, j + 1] * qy[i, j + 1] - v.w[i, j] * qy[i, j]) / g.hy)
    return out


@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(5, 7, 1.0, 1.3)],
                         ids=["16x16", "5x7"])
def test_advection_matches_loop_reference(grid, rng):
    v = random_solenoidal(grid, rng)
    assert v.u.min() < 0.0 < v.u.max() and v.w.min() < 0.0 < v.w.max()
    comps = rng.standard_normal((grid.nx, grid.ny, 2, 2))
    # the loop repeats the vectorized arithmetic operation for operation, so
    # the results match exactly, not just to rounding
    out = ops.advect_tensor(v, TensorField(grid, comps)).comps
    for a in range(2):
        for b in range(2):
            ref = _advect_loop(v, comps[:, :, a, b])
            assert np.array_equal(out[:, :, a, b], ref)
            scalar = ops.advect_scalar(v, ScalarField(grid, comps[:, :, a, b]))
            assert np.array_equal(scalar.values, ref)


def _vortex_velocity(a=0.25, b=0.75, peak=1.0):
    def g(s):
        t = (s - a) * (b - s)
        return np.where((s > a) & (s < b), np.maximum(t, 0.0) ** 3, 0.0)

    def gp(s):
        t = (s - a) * (b - s)
        return np.where((s > a) & (s < b),
                        3 * np.maximum(t, 0.0) ** 2 * (a + b - 2 * s), 0.0)

    s = np.linspace(a, b, 2001)
    amp = peak / np.max(np.abs(g(s)[:, None] * gp(s)[None, :]))

    def u(x, y):
        return amp * g(x) * gp(y)

    def w(x, y):
        return -amp * gp(x) * g(y)

    def psi(x, y):
        return amp * g(x) * g(y)

    return u, w, psi


def test_advection_convergence_against_characteristics():
    """Transport of a Gaussian blob by a smooth interior vortex, compared
    with the position of the blob along numerically integrated
    characteristics; observed order must be >= 1.5."""
    u_a, w_a, psi_a = _vortex_velocity()
    T = 0.4
    sigma = 0.10
    x0, y0 = 0.5, 0.40

    def blob(x, y):
        return np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / (2 * sigma ** 2))

    errs = []
    levels = (32, 64, 128)
    for n in levels:
        grid = GridSpec(n, n)
        Xn, Yn = grid.node_coords()
        v = StaggeredVectorField.from_stream_function(grid, psi_a(Xn, Yn))
        Xc, Yc = grid.cell_centers()
        phi = blob(Xc, Yc)
        vmax = v.max_abs()
        nsteps = int(np.ceil(T * vmax / (0.4 * grid.hx)))
        dt = T / nsteps
        for _ in range(nsteps):
            k1 = ops.advect_scalar(v, ScalarField(grid, phi)).values
            mid = phi - 0.5 * dt * k1
            k2 = ops.advect_scalar(v, ScalarField(grid, mid)).values
            phi = phi - dt * k2

        # oracle: integrate cell centers backward along the flow
        def rhs(t, z):
            x, y = z[:z.size // 2], z[z.size // 2:]
            return np.concatenate([-u_a(x, y), -w_a(x, y)])

        z0 = np.concatenate([Xc.ravel(), Yc.ravel()])
        sol = solve_ivp(rhs, (0.0, T), z0, rtol=1e-10, atol=1e-12,
                        dense_output=False)
        xb = sol.y[:z0.size // 2, -1].reshape(n, n)
        yb = sol.y[z0.size // 2:, -1].reshape(n, n)
        exact = blob(xb, yb)
        errs.append(float(np.sqrt(grid.cell_area * np.sum((phi - exact) ** 2))))

    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    assert min(orders) >= 1.5, (errs, orders)


@pytest.mark.parametrize("nx, ny, lx, ly", [(16, 16, 1.0, 1.0), (32, 32, 1.0, 1.0),
                                            (64, 64, 1.0, 1.0), (24, 40, 2.0, 1.3)])
def test_face_product_rule(nx, ny, lx, ly, rng):
    # face_average(mu) grad(phi) + face_average(phi) grad(mu) = grad(mu phi)
    # on interior faces, to rounding; boundary faces are 0 in all three
    grid = GridSpec(nx, ny, lx, ly)
    mu = ScalarField(grid, rng.standard_normal((nx, ny)))
    phi = ScalarField(grid, rng.standard_normal((nx, ny)))
    (mx, my), (px, py) = ops.face_average(mu), ops.face_average(phi)
    gmu, gphi = ops.grad_cc(mu), ops.grad_cc(phi)
    gprod = ops.grad_cc(ScalarField(grid, mu.values * phi.values))
    for lhs, rhs in ((mx * gphi.u + px * gmu.u, gprod.u),
                     (my * gphi.w + py * gmu.w, gprod.w)):
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


def test_operators_are_linear(grid16, rng):
    a, b = 1.3, -0.7
    p1 = rng.standard_normal((16, 16))
    p2 = rng.standard_normal((16, 16))
    combo = ops.div_fc(ops.grad_cc(ScalarField(grid16, a * p1 + b * p2))).values
    parts = (a * ops.div_fc(ops.grad_cc(ScalarField(grid16, p1))).values
             + b * ops.div_fc(ops.grad_cc(ScalarField(grid16, p2))).values)
    assert np.max(np.abs(combo - parts)) <= 1e-11
    g = ops.grad_cc(ScalarField(grid16, a * p1 + b * p2))
    gp = (a * ops.grad_cc(ScalarField(grid16, p1)).u
          + b * ops.grad_cc(ScalarField(grid16, p2)).u)
    assert np.max(np.abs(g.u - gp)) <= 1e-12
