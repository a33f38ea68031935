import numpy as np
import pytest
import scipy.fft
from scipy.fft import dct, dst, dstn
from scipy.integrate import solve_ivp

from chve import operators as ops
from chve.grid import GridSpec, PreconditionError, StaggeredVectorField


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


def laplacian(p, grid):
    return ops.face_divergence(*ops.face_gradient(p, grid), grid)


def test_grad_of_constant_is_zero(grid8):
    gu, gw = ops.face_gradient(np.full((8, 8), 3.7), grid8)
    assert np.all(gu == 0.0) and np.all(gw == 0.0)


def test_grad_exact_on_linear_interior():
    grid = GridSpec(8, 8, 2.0, 1.0)
    X, _ = grid.cell_centers()
    gu, gw = ops.face_gradient(X, grid)
    assert np.allclose(gu[1:-1, :], 1.0, atol=1e-13)
    assert np.all(gw == 0.0)


def test_div_of_grad_constant(grid8):
    assert np.all(laplacian(np.ones((8, 8)), grid8) == 0.0)


def test_adjointness_exact(grid16, rng):
    a = grid16.cell_area
    for _ in range(20):
        p = rng.standard_normal((16, 16))
        v = random_noslip(grid16, rng)
        gu, gw = ops.face_gradient(p, grid16)
        lhs = (np.sum(gu * v.u) + np.sum(gw * v.w)) * a
        rhs = -np.sum(p * ops.face_divergence(v.u, v.w, grid16)) * a
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_divergence_sums_to_zero(grid16, rng):
    for _ in range(10):
        v = random_noslip(grid16, rng)
        total = np.sum(ops.face_divergence(v.u, v.w, grid16)) * grid16.cell_area
        assert abs(total) <= 1e-13


# ---------------------------------------------------------------------------
# Laplacian


def test_laplacian_constant(grid8):
    out = laplacian(np.full((8, 8), 2.0), grid8)
    assert np.max(np.abs(out)) <= 1e-12


def test_laplacian_cosine_richardson():
    # L cos(pi x / lx) -> -(pi/lx)^2 cos, error O(h^2): ratio ~ 4 when h halves
    errs = []
    for n in (32, 64):
        grid = GridSpec(n, n, 2.0, 1.0)
        X, _ = grid.cell_centers()
        phi = np.cos(np.pi * X / grid.lx)
        out = laplacian(phi, grid)
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
        close(L @ p.ravel(), laplacian(p, grid8).ravel())


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


def test_dct_diagonal_with_eigenvalues_applies_laplacian(rng, monkeypatch):
    # a non-square grid, on the dense path and on pocketfft
    grid = GridSpec(5, 7, 1.0, 1.3)
    L = ops.laplacian_matrix(grid)
    eig = ops.laplacian_eigenvalues(grid)
    r = rng.standard_normal((5, 7))
    for crossover in (7, 6):
        monkeypatch.setattr(ops, "DENSE_TRANSFORM_MAX", crossover)
        np.testing.assert_allclose(ops.dct_diagonal(r, eig).ravel(), L @ r.ravel(),
                                   rtol=0.0, atol=1e-12 * np.max(np.abs(eig)))


def test_dense_transforms_crossover():
    n = ops.DENSE_TRANSFORM_MAX
    assert ops.dense_transforms(n, n) and ops.dense_transforms(1, n)
    assert not ops.dense_transforms(n + 1, n) and not ops.dense_transforms(n, n + 1)


def test_dct_factor_is_the_read_only_orthonormal_dct():
    C = ops._dct_factor(24)
    assert ops._dct_factor(24) is C and not C.flags.writeable
    np.testing.assert_allclose(C, dct(np.eye(24), type=2, norm="ortho", axis=0),
                               rtol=0.0, atol=1e-15)


def test_dst_factor_is_the_read_only_orthonormal_dst():
    # 24 cells have 23 interior nodes
    S = ops._dst_factor(24)
    assert ops._dst_factor(24) is S and not S.flags.writeable
    np.testing.assert_allclose(S, dst(np.eye(23), type=1, norm="ortho", axis=0),
                               rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("cells", [(8, 8), (5, 7), "crossover", "above"],
                         ids=["8x8", "5x7", "crossover", "above"])
def test_dst2d_decides_on_the_cell_counts(rng, monkeypatch, cells):
    """dst2d of the (nx - 1, ny - 1) interior-node data of nx x ny cells
    takes pocketfft exactly when the cells are above the crossover, agrees
    with pocketfft to 1e-13 relative and is its own inverse."""
    n = ops.DENSE_TRANSFORM_MAX
    cells = {"crossover": (n, n), "above": (n + 1, n)}.get(cells, cells)
    x = rng.standard_normal((cells[0] - 1, cells[1] - 1))
    calls = []
    real = scipy.fft.dstn

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.fft, "dstn", counted)
    y = ops.dst2d(x)
    assert (len(calls) == 1) is not ops.dense_transforms(*cells)
    ref = dstn(x, type=1, norm="ortho")
    assert np.max(np.abs(y - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(ops.dst2d(y) - x)) <= 1e-13 * np.max(np.abs(x))


@pytest.mark.parametrize("shape", [(8, 8), (5, 7), (24, 40), "crossover", "above"])
def test_dct_diagonal_dense_matches_pocketfft(rng, monkeypatch, shape):
    """The two paths of dct_diagonal, each forced at the same size, agree
    to 1e-13 relative; lx != ly, and the symbol is a Laplacian's inverse."""
    n = ops.DENSE_TRANSFORM_MAX
    shape = {"crossover": (n, n), "above": (n + 1, n)}.get(shape, shape)
    grid = GridSpec(*shape, 2.0, 1.3)
    symbol = 1.0 / (1.0 - ops.laplacian_eigenvalues(grid))
    r = rng.standard_normal(shape)
    out = {}
    for dense, crossover in ((True, max(shape)), (False, max(shape) - 1)):
        monkeypatch.setattr(ops, "DENSE_TRANSFORM_MAX", crossover)
        assert ops.dense_transforms(*shape) is dense
        out[dense] = ops.dct_diagonal(r, symbol)
    assert np.max(np.abs(out[True] - out[False])) <= 1e-13 * np.max(np.abs(out[False]))


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


def _laplacian_face_loop(grid, coeff):
    """Face-by-face dense reference: each interior face between cells a and
    b, of weight w = mean(coeff_a, coeff_b) / h^2, adds w to (a, b) and
    (b, a) and -w to (a, a) and (b, b)."""
    nx, ny = grid.nx, grid.ny
    L = np.zeros((nx * ny, nx * ny))
    faces = [((i, j), (i + 1, j), grid.hx) for i in range(nx - 1) for j in range(ny)]
    faces += [((i, j), (i, j + 1), grid.hy) for i in range(nx) for j in range(ny - 1)]
    for (ia, ja), (ib, jb), h in faces:
        a, b = ia * ny + ja, ib * ny + jb
        w = 0.5 * (coeff[ia, ja] + coeff[ib, jb]) * (1.0 / (h * h))
        L[a, b] += w
        L[b, a] += w
        L[a, a] -= w
        L[b, b] -= w
    return L


@pytest.mark.parametrize("shape", [(7, 5), (16, 16)], ids=["7x5", "16x16"])
@pytest.mark.parametrize("coeff", ["unit", "random"])
def test_laplacian_diagonals_match_face_reference_and_csr_products(rng, shape, coeff):
    """The five-diagonal L has the entries of the face-by-face assembly (the
    diagonal sums the same four weights, in another order), and its vector
    product is bitwise the product of its CSR copy, the transport's form,
    whose rows hold the same entries in column order."""
    grid = GridSpec(*shape, lx=1.0, ly=1.3)
    c = np.ones(shape) if coeff == "unit" else 0.1 + rng.random(shape)
    L = ops.laplacian_matrix(grid, None if coeff == "unit" else c)
    assert L.format == "dia" and list(L.offsets) == [-shape[1], -1, 0, 1, shape[1]]
    dense, ref = L.toarray(), _laplacian_face_loop(grid, c)
    off = ~np.eye(dense.shape[0], dtype=bool)
    assert np.array_equal(dense[off], ref[off])
    np.testing.assert_allclose(np.diag(dense), np.diag(ref), rtol=4e-16, atol=0.0)
    csr = L.tocsr()
    assert csr.has_sorted_indices and csr.nnz == np.count_nonzero(ref)
    for x in (rng.standard_normal(L.shape[0]), rng.uniform(-1e3, 1e3, L.shape[0])):
        assert (L @ x).tobytes() == (csr @ x).tobytes()
        assert (0.3 * L @ x).tobytes() == ((0.3 * csr) @ x).tobytes()


# ---------------------------------------------------------------------------
# velocity derivative pass: velocity gradient, divergence, vector Laplacian


def test_velocity_gradient_zero(grid8):
    dv = ops.velocity_derivatives(StaggeredVectorField.zeros(grid8))
    gv = ops.velocity_gradient(dv)
    assert gv.shape == (8, 8, 2, 2) and np.all(gv == 0.0)
    assert dv.u_max == dv.w_max == 0.0
    assert all(np.all(x == 0.0) for x in ops.vector_laplacian(dv))


def test_velocity_gradient_interior_shear_constant():
    # u = gamma * y inside a masked block, zero outside: cells whose whole
    # stencil sees the linear profile get the exact constant gradient
    grid = GridSpec(32, 32)
    _, Yu = grid.xface_coords()
    u = np.where((Yu > 0.25) & (Yu < 0.75), 2.0 * Yu, 0.0)
    u[0, :] = u[-1, :] = 0.0
    v = StaggeredVectorField(grid, u, np.zeros((32, 33)))
    gv = ops.velocity_gradient(ops.velocity_derivatives(v))
    core = gv[4:-4, 14:18]
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
        gv = ops.velocity_gradient(ops.velocity_derivatives(v))
        Xc, Yc = grid.cell_centers()
        e = max(np.max(np.abs(gv[:, :, 0, 0] - bump_prime(Xc) * bump(Yc))),
                np.max(np.abs(gv[:, :, 0, 1] - bump(Xc) * bump_prime(Yc))))
        errs.append(e)
    assert errs[0] / errs[1] >= 3.0  # second order


def test_velocity_gradient_trace_equals_divergence(grid16, rng):
    # the admission reads div v from the derivative pass, never from
    # face_divergence: du/dx + dw/dy must be face_divergence bit for bit
    v = random_noslip(grid16, rng)
    dv = ops.velocity_derivatives(v)
    gv = ops.velocity_gradient(dv)
    tr = gv[:, :, 0, 0] + gv[:, :, 1, 1]
    div = ops.face_divergence(v.u, v.w, grid16)
    assert np.max(np.abs(tr - div)) <= 1e-12
    assert np.array_equal(dv.dudx + dv.dwdy, div)
    assert dv.div_max == np.max(np.abs(ops.face_divergence(v.u, v.w, grid16)))
    res, bound = ops.solenoidal_residual(dv)
    assert res == float(np.max(np.abs(div)))
    assert bound == ops.DIV_RTOL * max(v.max_abs(), 1.0) / min(grid16.hx, grid16.hy)


# ---------------------------------------------------------------------------
# advection


def test_advect_constant_field_is_zero(grid16, rng):
    v = random_solenoidal(grid16, rng)
    out = ops.advect_scalar(v, np.full((16, 16), 0.8))
    assert np.max(np.abs(out)) <= 1e-12


def test_advect_conserves_cell_sum(grid16, rng):
    for _ in range(10):
        v = random_solenoidal(grid16, rng)
        phi = rng.standard_normal((16, 16))
        total = np.sum(ops.advect_scalar(v, phi)) * grid16.cell_area
        assert abs(total) <= 1e-12


def test_advect_tensor_matches_scalar_per_component(grid16, rng):
    v = random_solenoidal(grid16, rng)
    comps = rng.standard_normal((16, 16, 2, 2))
    out = ops.advect_tensor(v, comps)
    for a in range(2):
        for b in range(2):
            ref = ops.advect_scalar(v, comps[:, :, a, b])
            assert np.allclose(out[:, :, a, b], ref, atol=1e-13)


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


def _signed_zero_faces_solenoidal(grid, rng):
    """random_solenoidal with exact 0.0 and -0.0 normal velocities on
    interior faces of both axes."""
    psi = rng.standard_normal((grid.nx + 1, grid.ny + 1))
    psi[[0, -1], :] = psi[:, [0, -1]] = 0.0
    psi[1:3, 1:3] = 0.0   # u[1, 1] = +0.0 and w[1, 1] = -(+0.0) = -0.0
    psi[2, 3] = -0.0      # u[2, 2] = (-0.0 - 0.0) / hy = -0.0
    psi[3, 2] = -0.0      # w[2, 2] = -(-0.0 - 0.0) / hx = +0.0
    v = StaggeredVectorField.from_stream_function(grid, psi)
    for a in (v.u[1:-1, :], v.w[:, 1:-1]):
        zeros = a[a == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    return v


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


_LOOP_GRIDS = {"16x16": GridSpec(16, 16), "5x7": GridSpec(5, 7, 1.0, 1.3),
               # 4 cells is the smallest axis, where the kappa = 1/3 faces are two
               "4x6": GridSpec(4, 6, 1.0, 1.3), "6x4": GridSpec(6, 4)}


@pytest.mark.parametrize(
    "grid, velocity",
    [(g, random_solenoidal) for g in _LOOP_GRIDS.values()]
    + [(g, _signed_zero_faces_solenoidal) for g in _LOOP_GRIDS.values()],
    ids=list(_LOOP_GRIDS) + [f"{k}-signed-zero-faces" for k in _LOOP_GRIDS])
def test_advection_matches_loop_reference(grid, velocity, rng):
    v = velocity(grid, rng)
    assert v.u.min() < 0.0 < v.u.max() and v.w.min() < 0.0 < v.w.max()
    comps = rng.standard_normal((grid.nx, grid.ny, 2, 2))
    # one component of signed zeros: where the mirrored jumps cancel, the
    # vel < 0 value must come out +0.0 as in the direct form
    i, j = np.indices((grid.nx, grid.ny))
    comps[:, :, 0, 1] = np.where((i + j) % 2 == 0, -0.0, 0.0)
    # the loop evaluates the direct kappa = 1/3 form and the same flux
    # divergence; the kernel's mirrored vel < 0 form equals the direct one
    # bit for bit, so the results match bit for bit, signed zeros included
    out = ops.advect_tensor(v, comps)
    for a in range(2):
        for b in range(2):
            ref = _advect_loop(v, comps[:, :, a, b])
            assert _bits(out[:, :, a, b]) == _bits(ref), (a, b)
            assert _bits(ops.advect_scalar(v, comps[:, :, a, b])) == _bits(ref), (a, b)


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
            k1 = ops.advect_scalar(v, phi)
            mid = phi - 0.5 * dt * k1
            k2 = ops.advect_scalar(v, mid)
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
    mu = rng.standard_normal((nx, ny))
    phi = rng.standard_normal((nx, ny))
    (mx, my), (px, py) = ops.face_average(mu, grid), ops.face_average(phi, grid)
    (gmu_x, gmu_y), (gphi_x, gphi_y) = ops.face_gradient(mu, grid), ops.face_gradient(phi, grid)
    gprod_x, gprod_y = ops.face_gradient(mu * phi, grid)
    for lhs, rhs in ((mx * gphi_x + px * gmu_x, gprod_x),
                     (my * gphi_y + py * gmu_y, gprod_y)):
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


def test_operators_are_linear(grid16, rng):
    a, b = 1.3, -0.7
    p1 = rng.standard_normal((16, 16))
    p2 = rng.standard_normal((16, 16))
    combo = laplacian(a * p1 + b * p2, grid16)
    parts = a * laplacian(p1, grid16) + b * laplacian(p2, grid16)
    assert np.max(np.abs(combo - parts)) <= 1e-11
    gu, _ = ops.face_gradient(a * p1 + b * p2, grid16)
    gp = a * ops.face_gradient(p1, grid16)[0] + b * ops.face_gradient(p2, grid16)[0]
    assert np.max(np.abs(gu - gp)) <= 1e-12
