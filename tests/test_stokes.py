import numpy as np
import pytest
import scipy.fft
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dstn, idstn

from chve import constitutive as law
from chve import operators, stokes
from chve.diagnostics import dissipation, state_fields
from chve.errors import SolverError
from chve.grid import GridSpec, ModelParams, ScalarField, StaggeredVectorField, TensorField
from chve.operators import (face_divergence, face_gradient, node_shear_gradients,
                            solenoidal_residual, vector_laplacian, velocity_derivatives,
                            velocity_gradient)
from chve.verification import DenseOracle, dense_stokes_compare, stokes_mms


def _interior(u, w):
    """Interior-face values: u faces (i, j), i = 1..nx-1, then w faces."""
    return np.concatenate([u[1:-1, :].ravel(), w[:, 1:-1].ravel()])


def _faces(g, x):
    """The no-slip face field whose interior-face values are x."""
    n_u = (g.nx - 1) * g.ny
    u = np.zeros((g.nx + 1, g.ny))
    w = np.zeros((g.nx, g.ny + 1))
    u[1:-1, :] = x[:n_u].reshape(g.nx - 1, g.ny)
    w[:, 1:-1] = x[n_u:].reshape(g.nx, g.ny - 1)
    return StaggeredVectorField(g, u, w)


def _random_force(g, rng):
    return _faces(g, rng.standard_normal((g.nx - 1) * g.ny + g.nx * (g.ny - 1)))


def _sparse_velocity_block(g, nu):
    """-nu Lap_h on interior faces, assembled from 1-D second differences:
    Dirichlet (0) ends along a component's own axis, reflected-ghost ends
    (diagonal 3/h^2) across it."""
    def tridiag(n, h, wall_ghost):
        s = 1.0 / (h * h)
        main = np.full(n, 2.0 * s)
        if wall_ghost:
            main[[0, -1]] = 3.0 * s
        return sp.diags([np.full(n - 1, -s), main, np.full(n - 1, -s)], (-1, 0, 1))

    nx, ny = g.nx, g.ny
    A_u = sp.kron(tridiag(nx - 1, g.hx, False), sp.eye(ny)) \
        + sp.kron(sp.eye(nx - 1), tridiag(ny, g.hy, True))
    A_w = sp.kron(tridiag(nx, g.hx, True), sp.eye(ny - 1)) \
        + sp.kron(sp.eye(nx), tridiag(ny - 1, g.hy, False))
    return nu * sp.block_diag((A_u, A_w), format="csr")


def _sparse_gradient(g):
    """face_gradient from cells (index i*ny + j) onto interior faces."""
    def diff(n, h):
        return sp.diags([-1.0 / h, 1.0 / h], (0, 1), shape=(n - 1, n))

    return sp.vstack([sp.kron(diff(g.nx, g.hx), sp.eye(g.ny)),
                      sp.kron(sp.eye(g.nx), diff(g.ny, g.hy))], format="csr")


def test_zero_force_gives_zero_fields(grid16, params):
    solver = stokes.StokesSolver(grid16, params.nu)
    v, q, _ = solver.solve(StaggeredVectorField.zeros(grid16))
    assert v.max_abs() <= 1e-12
    assert np.max(np.abs(q.values)) <= 1e-12


def test_gradient_forcing_absorbed_into_pressure():
    grid = GridSpec(32, 32)
    X, Y = grid.cell_centers()
    pstar = np.cos(np.pi * X / grid.lx) * np.cos(np.pi * Y / grid.ly)
    force = StaggeredVectorField(grid, *face_gradient(pstar, grid))
    v, q, _ = stokes.StokesSolver(grid, 1.0).solve(force)
    assert v.max_abs() <= 1e-10
    ref = pstar - pstar.mean()
    assert np.max(np.abs(q.values - ref)) <= 1e-9


def test_pressure_is_mean_zero_and_invariant(grid16, rng, params):
    solver = stokes.StokesSolver(grid16, params.nu)
    force = _random_force(grid16, rng)
    v, q, _ = solver.solve(force)
    assert abs(np.mean(q.values)) <= 1e-14
    # shifting q by a constant leaves the momentum residual unchanged
    lu, lw = vector_laplacian(velocity_derivatives(v))

    def residual(qv):
        gu, gw = face_gradient(qv, grid16)
        return np.concatenate([(-params.nu * lu + gu - force.u).ravel(),
                               (-params.nu * lw + gw - force.w).ravel()])

    r0 = residual(q.values)
    r1 = residual(q.values + 3.14)
    assert np.max(np.abs(r1 - r0)) <= 1e-11


def test_velocity_block_spd_and_coupling_transpose(params):
    nu = params.nu
    for g in (GridSpec(8, 8), GridSpec(5, 7, 1.0, 1.3)):
        n_v = (g.nx - 1) * g.ny + g.nx * (g.ny - 1)
        # the columns of -nu Lap_h are the A block of the oracle's saddle matrix
        A = np.array([-nu * _interior(*vector_laplacian(velocity_derivatives(_faces(g, e))))
                      for e in np.eye(n_v)]).T
        A_ref = DenseOracle(g).stokes_matrix(nu)[:n_v, :n_v]
        assert np.max(np.abs(A - A_ref)) <= 1e-14 * np.max(np.abs(A_ref))
        assert np.max(np.abs(A - A.T)) <= 1e-13
        assert np.min(np.linalg.eigvalsh(A)) > 0.0

        # face_gradient onto interior faces is minus the transpose of
        # face_divergence
        cells = np.eye(g.nx * g.ny)
        G = np.array([_interior(*face_gradient(e.reshape(g.nx, g.ny), g))
                      for e in cells]).T
        faces = [_faces(g, e) for e in np.eye(n_v)]
        D = np.array([face_divergence(v.u, v.w, g).ravel() for v in faces]).T
        assert np.max(np.abs(G.T + D)) <= 1e-12

        # the curls C of interior-node stream functions span the divergence-free
        # space, and C^T A C is the SPD operator the stream function solves with
        def curl(e):
            psi = np.zeros((g.nx + 1, g.ny + 1))
            psi[1:-1, 1:-1] = e.reshape(g.nx - 1, g.ny - 1)
            v = StaggeredVectorField.from_stream_function(g, psi)
            return _interior(v.u, v.w)

        C = np.array([curl(e) for e in np.eye((g.nx - 1) * (g.ny - 1))]).T
        assert np.max(np.abs(C.T @ G)) <= 1e-12
        B = C.T @ A @ C
        assert np.max(np.abs(B - B.T)) <= 1e-13 * np.max(np.abs(B))
        assert np.min(np.linalg.eigvalsh(B)) > 0.0


@pytest.mark.parametrize("grid,nu", [(GridSpec(64, 64), 1.0), (GridSpec(48, 80, 2.0, 1.0), 0.7)],
                         ids=["64x64", "48x80"])
def test_matches_pinned_saddle_solve(grid, nu, rng):
    # reference: sparse direct solve of [[A, G_1], [G_1^T, 0]], with G_1 = G
    # less the column of cell (0, 0), whose pressure is pinned to zero
    A, G1 = _sparse_velocity_block(grid, nu), _sparse_gradient(grid)[:, 1:]
    force = _random_force(grid, rng)
    b = _interior(force.u, force.w)
    M = sp.bmat([[A, G1], [G1.T, None]], format="csc")
    x = spla.spsolve(M, np.concatenate([b, np.zeros(G1.shape[1])]))
    v_ref, q_ref = x[:b.size], np.concatenate([[0.0], x[b.size:]])

    v, q, _ = stokes.StokesSolver(grid, nu).solve(force)
    assert np.linalg.norm(_interior(v.u, v.w) - v_ref) <= 1e-11 * np.linalg.norm(v_ref)
    q_ref -= q_ref.mean()
    assert np.linalg.norm(q.values.ravel() - q_ref) <= 1e-10 * np.linalg.norm(q_ref)


def test_solve_needs_no_sparse_factorization(grid16, rng, monkeypatch):
    def no_splu(*args, **kwargs):
        raise AssertionError("splu called")

    monkeypatch.setattr(spla, "splu", no_splu)
    solver = stokes.StokesSolver(grid16, 1.0)
    fu = np.zeros((17, 16))
    fw = np.zeros((16, 17))
    fu[1:-1, :] = rng.standard_normal((15, 16))
    fw[:, 1:-1] = rng.standard_normal((16, 15))
    v, _, _ = solver.solve(StaggeredVectorField(grid16, fu, fw))
    assert v.max_abs() > 0.0


def test_solve_applies_one_dst_pair_and_one_dct_pair(grid16, rng, monkeypatch):
    # one forward and one inverse application of each eigenbasis per solve,
    # as dense products below the crossover and through pocketfft above it
    force = _random_force(grid16, rng)
    for crossover, pocketfft in ((16, []), (15, ["dstn", "dstn", "dctn", "idctn"])):
        with monkeypatch.context() as mp:
            mp.setattr(operators, "DENSE_TRANSFORM_MAX", crossover)
            solver = stokes.StokesSolver(grid16, 1.0)
            bases, calls = [], []
            for owner, name, log in ((scipy.fft, "dstn", calls), (scipy.fft, "dctn", calls),
                                     (scipy.fft, "idctn", calls), (stokes, "dst2d", bases),
                                     (operators, "dct2d", bases)):
                def counted(*args, _real=getattr(owner, name), _name=name, _log=log,
                            **kwargs):
                    _log.append(f"{_name}, inverse" if kwargs.get("inverse") else _name)
                    return _real(*args, **kwargs)
                mp.setattr(owner, name, counted)
            solver.solve(force)
        assert bases == ["dst2d", "dst2d", "dct2d", "dct2d, inverse"]
        assert calls == pocketfft


@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(24, 40, 2.0, 1.3),
                                  GridSpec(64, 64)], ids=["16x16", "24x40", "64x64"])
def test_dense_solve_matches_pocketfft_solve(grid, rng, monkeypatch):
    """The same solve with both eigenbases applied as dense products and
    through pocketfft: (v, q) agree to 1e-13 relative."""
    force = _random_force(grid, rng)
    out = {}
    for dense, crossover in ((True, max(grid.nx, grid.ny)), (False, 0)):
        monkeypatch.setattr(operators, "DENSE_TRANSFORM_MAX", crossover)
        out[dense] = stokes.StokesSolver(grid, 0.7).solve(force)
    (v, q, _), (v_ref, q_ref, _) = out[True], out[False]
    for x, ref in ((v.u, v_ref.u), (v.w, v_ref.w), (q.values, q_ref.values)):
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


def _einsum_capacitance(Sx, Sy, W, hx, hy):
    """The whole ring capacitance (ring, K) the solver never forms:
    K = diag(1/P_ring) + (B^-1)[ring, ring] on the flat indices
    i*(ny-1) + j of the nodes next to a wall, each block of (B^-1)[ring,
    ring] between two wall lines one five-operand einsum over the line's x
    and y basis rows."""
    nx, m = Sx.shape[0] + 1, Sy.shape[0]
    P = np.zeros((nx - 1, m))
    P[:, [0, -1]] += 2.0 / hy ** 4
    P[[0, -1], :] += 2.0 / hx ** 4
    lines = ([(np.arange(nx - 1) * m + j, Sx, Sy[[j]]) for j in (0, m - 1)]
             + [(i * m + np.arange(m), Sx[[i]], Sy) for i in (0, nx - 2)])
    K = np.block([[np.einsum("pk,ql,kl,rk,sl->pqrs", Xa, Ya, W, Xb, Yb,
                             optimize=True).reshape(na.size, nb.size)
                   for nb, Xb, Yb in lines] for na, Xa, Ya in lines])
    ring, first = np.unique(np.concatenate([na for na, _, _ in lines]), return_index=True)
    return ring, K[np.ix_(first, first)] + np.diag(1.0 / P.ravel()[ring])


def _full_capacitance(grid, solver):
    return _einsum_capacitance(operators._dst_factor(grid.nx), operators._dst_factor(grid.ny),
                               solver._B_inv, grid.hx, grid.hy)


def _sector_bases(grid, ring):
    """The orthonormal bases (R x n_s, s = 2 px + py) of the mirror-parity
    sectors on the ring: the flips i -> nx-2-i and j -> ny-2-j applied to
    each representative, (i, 0) for 2i <= nx-2 and then (0, j) for
    1 <= j, 2j <= ny-2, summed with the signs (-1)^(px a + py b) of the
    sector; a representative whose sum vanishes has no orbit vector there."""
    mx, my = grid.nx - 1, grid.ny - 1
    position = {node: k for k, node in enumerate(ring)}
    reps = ([(i, 0) for i in range(mx) if 2 * i <= mx - 1]
            + [(0, j) for j in range(1, my) if 2 * j <= my - 1])
    bases = []
    for px in (0, 1):
        for py in (0, 1):
            columns = []
            for i, j in reps:
                v = np.zeros(len(ring))
                for a in (0, 1):
                    for b in (0, 1):
                        node = (mx - 1 - i if a else i) * my + (my - 1 - j if b else j)
                        v[position[node]] += (-1.0) ** (px * a + py * b)
                if np.any(v):
                    columns.append(v / np.linalg.norm(v))
            bases.append(np.array(columns).T)
    return bases


@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(24, 40, 2.0, 1.3),
                                  GridSpec(9, 12, 1.0, 1.3), GridSpec(64, 64),
                                  GridSpec(128, 128)],
                         ids=["16x16", "24x40", "9x12", "64x64", "128x128"])
def test_one_pair_solve_matches_two_pair_formula(grid, rng, monkeypatch):
    """The capacitance solve written with B^-1 applied by a full DST-I pair
    on each side of a ring solve with the whole capacitance K, formed and
    Cholesky-factored here: z = B^-1 r, y = K^-1 z[ring], psi = z - B^-1 y.
    The shipped solve forms z and S y on the ring lines only and solves
    with K's mirror-parity sectors; (v, q) must agree to rounding."""
    solver = stokes.StokesSolver(grid, 0.7)
    force = _random_force(grid, rng)
    v, q, _ = solver.solve(force)
    ring, K = _full_capacitance(grid, solver)
    cap = sla.cho_factor(K)

    def B_inv(r):
        return idstn(dstn(r, type=1, norm="ortho") * solver._B_inv, type=1, norm="ortho")

    def two_pair_velocity(force):
        dudy, dwdx = node_shear_gradients(force)
        z = B_inv((dwdx - dudy)[1:-1, 1:-1] / solver.nu)
        y = np.zeros_like(z)
        y.flat[ring] = sla.cho_solve(cap, z.flat[ring])
        psi = np.zeros((grid.nx + 1, grid.ny + 1))
        psi[1:-1, 1:-1] = z - B_inv(y)
        return StaggeredVectorField.from_stream_function(grid, psi)

    monkeypatch.setattr(solver, "_velocity", two_pair_velocity)
    v_ref, q_ref, _ = solver.solve(force)
    for x, ref in ((v.u, v_ref.u), (v.w, v_ref.w), (q.values, q_ref.values)):
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(12, 9, 1.2, 0.9)],
                         ids=["16x16", "12x9"])
def test_ring_back_solve_is_bitwise_cho_solve(grid, rng, monkeypatch):
    """The solve calls LAPACK potrs once per sector on the factor of LAPACK
    potrf; with sla.cho_solve on that (upper) factor in its place every
    velocity face is the same, bit for bit.  The derivative pass the solve
    returns is, bit for bit, the pass of its velocity."""
    solver = stokes.StokesSolver(grid, 0.7)
    force = _random_force(grid, rng)
    v, _, dv = solver.solve(force)
    ref = velocity_derivatives(v)
    assert dv.v is v
    for name in ("dudx", "dwdy", "dudy", "dwdx"):
        assert getattr(dv, name).tobytes() == getattr(ref, name).tobytes(), name
    assert (dv.u_max, dv.w_max) == (ref.u_max, ref.w_max)
    v = solver._velocity(force)
    calls = []

    def cho_solve_potrs(c, b, **kwargs):
        calls.append((c, b.shape))
        return sla.cho_solve((c, False), b), 0

    monkeypatch.setattr(stokes.lapack, "dpotrs", cho_solve_potrs)
    v_ref = solver._velocity(force)
    assert len(calls) == len(solver._sectors) == 4
    for (c, shape), (_, cap) in zip(calls, solver._sectors):
        assert c is cap and shape == (len(cap),)
    assert np.array_equal(v.u, v_ref.u) and np.array_equal(v.w, v_ref.w)


@pytest.mark.parametrize("grid", [GridSpec(4, 4), GridSpec(5, 7), GridSpec(16, 16),
                                  GridSpec(24, 40, 2.0, 1.3), GridSpec(64, 64)],
                         ids=["4x4", "5x7", "16x16", "24x40", "64x64"])
def test_ring_capacitance_matches_einsum_blocks(grid):
    """Each sector block equals the whole capacitance of the einsum
    reference projected onto that sector's orbit basis, and the four bases
    together are an orthonormal basis of the ring on which K has no
    coupling between sectors."""
    solver = stokes.StokesSolver(grid, 1.0)
    ring, K_ref = _full_capacitance(grid, solver)
    blocks, _, _ = stokes._capacitance_sectors(
        operators._dst_factor(grid.nx), operators._dst_factor(grid.ny),
        solver._B_inv, grid.hx, grid.hy)

    wall = np.zeros((grid.nx - 1, grid.ny - 1), dtype=bool)
    wall[[0, -1], :] = wall[:, [0, -1]] = True
    assert np.array_equal(ring, np.flatnonzero(wall))
    bases = _sector_bases(grid, ring)
    V = np.hstack(bases)
    assert np.max(np.abs(V.T @ V - np.eye(len(ring)))) <= 1e-15 * len(ring)
    scale = np.max(np.abs(K_ref))
    assert [len(K) for K in blocks] == [V_s.shape[1] for V_s in bases]
    for s, (K, V_s) in enumerate(zip(blocks, bases)):
        assert np.max(np.abs(K - V_s.T @ K_ref @ V_s)) <= 1e-14 * scale
        for V_t in bases[s + 1:]:
            assert np.max(np.abs(V_s.T @ K_ref @ V_t)) <= 1e-14 * scale


def test_sector_sizes_sum_to_the_ring():
    for nx in range(4, 8):
        for ny in range(4, 8):
            solver = stokes.StokesSolver(GridSpec(nx, ny), 1.0)
            sizes = [len(cap) for _, cap in solver._sectors]
            assert sum(sizes) == 2 * (nx - 1) + 2 * (ny - 1) - 4, (nx, ny)
            assert [(part.start, part.stop) for part, _ in solver._sectors] \
                == [(sum(sizes[:s]), sum(sizes[:s + 1])) for s in range(4)]


def _held_arrays(obj):
    """Every array an object holds, through its attributes, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _held_arrays(item)]
    if hasattr(obj, "__dict__"):
        return _held_arrays(list(vars(obj).values()))
    return []


@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(7, 9, 1.0, 1.3),
                                  GridSpec(24, 40, 2.0, 1.3)],
                         ids=["16x16", "7x9", "24x40"])
def test_solver_factors_no_more_than_a_sector(grid, monkeypatch):
    """Every factorization the solver asks LAPACK potrf for, and every
    factor it holds, has at most ceil((nx-1)/2) + ceil((ny-1)/2) - 1 rows
    (the largest sector), and it holds no array of R^2 entries or more, R
    the ring's size: an O(R^3) full-ring factorization cannot come back."""
    bound = -(-(grid.nx - 1) // 2) + -(-(grid.ny - 1) // 2) - 1
    ring_size = 2 * (grid.nx - 1) + 2 * (grid.ny - 1) - 4
    factored = []
    real_potrf = stokes.lapack.dpotrf

    def recorded_potrf(a, **kwargs):
        factored.append(a.shape)
        return real_potrf(a, **kwargs)

    monkeypatch.setattr(stokes.lapack, "dpotrf", recorded_potrf)
    solver = stokes.StokesSolver(grid, 1.0)
    assert len(factored) == 4 and max(n for n, _ in factored) == bound
    assert max(len(cap) for _, cap in solver._sectors) == bound
    assert max(a.size for a in _held_arrays(solver)) < ring_size ** 2


def test_solver_setup_calls_no_einsum(monkeypatch):
    def no_einsum(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", no_einsum)
    stokes.StokesSolver(GridSpec(24, 40, 2.0, 1.3), 1.0)


def test_solver_output_divergence_free(grid16, rng, params):
    solver = stokes.StokesSolver(grid16, params.nu)
    fu = np.zeros((17, 16))
    fw = np.zeros((16, 17))
    fu[1:-1, :] = rng.standard_normal((15, 16))
    fw[:, 1:-1] = rng.standard_normal((16, 15))
    v, _, _ = solver.solve(StaggeredVectorField(grid16, fu, fw))
    assert solenoidal_residual(velocity_derivatives(v))[0] <= 1e-10
    # a gradient field is generally not divergence free
    g = StaggeredVectorField(grid16, *face_gradient(rng.standard_normal((16, 16)), grid16))
    assert solenoidal_residual(velocity_derivatives(g))[0] > 1e-3


@pytest.mark.parametrize("div_max,accepted", [(5e-8, True), (5e-6, False)])
def test_stokes_solve_admits_by_the_solenoidal_bound(monkeypatch, div_max, accepted):
    # |v| = 10 at 128^2: the solve admits its velocity by the one solenoidal
    # bound, 1.28e-7 here, after its momentum residual; the force
    # -nu Delta_h v of the crafted v makes that residual exactly 0
    n = 128
    grid = GridSpec(n, n)
    psi = np.random.default_rng(3).standard_normal((n + 1, n + 1))
    psi[0, :] = psi[-1, :] = psi[:, 0] = psi[:, -1] = 0.0
    v = StaggeredVectorField.from_stream_function(grid, psi)
    u = v.u * (10.0 / v.max_abs())
    u[n // 2, n // 2] += div_max * grid.hx  # +-div_max in the two adjacent cells
    v = StaggeredVectorField(grid, u, v.w * (10.0 / v.max_abs()))
    assert v.max_abs() == pytest.approx(10.0, rel=1e-6)
    dv = velocity_derivatives(v)
    assert dv.div_max == pytest.approx(div_max, rel=1e-4)

    nu = ModelParams().nu
    solver = stokes.StokesSolver(grid, nu)
    monkeypatch.setattr(solver, "_velocity", lambda force: v)
    force = StaggeredVectorField(grid, *(-nu * c for c in vector_laplacian(dv)))
    if accepted:
        v_out, q, dv_out = solver.solve(force)
        assert v_out is v and dv_out.div_max == dv.div_max
        assert not q.values.any()  # the momentum residual is exactly 0
    else:
        with pytest.raises(SolverError, match="^div residual"):
            solver.solve(force)


def test_a_direct_solve_rejects_a_non_solenoidal_velocity(grid16, rng, params, monkeypatch):
    # the continuity test is the solver's own: a plain StokesSolver.solve
    # call, outside any run, raises when its velocity is a gradient field,
    # whose force -nu Delta_h v leaves no momentum residual
    solver = stokes.StokesSolver(grid16, params.nu)
    v = StaggeredVectorField(grid16, *face_gradient(rng.standard_normal((16, 16)), grid16))
    dv = velocity_derivatives(v)
    div, bound = solenoidal_residual(dv)
    assert div > 1e3 * bound
    monkeypatch.setattr(solver, "_velocity", lambda force: v)
    force = StaggeredVectorField(grid16, *(-params.nu * c for c in vector_laplacian(dv)))
    with pytest.raises(SolverError) as info:
        solver.solve(force)
    assert str(info.value) == f"div residual {div:.3e} > {bound:.3e}"


def test_energy_consistency(grid16, rng, params):
    # nu <grad v, grad v> = <force, v> for solver output
    solver = stokes.StokesSolver(grid16, params.nu)
    fu = np.zeros((17, 16))
    fw = np.zeros((16, 17))
    fu[1:-1, :] = rng.standard_normal((15, 16))
    fw[:, 1:-1] = rng.standard_normal((16, 15))
    force = StaggeredVectorField(grid16, fu, fw)
    v, q, _ = solver.solve(force)
    phi, F = ScalarField.uniform(grid16, 1.0), TensorField.identity(grid16)
    p = ModelParams(nu=params.nu, lam=0.0)
    visc = dissipation(velocity_derivatives(v), ScalarField.uniform(grid16, 0.0),
                       state_fields(phi, F, p), None, p)
    work = (np.sum(force.u * v.u) + np.sum(force.w * v.w)) * grid16.cell_area
    assert visc == pytest.approx(work, rel=1e-8)


@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(5, 7, 1.0, 1.3)],
                         ids=["16x16", "5x7"])
def test_viscous_dissipation_is_velocity_block_form(grid, rng):
    # the viscous part of dissipation is the quadratic form of the Stokes
    # velocity block: nu |grad v|^2 = -nu <Lap_h v, v> hx hy
    nu = 0.7
    v = _random_force(grid, rng)
    dv = velocity_derivatives(v)
    phi, F = ScalarField.uniform(grid, 1.0), TensorField.identity(grid)
    p = ModelParams(nu=nu, lam=0.0)
    visc = dissipation(dv, ScalarField.uniform(grid, 0.0),
                       state_fields(phi, F, p), None, p)
    lu, lw = vector_laplacian(dv)
    form = -nu * (np.sum(lu * v.u) + np.sum(lw * v.w)) * grid.hx * grid.hy
    assert visc == pytest.approx(form, rel=1e-12)


def test_force_assembly_uniform_state_is_zero(grid16, params):
    phi = ScalarField.uniform(grid16, 0.4)
    mu = ScalarField.uniform(grid16, 1.3)
    F = TensorField.identity(grid16)
    fields = state_fields(phi, F, params)
    force = stokes.assemble_force(fields.f, fields.grad_phi, mu, fields.dw_dphi, F, params)
    assert force.max_abs() <= 1e-12


@pytest.mark.parametrize("grid", [GridSpec(24, 40, 2.0, 1.3), GridSpec(64, 64),
                                  GridSpec(7, 5, 1.4, 1.0), GridSpec(5, 7, 1.0, 1.4)],
                         ids=["24x40", "64x64", "7x5", "5x7"])
def test_elastic_force_is_bitwise_the_padded_einsum_form(grid, params, rng):
    """The stress planes written entrywise and the shear plane edge-padded
    by slicing give the same force, byte for byte, as the einsum stress
    padded by np.pad(mode="edge")."""
    nx, ny = grid.nx, grid.ny
    F = TensorField(grid, np.eye(2) + 0.3 * rng.standard_normal((nx, ny, 2, 2)))
    f = law.stiffness_f(rng.uniform(-1.5, 1.5, (nx, ny)), params)
    S = params.c_elastic * f[..., None, None] * np.einsum("...ik,...jk->...ij",
                                                          F.comps, F.comps)
    Sxy_n = operators._corner_average(np.pad(S[:, :, 0, 1], 1, mode="edge"))
    ref_u = np.zeros((nx + 1, ny))
    ref_w = np.zeros((nx, ny + 1))
    ref_u[1:-1, :] = ((S[1:, :, 0, 0] - S[:-1, :, 0, 0]) / grid.hx
                      + (Sxy_n[1:-1, 1:] - Sxy_n[1:-1, :-1]) / grid.hy)
    ref_w[:, 1:-1] = ((Sxy_n[1:, 1:-1] - Sxy_n[:-1, 1:-1]) / grid.hx
                      + (S[:, 1:, 1, 1] - S[:, :-1, 1, 1]) / grid.hy)
    fu, fw = stokes.elastic_force(f, F, params)
    assert np.array_equal(fu, ref_u) and np.array_equal(fw, ref_w)


def test_force_identity_stress_is_discrete_gradient(grid16, params, rng):
    # with F = I the elastic term reduces to face differences of c f(phi) I,
    # i.e. an exact discrete gradient: it must produce no velocity
    phi = ScalarField(grid16, 0.3 * rng.standard_normal((16, 16)))
    F = TensorField.identity(grid16)
    f = law.stiffness_f(phi.values, params)
    eu, ew = stokes.elastic_force(f, F, params)
    ref_u, ref_w = face_gradient(params.c_elastic * f, grid16)
    assert np.max(np.abs(eu - ref_u)) <= 1e-12
    assert np.max(np.abs(ew - ref_w)) <= 1e-12


def test_force_matches_dense_assembly(grid8, rng):
    """Face-by-face reassembly of the force with plain loops."""
    params = ModelParams(c_elastic=0.8, eps=0.7)
    from chve.grid import frobenius
    g = grid8
    phi = ScalarField(g, 0.4 * rng.standard_normal((8, 8)))
    mu = ScalarField(g, rng.standard_normal((8, 8)))
    F = TensorField(g, np.eye(2) + 0.2 * rng.standard_normal((8, 8, 2, 2)))
    p = phi.values
    f = law.stiffness_f(p, params)
    force = stokes.assemble_force(f, face_gradient(p, g), mu,
                                  state_fields(phi, F, params).dw_dphi, F, params)

    m = mu.values - 0.5 * params.c_elastic * law.stiffness_f_prime(p, params) \
        * (frobenius(F.comps, F.comps) - 2.0)
    S = law.eulerian_elastic_stress(f, F.comps, params)

    def node_stress(i, j):
        cells = [(a, b) for a in (i - 1, i) for b in (j - 1, j)
                 if 0 <= a < 8 and 0 <= b < 8]
        return sum(S[a, b, 0, 1] for a, b in cells) / len(cells)

    for i in range(1, 8):
        for j in range(8):
            cap = 0.5 * (m[i, j] + m[i - 1, j]) * (p[i, j] - p[i - 1, j]) / g.hx
            el = ((S[i, j, 0, 0] - S[i - 1, j, 0, 0]) / g.hx
                  + (node_stress(i, j + 1) - node_stress(i, j)) / g.hy)
            assert force.u[i, j] == pytest.approx(cap + el, rel=1e-12, abs=1e-12)
    for i in range(8):
        for j in range(1, 8):
            cap = 0.5 * (m[i, j] + m[i, j - 1]) * (p[i, j] - p[i, j - 1]) / g.hy
            el = ((node_stress(i + 1, j) - node_stress(i, j)) / g.hx
                  + (S[i, j, 1, 1] - S[i, j - 1, 1, 1]) / g.hy)
            assert force.w[i, j] == pytest.approx(cap + el, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("nx, ny, lx, ly", [(16, 16, 1.0, 1.0), (32, 32, 1.0, 1.0),
                                            (64, 64, 1.0, 1.0), (24, 40, 2.0, 1.3)])
def test_elastic_force_pairs_with_velocity_gradient(nx, ny, lx, ly, rng):
    """<elastic_force(f, F), v> = -<c f F F^T, velocity_gradient(v)> for any
    no-slip v: the Stokes stress term and the transport stretch term
    (grad_h v) F are discrete adjoints, the elastic pairing of the energy law."""
    g = GridSpec(nx, ny, lx, ly)
    params = ModelParams(c_elastic=0.8)
    f = rng.uniform(0.1, 1.0, (nx, ny))
    F = TensorField(g, rng.standard_normal((nx, ny, 2, 2)))
    v = _random_force(g, rng)
    fu, fw = stokes.elastic_force(f, F, params)
    power = (np.sum(fu * v.u) + np.sum(fw * v.w)) * g.cell_area
    stress = law.eulerian_elastic_stress(f, F.comps, params)
    work = -np.sum(stress * velocity_gradient(velocity_derivatives(v))) * g.cell_area
    scale = np.sqrt(np.sum(fu ** 2) + np.sum(fw ** 2)) \
        * np.sqrt(np.sum(v.u ** 2) + np.sum(v.w ** 2)) * g.cell_area
    assert abs(power - work) <= 1e-13 * scale


def test_dense_stokes_oracle_match(grid8):
    rep = dense_stokes_compare(grid8)
    assert rep["passed"], rep
    assert rep["max_dev_pressure"] <= 1e-12, rep


def test_dense_stokes_oracle_match_rectangular_cells():
    # hx != hy: the two wall terms of the ring correction differ
    rep = dense_stokes_compare(GridSpec(5, 7, 1.0, 1.3), nu=0.3)
    assert rep["passed"], rep
    assert rep["max_dev_pressure"] <= 1e-12, rep


def test_mms_convergence_small():
    rep = stokes_mms(levels=(16, 32))
    assert rep["order_v"][0] >= 1.9
    assert rep["order_q"][0] >= 1.0

