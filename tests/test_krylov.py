import numpy as np
import pytest
import scipy.sparse.linalg as spla

from chve import constitutive as law
from chve import krylov
from chve.grid import GridSpec, ModelParams, ScalarField, TensorField
from chve.operators import dct_diagonal, laplacian_eigenvalues, laplacian_matrix
from chve.transport import TransportSystem


def _counted(fn, calls):
    def counted(x):
        calls.append(1)
        return fn(x)
    return counted


def _ch_schur(grid, phi, dt, eps=0.05, b0=0.1):
    """Dense CH Newton-update operator I + dt b0 L (eps L - D), D =
    psi_plus''(phi)/eps, and the DCT preconditioner of CHSystem: the same
    operator with D replaced by its mean, inverted on mean-zero vectors."""
    L = laplacian_matrix(grid).toarray()
    D = law.psi_plus_second(phi.ravel()) / eps
    A = np.eye(L.shape[0]) + dt * b0 * L @ (eps * L - np.diag(D))
    eig = laplacian_eigenvalues(grid)
    inv = 1.0 / (1.0 + dt * b0 * eig * (eps * eig - np.mean(D)))
    inv[0, 0] = 0.0
    shape = (grid.nx, grid.ny)
    return A, lambda x: dct_diagonal(x.reshape(shape), inv).ravel()


def _mean_zero(rng, n):
    b = rng.standard_normal(n)
    return b - np.mean(b)


@pytest.mark.parametrize("restart", [30, 2])
def test_gmres_matches_dense_solve(rng, restart):
    grid = GridSpec(8, 8)
    A, M = _ch_schur(grid, rng.uniform(-1.0, 1.0, (8, 8)), dt=0.05)
    assert np.max(np.abs(A - A.T)) > 1.0  # not symmetric
    b = _mean_zero(rng, 64)
    calls = []
    x, info = krylov.gmres(_counted(lambda x: A @ x, calls), b, M=M, rtol=1e-12,
                           atol=0.0, restart=restart, maxiter=50)
    assert info == 0
    ref = np.linalg.solve(A, b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    if restart == 2:
        assert len(calls) > 2 * restart  # more than one restart cycle ran


def test_gmres_exact_preconditioner_takes_one_iteration(rng):
    grid = GridSpec(8, 8)
    A, M = _ch_schur(grid, np.full((8, 8), 0.4), dt=0.05)
    b = _mean_zero(rng, 64)
    calls = []
    with np.errstate(divide="raise", invalid="raise"):
        x, info = krylov.gmres(lambda x: A @ x, b, M=_counted(M, calls), rtol=1e-6,
                               atol=0.0, restart=30, maxiter=5)
    assert info == 0
    assert len(calls) == 1
    ref = np.linalg.solve(A, b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_gmres_nan_rhs_returns_nonfinite_without_hanging(rng):
    grid = GridSpec(8, 8)
    A, M = _ch_schur(grid, rng.uniform(-1.0, 1.0, (8, 8)), dt=0.05)
    b = _mean_zero(rng, 64)
    b[3] = np.nan
    calls = []
    with np.errstate(invalid="ignore"):
        x, info = krylov.gmres(lambda x: A @ x, b, M=_counted(M, calls), rtol=1e-6,
                               atol=1e-12, restart=30, maxiter=5)
    assert not np.all(np.isfinite(x))
    assert info > 0
    assert 1 <= len(calls) <= 30 * 5


def _transport_system():
    """The transport system of TransportSystem.step on 16^2, with f spanning
    [f_min, 1] and lam dt / h^2 = 160 so that CG needs several iterations:
    (operator, the shipped diagonal preconditioner, f dt as the warm-start
    scale, n, k)."""
    grid = GridSpec(16, 16)
    n, k, dt = 256, 4, 1e-3
    params = ModelParams(lam=160.0 * grid.hx ** 2 / dt)
    X, _ = grid.cell_centers()
    phi = ScalarField(grid, np.tanh((X - 0.5 * grid.lx) / 0.05))
    L = laplacian_matrix(grid)
    level = TransportSystem(grid, params, L).prepare(
        TensorField.identity(grid), law.stiffness_f(phi.values, params), dt)
    lamL = params.lam * L

    def matvec(X):
        return level.D_dt * X - lamL @ X

    def precondition(r):
        return r.reshape(n, k) / level.diag

    return matvec, precondition, level.f_dt, n, k


@pytest.mark.parametrize("warm", [True, False], ids=["warm-start", "zero-start"])
def test_pcg_is_bitwise_scipy_cg(warm):
    matvec, precondition, fdt, n, k = _transport_system()
    b = np.random.default_rng(3).standard_normal((n, k))
    x0 = fdt * b if warm else np.zeros((n, k))
    calls = []
    x, info, r0 = krylov.pcg(matvec, b, x0=x0, M=_counted(precondition, calls),
                             rtol=1e-12, atol=0.0, maxiter=500)
    ref, ref_info = spla.cg(
        spla.LinearOperator((n * k, n * k), dtype=float,
                            matvec=lambda x: matvec(x.reshape(n, k)).ravel()),
        b.ravel(), x0=x0.ravel(), rtol=1e-12, atol=0.0, maxiter=500,
        M=spla.LinearOperator((n * k, n * k), dtype=float,
                              matvec=lambda r: precondition(r).ravel()))
    assert len(calls) > 3
    assert info == ref_info == 0
    assert r0 is None  # CG iterated
    assert np.array_equal(x.ravel(), ref)


def test_pcg_returning_at_its_first_test_reports_the_explicit_residual():
    """From a start that already meets the tolerance pcg applies A once,
    returns x0 unchanged and reports ||b - A x0|| as formed; b = 0 returns 0
    with residual 0 and no product."""
    matvec, precondition, fdt, n, k = _transport_system()
    b = np.random.default_rng(3).standard_normal((n, k))
    x0, _, _ = krylov.pcg(matvec, b, x0=fdt * b, M=precondition,
                          rtol=1e-12, atol=0.0, maxiter=500)
    products, calls = [], []
    x, info, r0 = krylov.pcg(_counted(matvec, products), b, x0=x0,
                             M=_counted(precondition, calls),
                             rtol=1e-12, atol=0.0, maxiter=500)
    assert (info, len(products), len(calls)) == (0, 1, 0)
    assert np.array_equal(x, x0) and x is not x0
    assert r0 == np.linalg.norm(b - matvec(x0)) < 1e-12 * np.linalg.norm(b)
    products.clear()
    x, info, r0 = krylov.pcg(_counted(matvec, products), np.zeros((n, k)), x0=x0,
                             M=precondition, rtol=1e-12, atol=0.0, maxiter=500)
    assert (info, r0, len(products)) == (0, 0.0, 0)
    assert not x.any()


def test_pcg_nan_rhs_returns_nonfinite_without_hanging():
    matvec, precondition, fdt, n, k = _transport_system()
    b = np.random.default_rng(3).standard_normal((n, k))
    b[3, 1] = np.nan
    for x0 in (fdt * b, np.zeros((n, k))):  # the transport's warm start, and none
        calls = []
        with np.errstate(invalid="ignore"):
            x, info, r0 = krylov.pcg(matvec, b, x0=x0, M=_counted(precondition, calls),
                                     rtol=1e-12, atol=0.0, maxiter=500)
        assert not np.all(np.isfinite(x))
        assert info > 0 and r0 is None
        assert len(calls) <= 2


def _bits(x):
    return np.float64(x).view(np.uint64)


def _norm_cases():
    rng = np.random.default_rng(7)
    block = rng.standard_normal((64 * 64, 4))
    with_inf, with_nan = block.copy(), block.copy()
    with_inf[5, 2] = -np.inf
    with_nan[9, 0] = np.nan
    both = with_nan.copy()
    both[0, 3] = np.inf
    return {"vector": rng.standard_normal(4096), "block": block,
            "view": block[::3, 1:],  # neither C- nor F-contiguous
            "transposed": block.T, "tiny": 1e-200 * block[:, 0],
            "zero": np.zeros(5), "inf": with_inf, "nan": with_nan, "inf-nan": both}


@pytest.mark.parametrize("case", list(_norm_cases()))
def test_norm_is_bitwise_numpy_norm(case):
    x = _norm_cases()[case]
    with np.errstate(invalid="ignore", over="ignore"):
        ours, ref = krylov.norm(x), np.linalg.norm(x)
    assert type(ours) is float
    if np.isnan(ref):
        assert np.isnan(ours)
    else:
        assert _bits(ours) == _bits(ref)


@pytest.mark.parametrize("shape", [(4096,), (64, 64), (4096, 4), (12, 9), (1,)])
def test_sum_over_size_is_bitwise_numpy_mean(shape):
    """The Cahn-Hilliard update and the Stokes pressure take each mean as
    x.sum() / x.size."""
    rng = np.random.default_rng(11)
    for x in (rng.standard_normal(shape), 1e3 + rng.uniform(-1, 1, shape),
              rng.standard_normal(shape)[..., ::-1]):
        assert _bits(x.sum() / x.size) == _bits(np.mean(x))
        assert _bits(float(x.sum() / x.size)) == _bits(float(np.mean(x)))
