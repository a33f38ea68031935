"""Independent oracles backing the acceptance suite.

Everything here checks the production kernels against a second,
deliberately separate computation:

* dense operator matrices assembled by independent index arithmetic on
  tiny grids (no code shared with the sparse assemblies);
* finite-difference functional derivatives for the chemical potential and
  the elastic stresses;
* a manufactured Stokes solution with closed-form forces;
* the capillary-force identity check (potential form vs. stress form),
  and its O(h^2) convergence on a 2-D state;
* determinant transport under a prescribed interior vortex.

Reports are plain dicts with a ``passed`` flag where a pass criterion is
intrinsic; trend data is returned for the caller to judge.
"""

from __future__ import annotations

import numpy as np

from . import constitutive as law
from . import operators as ops
from .cahn_hilliard import static_chemical_potential
from .diagnostics import state_fields, total_energy
from .grid import (GridSpec, ModelParams, ScalarField, StaggeredVectorField,
                   TensorField, cofactor, determinant, frobenius)
from .stokes import StokesSolver, assemble_force, elastic_force
from .transport import TransportSystem


# ---------------------------------------------------------------------------
# dense operators by independent index arithmetic


class DenseOracle:
    """Explicit dense grad/div/Laplacian/Stokes matrices on grids <= 12x12.

    Assembly walks faces and cells with its own index maps; only the grid
    geometry is shared with the production code.
    """

    def __init__(self, grid: GridSpec):
        if grid.nx > 12 or grid.ny > 12:
            raise ValueError("dense oracle is restricted to grids <= 12x12")
        self.grid = grid
        nx, ny = grid.nx, grid.ny
        self.ncell = nx * ny
        self.nu = (nx + 1) * ny
        self.nw = nx * (ny + 1)
        self._build()

    def _cid(self, i, j):
        return i * self.grid.ny + j

    def _uid(self, i, j):
        return i * self.grid.ny + j

    def _wid(self, i, j):
        return i * (self.grid.ny + 1) + j

    def _build(self):
        g = self.grid
        nx, ny, hx, hy = g.nx, g.ny, g.hx, g.hy

        Gx = np.zeros((self.nu, self.ncell))
        for i in range(1, nx):
            for j in range(ny):
                Gx[self._uid(i, j), self._cid(i, j)] = 1.0 / hx
                Gx[self._uid(i, j), self._cid(i - 1, j)] = -1.0 / hx
        Gy = np.zeros((self.nw, self.ncell))
        for i in range(nx):
            for j in range(1, ny):
                Gy[self._wid(i, j), self._cid(i, j)] = 1.0 / hy
                Gy[self._wid(i, j), self._cid(i, j - 1)] = -1.0 / hy
        self.Gx, self.Gy = Gx, Gy

        D = np.zeros((self.ncell, self.nu + self.nw))
        for i in range(nx):
            for j in range(ny):
                r = self._cid(i, j)
                D[r, self._uid(i + 1, j)] += 1.0 / hx
                D[r, self._uid(i, j)] -= 1.0 / hx
                D[r, self.nu + self._wid(i, j + 1)] += 1.0 / hy
                D[r, self.nu + self._wid(i, j)] -= 1.0 / hy
        self.D = D

        # zero-flux Laplacian as D restricted to interior faces times G
        self.L = self.D @ np.vstack([Gx, Gy])

    def laplacian_with_coeff(self, coeff: np.ndarray) -> np.ndarray:
        g = self.grid
        nx, ny = g.nx, g.ny
        cf = np.zeros(self.nu + self.nw)
        for i in range(1, nx):
            for j in range(ny):
                cf[self._uid(i, j)] = 0.5 * (coeff[i, j] + coeff[i - 1, j])
        for i in range(nx):
            for j in range(1, ny):
                cf[self.nu + self._wid(i, j)] = 0.5 * (coeff[i, j] + coeff[i, j - 1])
        return self.D @ (cf[:, None] * np.vstack([self.Gx, self.Gy]))

    def stokes_matrix(self, nu: float) -> np.ndarray:
        """Bordered symmetric saddle matrix on interior-face unknowns."""
        g = self.grid
        nx, ny, hx, hy = g.nx, g.ny, g.hx, g.hy
        iu = {(i, j): k for k, (i, j) in enumerate(
            (i, j) for i in range(1, nx) for j in range(ny))}
        iw = {(i, j): k for k, (i, j) in enumerate(
            (i, j) for i in range(nx) for j in range(1, ny))}
        n_u, n_w = len(iu), len(iw)
        n_v = n_u + n_w
        A = np.zeros((n_v, n_v))

        def u_at(i, j):
            # interior unknown, Dirichlet zero, or reflected ghost
            if j < 0:
                return [(iu[(i, 0)], -1.0)] if (i, 0) in iu else []
            if j > ny - 1:
                return [(iu[(i, ny - 1)], -1.0)] if (i, ny - 1) in iu else []
            if (i, j) in iu:
                return [(iu[(i, j)], 1.0)]
            return []

        def w_at(i, j):
            if i < 0:
                return [(n_u + iw[(0, j)], -1.0)] if (0, j) in iw else []
            if i > nx - 1:
                return [(n_u + iw[(nx - 1, j)], -1.0)] if (nx - 1, j) in iw else []
            if (i, j) in iw:
                return [(n_u + iw[(i, j)], 1.0)]
            return []

        # -nu Lap with Dirichlet zeros on boundary-normal faces; a ghost
        # neighbor contributes through its reflected (sign -1) image
        for (i, j), r in iu.items():
            A[r, r] = 2.0 * nu * (1.0 / hx ** 2 + 1.0 / hy ** 2)
            for (c, s) in u_at(i - 1, j) + u_at(i + 1, j):
                A[r, c] -= nu * s / hx ** 2
            for (c, s) in u_at(i, j - 1) + u_at(i, j + 1):
                A[r, c] -= nu * s / hy ** 2
        for (i, j), r0 in iw.items():
            r = n_u + r0
            A[r, r] = 2.0 * nu * (1.0 / hx ** 2 + 1.0 / hy ** 2)
            for (c, s) in w_at(i - 1, j) + w_at(i + 1, j):
                A[r, c] -= nu * s / hx ** 2
            for (c, s) in w_at(i, j - 1) + w_at(i, j + 1):
                A[r, c] -= nu * s / hy ** 2

        G = np.zeros((n_v, self.ncell))
        for (i, j), r in iu.items():
            G[r, self._cid(i, j)] = 1.0 / hx
            G[r, self._cid(i - 1, j)] = -1.0 / hx
        for (i, j), r0 in iw.items():
            G[n_u + r0, self._cid(i, j)] = 1.0 / hy
            G[n_u + r0, self._cid(i, j - 1)] = -1.0 / hy

        n = n_v + self.ncell + 1
        M = np.zeros((n, n))
        M[:n_v, :n_v] = A
        M[:n_v, n_v:n_v + self.ncell] = G
        M[n_v:n_v + self.ncell, :n_v] = G.T
        M[n_v:n_v + self.ncell, -1] = 1.0
        M[-1, n_v:n_v + self.ncell] = 1.0
        self._iu, self._iw = iu, iw
        return M

    def solve_stokes(self, nu: float, force: StaggeredVectorField):
        M = self.stokes_matrix(nu)
        g = self.grid
        n_u, n_w = len(self._iu), len(self._iw)
        b = np.zeros(M.shape[0])
        for (i, j), r in self._iu.items():
            b[r] = force.u[i, j]
        for (i, j), r0 in self._iw.items():
            b[n_u + r0] = force.w[i, j]
        x = np.linalg.solve(M, b)
        u = np.zeros((g.nx + 1, g.ny))
        w = np.zeros((g.nx, g.ny + 1))
        for (i, j), r in self._iu.items():
            u[i, j] = x[r]
        for (i, j), r0 in self._iw.items():
            w[i, j] = x[n_u + r0]
        p = x[n_u + n_w:n_u + n_w + self.ncell].reshape(g.nx, g.ny)
        return StaggeredVectorField(g, u, w), ScalarField(g, p - p.mean())


def dense_oracle_compare(grid: GridSpec, n_fields: int = 50) -> dict:
    """Sparse kernels vs. dense oracle on random fields, plus adjointness
    and the Neumann null space via a dense eigen-decomposition."""
    rng = np.random.default_rng(0)
    oracle = DenseOracle(grid)
    nx, ny = grid.nx, grid.ny
    dev_grad = dev_div = dev_lap = dev_lapc = adj = 0.0
    for _ in range(n_fields):
        p = rng.standard_normal((nx, ny))
        gu, gw = ops.face_gradient(p, grid)
        ref = oracle.Gx @ p.ravel()
        dev_grad = max(dev_grad, float(np.max(np.abs(gu.ravel() - ref))))
        ref = oracle.Gy @ p.ravel()
        dev_grad = max(dev_grad, float(np.max(np.abs(gw.ravel() - ref))))

        u = np.zeros((nx + 1, ny))
        w = np.zeros((nx, ny + 1))
        u[1:-1, :] = rng.standard_normal((nx - 1, ny))
        w[:, 1:-1] = rng.standard_normal((nx, ny - 1))
        div = ops.face_divergence(u, w, grid)
        ref = oracle.D @ np.concatenate([u.ravel(), w.ravel()])
        dev_div = max(dev_div, float(np.max(np.abs(div.ravel() - ref))))

        dev_lap = max(dev_lap, float(np.max(np.abs(
            ops.face_divergence(gu, gw, grid).ravel() - oracle.L @ p.ravel()))))
        coeff = 1.0 + rng.random((nx, ny))
        Lc = oracle.laplacian_with_coeff(coeff)
        dev_lapc = max(dev_lapc, float(np.max(np.abs(
            ops.laplacian_matrix(grid, coeff) @ p.ravel() - Lc @ p.ravel()))))

        # adjointness <grad p, v> = -<p, div v>
        lhs = float(np.sum(gu * u) + np.sum(gw * w)) * grid.cell_area
        rhs = -float(np.sum(p * div)) * grid.cell_area
        adj = max(adj, abs(lhs - rhs))

    evals = np.linalg.eigvalsh(0.5 * (oracle.L + oracle.L.T))
    null_dim = int(np.sum(np.abs(evals) < 1e-10))
    sym = float(np.max(np.abs(oracle.L - oracle.L.T)))

    return {
        "max_dev_grad": dev_grad,
        "max_dev_div": dev_div,
        "max_dev_lap": dev_lap,
        "max_dev_lap_coeff": dev_lapc,
        "max_adjointness_defect": adj,
        "laplacian_null_dim": null_dim,
        "laplacian_asymmetry": sym,
        "passed": (max(dev_grad, dev_div, dev_lap, dev_lapc) <= 1e-12
                   and adj <= 1e-13 and null_dim == 1),
    }


def dense_stokes_compare(grid: GridSpec, nu: float = 1.0) -> dict:
    """StokesSolver (stream function, DST-I, the ring capacitance's
    mirror-parity sectors) vs. a dense solve of the bordered saddle system
    that the oracle assembles on its own.  The pressure deviation is
    reported; ``passed`` judges the velocity only."""
    rng = np.random.default_rng(3)
    oracle = DenseOracle(grid)
    solver = StokesSolver(grid, nu)
    dev_v = dev_q = 0.0
    for _ in range(5):
        fu = np.zeros((grid.nx + 1, grid.ny))
        fw = np.zeros((grid.nx, grid.ny + 1))
        fu[1:-1, :] = rng.standard_normal((grid.nx - 1, grid.ny))
        fw[:, 1:-1] = rng.standard_normal((grid.nx, grid.ny - 1))
        force = StaggeredVectorField(grid, fu, fw)
        v1, q1, _ = solver.solve(force)
        v2, q2 = oracle.solve_stokes(nu, force)
        dev_v = max(dev_v, float(np.max(np.abs(v1.u - v2.u))),
                    float(np.max(np.abs(v1.w - v2.w))))
        dev_q = max(dev_q, float(np.max(np.abs(q1.values - q2.values))))
    return {"max_dev_velocity": dev_v, "max_dev_pressure": dev_q,
            "passed": dev_v <= 1e-10}


# ---------------------------------------------------------------------------
# finite-difference functional derivatives


def fd_check_chemical_potential(phi: ScalarField, F: TensorField,
                                params: ModelParams) -> dict:
    """Compare <mu_static, eta> with central differences of the free energy
    along a smooth direction eta at steps 2e-2, 1e-2 and 5e-3; the observed
    order should be 2.

    eta is a zero-mean product cosine whose odd powers integrate to zero,
    so a uniform well state yields exact zeros on both sides at every step
    size."""
    g = phi.grid
    h_list = (2e-2, 1e-2, 5e-3)
    X, Y = g.cell_centers()
    eta = np.cos(np.pi * X / g.lx) * np.cos(np.pi * Y / g.ly)
    mu = static_chemical_potential(phi, state_fields(phi, F, params).dw_dphi, params)
    pairing = float(np.sum(mu.values * eta)) * g.cell_area

    def energy_at(s):
        return total_energy(ScalarField(g, phi.values + s * eta), F, params).total

    errors = []
    for h in h_list:
        fd = (energy_at(h) - energy_at(-h)) / (2.0 * h)
        errors.append(abs(fd - pairing))
    orders = [float(np.log(errors[k] / errors[k + 1])
                    / np.log(h_list[k] / h_list[k + 1]))
              for k in range(len(h_list) - 1)
              if errors[k + 1] > 0.0]
    observed = float(np.mean(orders)) if orders else float("nan")
    return {"pairing": pairing, "errors": errors, "orders": orders,
            "observed_order": observed, "plateau_error": min(errors)}


def _random_tensors(rng, n, d):
    """n random d x d tensors I + 0.4 N(0, 1) with det in [0.5, 2]."""
    out = []
    while len(out) < n:
        F = np.eye(d) + 0.4 * rng.standard_normal((d, d))
        if 0.5 <= determinant(F) <= 2.0:
            out.append(F)
    return out


def fd_check_elastic_stress(params: ModelParams, n_samples: int = 50) -> dict:
    """Analytic stresses vs. central-difference gradients (step 1e-5) of
    the energies.

    Covers the phase-coupled Neo-Hookean law in d = 2, 3 and the full
    Mooney-Rivlin law in d = 3 (random F with det in [0.5, 2]).
    """
    rng = np.random.default_rng(7)
    h = 1e-5
    c2, c3 = 0.7, 0.9  # moduli of the cofactor and determinant terms

    def fd_gradient(wfun, F):
        d = F.shape[0]
        out = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                E = np.zeros((d, d))
                E[a, b] = h
                out[a, b] = (wfun(F + E) - wfun(F - E)) / (2.0 * h)
        return out

    report = {}
    for d in (2, 3):
        worst = 0.0
        for F in _random_tensors(rng, n_samples, d):
            phi_val = rng.uniform(-1.5, 1.5)
            P = law.neo_hookean_piola(phi_val, F, params)
            fd = fd_gradient(lambda A: float(law.neo_hookean_w(phi_val, A, params)), F)
            worst = max(worst, float(np.max(np.abs(P - fd)))
                        / max(float(np.max(np.abs(P))), 1e-12))
        report[f"neo_hookean_d{d}_max_rel"] = worst

    worst = 0.0
    for F in _random_tensors(rng, n_samples, 3):
        phi_val = rng.uniform(-1.5, 1.5)
        P = law.mooney_rivlin_piola(phi_val, F, params, c2, c3)
        fd = fd_gradient(lambda A: float(law.mooney_rivlin_w(phi_val, A, params, c2, c3)), F)
        worst = max(worst, float(np.max(np.abs(P - fd))) / float(np.max(np.abs(P))))
    report["mooney_rivlin_max_rel"] = worst
    report["passed"] = max(report[k] for k in report if k != "passed") <= 1e-6
    return report


def fd_check_det_derivative() -> dict:
    """Directional derivative of det F against frobenius(cof F, H).

    d = 2 is quadratic, so the central difference is exact to rounding;
    d = 3 shows clean second order in the step size.
    """
    rng = np.random.default_rng(11)
    rel2 = 0.0
    for _ in range(20):
        F = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
        H = rng.standard_normal((2, 2))
        h = 1e-3
        fd = (determinant(F + h * H) - determinant(F - h * H)) / (2.0 * h)
        ref = float(frobenius(cofactor(F), H))
        rel2 = max(rel2, abs(fd - ref) / max(abs(ref), 1e-12))

    orders = []
    for _ in range(10):
        F = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        H = rng.standard_normal((3, 3))
        ref = float(frobenius(cofactor(F), H))
        errs = []
        for h in (2e-1, 1e-1, 5e-2):
            fd = (determinant(F + h * H) - determinant(F - h * H)) / (2.0 * h)
            errs.append(abs(fd - ref))
        if min(errs) > 1e-13:
            orders.append(float(np.log(errs[0] / errs[2]) / np.log(4.0)))
    return {"d2_max_rel": rel2, "d3_orders": orders,
            "passed": rel2 <= 1e-12 and all(1.9 <= o <= 2.1 for o in orders)}


# ---------------------------------------------------------------------------
# manufactured Stokes solution


def stokes_mms_fields(nu: float = 1.0) -> dict:
    """Manufactured no-slip Stokes solution on the unit square from the stream
    function psi = sin^2(pi x) sin^2(pi y): callables of (x, y) for u = dpsi/dy,
    w = -dpsi/dx, q = sin(pi x) sin(pi y) and fu, fw of f = -nu Lap v + grad q."""
    pi, sin, cos = np.pi, np.sin, np.cos
    return {"u": lambda x, y: pi * sin(pi * x) ** 2 * sin(2 * pi * y),
            "w": lambda x, y: -pi * sin(2 * pi * x) * sin(pi * y) ** 2,
            "q": lambda x, y: sin(pi * x) * sin(pi * y),
            "fu": lambda x, y: (2 * nu * pi ** 3 * sin(2 * pi * y) * (4 * sin(pi * x) ** 2 - 1)
                                + pi * cos(pi * x) * sin(pi * y)),
            "fw": lambda x, y: (-2 * nu * pi ** 3 * sin(2 * pi * x) * (4 * sin(pi * y) ** 2 - 1)
                                + pi * sin(pi * x) * cos(pi * y))}


def stokes_mms(levels=(32, 64, 128)) -> dict:
    """Convergence of the Stokes solve (nu = 1) against
    :func:`stokes_mms_fields`."""
    fns = stokes_mms_fields()
    err_v, err_q = [], []
    for n in levels:
        g = GridSpec(n, n)
        Xu, Yu = g.xface_coords()
        Xw, Yw = g.yface_coords()
        fu = fns["fu"](Xu, Yu)
        fw = fns["fw"](Xw, Yw)
        fu[0, :] = fu[-1, :] = 0.0
        fw[:, 0] = fw[:, -1] = 0.0
        solver = StokesSolver(g, 1.0)
        v, q, _ = solver.solve(StaggeredVectorField(g, fu, fw))
        eu = v.u - fns["u"](Xu, Yu)
        ew = v.w - fns["w"](Xw, Yw)
        eu[0, :] = eu[-1, :] = 0.0
        ew[:, 0] = ew[:, -1] = 0.0
        err_v.append(float(np.sqrt(g.cell_area * (np.sum(eu ** 2) + np.sum(ew ** 2)))))
        Xc, Yc = g.cell_centers()
        q_ex = fns["q"](Xc, Yc)
        q_ex = q_ex - q_ex.mean()
        err_q.append(float(np.sqrt(g.cell_area * np.sum((q.values - q_ex) ** 2))))

    order_v = [float(np.log2(err_v[k] / err_v[k + 1])) for k in range(len(levels) - 1)]
    order_q = [float(np.log2(err_q[k] / err_q[k + 1])) for k in range(len(levels) - 1)]
    return {"levels": list(levels), "err_v": err_v, "err_q": err_q,
            "order_v": order_v, "order_q": order_q}


# ---------------------------------------------------------------------------
# capillary-force identity


def korteweg_force(phi: ScalarField, params: ModelParams):
    """Stress form -eps * div(grad phi x grad phi) on faces, as (on_xfaces,
    on_yfaces).

    Tensor components are reconstructed from face gradients: diagonal
    entries as two-face averages at cells, the off-diagonal entry at nodes.
    """
    g = phi.grid
    gu, gw = ops.face_gradient(phi.values, g)
    txx = 0.5 * (gu[1:, :] ** 2 + gu[:-1, :] ** 2)
    tyy = 0.5 * (gw[:, 1:] ** 2 + gw[:, :-1] ** 2)
    gu_n = np.zeros((g.nx + 1, g.ny + 1))
    gu_n[:, 1:-1] = 0.5 * (gu[:, 1:] + gu[:, :-1])
    gu_n[:, 0] = gu[:, 0]
    gu_n[:, -1] = gu[:, -1]
    gw_n = np.zeros((g.nx + 1, g.ny + 1))
    gw_n[1:-1, :] = 0.5 * (gw[1:, :] + gw[:-1, :])
    gw_n[0, :] = gw[0, :]
    gw_n[-1, :] = gw[-1, :]
    txy_n = gu_n * gw_n

    fu = np.zeros((g.nx + 1, g.ny))
    fw = np.zeros((g.nx, g.ny + 1))
    fu[1:-1, :] = -params.eps * ((txx[1:, :] - txx[:-1, :]) / g.hx
                                 + (txy_n[1:-1, 1:] - txy_n[1:-1, :-1]) / g.hy)
    fw[:, 1:-1] = -params.eps * ((txy_n[1:, 1:-1] - txy_n[:-1, 1:-1]) / g.hx
                                 + (tyy[:, 1:] - tyy[:, :-1]) / g.hy)
    return fu, fw


def korteweg_identity_check(phi: ScalarField, F: TensorField,
                            params: ModelParams) -> dict:
    """Solve Stokes with the potential-form force and with the stress-form
    force; report the velocity difference and how well the pressure
    difference matches the discrete potential."""
    g = phi.grid
    fields = state_fields(phi, F, params)
    gu, gw = fields.grad_phi
    mu = static_chemical_potential(phi, fields.dw_dphi, params)
    f_mu = assemble_force(fields.f, fields.grad_phi, mu, fields.dw_dphi, F, params)
    eu, ew = elastic_force(fields.f, F, params)
    ku, kw = korteweg_force(phi, params)
    f_kw = StaggeredVectorField(g, ku + eu, kw + ew)

    solver = StokesSolver(g, params.nu)
    v_mu, q_mu, _ = solver.solve(f_mu)
    v_kw, q_kw, _ = solver.solve(f_kw)
    v_diff = max(float(np.max(np.abs(v_mu.u - v_kw.u))),
                 float(np.max(np.abs(v_mu.w - v_kw.w))))

    eta = (0.5 * (gu[1:, :] ** 2 + gu[:-1, :] ** 2)
           + 0.5 * (gw[:, 1:] ** 2 + gw[:, :-1] ** 2))
    potential = (0.5 * params.eps * eta + law.psi(phi.values) / params.eps
                 + law.neo_hookean_w(phi.values, F.comps, params))
    potential = potential - potential.mean()
    q_dev = float(np.max(np.abs((q_mu.values - q_kw.values) - potential)))
    return {"v_diff": v_diff, "q_potential_dev": q_dev,
            "v_mu_max": v_mu.max_abs(), "v_kw_max": v_kw.max_abs()}


def korteweg_convergence() -> dict:
    """The capillary-force identity check under h halving on a 2-D state:
    F = I and phi = tanh((0.25 - r)/0.1) + 0.3 tanh((x - 0.4)/0.2), r the
    distance to the box centre, eps = 0.25, c_elastic = 0.5.  Neither
    force is a discrete gradient there, so both drive a flow, and the two
    forms agree to O(h^2): successive v_diff ratios near 4 at 32^2, 64^2
    and 128^2."""
    params = ModelParams(eps=0.25, c_elastic=0.5)
    levels = (32, 64, 128)
    reps = []
    for n in levels:
        g = GridSpec(n, n)
        X, Y = g.cell_centers()
        r = np.hypot(X - 0.5 * g.lx, Y - 0.5 * g.ly)
        phi = ScalarField(g, np.tanh((0.25 - r) / 0.1) + 0.3 * np.tanh((X - 0.4) / 0.2))
        reps.append(korteweg_identity_check(phi, TensorField.identity(g), params))
    v_diff = [rep["v_diff"] for rep in reps]
    return {"levels": list(levels), "v_diff": v_diff,
            "ratios": [v_diff[k] / v_diff[k + 1] for k in range(len(levels) - 1)],
            "v_mu_max": [rep["v_mu_max"] for rep in reps]}


# ---------------------------------------------------------------------------
# determinant transport under a prescribed vortex


def interior_vortex(grid: GridSpec, target_max: float = 1.0) -> StaggeredVectorField:
    """Divergence-free (to rounding) vortex supported inside the middle
    0.2 < x/lx, y/ly < 0.8 of the box.

    The stream function is a C^2 bump, so the velocity vanishes with two
    derivatives at the support edge and is identically zero near the walls.
    """
    a, b = 0.2, 0.8

    def bump(s):
        t = (s - a) * (b - s)
        return np.where((s > a) & (s < b), np.maximum(t, 0.0) ** 3, 0.0)

    Xn, Yn = grid.node_coords()
    psi = bump(Xn / grid.lx) * bump(Yn / grid.ly)
    v = StaggeredVectorField.from_stream_function(grid, psi)
    scale = v.max_abs()
    if scale == 0.0:
        return v
    psi = psi * (target_max / scale)
    return StaggeredVectorField.from_stream_function(grid, psi)


def det_transport_deviation(n: int, dt: float, t_end: float, lam: float) -> float:
    """Max-cell |det F(T) - 1| for F0 = I transported by the interior vortex,
    with the default model constants and the given lam."""
    g = GridSpec(n, n)
    p = ModelParams(lam=lam)
    v = interior_vortex(g)
    phi = ScalarField.uniform(g, 1.0)
    F = TensorField.identity(g)
    system = TransportSystem(g, p, ops.laplacian_matrix(g))
    f, dv = law.stiffness_f(phi.values, p), ops.velocity_derivatives(v)
    nsteps = int(round(t_end / dt))
    for _ in range(nsteps):
        F, _, _ = system.step(system.prepare(F, f, dt), dv, ops.advect_tensor(v, F.comps))
    return float(np.max(np.abs(determinant(F.comps) - 1.0)))


def det_transport_trend(levels=((32, 4e-3), (64, 2e-3), (128, 1e-3)),
                        t_end: float = 0.25) -> dict:
    """Deviation under simultaneous (dt, h) halving, plus the lam > 0
    comparison at the middle level."""
    devs = [det_transport_deviation(n, dt, t_end, lam=0.0) for n, dt in levels]
    ratios = [devs[k] / devs[k + 1] for k in range(len(devs) - 1)]
    n_mid, dt_mid = levels[len(levels) // 2]
    dev_lam = det_transport_deviation(n_mid, dt_mid, t_end, lam=1e-2)
    return {"levels": list(levels), "deviations": devs, "ratios": ratios,
            "dev_mid_lam0": devs[len(levels) // 2], "dev_mid_lam": dev_lam}
