"""Matrix-free Krylov loops of the two implicit solves of a step.

``A`` and ``M`` are callables that apply the operator and the
preconditioner (an approximate inverse of ``A``) to an array shaped like
``b`` and return a new array.  Each solver returns ``(x, info)`` with
``info = 0`` when the tolerance was met and ``info > 0`` when it was not;
:func:`pcg` adds a third value, the residual norm of a solve that ended at
its first test.

- :func:`gmres` is restarted GMRES with right preconditioning in flexible
  form (Saad, SIAM J. Sci. Comput. 14, 1993): it keeps z_k = M v_k, so
  the update Z y needs no further preconditioner application, and each
  iteration costs one ``M`` and one ``A``.  The quantity it minimizes and
  tests is the true residual ||b - A x||.
- :func:`pcg` is preconditioned conjugate gradients with the arithmetic of
  ``scipy.sparse.linalg.cg`` in the same order.  Its dot products and norms
  run over every entry of ``b``, so an ``(n, k)`` block of k right-hand
  sides that share one operator is one system.

:func:`norm` is the one 2-norm of a step: both solvers, the Stokes
residual check and the transport residual check take it.  It is the
square root of the dot product of the flattened entries, the formula
``np.linalg.norm`` applies to a float array when called without ``ord``
or ``axis``, so it is bitwise that call without its argument handling.
"""

from __future__ import annotations

import math

import numpy as np


def norm(x: np.ndarray) -> float:
    """The 2-norm of a float array over all its entries, bitwise
    ``float(np.linalg.norm(x))``: the entries are flattened in memory order
    (a copy only for a non-contiguous view) and sqrt(x . x) is correctly
    rounded either way.  Non-finite entries give inf or NaN, as there."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def gmres(A, b: np.ndarray, *, M, rtol: float, atol: float, restart: int,
          maxiter: int) -> tuple[np.ndarray, int]:
    """Solve A x = b, b a vector, from x0 = 0 until ||b - A x|| <=
    max(rtol ||b||, atol), running at most ``maxiter`` cycles of at most
    ``restart`` iterations.

    The residual is tracked by the Givens rotations of the Hessenberg
    least-squares problem, so a converged solve applies neither ``M`` to
    ``b`` nor ``A`` to the result; only a restart recomputes b - A x.  A
    non-finite residual ends the solve after the iteration that meets it,
    with a non-finite x.  ``info`` is the number of iterations done when the
    tolerance was not met.
    """
    tol = max(rtol * norm(b), atol)
    x = np.zeros_like(b)
    r = b
    resid = norm(r)
    iters = 0
    for _ in range(maxiter):
        if resid <= tol:
            break
        V = [r / resid]                      # orthonormal Arnoldi basis
        Z = []                               # Z[k] = M V[k]
        H = np.zeros((restart + 1, restart))
        cs = np.zeros(restart)
        sn = np.zeros(restart)
        g = np.zeros(restart + 1)
        g[0] = resid
        for j in range(restart):
            Z.append(M(V[j]))
            w = A(Z[j])
            w_norm = norm(w)
            for i in range(j + 1):           # modified Gram-Schmidt
                H[i, j] = np.dot(V[i], w)
                w = w - H[i, j] * V[i]
            h = norm(w)
            for i in range(j):               # earlier rotations on the new column
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        -sn[i] * H[i, j] + cs[i] * H[i + 1, j])
            rho = np.hypot(H[j, j], h)
            cs[j], sn[j] = H[j, j] / rho, h / rho
            H[j, j] = rho
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            resid = abs(g[j + 1])
            iters += 1
            # h ~ 0: the basis spans the solution (happy breakdown), and w
            # cannot be normalized
            if not resid > tol or h <= np.finfo(float).eps * w_norm:
                break
            V.append(w / h)
        k = len(Z)
        y = g[:k].copy()
        for i in range(k - 1, -1, -1):       # back substitution, H upper triangular
            y[i] = (y[i] - H[i, i + 1:k] @ y[i + 1:]) / H[i, i]
        for yi, zi in zip(y, Z):
            x += yi * zi
        if not resid > tol:                  # converged, or not finite
            break
        r = b - A(x)
        resid = norm(r)
    return x, 0 if resid <= tol else max(iters, 1)


def pcg(A, b: np.ndarray, x0: np.ndarray, *, M, rtol: float, atol: float,
        maxiter: int) -> tuple[np.ndarray, int, float | None]:
    """Solve A x = b, A symmetric positive definite, from x0 until
    ||b - A x|| < max(rtol ||b||, atol) on the recursively updated residual;
    returns (x, info, r0).

    Repeats ``scipy.sparse.linalg.cg`` operation for operation, so for the
    same operator, preconditioner and starting guess x is bitwise the same
    as scipy's on ``b.ravel()``.  x0 is not modified.  ``info`` is
    ``maxiter`` when the loop ran out.  Unlike scipy's, a non-finite
    residual ends the solve after the iteration that meets it, with a
    non-finite x and ``info`` the number of iterations done.  r0 is
    ||b - A x|| of the returned x, formed explicitly, when the solve ended
    without iterating (x is x0, or 0 when b = 0); it is None whenever CG
    iterated, since the residual it tested then was the updated one.
    """
    bnrm2 = norm(b)
    atol = max(float(atol), float(rtol) * bnrm2)
    if bnrm2 == 0:
        return b, 0, 0.0
    x = x0.copy()
    r = b - A(x) if x.any() else b.copy()
    rho_prev, p = None, None
    for iteration in range(maxiter):
        rnorm = norm(r)
        if rnorm < atol:
            return x, 0, (rnorm if iteration == 0 else None)
        z = M(r)
        rho_cur = np.vdot(r, z)
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += z
        else:
            p = z.copy()
        q = A(p)
        alpha = rho_cur / np.vdot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
        if not math.isfinite(rnorm):  # NaN never meets the test above
            return x, iteration + 1, None
    return x, maxiter, None
