"""Closed-form constitutive laws and their derivatives.

Profiles are the canonical assumption-compliant choices and are wired
through :class:`~chve.grid.ModelParams` so alternates can be swapped in:

* double well  psi(s) = (1/4)(s^2-1)^2 with the convex/concave split
  psi_plus = (s^4+1)/4, psi_minus = -s^2/2 used by the semi-implicit
  phase-field step;
* stiffness    f(s) = f_min + (1-f_min) * S((s-f_lo)/(f_hi-f_lo)) with S the
  clamped cubic smoothstep, so f is C^{1,1}, bounded in [f_min, 1] and
  f' vanishes outside the window;
* mobility     b(s) = b0 + (b1-b0) * S(same argument), a ramp from b0 to b1
  over the stiffness window; b1 = b0 gives the constant mobility b0 exactly.

:func:`phase_profiles` forms f, b and f' from one window position and one
smoothstep, bitwise equal to the three separate laws.

The elastic law: the phase-coupled Neo-Hookean density
w = (c/2) f(phi) (F:F - d) drives the 2-D solver, and only this module
knows its form.  :func:`elastic_response` gives the stretch F:F - d of a
deformation with dw/dphi, :func:`elastic_energy` the cell sum of w from
f and the stretch, and :func:`eulerian_elastic_stress` the stress
(dw/dF) F^T of the momentum balance; :func:`neo_hookean_w` and
:func:`neo_hookean_piola` are the pointwise w and dw/dF that checks
difference.  The Mooney-Rivlin density (the Neo-Hookean one plus cofactor
and determinant terms, with their moduli passed in) and its first Piola
stress are evaluation/test utilities for d = 3.
"""

from __future__ import annotations

import numpy as np

from .grid import ModelParams, PreconditionError, cofactor, frobenius, determinant


# ---------------------------------------------------------------------------
# double well


def psi(s):
    s = np.asarray(s, dtype=float)
    return 0.25 * (s * s - 1.0) ** 2


def psi_prime(s):
    s = np.asarray(s, dtype=float)
    return s * s * s - s


def psi_plus(s):
    s = np.asarray(s, dtype=float)
    s2 = s * s
    return 0.25 * (s2 * s2 + 1.0)


def psi_minus(s):
    s = np.asarray(s, dtype=float)
    return -0.5 * s * s


def psi_plus_prime(s):
    s = np.asarray(s, dtype=float)
    return s * s * s


def psi_plus_second(s):
    s = np.asarray(s, dtype=float)
    return 3.0 * s * s


def psi_minus_prime(s):
    s = np.asarray(s, dtype=float)
    return -s


# ---------------------------------------------------------------------------
# smoothstep-based stiffness and mobility


def _smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def _smoothstep_prime(x):
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    return np.where(inside, 6.0 * x * (1.0 - x), 0.0)


def _window(s, params: ModelParams):
    """(s - f_lo)/(f_hi - f_lo), the position of s in the window, and its width."""
    width = params.f_hi - params.f_lo
    return (np.asarray(s, dtype=float) - params.f_lo) / width, width


def _ramp(S, lo: float, hi: float):
    """lo + (hi - lo) S of the smoothstep S; exactly lo if hi == lo."""
    return lo + (hi - lo) * S


def _f_prime(x, width: float, params: ModelParams):
    """f' at window position x of a window of the given width."""
    return (1.0 - params.f_min) * _smoothstep_prime(x) / width


def stiffness_f(s, params: ModelParams):
    """Stiffness profile, f_min <= f <= 1, clamped outside the window."""
    return _ramp(_smoothstep(_window(s, params)[0]), params.f_min, 1.0)


def stiffness_f_prime(s, params: ModelParams):
    return _f_prime(*_window(s, params), params)


def mobility_b(s, params: ModelParams):
    """Mobility profile, b0 <= b <= b1, the stiffness ramp between b0 and b1."""
    return _ramp(_smoothstep(_window(s, params)[0]), params.b0, params.b1)


def phase_profiles(s, params: ModelParams):
    """(f, b, f') at the cell array s from one window position and one
    smoothstep, each bitwise :func:`stiffness_f`, :func:`mobility_b` and
    :func:`stiffness_f_prime` for finite s."""
    x, width = _window(s, params)
    S = _smoothstep(x)
    return (_ramp(S, params.f_min, 1.0), _ramp(S, params.b0, params.b1),
            _f_prime(x, width, params))


# ---------------------------------------------------------------------------
# elastic energies and stresses


def _stretch(F):
    """F:F - d, the invariant the Neo-Hookean density is linear in; 0 at F = I."""
    F = np.asarray(F, dtype=float)
    return frobenius(F, F) - F.shape[-1]


def neo_hookean_w(phi, F, params: ModelParams):
    """Phase-coupled Neo-Hookean density (c/2) f(phi) (F:F - d)."""
    return 0.5 * params.c_elastic * stiffness_f(phi, params) * _stretch(F)


def neo_hookean_piola(phi, F, params: ModelParams):
    """dw/dF for the Neo-Hookean density: c f(phi) F."""
    F = np.asarray(F, dtype=float)
    fval = np.asarray(stiffness_f(phi, params))
    return params.c_elastic * fval[..., None, None] * F


def elastic_response(f_prime, F, params: ModelParams, stretch=None):
    """(stretch, dw/dphi) of the deformation F: stretch = F:F - d and
    dw/dphi = (c/2) f'(phi) (F:F - d), the elastic term of the chemical
    potential and of the momentum force, with f_prime = f'(phi).
    A caller that holds the stretch of F already passes it, and F is not
    read."""
    if stretch is None:
        stretch = _stretch(F)
    return stretch, 0.5 * params.c_elastic * f_prime * stretch


def elastic_energy(f, stretch, params: ModelParams) -> float:
    """(c/2) <f, F:F - d>, the cell sum of the Neo-Hookean density with
    f = f(phi) and stretch from :func:`elastic_response`: the density is
    bilinear in (f, stretch), so one dot product reduces it."""
    return 0.5 * params.c_elastic * float(np.dot(f.ravel(), stretch.ravel()))


def eulerian_elastic_stress(f, F, params: ModelParams):
    """Eulerian stress c f F F^T entering the momentum balance, f the
    stiffness f(phi), which the caller evaluates once per time step.

    Symmetric positive semidefinite by construction (a scaled Gram matrix).
    For d = 2, c f times each Gram entry is written straight into the
    output (same products and sums as the einsum form, so bitwise equal,
    and much cheaper); the output is a view whose four component planes
    S[..., i, j] are each contiguous, as the stencils that difference them
    want.
    """
    F = np.asarray(F, dtype=float)
    cf = params.c_elastic * np.asarray(f, dtype=float)
    if F.shape[-1] == 2:
        a, b, c, d = F[..., 0, 0], F[..., 0, 1], F[..., 1, 0], F[..., 1, 1]
        S = np.empty((2, 2) + np.broadcast_shapes(cf.shape, a.shape))
        S[0, 0] = cf * (a * a + b * b)
        S[0, 1] = S[1, 0] = cf * (a * c + b * d)
        S[1, 1] = cf * (c * c + d * d)
        return np.moveaxis(S, (0, 1), (-2, -1))
    return cf[..., None, None] * np.einsum("...ik,...jk->...ij", F, F)


def _h_compress(J):
    """Convex compression penalty h(J) = J^2/2 - ln J, stress-free at J=1."""
    return 0.5 * J * J - np.log(J)


def _h_compress_prime(J):
    return J - 1.0 / J


def _require_3d_invertible(F, name):
    F = np.asarray(F, dtype=float)
    if F.shape[-1] != 3:
        raise PreconditionError(f"{name} is defined for d = 3")
    J = determinant(F)
    if np.any(J <= 0.0):
        raise PreconditionError(f"{name} needs det F > 0")
    return F, J


def mooney_rivlin_w(phi, F, params: ModelParams, c2: float, c3: float):
    """Mooney-Rivlin density with cofactor and determinant terms (d = 3):
    the Neo-Hookean density plus

      (c2/2) f(phi) (cofF:cofF - 3) + c3 h(det F),   h(J) = J^2/2 - ln J.

    The cofactor modulus reuses the stiffness profile f for its phase
    dependence.  Raises on det F <= 0 where h is singular.
    """
    F, J = _require_3d_invertible(F, "mooney_rivlin_w")
    C = cofactor(F)
    return (neo_hookean_w(phi, F, params)
            + 0.5 * c2 * stiffness_f(phi, params) * (frobenius(C, C) - 3.0)
            + c3 * _h_compress(J))


def mooney_rivlin_piola(phi, F, params: ModelParams, c2: float, c3: float):
    """First Piola stress of the Mooney-Rivlin density, term by term: the
    Neo-Hookean c f F plus

    c2 f [ (cofF:cofF) F^{-T} - cofF (cofF)^T F^{-T} ] + c3 h'(det F) det F F^{-T}.
    """
    F, J = _require_3d_invertible(F, "mooney_rivlin_piola")
    C = cofactor(F)
    Finv_T = np.swapaxes(np.linalg.inv(F), -1, -2)
    cof_term = c2 * np.asarray(stiffness_f(phi, params))[..., None, None] * (
        np.asarray(frobenius(C, C))[..., None, None] * Finv_T
        - np.einsum("...ik,...jk,...jl->...il", C, C, Finv_T)
    )
    det_term = (c3 * _h_compress_prime(J) * J)[..., None, None] * Finv_T
    return neo_hookean_piola(phi, F, params) + cof_term + det_term
