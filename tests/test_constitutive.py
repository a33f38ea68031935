import numpy as np
import pytest

from chve import constitutive as law
from chve.grid import ModelParams, PreconditionError, determinant, frobenius


def central(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_double_well_values():
    assert law.psi(1.0) == 0.0
    assert law.psi(-1.0) == 0.0
    assert law.psi(0.0) == 0.25


def test_split_consistency(rng):
    s = rng.uniform(-3, 3, 50)
    assert np.allclose(law.psi_prime(s),
                       law.psi_plus_prime(s) + law.psi_minus_prime(s), atol=1e-13)
    assert np.allclose(law.psi(s), law.psi_plus(s) + law.psi_minus(s), atol=1e-13)


def test_double_well_products_match_power_forms(rng):
    """The double well is written with products, not ``**`` (libm pow).

    A product cube is within 1 ulp of the pow cube.  s^4 as a square of a
    square rounds twice, so psi_plus is within 2 ulp.  psi_prime is the
    product cube minus s exactly; near |s| = 1 that subtraction cancels, so
    a 1-ulp change of the cube is many ulp of psi_prime and the exact
    identity is the check there.
    """
    s = rng.uniform(-3, 3, 10_000)
    np.testing.assert_array_max_ulp(law.psi(s), 0.25 * (s ** 2 - 1.0) ** 2, maxulp=1)
    np.testing.assert_array_max_ulp(law.psi_plus_prime(s), s ** 3, maxulp=1)
    np.testing.assert_array_max_ulp(law.psi_plus(s), 0.25 * (s ** 4 + 1.0), maxulp=2)
    assert np.array_equal(law.psi_prime(s), law.psi_plus_prime(s) + law.psi_minus_prime(s))


def test_psi_nonnegative_dense_sample():
    s = np.linspace(-3, 3, 4001)
    assert np.all(law.psi(s) >= 0.0)


def test_convexity_signs_of_split():
    # second differences: psi_plus convex, psi_minus concave
    s = np.linspace(-3, 3, 1201)
    h = s[1] - s[0]
    d2p = law.psi_plus(s[2:]) - 2 * law.psi_plus(s[1:-1]) + law.psi_plus(s[:-2])
    d2m = law.psi_minus(s[2:]) - 2 * law.psi_minus(s[1:-1]) + law.psi_minus(s[:-2])
    assert np.all(d2p >= -1e-12 * h * h)
    assert np.all(d2m <= 1e-12 * h * h)


def test_stiffness_window_clamps(params):
    assert law.stiffness_f(-1.0, params) == pytest.approx(params.f_min)
    assert law.stiffness_f(1.0, params) == pytest.approx(1.0)
    assert law.stiffness_f(-5.0, params) == pytest.approx(params.f_min)
    assert law.stiffness_f(5.0, params) == pytest.approx(1.0)


def test_stiffness_bounds_and_lipschitz(params, rng):
    s = rng.uniform(-3, 3, 10_000)
    f = law.stiffness_f(s, params)
    assert np.all(f >= params.f_min - 1e-15) and np.all(f <= 1.0 + 1e-15)
    fp = law.stiffness_f_prime(s, params)
    # the smoothstep slope 6x(1-x) peaks at 3/2 mid-window; the chain rule
    # scales it by (1 - f_min) / (f_hi - f_lo)
    bound = 1.5 * (1.0 - params.f_min) / (params.f_hi - params.f_lo)
    assert np.max(np.abs(fp)) <= bound + 1e-13


def test_stiffness_derivative_matches_central_difference(params, rng):
    # interior points only; f' jumps at the clamp edges by construction
    for s in rng.uniform(-0.95, 0.95, 20):
        fd = central(lambda x: law.stiffness_f(x, params), s)
        assert fd == pytest.approx(law.stiffness_f_prime(s, params), abs=1e-8)


def test_mobility_profiles(rng):
    # b1 = b0 is constant mobility, exactly b0 everywhere
    const = ModelParams(b0=0.3, b1=0.3)
    s = rng.uniform(-4, 4, 10_000)
    assert np.all(law.mobility_b(s, const) == 0.3)
    # b0 < b1 ramps over the stiffness window, with no profile key
    ramp = ModelParams(b0=0.3, b1=0.7)
    b = law.mobility_b(s, ramp)
    assert law.mobility_b(ramp.f_lo, ramp) == 0.3
    assert law.mobility_b(ramp.f_hi, ramp) == pytest.approx(0.7)
    assert law.mobility_b(0.5 * (ramp.f_lo + ramp.f_hi), ramp) == pytest.approx(0.5)
    assert np.min(b) >= 0.3 - 1e-15 and np.max(b) <= 0.7 + 1e-15
    assert np.ptp(b) > 0.39


def test_neo_hookean_identity_is_stress_free(params):
    for d in (2, 3):
        assert law.neo_hookean_w(0.3, np.eye(d), params) == pytest.approx(0.0)


def test_neo_hookean_direct_value():
    p = ModelParams(c_elastic=1.0)
    F = np.diag([2.0, 1.0])
    # f(phi) = 1 at the upper clamp
    assert law.neo_hookean_w(1.0, F, p) == pytest.approx(0.5 * (4 + 1 - 2))


def test_neo_hookean_fd_gradient(params, rng):
    for d in (2, 3):
        F = np.eye(d) + 0.3 * rng.standard_normal((d, d))
        phi = 0.2
        P = law.neo_hookean_piola(phi, F, params)
        h = 1e-6
        for a in range(d):
            for b in range(d):
                E = np.zeros((d, d))
                E[a, b] = h
                fd = (law.neo_hookean_w(phi, F + E, params)
                      - law.neo_hookean_w(phi, F - E, params)) / (2 * h)
                assert fd == pytest.approx(P[a, b], rel=1e-7, abs=1e-9)


def test_elastic_response_dw_dphi_matches_central_difference(params, rng):
    # phi inside and outside the stiffness window, d = 2 and 3
    for d in (2, 3):
        F = np.eye(d) + 0.3 * rng.standard_normal((d, d))
        for phi in (-1.3, -0.4, 0.2, 0.7, 1.2):
            fd = central(lambda s: law.neo_hookean_w(s, F, params), phi)
            _, dw = law.elastic_response(law.stiffness_f_prime(phi, params), F, params)
            assert fd == pytest.approx(dw, rel=1e-7, abs=1e-9)


def test_elastic_response_repeats_the_phi_formula(params, rng):
    """Given f'(phi), the stretch is F:F - d and dw/dphi repeats
    (c/2) f'(phi) (F:F - d) bitwise, also from a stretch passed in."""
    for d in (2, 3):
        phi = rng.uniform(-1.5, 1.5, (32, 24))
        F = np.eye(d) + 0.5 * rng.standard_normal((32, 24, d, d))
        fp = law.stiffness_f_prime(phi, params)
        assert np.count_nonzero(fp) > 100
        stretch = frobenius(F, F) - d
        ref = 0.5 * params.c_elastic * fp * stretch
        got, dw = law.elastic_response(fp, F, params)
        assert dw.shape == ref.shape
        assert np.array_equal(got, stretch) and np.array_equal(dw, ref), d
        assert np.array_equal(law.elastic_response(fp, None, params, stretch)[1], ref)


def test_eulerian_stress_is_the_derivative_of_the_density(params, rng):
    """The step's stress c f F F^T is P F^T, P the central-difference
    gradient in F of the Neo-Hookean density."""
    for phi in (-1.3, -0.4, 0.2, 0.7, 1.2):
        F = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
        P = np.array([[central(lambda t: law.neo_hookean_w(phi, F + t * np.outer(ea, eb),
                                                           params), 0.0)
                       for eb in np.eye(2)] for ea in np.eye(2)])
        S = law.eulerian_elastic_stress(law.stiffness_f(phi, params), F, params)
        np.testing.assert_allclose(S, P @ F.T, rtol=1e-6, atol=0.0)


def test_eulerian_stress_symmetric_psd(params, rng):
    for _ in range(20):
        F = rng.standard_normal((2, 2))
        S = law.eulerian_elastic_stress(law.stiffness_f(0.1, params), F, params)
        assert np.allclose(S, S.T, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(S) >= -1e-13)
    S = law.eulerian_elastic_stress(law.stiffness_f(0.5, params), np.eye(2),
                                    ModelParams(c_elastic=1.0))
    assert np.allclose(S, law.stiffness_f(0.5, params) * np.eye(2))


def test_eulerian_stress_equals_scaled_gram_einsum(params, rng):
    """The d = 2 closed form repeats the einsum's products and sums, so it is
    bitwise equal; d = 3 still goes through the einsum."""
    for shape in [(64, 64, 2, 2), (5, 3, 3)]:
        F = rng.standard_normal(shape)
        phi = rng.uniform(-1.5, 1.5, shape[:-2])
        f = law.stiffness_f(phi, params)
        ref = params.c_elastic * f[..., None, None] * np.einsum("...ik,...jk->...ij", F, F)
        S = law.eulerian_elastic_stress(f, F, params)
        if shape[-1] == 2:
            assert np.array_equal(S, ref)
        else:
            np.testing.assert_allclose(S, ref, rtol=1e-14, atol=0.0)


def test_mooney_rivlin_identity_value():
    p = ModelParams()
    # first two terms vanish at the identity; h(1) = 1/2
    assert law.mooney_rivlin_w(0.0, np.eye(3), p, 0.0, 1.0) == pytest.approx(0.5)


def test_mooney_rivlin_frobenius_term():
    p = ModelParams(c_elastic=1.0)
    F = np.diag([2.0, 1.0, 1.0])
    assert law.mooney_rivlin_w(1.0, F, p, 0.0, 0.0) == pytest.approx(0.5 * (6 - 3))


def test_mooney_rivlin_piola_identity_cases():
    p1 = ModelParams(c_elastic=1.0)
    assert np.allclose(law.mooney_rivlin_piola(1.0, np.eye(3), p1, 0.0, 0.0), np.eye(3))
    p2 = ModelParams(c_elastic=1e-30)
    # chosen h has h'(1) = 0: stress-free identity
    assert np.max(np.abs(law.mooney_rivlin_piola(0.0, np.eye(3), p2, 0.0, 1.0))) <= 1e-12


def test_mooney_rivlin_matches_fd_gradient(rng):
    p, c2, c3 = ModelParams(c_elastic=0.8), 0.7, 0.9
    checked = 0
    while checked < 50:
        F = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        J = determinant(F)
        if not 0.5 <= J <= 2.0:
            continue
        checked += 1
        P = law.mooney_rivlin_piola(0.3, F, p, c2, c3)
        h = 1e-5
        fd = np.zeros((3, 3))
        for a in range(3):
            for b in range(3):
                E = np.zeros((3, 3))
                E[a, b] = h
                fd[a, b] = (law.mooney_rivlin_w(0.3, F + E, p, c2, c3)
                            - law.mooney_rivlin_w(0.3, F - E, p, c2, c3)) / (2 * h)
        rel = np.max(np.abs(P - fd)) / np.max(np.abs(P))
        assert rel <= 1e-6


def test_mooney_rivlin_rejects_nonpositive_det():
    p = ModelParams()
    F = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(PreconditionError):
        law.mooney_rivlin_w(0.0, F, p, 0.0, 1.0)
    with pytest.raises(PreconditionError):
        law.mooney_rivlin_piola(0.0, F, p, 0.0, 1.0)


def test_mooney_rivlin_reduces_to_neo_hookean(rng):
    p = ModelParams(c_elastic=1.3)
    for _ in range(10):
        F = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        if determinant(F) <= 0:
            continue
        assert np.allclose(law.mooney_rivlin_piola(0.4, F, p, 0.0, 0.0),
                           law.neo_hookean_piola(0.4, F, p), atol=1e-12)
