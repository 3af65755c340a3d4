"""Quadratic evolution flows, symbol calculus, and norm bound evaluators."""
import mpmath as mp
import numpy as np
import pytest
import scipy.linalg as sla

from metaplectic.errors import NumericalError, UnsupportedShape, ValidationError
from metaplectic.evoprop import (EVOLVE_COLUMNS, QuadraticHamiltonian, _expm,
                                 _laguerre_rule, c_weight, combined_bound, cone_profile,
                                 evolve_trajectory, hamilton_map,
                                 harmonic_flow, harmonic_hamiltonian,
                                 heat_hamiltonian, hermite_hamiltonian,
                                 mod_norm_bound_U, mod_norm_bound_Z,
                                 polar_in_time, propagator_matrix,
                                 weyl_pairing, weyl_symbol_Z)
from metaplectic.gausscalc import (GaussianState, apply_word, norm,
                                   standard_gaussian, wigner_gaussian)
from metaplectic.gridlab import GridSpec, grid_fourier, grid_wigner, sample
from metaplectic.sympcore import (atom_matrix, atom_r, fourier, is_symplectic,
                                  matrix_polar, omega, random_word, sharp,
                                  token_matrix, word_to_matrix)

from conftest import random_state


def test_hamiltonian_validation():
    with pytest.raises(ValidationError):
        QuadraticHamiltonian(1, np.eye(3))
    with pytest.raises(ValidationError):
        QuadraticHamiltonian(1, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        QuadraticHamiltonian(1, -np.eye(2))
    with pytest.raises(ValidationError):
        QuadraticHamiltonian(0, np.zeros((0, 0)))


@pytest.mark.parametrize("make", [
    lambda: heat_hamiltonian(1.0, 1.0, -1),
    lambda: hermite_hamiltonian(1.0, 0.0, 0),
    lambda: harmonic_hamiltonian(-1, 1),
    lambda: harmonic_hamiltonian(0, 0),
], ids=["heat-negative", "hermite-zero", "harmonic-negative", "harmonic-empty"])
def test_example_hamiltonians_validate_dimension(make):
    with pytest.raises(ValidationError, match="dimension"):
        make()


def test_expm_matches_scipy():
    rng = np.random.default_rng(5)
    flows = [heat_hamiltonian(1.0, 1.0, d) for d in (1, 3)]  # nilpotent generators
    for _ in range(30):
        d = int(rng.integers(1, 4))
        G = rng.normal(size=(2 * d, 2 * d))
        N = rng.normal(size=(2 * d, 2 * d))
        flows.append(QuadraticHamiltonian(d, G @ G.T / (2 * d) + 0.5j * (N + N.T)))
    for H in flows:
        A = -2j * rng.uniform(0.0, 2.0) * hamilton_map(H)
        want = sla.expm(A)
        assert np.linalg.norm(_expm(A) - want) <= 1e-12 * np.linalg.norm(want)


def test_hamilton_map_and_flow_symplectic():
    H = heat_hamiltonian(1.0, 0.5, 2)
    assert np.allclose(hamilton_map(H), omega(2) @ H.Qmat)
    for t in (0.0, 0.2, 1.0, 2.5):
        assert is_symplectic(propagator_matrix(H, t))


def test_heat_flow_exact_shear():
    a, b = 1.3, 0.4
    H = heat_hamiltonian(a, b, 1)
    for t in (0.1, 0.7, 2.0):
        S = propagator_matrix(H, t)
        want = np.array([[1.0, -2 * np.pi * (a + 1j * b) * t], [0.0, 1.0]])
        assert np.linalg.norm(S - want) < 1e-12


def test_heat_polar_max_singular_value():
    H = heat_hamiltonian(1.0, 1.0, 1)
    for t in np.linspace(0.1, 2.0, 8):
        pol = polar_in_time(H, t)
        smax = np.linalg.svd(pol.U, compute_uv=False)[0]
        want = np.sqrt(1 + (np.pi * t) ** 2) + np.pi * t
        assert abs(smax - want) < 1e-10


def test_harmonic_flow_matches_exponential():
    for d1, d2 in ((1, 1), (2, 1)):
        H = harmonic_hamiltonian(d1, d2)
        for t in (0.1, 0.8):
            S = propagator_matrix(H, t)
            assert np.linalg.norm(S - harmonic_flow(d1, d2, t)) < 1e-12


def test_harmonic_flow_block_structure():
    t = 0.6
    S = harmonic_flow(1, 1, t)
    # real-coefficient slot evolves hyperbolically with imaginary coupling,
    # imaginary-coefficient slot is an honest phase-plane rotation
    assert abs(S[0, 0] - np.cosh(2 * t)) < 1e-12
    assert abs(S[0, 2] - (-1j * np.sinh(2 * t))) < 1e-12
    assert abs(S[1, 1] - np.cos(2 * t)) < 1e-12
    assert abs(S[1, 3] - np.sin(2 * t)) < 1e-12


def test_weyl_symbol_of_hermite_atom():
    th = 0.9
    Z = atom_matrix(np.array([th]), np.zeros(1))
    a = weyl_symbol_Z(Z)
    assert abs(a.c - 1.0 / np.cosh(th / 2)) < 1e-12
    assert np.allclose(a.Q, 2j * np.tanh(th / 2) * np.eye(2), atol=1e-12)


def test_weyl_symbol_of_heat_shear():
    # Z = [[1, -i gamma], [0, 1]] has symbol exp(-pi gamma xi^2)
    gam = 0.7
    Z = np.array([[1.0, -1j * gam], [0.0, 1.0]])
    a = weyl_symbol_Z(Z)
    assert abs(a.c - 1.0) < 1e-12
    assert np.allclose(a.Q, 1j * np.diag([0.0, gam]), atol=1e-12)


def test_weyl_pairing_identity(rng):
    for _ in range(6):
        d = int(rng.integers(1, 3))
        V = matrix_polar(word_to_matrix(random_word(rng, d, max_len=5))).U.real
        theta = rng.uniform(0.2, 1.5, size=d)
        Z = np.linalg.inv(V) @ atom_matrix(theta, np.zeros(d)) @ V
        f, g = random_state(rng, d), random_state(rng, d)
        lhs, rhs = weyl_pairing(Z, f, g)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_weight_constant_reference_values():
    assert abs(c_weight(0.0) - 1.0) < 1e-12
    assert all(c_weight(0.0, d) == 1.0 for d in (1, 2, 3))
    assert abs(c_weight(1.0) - 1.1410295880878413) < 1e-12
    assert abs(c_weight(2.0) - (1 + 1 / np.pi)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_weight_constant_matches_tricomi(d):
    # with r^2 = t, c_weight(s, d) = pi^d U(d, d + 1 + s/2, pi), where U is
    # Tricomi's confluent hypergeometric function
    for s in (-3.0, -1.0, 0.5, 1.0, 2.0, 3.0, 7.5):
        want = float(mp.pi ** d * mp.hyperu(d, d + 1 + s / 2, mp.pi))
        assert abs(c_weight(s, d) - want) <= 1e-12 * want


def test_laguerre_rule_is_shared_read_only():
    u, w = _laguerre_rule()
    assert _laguerre_rule()[0] is u
    assert not u.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_weight_constant_monotone_in_s():
    vals = [c_weight(s) for s in (0.0, 0.5, 1.0, 2.0, 3.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(np.isfinite(vals))


def test_bound_u_identity_and_monotonicity():
    assert abs(mod_norm_bound_U(np.eye(2)) - np.sqrt(2)) < 1e-12
    assert abs(mod_norm_bound_U(np.eye(4)) - 2.0) < 1e-12
    rng = np.random.default_rng(3)
    U = matrix_polar(word_to_matrix(random_word(rng, 2, max_len=5))).U.real
    bounds = [mod_norm_bound_U(U, s=s) for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(np.isfinite(bounds))
    assert all(a <= b + 1e-12 for a, b in zip(bounds, bounds[1:]))


def test_bound_u_index_change_needs_triangular():
    with pytest.raises(UnsupportedShape):
        mod_norm_bound_U(token_matrix(fourier(1)).real, p=1.5, q=2.0)
    # shear-type flows have no position-frequency mixing: allowed
    U = np.array([[1.0, -0.8], [0.0, 1.0]])
    val = mod_norm_bound_U(U, p=1.0, q=2.0)
    assert np.isfinite(val) and val > 0


def test_bound_z_amplitude_at_s_zero():
    th = 1.1
    Z = atom_matrix(np.array([th]), np.zeros(1))
    assert abs(mod_norm_bound_Z(Z) - 1.0 / np.cosh(th / 2)) < 1e-12
    vals = [mod_norm_bound_Z(Z, s=s) for s in (0.0, 1.0, 2.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_combined_bound_dominates_l2_ratio(rng):
    word = random_word(rng, 1, max_len=5)
    S = word_to_matrix(word)
    f = standard_gaussian(1)
    ratio = norm(apply_word(word, f)) / norm(f)
    # L^2 is the (2,2), s=0 member of the scale, so the bound applies
    assert ratio <= combined_bound(S) * (1 + 1e-9)


def test_hermite_decay_rate():
    alpha = 0.6
    for d in (1, 2):
        H = hermite_hamiltonian(alpha, 0.3, d)
        ts = np.linspace(0.5, 3.0, 6)
        logs = []
        for t in ts:
            S = propagator_matrix(H, t)
            from metaplectic.gausscalc import apply_matrix
            g = apply_matrix(S, standard_gaussian(d))
            logs.append(np.log(norm(g)))
        slope = np.polyfit(ts, logs, 1)[0]
        want = -d * (2 * np.pi * alpha) / 2
        assert abs(slope - want) < 0.05 * abs(want)


def test_polar_splits_ill_conditioned_hermite_flow():
    # at t = 0.7 cond Z is about 7e3, whose square sank the sqrtm route; the
    # flow splits exactly into the rotation exp(2 pi t J) and an atom
    t = 0.7
    S = propagator_matrix(hermite_hamiltonian(1.0, 1.0, 1), t)
    pol = matrix_polar(S)
    assert np.isrealobj(pol.U) and is_symplectic(pol.U)
    assert np.linalg.norm(pol.U - sla.expm(2 * np.pi * t * omega(1))) <= 1e-10


def test_hermite_long_time_sweep():
    # long flows: the small partner of each eigenvalue pair of sharp(S) S is
    # below the rounding of its large one, yet every row splits into the
    # rotation exp(2 pi beta t J) and an atom of rate 2 pi alpha t (past
    # alpha t ~ 3.5, cond Z ~ 2e16 and the normal form fails)
    for alpha, beta in [(1.0, 0.0), (0.5, 0.3), (1.0, 1.0), (0.2, -0.7)]:
        H = hermite_hamiltonian(alpha, beta)
        times = 0.1 * np.arange(1, round(10 * min(4.0, 3.0 / alpha)) + 1)
        rows = evolve_trajectory(H, times, grid_n=64)
        for t, r in zip(times, rows):
            assert not any(np.isnan(v) for v in r.values()), r
            th = 2 * np.pi * beta * t
            rot = np.cos(th) * np.eye(2) + np.sin(th) * omega(1)
            assert np.abs(polar_in_time(H, t).U - rot).max() <= 1e-12
            assert abs(r["bound_z"] * np.cosh(np.pi * alpha * t) - 1) <= 1e-10
            assert r["bound_combined"] >= r["l2_ratio"]


def test_polar_agrees_with_sqrtm_route():
    # where the principal square root of sharp(S) S is accurate, it is Z
    flows = [hermite_hamiltonian(1.0, 1.0, 1), heat_hamiltonian(1.0, 1.0, 2),
             harmonic_hamiltonian(1, 1)]
    for H in flows:
        for t in (0.1, 0.3, 0.6):
            S = propagator_matrix(H, t)
            pol = matrix_polar(S)
            Z = sla.sqrtm(sharp(S) @ S)
            assert np.linalg.norm(pol.Z - Z) <= 1e-10 * np.linalg.norm(Z)
            assert np.linalg.norm(pol.U - S @ np.linalg.inv(Z)) <= 1e-10 * np.linalg.norm(pol.U)


def test_evolve_trajectory_heat_rows():
    H = heat_hamiltonian(1.0, 1.0, 1)
    rows = evolve_trajectory(H, [0.25, 1.0], grid_n=128)
    assert all(sorted(r) == sorted(EVOLVE_COLUMNS) for r in rows)
    for r in rows:
        assert abs(r["bound_z"] - 1.0) < 1e-9
        assert r["min_eig"] >= -1e-9
        assert r["polar_residual"] < 1e-10
        assert r["l2_ratio"] <= r["bound_combined"] * (1 + 1e-9)
        assert abs(r["l2_ratio"] - r["modnorm_ratio"]) < 1e-3


@pytest.mark.parametrize("p, q, s", [(0.0, None, 0.0), (-1.0, None, 0.0), (np.nan, None, 0.0),
                                     (2.0, 0.0, 0.0), (2.0, 2.0, np.nan), (2.0, 2.0, np.inf)])
def test_bounds_reject_indices_outside_domain(p, q, s):
    H = heat_hamiltonian(1.0, 1.0, 1)
    with pytest.raises(ValidationError):
        evolve_trajectory(H, [0.5], p=p, q=q, s=s, grid_n=64)
    with pytest.raises(ValidationError):
        mod_norm_bound_U(np.eye(2), p=p, q=q, s=s)


def test_evolve_trajectory_mixed_harmonic_nan_policy():
    H = harmonic_hamiltonian(1, 1)
    rows = evolve_trajectory(H, [0.4], grid_n=64)
    r = rows[0]
    assert np.isnan(r["bound_z"]) and np.isnan(r["bound_combined"])
    assert np.isnan(r["modnorm_ratio"])
    assert abs(r["bound_u"] - 2.0) < 1e-9
    assert np.isfinite(r["l2_ratio"])


def test_evolve_trajectory_cell_that_fails_validation_is_nan():
    # a pure dispersion at long times: the exponential factor of the huge
    # real shear fails its symplectic check, which ended the whole sweep
    rows = evolve_trajectory(heat_hamiltonian(1.0, 0.0, 1), [1e3, 1e6], grid_n=64)
    assert np.isfinite(rows[0]["bound_z"])
    r = rows[1]
    assert np.isnan(r["bound_z"]) and np.isnan(r["bound_combined"])
    assert np.isfinite(r["bound_u"]) and abs(r["l2_ratio"] - 1.0) < 1e-9
    assert list(r) == EVOLVE_COLUMNS


def test_cone_profile_full_plane_is_moyal():
    spec = GridSpec(1, 256, 1 / 16.0)
    phi = standard_gaussian(1)
    W = grid_wigner(sample(phi, spec), sample(phi, spec))
    full = cone_profile(W, np.array([1.0, 0.0]), np.pi)
    assert abs(full - norm(phi) ** 4) < 1e-8


def test_cone_profile_direction_invariance_radial():
    spec = GridSpec(1, 256, 1 / 16.0)
    phi = standard_gaussian(1)
    W = grid_wigner(sample(phi, spec), sample(phi, spec))
    vals = [cone_profile(W, np.array(v), np.pi / 4)
            for v in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-0.3, 0.9])]
    assert max(vals) - min(vals) < 1e-8
    full = cone_profile(W, np.array([1.0, 0.0]), np.pi)
    assert abs(4 * vals[0] - full) < 1e-10 * full


def _cone_oracle(f, th0, aperture):
    # a centred Gaussian has |W|^2 = |c|^2 exp(-2 pi z.Mz), M = Im Q of its
    # Wigner state, so each ray carries |c|^2 / (4 pi u.Mu), u = (cos, sin)
    Wg = wigner_gaussian(f)
    M = np.asarray(Wg.Q).imag
    c2 = abs(complex(Wg.c)) ** 2

    def ray(phi):
        u = (mp.cos(phi), mp.sin(phi))
        return c2 / (4 * mp.pi * sum(M[i, j] * u[i] * u[j] for i in range(2) for j in range(2)))

    return float(mp.quad(ray, [th0 - aperture, th0 + aperture]))


@pytest.mark.parametrize("n", [128, 256])
def test_narrow_cone_matches_gaussian_oracle(n):
    spec = GridSpec(1, n, 1 / np.sqrt(n))
    states = {"ground": 1j, "squeezed": 1.6j, "spread": 0.6j, "chirped": 0.5 + 1j,
              "chirped-squeezed": 0.4 + 0.6j}
    for name, Q in states.items():
        f = GaussianState(1, 1.0, [[Q]], [0.0])
        W = grid_wigner(sample(f, spec))
        for z0 in ([1.0, 0.0], [0.3, -0.8]):
            for aperture in (np.pi / 4, 0.1):
                want = _cone_oracle(f, np.arctan2(z0[1], z0[0]), aperture)
                got = cone_profile(W, np.array(z0), aperture)
                assert abs(got - want) <= 1e-9 * want, (name, z0, aperture)


def _one_shot_cone(W, z0, aperture, s=0.0):
    """The narrow-cone rule with every node's exponential table built at
    once: one (m^2 x n) @ (n x n) product."""
    n, h = W.spec.n, W.spec.h
    from numpy.polynomial.legendre import leggauss

    t, w = leggauss(max(64, n // 4))
    rmax = n * h / 2
    r = rmax / 2 * (t + 1)
    phi = float(np.arctan2(z0[1], z0[0])) + aperture * t
    F = grid_fourier(W)
    phase = 2j * np.pi * F.spec.axis()
    X = np.outer(r, np.cos(phi)).ravel()
    Y = np.outer(r, np.sin(phi)).ravel()
    vals = np.einsum("pl,pl->p", np.exp(np.outer(X, phase)) @ F.values, np.exp(np.outer(Y, phase)))
    mag2 = np.abs(vals.reshape(r.size, phi.size) * F.spec.h ** 2) ** 2
    radial = (1 + r ** 2) ** s * r * (rmax / 2) * w
    return float(radial @ mag2 @ (aperture * w))


def test_narrow_cone_matches_one_shot_rule():
    spec = GridSpec(1, 64, 1 / 8.0)
    f = GaussianState(1, 1.0, [[0.4 + 0.6j]], [0.2])
    g = GaussianState(1, 1.0, [[0.3 + 1.2j]], [-0.1])
    W = grid_wigner(sample(f, spec), sample(g, spec))
    for z0, aperture, s in (([1.0, 0.0], 0.1, 0.0), ([0.3, -0.8], np.pi / 4, 1.5),
                            ([-1.0, 0.2], 2.0, -1.0)):
        want = _one_shot_cone(W, z0, aperture, s)
        assert abs(cone_profile(W, np.array(z0), aperture, s) - want) <= 1e-14 * want


def test_cone_profile_rejects_zero_direction():
    spec = GridSpec(1, 64, 0.125)
    W = grid_wigner(sample(standard_gaussian(1), spec))
    with pytest.raises(ValidationError):
        cone_profile(W, np.zeros(2), 0.5)


def test_bounds_beyond_float_range_are_numerical_errors():
    # Python float powers raised OverflowError here, and numpy's warned
    U = np.diag([3.0, 1 / 3.0])
    for call in (lambda: c_weight(1e5), lambda: mod_norm_bound_U(U, s=1e5),
                 lambda: mod_norm_bound_U(U, p=1e-300, q=1.0),
                 lambda: mod_norm_bound_Z(matrix_polar(atom_matrix([0.5], [0.0])).Z, s=1e5)):
        with pytest.raises(NumericalError, match="floating-point range"):
            call()
    assert mod_norm_bound_U(U, s=300.0) == pytest.approx(
        mod_norm_bound_U(U) * 3.0 ** 600, rel=1e-12)


def test_bounds_that_underflow_are_numerical_errors():
    # positive factors reach zero (or a subnormal) only by underflow: the
    # bound read 0.0, below the quantity it bounds
    Z = matrix_polar(atom_matrix([0.5], [0.0])).Z
    with pytest.raises(NumericalError, match="floating-point range"):
        mod_norm_bound_Z(Z, s=-1e5)
    with pytest.raises(NumericalError, match="floating-point range"):
        mod_norm_bound_U(np.diag([3.0, 1 / 3.0]), s=-400.0)
    assert mod_norm_bound_Z(Z, s=-10.0) > 0


@pytest.mark.parametrize("s", [1.0, -0.5])
def test_cone_profile_full_plane_with_weight(s):
    # the weighted Riemann sum over the grid; at s = 1 the standard Gaussian
    # has |W|^2 = 2 exp(-4 pi |z|^2) and the integral 1/2 + 1 / (8 pi)
    spec = GridSpec(1, 256, 1 / 16.0)
    phi = standard_gaussian(1)
    W = grid_wigner(sample(phi, spec), sample(phi, spec))
    x, y = np.meshgrid(W.spec.axis(), W.spec.axis(), indexing="ij")
    want = np.sum((1 + x ** 2 + y ** 2) ** s * np.abs(W.values) ** 2) * W.spec.h ** 2
    got = cone_profile(W, np.array([1.0, 0.0]), np.pi, s)
    assert abs(got - want) <= 1e-13 * want
    if s == 1.0:
        assert abs(got - (0.5 + 1 / (8 * np.pi))) < 1e-8


@pytest.mark.parametrize("H, t", [(heat_hamiltonian(), 1e300), (hermite_hamiltonian(), 400.0)])
def test_flow_past_the_float_range_is_numerical_error(H, t):
    # these failed the symplectic check as a ValidationError
    for compute in (propagator_matrix, polar_in_time,
                    lambda H, t: combined_bound(propagator_matrix(H, t))):
        with pytest.raises(NumericalError, match="flow at t"):
            compute(H, t)
    rows = evolve_trajectory(H, [t], grid_n=16)
    assert all(np.isnan(v) for k, v in rows[0].items() if k != "t")


@pytest.mark.parametrize("t", [np.inf, np.nan])
def test_flow_time_must_be_finite(t):
    with pytest.raises(ValidationError, match="finite"):
        propagator_matrix(heat_hamiltonian(), t)
