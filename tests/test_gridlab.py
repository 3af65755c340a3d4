"""Sampled transforms against their closed Gaussian forms."""
import numpy as np
import pytest

from metaplectic.errors import UnsupportedRescale, ValidationError
from metaplectic.gausscalc import (GaussianState, apply_word, inner_product,
                                   norm, shift, standard_gaussian,
                                   wigner_gaussian)
from metaplectic.gridlab import (GridFn, GridSpec, contraction_check,
                                 discrete_modnorm, grid_apply_token,
                                 grid_apply_word, grid_fourier,
                                 grid_fourier_inverse, grid_stft, grid_wigner,
                                 norm2, sample)
from metaplectic.sympcore import (atom_r, chirp, fourier, multiplier,
                                  random_word, rescale)

from conftest import random_state, rel_l2


SD512 = GridSpec(1, 512, 1 / np.sqrt(512))


def test_gridspec_validation():
    with pytest.raises(ValidationError):
        GridSpec(3, 64, 0.1)
    with pytest.raises(ValidationError):
        GridSpec(1, 63, 0.1)
    with pytest.raises(ValidationError):
        GridSpec(1, 64, 0.0)
    with pytest.raises(ValidationError):
        GridSpec(1, 64, np.inf)


def test_gridspec_dual_round_trip():
    spec = GridSpec(1, 128, 0.0625)
    assert spec.dual().dual() == spec
    assert spec.dual().h == 0.125
    assert SD512.self_dual
    assert abs(SD512.dual().h - SD512.h) < 1e-15


def test_norm2_matches_closed_norm(rng):
    f = random_state(rng, 1)
    assert abs(norm2(sample(f, SD512)) - norm(f)) < 1e-9 * norm(f)


def test_grid_fourier_matches_closed_form(rng):
    f = random_state(rng, 1)
    F = grid_fourier(sample(f, SD512))
    assert rel_l2(F, apply_word([fourier(1)], f)) < 1e-12


def test_grid_fourier_inverse_round_trip(rng):
    f = sample(random_state(rng, 1), SD512)
    back = grid_fourier_inverse(grid_fourier(f))
    assert norm2(GridFn(SD512, back.values - f.values)) < 1e-12 * norm2(f)


def test_grid_words_match_closed_form(rng):
    for _ in range(6):
        word = random_word(rng, 1, max_len=5)
        f = random_state(rng, 1)
        out = grid_apply_word(word, sample(f, SD512))
        assert rel_l2(out, apply_word(word, f)) < 1e-8


def test_grid_convergence_under_refinement(rng):
    word = random_word(rng, 1, max_len=5)
    f = random_state(rng, 1)
    errs = []
    for n in (512, 1024):
        spec = GridSpec(1, n, 1 / np.sqrt(n))
        out = grid_apply_word(word, sample(f, spec))
        errs.append(rel_l2(out, apply_word(word, f)))
    assert errs[1] <= max(errs[0] / 4, 1e-10)


def test_rescale_is_exact_relabel():
    spec = GridSpec(1, 64, 0.1)
    vals = np.arange(64, dtype=complex) + 1j
    for sigma in (2.0, 0.75, -1.5):
        out = grid_apply_token(rescale(np.array([[sigma]])), GridFn(spec, vals))
        # the samples of f at spacing h are those of f(sigma x) at h/|sigma|;
        # sigma < 0 flips the parity: index k reads n - k, index 0 reads zero
        assert out.spec == GridSpec(1, 64, 0.1 / abs(sigma)), sigma
        want = vals if sigma > 0 else np.r_[0, vals[:0:-1]]
        assert np.array_equal(out.values, np.sqrt(abs(sigma)) * want), sigma


def test_fractional_rescale_matches_closed_form(rng):
    f = random_state(rng, 1)
    for sigma in (0.6, 1.0 / 3.0, np.sqrt(2), -0.6, 2.0, -3.0):
        tok = rescale(np.array([[sigma]]))
        out = grid_apply_token(tok, sample(f, SD512))
        assert rel_l2(out, apply_word([tok], f)) < 1e-9, sigma


def test_rescale_guards():
    spec2 = GridSpec(2, 16, 0.2)
    f2 = GridFn(spec2, np.zeros((16, 16)))
    with pytest.raises(UnsupportedRescale):
        grid_apply_token(rescale(np.array([[1.0, 0.3], [0.0, 1.0]])), f2)
    # one spacing per grid: both factors need the same magnitude
    with pytest.raises(UnsupportedRescale):
        grid_apply_token(rescale(np.diag([1.0, 2.0])), f2)
    with pytest.raises(UnsupportedRescale):
        grid_apply_token(atom_r([0.2, 0.5]), f2)


def test_antidiagonal_rescale_2d():
    spec = GridSpec(2, 32, 0.15)
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    E = np.array([[0.0, 1.5], [-1.5, 0.0]])
    out = grid_apply_token(rescale(E), GridFn(spec, vals))
    # f(E x) with E antidiagonal: (x1, x2) -> f(1.5 x2, -1.5 x1), a transpose
    # followed by a parity flip of the first axis, on spacing h / 1.5
    assert out.spec == GridSpec(2, 32, 0.15 / 1.5)
    want = np.zeros_like(vals)
    want[1:] = vals.T[:0:-1]
    assert np.allclose(out.values, 1.5 * want)


def test_multiplier_on_grid_matches_closed_form(rng):
    f = random_state(rng, 1)
    tok = multiplier(np.array([[-0.4j]]))
    out = grid_apply_token(tok, sample(f, SD512))
    assert rel_l2(out, apply_word([tok], f)) < 1e-9


def test_grid_wigner_matches_closed_form(rng):
    f, g = random_state(rng, 1), random_state(rng, 1)
    W = grid_wigner(sample(f, SD512), sample(g, SD512))
    assert rel_l2(W, wigner_gaussian(f, g)) < 1e-10


def test_grid_wigner_discrete_moyal(rng):
    f, g = random_state(rng, 1), random_state(rng, 1)
    W = grid_wigner(sample(f, SD512), sample(g, SD512))
    lhs = norm2(W)
    rhs = norm2(sample(f, SD512)) * norm2(sample(g, SD512))
    assert abs(lhs - rhs) < 1e-9 * rhs


def test_grid_wigner_needs_self_dual():
    spec = GridSpec(1, 64, 0.2)
    f = GridFn(spec, np.ones(64))
    with pytest.raises(ValidationError):
        grid_wigner(f, f)


def test_grid_stft_matches_closed_form(rng):
    f = random_state(rng, 1)
    w = standard_gaussian(1)
    V = grid_stft(sample(f, SD512), sample(w, SD512))
    pts = V.spec.points()
    for i, k in ((256, 256), (240, 280), (300, 220)):
        x, xi = pts[i, k]
        want = np.exp(-1j * np.pi * x * xi) * inner_product(f, shift(w, [x, xi]))
        assert abs(V.values[i, k] - want) < 1e-12


def test_modnorm_ground_state_value():
    g = sample(standard_gaussian(1), GridSpec(1, 256, 1 / 16.0))
    got = discrete_modnorm(g, g, p=1.0, q=1.0, s=0.0)
    assert abs(got - np.sqrt(2.0)) < 1e-10


def test_modnorm_p2_is_l2_product(rng):
    f = random_state(rng, 1)
    w = standard_gaussian(1)
    spec = GridSpec(1, 256, 1 / 16.0)
    got = discrete_modnorm(sample(f, spec), sample(w, spec), p=2.0, q=2.0, s=0.0)
    assert abs(got - norm(f) * norm(w)) < 1e-9 * norm(f) * norm(w)


def test_contraction_check_measures_deficit():
    g = sample(standard_gaussian(1), SD512)
    ratio, strict = contraction_check([chirp(1j * np.eye(1))], g)
    assert abs(ratio - 2.0 ** -0.25) < 1e-10
    assert strict
    ratio, strict = contraction_check([fourier(1)], g)
    assert abs(ratio - 1.0) < 1e-10
    assert not strict


def test_contraction_check_hermite_atom():
    g = sample(standard_gaussian(1), SD512)
    ratio, strict = contraction_check([atom_r([0.8])], g)
    assert abs(ratio - np.exp(-0.4)) < 1e-9
    assert strict
