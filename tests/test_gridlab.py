"""Sampled transforms against their closed Gaussian forms."""
import numpy as np
import pytest

from metaplectic.errors import NumericalError, UnsupportedRescale, ValidationError
from metaplectic.gausscalc import (GaussianState, apply_word, inner_product,
                                   norm, shift, standard_gaussian,
                                   wigner_gaussian)
from metaplectic import gridlab
from metaplectic.gridlab import (GridFn, GridSpec, _chirp_values, contraction_check,
                                 discrete_modnorm, grid_apply_token,
                                 grid_apply_word, grid_fourier,
                                 grid_fourier_inverse, grid_stft, grid_wigner,
                                 grid_wigner_multiplier, norm2, sample)
from metaplectic.sympcore import (atom_r, chirp, fourier, multiplier,
                                  random_word, rescale)
from metaplectic.tfrzoo import build_covariant, symbol_exponent

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


def _gathered_rescale(f, E, maslov):
    """The rescale relabel with the parity flip as an index gather, ``k``
    reading ``(-k) mod n``: the reference for the sliced flip."""
    v, factors = f.values, list(np.diag(E))
    if not E.diagonal().any():
        v, factors = v.T, [E[1, 0], E[0, 1]]
    parity = (-np.arange(f.spec.n)) % f.spec.n
    for axis, sigma in enumerate(factors):
        if sigma < 0:
            v = np.take(v, parity, axis=axis)
            np.moveaxis(v, axis, 0)[0] = 0
    return (1j) ** (maslov % 4) * np.sqrt(abs(np.prod(factors))) * v


@pytest.mark.parametrize("E", [[[-1.5]], [[0.4]], np.diag([-1.5, 1.5]), np.diag([1.5, -1.5]),
                               np.diag([-2.0, -2.0]), np.diag([0.5, 0.5]),
                               [[0.0, 1.5], [-1.5, 0.0]], [[0.0, -2.0], [-2.0, 0.0]]],
                         ids=["1d-neg", "1d-pos", "neg-pos", "pos-neg", "neg-neg", "pos-pos",
                              "anti-one-neg", "anti-both-neg"])
def test_rescale_flip_is_the_gather(E):
    rng = np.random.default_rng(12)
    E = np.array(E, dtype=float)
    d = len(E)
    for n in (6, 64):
        f = GridFn(GridSpec(d, n, 0.15), _random_samples(rng, (n,) * d))
        for maslov in range(4):
            got = grid_apply_token(rescale(E, maslov=maslov), f).values
            assert np.array_equal(got, _gathered_rescale(f, E, maslov)), (n, maslov)


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


def _shifted_dual_multiplier(t, f):
    """The multiplier token with its symbol sampled on ``ifftshift`` of the
    dual grid's axis: the reference for the ``fftfreq`` axis."""
    v = np.fft.fftn(f.values)
    v *= _chirp_values(np.fft.ifftshift(f.spec.dual().axis()), -t.matrix_param())
    return np.fft.ifftn(v)


def _shifted_dual_wigner_multiplier(f, g, P):
    """:func:`grid_wigner_multiplier` with the symbol sampled on ``ifftshift``
    of the dual grid's axis."""
    n, h = f.spec.n, f.spec.h
    a, b = (v.T for v in gridlab._lag_views(f, g, n * h))
    m = n // 2
    L = np.empty((n, n), dtype=complex)
    np.multiply(a[m::-1], b[m::-1], out=L[:m + 1])
    np.multiply(a[:m:-1], b[:m:-1], out=L[m + 1:])
    L = np.fft.fft(L, axis=1)
    L *= _chirp_values(np.fft.ifftshift(f.spec.dual().axis()), -np.asarray(P)[::-1, ::-1])
    L = np.fft.ifft(L, axis=1)
    return np.fft.ifft(L, axis=0).T


@pytest.mark.parametrize("n", [6, 512, 1024, 2048])
def test_multiplier_dual_axis_is_the_shifted_dual_grid(n):
    rng = np.random.default_rng(500 + n)
    for h in (1 / np.sqrt(n), 0.7 / np.sqrt(n), 0.013):
        f = GridFn(GridSpec(1, n, h), _random_samples(rng, n))
        for P in ([[-0.3j]], [[0.2 - 0.4j]], [[0.7]]):
            got = grid_apply_token(multiplier(P), f).values
            assert np.array_equal(got, _shifted_dual_multiplier(multiplier(P), f)), (h, P)
    if n > 512:
        return
    sd = GridSpec(1, n, 1 / np.sqrt(n))
    f2 = GridFn(GridSpec(2, n, sd.h), _random_samples(rng, (n, n)))
    f, g = GridFn(sd, _random_samples(rng, n)), GridFn(sd, _random_samples(rng, n))
    for P in (HUSIMI_B, SKEW_B):
        t = multiplier(P)
        assert np.array_equal(grid_apply_token(t, f2).values, _shifted_dual_multiplier(t, f2))
        for second in (None, g):
            assert np.array_equal(grid_wigner_multiplier(f, second, P).values,
                                  _shifted_dual_wigner_multiplier(f, second, t.matrix_param()))


def test_atom_r_past_the_rescale_verdict_is_rejected():
    # 1/cosh theta below 1e-10, or zero once cosh overflows (theta = 800
    # warned of the overflow first)
    f = sample(standard_gaussian(1), GridSpec(1, 16, 0.25))
    for theta in (25.0, 800.0):
        with pytest.raises(ValidationError, match="rescale matrix must be invertible"):
            grid_apply_token(atom_r([theta]), f)


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


# ----------------------------------------------------------------------------
# the documented double sums, evaluated term by term
# ----------------------------------------------------------------------------

def _random_samples(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _fourier_sum(vals, spec, sign):
    """``h^d i^{-sign d/2} sum_k vals_k exp(-2 pi i sign x_k . xi_m)``, the
    output indexed by the points of the dual grid."""
    x, xi = spec.axis(), spec.dual().axis()
    E = np.empty((spec.n, spec.n), dtype=complex)
    for k in range(spec.n):
        for m in range(spec.n):
            E[k, m] = np.exp(-2j * np.pi * sign * x[k] * xi[m])
    scale = spec.h ** spec.d * np.exp(-0.25j * np.pi * sign * spec.d)
    if spec.d == 1:
        return scale * (vals @ E)
    return scale * (E.T @ vals @ E)


def _refined(vals, spec, t):
    """Band-limited interpolant of 1-d samples at ``t``:
    ``(1/n) sum_m sum_k vals_k exp(2 pi i (t - x_k) xi_m)``, zero off the
    points ``-n h/2, ..., n h/2 - h/2`` of the refined grid."""
    n, h = spec.n, spec.h
    if not 0 <= round(2 * t / h) + n < 2 * n:
        return 0.0
    x, xi = spec.axis(), spec.dual().axis()
    return np.sum(vals[:, None] * np.exp(2j * np.pi * np.outer(t - x, xi))) / n


def _chirp_transform(rows, spec):
    """``h sum_k rows[i, k] exp(-2 pi i y_k xi_m)`` for every row ``i``."""
    y = spec.axis()
    E = np.exp(-2j * np.pi * np.outer(y, y))
    return spec.h * (rows @ E)


def _wigner_rows(f, g, spec, rows):
    x = spec.axis()
    C = np.array([[_refined(f, spec, x[i] + y / 2) * np.conj(_refined(g, spec, x[i] - y / 2))
                   for y in x] for i in rows])
    return _chirp_transform(C, spec)


def _stft_sum(f, g, spec):
    n = spec.n
    rows = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for k in range(n):
            # g(y_k - x_i) sits at index k - i + n/2, and is zero off the grid
            j = k - i + n // 2
            if 0 <= j < n:
                rows[i, k] = f[k] * np.conj(g[j])
    return _chirp_transform(rows, spec)


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("n", [6, 8, 10, 64])
def test_grid_fourier_is_the_centered_sum(n):
    # n = 6 and 10 have n/2 odd, where the centring contributes a sign
    rng = np.random.default_rng(n)
    for d in (1, 2):
        spec = GridSpec(d, n, 0.7 / np.sqrt(n))
        vals = _random_samples(rng, (n,) * d)
        F = grid_fourier(GridFn(spec, vals))
        assert F.spec == spec.dual()
        assert _rel(F.values, _fourier_sum(vals, spec, 1)) < 1e-12, d
        back = grid_fourier_inverse(GridFn(spec, vals))
        assert _rel(back.values, _fourier_sum(vals, spec, -1)) < 1e-12, d


@pytest.mark.parametrize("n", [6, 8, 10, 64])
def test_grid_wigner_is_the_documented_sum(n):
    rng = np.random.default_rng(100 + n)
    spec = GridSpec(1, n, 1 / np.sqrt(n))
    f, g = _random_samples(rng, n), _random_samples(rng, n)
    # each refined value costs n^2 terms; at n = 64 a few rows still reach
    # both edges, every lag y_k and every frequency
    rows = list(range(n)) if n < 64 else [0, 1, 17, 32, 63]
    W = grid_wigner(GridFn(spec, f), GridFn(spec, g))
    assert W.spec == GridSpec(2, n, spec.h)
    assert _rel(W.values[rows], _wigner_rows(f, g, spec, rows)) < 1e-12
    auto = grid_wigner(GridFn(spec, f)).values
    assert _rel(auto[rows], _wigner_rows(f, f, spec, rows)) < 1e-12


# the Husimi symbol exponent, and one with a cross term and a nonzero real
# part (the skew spectrogram of the representation tests)
HUSIMI_B = np.diag([-0.5j, -0.5j])
_A11, _A13 = np.array([[0.4 + 0.1j]]), np.array([[0.3 - 0.6j]])
SKEW_B = symbol_exponent(build_covariant(
    _A11, _A13, -(_A11.T @ np.linalg.inv(_A13) @ (_A11 - np.eye(1)))))


@pytest.mark.parametrize("P", [HUSIMI_B, SKEW_B], ids=["husimi", "skew"])
@pytest.mark.parametrize("cross", [False, True], ids=["auto", "cross"])
@pytest.mark.parametrize("n", [6, 8, 10, 64])
def test_wigner_multiplier_is_the_token_on_the_wigner(n, cross, P):
    # samples that do not decay reach every lag, so a wrong row of the lag
    # matrix or a transposed symbol shows
    assert SKEW_B[0, 1] != 0 and SKEW_B.real.any()
    rng = np.random.default_rng(300 + n)
    spec = GridSpec(1, n, 1 / np.sqrt(n))
    f = GridFn(spec, _random_samples(rng, n))
    g = GridFn(spec, _random_samples(rng, n)) if cross else None
    got = grid_wigner_multiplier(f, g, P)
    want = grid_apply_token(multiplier(P), grid_wigner(f, g))
    assert got.spec == want.spec == GridSpec(2, n, spec.h)
    assert _rel(got.values, want.values) <= 1e-13


def test_wigner_multiplier_validates_like_the_token():
    spec = GridSpec(1, 8, 1 / np.sqrt(8))
    f = GridFn(spec, np.ones(8))
    for bad in (np.diag([0.5j, -0.5j]), [[np.nan, 0], [0, -1j]]):
        with pytest.raises(ValidationError) as token:
            multiplier(bad)
        with pytest.raises(ValidationError) as kernel:
            grid_wigner_multiplier(f, None, bad)
        assert str(kernel.value) == str(token.value)
    with pytest.raises(ValidationError, match="dimension"):
        grid_wigner_multiplier(f, None, [[-0.5j]])
    with pytest.raises(ValidationError, match="self-dual"):
        grid_wigner_multiplier(GridFn(GridSpec(1, 8, 0.2), np.ones(8)), None, HUSIMI_B)


@pytest.mark.parametrize("n", [6, 8, 10, 64])
def test_grid_stft_is_the_documented_sum(n):
    rng = np.random.default_rng(200 + n)
    spec = GridSpec(1, n, 1 / np.sqrt(n))
    f, g = _random_samples(rng, n), _random_samples(rng, n)
    V = grid_stft(GridFn(spec, f), GridFn(spec, g))
    assert V.spec == GridSpec(2, n, spec.h)
    assert _rel(V.values, _stft_sum(f, g, spec)) < 1e-12


@pytest.mark.parametrize("s", [1.0, -0.5])
@pytest.mark.parametrize("p, q", [(2.0, 2.0), (1.0, np.inf)])
def test_modnorm_weighted_mixed_sum(rng, s, p, q):
    spec = GridSpec(1, 64, 1 / 8.0)
    f = sample(random_state(rng, 1), spec)
    w = sample(standard_gaussian(1), spec)
    V = grid_stft(f, w).values
    x = spec.axis()
    M = np.abs(V) * (1 + x[:, None] ** 2 + x[None, :] ** 2) ** (s / 2)
    inner = [sum(M[i, m] ** p * spec.h for i in range(64)) ** (1 / p) for m in range(64)]
    want = max(inner) if np.isinf(q) else \
        sum(v ** q / (64 * spec.h) for v in inner) ** (1 / q)
    got = discrete_modnorm(f, w, p=p, q=q, s=s)
    assert abs(got - want) <= 1e-12 * want


def _l2_modnorm(V, spec):
    """The documented ``p = q = 2, s = 0`` mixed norm of transform values:
    ``l^2`` over x with measure h, then over xi with measure 1/(n h)."""
    inner = np.sqrt(np.sum(np.abs(V) ** 2, axis=0) * spec.h)
    return np.sqrt(np.sum(inner ** 2) / (spec.n * spec.h))


@pytest.mark.parametrize("n", [6, 8, 10, 64])
def test_modnorm_hilbert_is_the_documented_sum(n):
    rng = np.random.default_rng(300 + n)
    spec = GridSpec(1, n, 1 / np.sqrt(n))
    f, g = _random_samples(rng, n), _random_samples(rng, n)
    want = _l2_modnorm(_stft_sum(f, g, spec), spec)
    got = discrete_modnorm(GridFn(spec, f), GridFn(spec, g), p=2.0, q=2.0, s=0.0)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [256, 512])
def test_modnorm_hilbert_matches_grid_stft(n):
    rng = np.random.default_rng(400 + n)
    spec = GridSpec(1, n, 1 / np.sqrt(n))
    f, g = GridFn(spec, _random_samples(rng, n)), GridFn(spec, _random_samples(rng, n))
    want = _l2_modnorm(grid_stft(f, g).values, spec)
    assert abs(discrete_modnorm(f, g, p=2.0, q=2.0) - want) <= 1e-13 * want


def test_modnorm_hilbert_rejects_like_grid_stft():
    line = GridFn(GridSpec(1, 64, 1 / 8.0), np.ones(64))
    plane = GridFn(GridSpec(2, 64, 1 / 8.0), np.ones((64, 64)))
    other = GridFn(GridSpec(1, 16, 1 / 4.0), np.ones(16))
    wide = GridFn(GridSpec(1, 64, 0.2), np.ones(64))
    for f, g in ((plane, line), (line, plane), (line, other), (wide, wide)):
        with pytest.raises(ValidationError) as stft:
            grid_stft(f, g)
        with pytest.raises(ValidationError) as norm_err:
            discrete_modnorm(f, g, p=2.0, q=2.0, s=0.0)
        assert str(norm_err.value) == str(stft.value)


def test_modnorm_hilbert_builds_no_stft(monkeypatch):
    spec = GridSpec(1, 64, 1 / 8.0)
    f = sample(standard_gaussian(1), spec)
    want = discrete_modnorm(f, f, p=2.0, q=2.0)

    def no_stft(f, g):
        raise AssertionError("the Hilbert case built a short-time transform")

    monkeypatch.setattr(gridlab, "grid_stft", no_stft)
    assert discrete_modnorm(f, f, p=2.0, q=2.0) == want
    assert discrete_modnorm(f, f, p=2.0) == want
    with pytest.raises(AssertionError):
        discrete_modnorm(f, f, p=1.0)


@pytest.mark.parametrize("p, q, s", [(0.0, None, 0.0), (-1.0, None, 0.0), (np.nan, None, 0.0),
                                     (2.0, 0.0, 0.0), (2.0, np.nan, 0.0), (2.0, 2.0, np.nan),
                                     (2.0, 2.0, np.inf), (1.0, 1.0, -np.inf)])
def test_modnorm_rejects_indices_outside_domain(p, q, s):
    f = sample(standard_gaussian(1), GridSpec(1, 64, 1 / 8.0))
    with pytest.raises(ValidationError):
        discrete_modnorm(f, f, p=p, q=q, s=s)


def test_modnorm_accepts_infinite_indices():
    g = sample(standard_gaussian(1), GridSpec(1, 64, 1 / 8.0))
    assert np.isfinite(discrete_modnorm(g, g, p=np.inf, q=np.inf))


@pytest.mark.parametrize("Q", [[[1.5j, 0.4j], [0.4j, 0.8j]],
                               [[0.3 + 1.5j, -0.7 + 0.4j], [-0.7 + 0.4j, 1.1 + 0.8j]],
                               [[1.5j]], [[0.3 + 1.5j]]],
                         ids=["imaginary", "complex", "imaginary-1d", "complex-1d"])
def test_chirp_values_2d_is_the_complex_exponential(Q):
    # at the corners of this grid |z|^2 = 512 and exp(-pi Im Q z.z)
    # underflows; in 1-d it does at the edges, where x^2 = 256
    Q = np.array(Q)
    spec = GridSpec(len(Q), 64, 0.5)
    x, z = spec.axis(), spec.points()
    want = np.exp(1j * np.pi * np.einsum("...i,ij,...j->...", z, Q, z))
    got = _chirp_values(x, Q)
    assert (want == 0).any()
    assert np.all(np.abs(got[want == 0]) < np.finfo(float).tiny)
    assert _rel(got, want) < 1e-14


def test_modnorm_extreme_indices_stay_in_range():
    # the l^p sums are taken of the entries divided by their largest, so a
    # huge p neither underflows to zero nor warns: it nears the max norm
    g = sample(standard_gaussian(1), GridSpec(1, 64, 1 / 8.0))
    sup = discrete_modnorm(g, g, p=np.inf, q=np.inf)
    assert abs(discrete_modnorm(g, g, p=1e300, q=1e300) - sup) <= 1e-12 * sup
    assert abs(discrete_modnorm(g, g, p=1e5, q=1e5) - sup) <= 1e-3 * sup
    # a norm beyond the float range is a numerical error, not inf or a warning
    for p, s in ((1e-300, 0.0), (2.0, 1e5)):
        with pytest.raises(NumericalError, match="floating-point range"):
            discrete_modnorm(g, g, p=p, q=p, s=s)


def test_sample_overflowing_grid_is_numerical_error():
    # at |x| near 1e154 the exponent overflowed with numpy warnings
    with pytest.raises(NumericalError, match="overflow"):
        sample(GaussianState(1, 0.7, [[0.2 + 0.8j]], [0.3 - 0.2j]), GridSpec(1, 8, 1e154))
