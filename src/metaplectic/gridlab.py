"""Sampled grids: the second, independent route for every operator.

States live on centered grids ``x_k = (k - n/2) h``, ``k = 0..n-1`` (n even,
d = 1 or 2).  The discrete Fourier transform pairs such a grid with the dual
grid of spacing ``1/(n h)``; when ``n h^2 = 1`` the grid is *self-dual* and
transforms map it to itself.  Everything here follows the same conventions
as the closed-form Gaussian calculus (Fourier = ``i^{-d/2}`` times the
classical transform; Wigner and short-time transforms classical), so the
two routes can be compared number by number.

Tokens act on samples:

* chirps multiply pointwise;
* the Fourier token is an exact centered DFT, a plain FFT between two
  sign modulations: for even n, ``sum_k a_k exp(-2 pi i (k-n/2)(m-n/2)/n)
  = (-1)^{n/2} (-1)^m fft((-1)^k a)[m]``, with no phase residue;
* a rescale by ``sigma`` is a change of units: the output keeps the
  samples (scaled, and parity-flipped when ``sigma < 0``) on the spacing
  ``h/|sigma|``, so after a rescale a grid is generally not self-dual;
* the remaining generators reduce to these.

A Cohen-class representation, a 2-d multiplier symbol applied to the grid
Wigner distribution, skips the Wigner: with the signed lag matrix ``K`` of
:func:`grid_wigner`, ``W[i, m] = h (-1)^m sum_k K[i, k] exp(-2 pi i k m/n)``,
and the plain FFT over ``m`` that the multiplier starts with gives back
``n h K[i, (n/2 - l) mod n]``, a row permutation of ``K``
(:func:`grid_wigner_multiplier`).

A chirp or a multiplier symbol ``exp(i pi Q z.z)`` is one exponential
over the grid, in 1-d and 2-d alike: a real one, ``exp(-pi Im Q z.z)``,
when ``Q`` is purely imaginary (the atom ``atom_p``, the chirps of
``atom_r``, the spectrogram and Husimi symbols), and a complex one
otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalError, UnsupportedRescale, ValidationError
from .gausscalc import eval_state
from .sympcore import Token, factor_R_theta, multiplier, negligible, word_dim

__all__ = [
    "GridSpec",
    "GridFn",
    "norm2",
    "sample",
    "grid_fourier",
    "grid_fourier_inverse",
    "grid_apply_token",
    "grid_apply_word",
    "grid_wigner",
    "grid_wigner_multiplier",
    "grid_stft",
    "discrete_modnorm",
    "require_indices",
    "contraction_check",
]


@dataclass(frozen=True)
class GridSpec:
    """Centered sampling grid: ``n^d`` points ``(k - n/2) h`` per axis."""

    d: int
    n: int
    h: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValidationError("grids support d = 1 or 2")
        if self.n < 4 or self.n % 2:
            raise ValidationError("grid size must be even and >= 4")
        if not (0 < self.h < np.inf):
            raise ValidationError("grid spacing must be finite and positive")

    def axis(self):
        return (np.arange(self.n) - self.n // 2) * self.h

    @property
    def dual_h(self):
        return 1.0 / (self.n * self.h)

    @property
    def self_dual(self):
        return abs(self.n * self.h * self.h - 1.0) <= 1e-9

    def dual(self):
        return GridSpec(self.d, self.n, self.dual_h)

    def points(self):
        """Full coordinate array, shape (n, d) or (n, n, 2)."""
        x = self.axis()
        if self.d == 1:
            return x[:, None]
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        return np.stack([X1, X2], axis=-1)


@dataclass
class GridFn:
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        want = (self.spec.n,) * self.spec.d
        if v.shape != want:
            raise ValidationError(f"value array shape {v.shape}, expected {want}")
        self.values = v


def norm2(f):
    """Discrete L^2 norm ``h^{d/2} ||values||_2``."""
    return float(np.linalg.norm(f.values.ravel()) * f.spec.h ** (f.spec.d / 2))


def sample(f, spec):
    """Sample a Gaussian state/sum on a grid, warning when the tails are not
    negligible at the boundary (the DFT then aliases them).  A grid so wide
    that the exponent overflows raises :class:`NumericalError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = eval_state(f, spec.points())
    peak = float(np.max(np.abs(vals)))  # inf or nan if any sample is
    if not np.isfinite(peak):
        raise NumericalError("samples of the state overflow on this grid")
    if peak > 0:
        if spec.d == 1:
            edge = max(abs(vals[0]), abs(vals[-1]))
        else:
            edge = max(float(np.max(np.abs(vals[0, :]))), float(np.max(np.abs(vals[-1, :]))),
                       float(np.max(np.abs(vals[:, 0]))), float(np.max(np.abs(vals[:, -1]))))
        if edge > 1e-12 * peak:  # the samples' dynamic range, at any size: no floor
            warnings.warn("state is not negligible at the grid boundary; "
                          "sampled transforms will alias", stacklevel=2)
    return GridFn(spec, vals)


# ----------------------------------------------------------------------------
# centered transforms
# ----------------------------------------------------------------------------

def _parity(n):
    """``(-1)^k`` for ``k = 0..n-1``, n even."""
    return np.tile([1.0, -1.0], n // 2)


def _centered(fft, a, scale=1.0):
    """``scale`` times the exact centered ``fft`` over every axis of ``a``
    (``sum_k a_k exp(-2 pi i (k-n/2).(m-n/2)/n)`` for ``fftn``): per axis,
    ``(-1)^k`` before and ``(-1)^{n/2} (-1)^m`` after the plain transform."""
    n, d = a.shape[0], a.ndim
    S = _parity(n) if d == 1 else np.multiply.outer(_parity(n), _parity(n))
    return (scale * (-1) ** (d * n // 2) * S) * fft(S * a)


def grid_fourier(f):
    """Fourier token on samples: ``h^d i^{-d/2}`` times the centered DFT.

    Output lives on the dual grid; on self-dual grids that is the same grid,
    and the standard Gaussian is a fixed point up to the ``i^{-d/2}`` phase.
    """
    scale = f.spec.h ** f.spec.d * np.exp(-0.25j * np.pi * f.spec.d)
    return GridFn(f.spec.dual(), _centered(np.fft.fftn, f.values, scale))


def grid_fourier_inverse(f):
    out = f.spec.dual()
    scale = np.exp(0.25j * np.pi * out.d) / out.h ** out.d
    return GridFn(out, _centered(np.fft.ifftn, f.values, scale))


# ----------------------------------------------------------------------------
# token action
# ----------------------------------------------------------------------------

def _quadratic_form(x, A):
    """``A z.z`` for a symmetric 1 x 1 or 2 x 2 ``A`` on the grid with axis ``x``."""
    if len(A) == 1:
        return A[0, 0] * x * x
    form = 2 * A[0, 1] * x[:, None] * x
    form += A[0, 0] * x[:, None] ** 2
    form += A[1, 1] * x ** 2
    return form


def _chirp_values(x, Q):
    """``exp(i pi Q z.z)``, complex ``Q``, on the grid with axis ``x``: one
    exponential in every dimension.  A purely imaginary ``Q`` gives the real
    ``exp(-pi Im Q z.z)`` (at n = 512 in 2-d on one Xeon core, 0.2 ms
    against 8-11 ms for a complex one); any other ``Q`` gives the complex
    ``exp(i pi Q z.z)``."""
    Q = np.asarray(Q)
    if Q.real.any():
        return np.exp(1j * np.pi * _quadratic_form(x, Q))
    vals = _quadratic_form(x, Q.imag)
    vals *= -np.pi
    return np.exp(vals, out=vals)


def _apply_rescale(f, E, maslov):
    """``i^maslov |det E|^{1/2} f(E x)`` as a change of units: the samples of
    ``f`` at spacing ``h`` are the samples of ``f(sigma x)`` at spacing
    ``h/|sigma|``, so the values are only scaled and, for ``sigma < 0``,
    parity-flipped (index ``k`` reads ``n - k``; index 0 reads zero)."""
    spec = f.spec
    v = f.values
    if spec.d == 1:
        factors = [E[0, 0]]
    else:
        if negligible(abs(E[0, 1]) + abs(E[1, 0]), np.abs(E).max(), 1e-12):
            factors = [E[0, 0], E[1, 1]]
        elif negligible(abs(E[0, 0]) + abs(E[1, 1]), np.abs(E).max(), 1e-12):
            # f(E x) with antidiagonal E factors through an axis swap followed by
            # the diagonal rescale diag(E[1,0], E[0,1])
            v = v.T
            factors = [E[1, 0], E[0, 1]]
        else:
            raise UnsupportedRescale("2-d grids support diagonal or antidiagonal rescales only")
        if abs(abs(factors[0]) - abs(factors[1])) > 1e-12 * abs(factors[0]):  # a ratio
            raise UnsupportedRescale("2-d grids carry one spacing: both rescale "
                                     "factors need the same magnitude")
    for axis, sigma in enumerate(factors):
        if sigma < 0:
            lead = (slice(None),) * axis
            flipped = np.empty_like(v)
            flipped[lead + (0,)] = 0
            flipped[lead + (slice(1, None),)] = v[lead + (slice(None, 0, -1),)]
            v = flipped
    root = np.sqrt(abs(np.prod(factors)))
    out = GridSpec(spec.d, spec.n, float(spec.h / abs(factors[0])))
    return GridFn(out, (1j) ** (maslov % 4) * root * v)


def grid_apply_token(t, f):
    """Apply one generator token to sampled values."""
    if not isinstance(t, Token):
        raise ValidationError("grid_apply_token expects a generator token")
    if t.d != f.spec.d:
        raise ValidationError("token dimension does not match grid dimension")
    if t.op == "chirp":
        return GridFn(f.spec, f.values * _chirp_values(f.spec.axis(), t.matrix_param()))
    if t.op == "fourier":
        return grid_fourier(f)
    if t.op == "rescale":
        return _apply_rescale(f, t.matrix_param().real, t.maslov)
    if t.op == "multiplier":
        # grid_fourier_inverse(symbol * grid_fourier(f)) with the symbol
        # exp(-i pi P zeta.zeta), Im P <= 0: the centring signs and scalars
        # cancel, so the symbol, sampled in FFT order, multiplies a plain FFT
        v = np.fft.fftn(f.values)
        v *= _chirp_values(np.fft.fftfreq(f.spec.n, f.spec.h), -t.matrix_param())
        return GridFn(f.spec, np.fft.ifftn(v))
    if t.op == "atom_r":
        return grid_apply_word(factor_R_theta(t.vector_param()), f)
    if t.op == "atom_p":
        Q = 1j * np.diag(t.vector_param())
        return GridFn(f.spec, f.values * _chirp_values(f.spec.axis(), Q))
    raise ValidationError(f"unknown token op {t.op!r}")


def grid_apply_word(word, f):
    """Apply a word to samples; first token in the list acts last."""
    word_dim(word)
    for t in reversed(word):
        f = grid_apply_token(t, f)
    return f


# ----------------------------------------------------------------------------
# quadratic representations
# ----------------------------------------------------------------------------

def _upsample2(vals):
    """Band-limited refinement to step h/2 on 2n points (same interval)."""
    return _centered(np.fft.ifftn, np.pad(_centered(np.fft.fftn, vals), vals.size // 2), 2.0)


def _require_selfdual_1d(f, g, who):
    if f.spec.d != 1 or g.spec.d != 1:
        raise ValidationError(f"{who} takes one-dimensional grid functions")
    if f.spec != g.spec:
        raise ValidationError(f"{who} needs both inputs on the same grid")
    if not f.spec.self_dual:
        raise ValidationError(f"{who} needs a self-dual grid (n h^2 = 1) so both "
                              "axes of the output share one spacing")


def _lag_views(f, g, scale=1.0):
    """Two read-only strided views whose product is the signed lag matrix
    ``K[i, k] = scale (-1)^{n/2+k} f(x_i + y_k/2) conj(g(x_i - y_k/2))`` of
    :func:`grid_wigner` (half-step values from the refinements, zero off
    the grid): row ``i`` takes the length-n windows of the refinements
    zero-padded by n/2, of ``f`` from ``2i`` and of the reversed ``conj g``
    from ``2n - 1 - 2i``.  The sign is ``(-1)^{n/2+j}`` at index ``j`` of
    the refined ``f``, and ``scale`` rides on that sign vector."""
    n = f.spec.n
    f2 = _upsample2(f.values)
    g2 = f2 if g is None else _upsample2(g.values)
    fp = np.pad(f2 * (scale * _parity(2 * n)), n // 2)
    gp = np.pad(np.conj(g2[::-1]), n // 2)
    return sliding_window_view(fp, n)[:2 * n:2], sliding_window_view(gp, n)[2 * n - 1::-2]


def grid_wigner(f, g=None):
    """Cross-Wigner distribution on a self-dual grid.

    ``W[i, m] = h * sum_k f(x_i + y_k/2) conj(g(x_i - y_k/2))
    exp(-2 pi i y_k xi_m)`` with the half-step values taken from the
    band-limited refinement of the samples.  Output indices are
    ``(x, xi)`` on the same grid.  With the signed lag matrix ``K`` of two
    strided views of the refinements (no index array or gather), this is
    ``W[i, m] = h (-1)^m sum_k K[i, k] exp(-2 pi i k m / n)``.
    """
    _require_selfdual_1d(f, f if g is None else g, "grid_wigner")
    n, h = f.spec.n, f.spec.h
    a, b = _lag_views(f, g)
    W = np.fft.fft(a * b, axis=1)
    W *= h * _parity(n)
    return GridFn(GridSpec(2, n, h), W)


def grid_wigner_multiplier(f, g, P):
    """``grid_apply_token(multiplier(P), grid_wigner(f, g))`` straight from
    the lag matrix: the grid form of a Cohen-class representation, a kernel
    product in the ambiguity domain, with no Wigner formed.

    The plain FFT over ``m`` of ``W[i, m] = h (-1)^m sum_k K[i, k]
    exp(-2 pi i k m / n)`` is ``n h K[i, (n/2 - l) mod n]`` at frequency
    ``l``: the multiplier's pass over the frequency axis undoes the
    Wigner's lag transform and leaves a row permutation of ``K``.  So ``K``
    is stored lag-major, row ``l`` holding lag ``(n/2 - l) mod n`` scaled by
    ``n h``; the two passes over x run along the contiguous axis (FFT,
    symbol transposed, inverse FFT), one inverse FFT runs over the lags, and
    the output is the transpose of the result, a view.  ``P`` is validated
    as :func:`~metaplectic.sympcore.multiplier` validates it.
    """
    _require_selfdual_1d(f, f if g is None else g, "grid_wigner")
    t = multiplier(P)
    if t.d != 2:
        raise ValidationError("token dimension does not match grid dimension")
    n, h = f.spec.n, f.spec.h
    a, b = (v.T for v in _lag_views(f, g, n * h))
    m = n // 2
    L = np.empty((n, n), dtype=complex)
    np.multiply(a[m::-1], b[m::-1], out=L[:m + 1])     # lags n/2, ..., 0
    np.multiply(a[:m:-1], b[:m:-1], out=L[m + 1:])     # lags n - 1, ..., n/2 + 1
    L = np.fft.fft(L, axis=1)
    # the symbol at (xi_j, eta_l) sits at [l, j]: swap the roles of the axes
    L *= _chirp_values(np.fft.fftfreq(n, h), -t.matrix_param()[::-1, ::-1])
    L = np.fft.ifft(L, axis=1)
    return GridFn(GridSpec(2, n, h), np.fft.ifft(L, axis=0).T)


def grid_stft(f, g):
    """Short-time Fourier transform ``V[i, m] = h * sum_k f(y_k)
    conj(g(y_k - x_i)) exp(-2 pi i y_k xi_m)`` with window ``g`` (no
    wrap-around: the window is zero off the grid).  Row ``i`` of the
    summand is ``f`` times the length-n window from ``n - i`` of ``conj g``
    zero-padded by n/2: one view of the windows in reverse order."""
    _require_selfdual_1d(f, g, "grid_stft")
    n, h = f.spec.n, f.spec.h
    windows = sliding_window_view(np.pad(np.conj(g.values), n // 2), n)[n:0:-1]
    V = np.fft.fft(f.values * _parity(n) * windows, axis=1)
    V *= (-1) ** (n // 2) * h * _parity(n)
    return GridFn(GridSpec(2, n, h), V)


def _lp_axis(M, p, weight):
    """Weighted ``l^p`` norm of nonnegative ``M`` over its first axis, taken
    of ``M`` divided by its largest entry, whose powers cannot overflow."""
    top = np.max(M, axis=0)
    if np.isinf(p):
        return top
    scaled = np.divide(M, top, out=np.zeros_like(M), where=top > 0)
    return top * (np.sum(scaled ** p, axis=0) * weight) ** (1.0 / p)


def require_indices(p, q, s):
    """Reject modulation indices outside the domain: ``p`` and ``q`` in
    ``(0, inf]``, ``s`` finite."""
    if not (p > 0 and q > 0):
        raise ValidationError(f"indices p = {p}, q = {q} must lie in (0, inf]")
    if not np.isfinite(s):
        raise ValidationError(f"weight order s = {s} must be finite")


def discrete_modnorm(f, g, p=1.0, q=None, s=0.0):
    """Discrete mixed-norm modulation quantity of ``f`` against window ``g``.

    Computes the short-time transform, applies the weight
    ``(1 + |x|^2 + |xi|^2)^{s/2}``, takes the ``l^p`` norm over the time
    axis (with measure ``h``) and then the ``l^q`` norm over the frequency
    axis (measure ``1/(n h)``); ``inf`` means the maximum.

    The Hilbert case ``p = q = 2, s = 0`` builds no transform.  Each row of
    :func:`grid_stft` is a length-n DFT of ``f_k conj(g_{k+n/2-i})``, zero
    where the window index leaves the grid (no wrap), so by Parseval
    ``sum_m |V[i, m]|^2 = n h^2 sum_k |f_k|^2 |g_{k+n/2-i}|^2`` and the norm is
    exactly ``h (sum_k |f_k|^2 G_k)^{1/2}``, where ``G_k`` sums ``|g_j|^2``
    over ``j = max(0, k-n/2+1) .. min(n-1, k+n/2)``: O(n) work from one prefix
    sum of ``|g|^2``.

    A norm that overflows, or underflows to zero from a nonzero transform,
    raises :class:`NumericalError`.
    """
    if q is None:
        q = p
    require_indices(p, q, s)
    if p == q == 2 and s == 0:
        # the norm is defined through the short-time transform, so it has
        # the transform's domain and messages
        _require_selfdual_1d(f, g, "grid_stft")
        n, h = f.spec.n, f.spec.h
        mass = np.concatenate(([0.0], np.cumsum(np.abs(g.values) ** 2)))
        k = np.arange(n)
        G = mass[np.minimum(k + n // 2 + 1, n)] - mass[np.maximum(k - n // 2 + 1, 0)]
        return float(h * np.sqrt(np.abs(f.values) ** 2 @ G))
    V = grid_stft(f, g)
    n, h = V.spec.n, V.spec.h
    M = np.abs(V.values)
    with np.errstate(over="ignore", invalid="ignore"):
        if s != 0:
            x = V.spec.axis()
            M *= (1.0 + x[:, None] ** 2 + x[None, :] ** 2) ** (s / 2.0)
        inner = _lp_axis(M, p, h)          # over x, for each xi
        outer = float(_lp_axis(inner, q, 1.0 / (n * h)))
    if not np.isfinite(outer) or (outer == 0 and M.any()):
        raise NumericalError(f"modulation norm at p = {p}, q = {q}, s = {s} "
                             "leaves the floating-point range")
    return outer


def contraction_check(word, f):
    """Measured L^2 ratio ``||W f|| / ||f||`` of a word on samples.

    Returns ``(ratio, strict)`` where ``strict`` reports a genuine norm
    decrease (ratio below ``1 - 1e-8``).
    """
    r0 = norm2(f)
    if r0 == 0:
        raise ValidationError("contraction_check needs a nonzero function")
    ratio = norm2(grid_apply_word(word, f)) / r0
    return float(ratio), bool(ratio < 1.0 - 1e-8)
