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
* the Fourier token is an exact centered DFT (the fftshift sandwich
  evaluates ``sum_k f_k exp(-2 pi i x_k xi_m)`` with no phase residue);
* a rescale by ``sigma`` is a change of units: the output keeps the
  samples (scaled, and parity-flipped when ``sigma < 0``) on the spacing
  ``h/|sigma|``, so after a rescale a grid is generally not self-dual;
* the remaining generators reduce to these.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedRescale, ValidationError
from .gausscalc import eval_state
from .sympcore import Token, factor_R_theta, word_dim

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
    "grid_stft",
    "discrete_modnorm",
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
    negligible at the boundary (the DFT then aliases them)."""
    vals = eval_state(f, spec.points())
    peak = float(np.max(np.abs(vals)))
    if peak > 0:
        if spec.d == 1:
            edge = max(abs(vals[0]), abs(vals[-1]))
        else:
            edge = max(float(np.max(np.abs(vals[0, :]))), float(np.max(np.abs(vals[-1, :]))),
                       float(np.max(np.abs(vals[:, 0]))), float(np.max(np.abs(vals[:, -1]))))
        if edge > 1e-12 * peak:
            warnings.warn("state is not negligible at the grid boundary; "
                          "sampled transforms will alias", stacklevel=2)
    return GridFn(spec, vals)


# ----------------------------------------------------------------------------
# centered transforms
# ----------------------------------------------------------------------------

def _cdft(a, axis):
    """Exact centered DFT: ``sum_k a_k exp(-2 pi i (k-n/2)(m-n/2)/n)``."""
    return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(a, axes=axis), axis=axis), axes=axis)


def _cidft(a, axis):
    """Inverse of :func:`_cdft` (includes the 1/n)."""
    return np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(a, axes=axis), axis=axis), axes=axis)


def grid_fourier(f):
    """Fourier token on samples: ``h^d i^{-d/2}`` times the centered DFT.

    Output lives on the dual grid; on self-dual grids that is the same grid,
    and the standard Gaussian is a fixed point up to the ``i^{-d/2}`` phase.
    """
    v = f.values
    for ax in range(f.spec.d):
        v = _cdft(v, ax)
    v = v * f.spec.h ** f.spec.d * np.exp(-0.25j * np.pi * f.spec.d)
    return GridFn(f.spec.dual(), v)


def grid_fourier_inverse(f):
    v = f.values * np.exp(0.25j * np.pi * f.spec.d)
    for ax in range(f.spec.d):
        v = _cidft(v, ax)
    out = f.spec.dual()
    return GridFn(out, v / out.h ** out.d)


# ----------------------------------------------------------------------------
# token action
# ----------------------------------------------------------------------------

def _chirp_values(spec, Q):
    x = spec.axis()
    if spec.d == 1:
        quad = Q[0, 0] * x * x
    else:
        quad = (Q[0, 0] * x[:, None] ** 2 + 2 * Q[0, 1] * x[:, None] * x[None, :]
                + Q[1, 1] * x[None, :] ** 2)
    return np.exp(1j * np.pi * quad)


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
        scale = max(1.0, float(np.max(np.abs(E))))
        if abs(E[0, 1]) + abs(E[1, 0]) <= 1e-12 * scale:
            factors = [E[0, 0], E[1, 1]]
        elif abs(E[0, 0]) + abs(E[1, 1]) <= 1e-12 * scale:
            # f(E x) with antidiagonal E factors through an axis swap followed by
            # the diagonal rescale diag(E[1,0], E[0,1])
            v = v.T
            factors = [E[1, 0], E[0, 1]]
        else:
            raise UnsupportedRescale("2-d grids support diagonal or antidiagonal rescales only")
        if abs(abs(factors[0]) - abs(factors[1])) > 1e-12 * abs(factors[0]):
            raise UnsupportedRescale("2-d grids carry one spacing: both rescale "
                                     "factors need the same magnitude")
    parity = (-np.arange(spec.n)) % spec.n
    for axis, sigma in enumerate(factors):
        if sigma < 0:
            v = np.take(v, parity, axis=axis)
            np.moveaxis(v, axis, 0)[0] = 0
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
        return GridFn(f.spec, f.values * _chirp_values(f.spec, t.matrix_param()))
    if t.op == "fourier":
        return grid_fourier(f)
    if t.op == "rescale":
        return _apply_rescale(f, t.matrix_param().real, t.maslov)
    if t.op == "multiplier":
        # frequency-side symbol exp(-i pi P zeta.zeta); Im P <= 0 keeps it bounded
        P = t.matrix_param()
        g = grid_fourier(f)
        g = GridFn(g.spec, g.values * _chirp_values(g.spec, -P))
        return grid_fourier_inverse(g)
    if t.op == "atom_r":
        return grid_apply_word(factor_R_theta(t.vector_param()), f)
    if t.op == "atom_p":
        Q = 1j * np.diag(t.vector_param())
        return GridFn(f.spec, f.values * _chirp_values(f.spec, Q))
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

def _upsample2(vals, n):
    """Band-limited refinement to step h/2 on 2n points (same interval)."""
    F = _cdft(vals, 0)
    pad = np.zeros(2 * n, dtype=complex)
    pad[n // 2: n // 2 + n] = F
    return 2.0 * _cidft(pad, 0)


def _require_selfdual_1d(f, g, who):
    if f.spec.d != 1 or g.spec.d != 1:
        raise ValidationError(f"{who} takes one-dimensional grid functions")
    if f.spec != g.spec:
        raise ValidationError(f"{who} needs both inputs on the same grid")
    if not f.spec.self_dual:
        raise ValidationError(f"{who} needs a self-dual grid (n h^2 = 1) so both "
                              "axes of the output share one spacing")


def grid_wigner(f, g=None):
    """Cross-Wigner distribution on a self-dual grid.

    ``W[i, m] = h * sum_k f(x_i + y_k/2) conj(g(x_i - y_k/2))
    exp(-2 pi i y_k xi_m)`` with the half-step values taken from the
    band-limited refinement of the samples.  Output indices are
    ``(x, xi)`` on the same grid.
    """
    if g is None:
        g = f
    _require_selfdual_1d(f, g, "grid_wigner")
    n, h = f.spec.n, f.spec.h
    f2 = _upsample2(f.values, n)
    g2 = _upsample2(g.values, n)
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    J = 2 * i + k - n // 2
    Jp = 2 * i - k + n // 2
    okJ = (0 <= J) & (J < 2 * n)
    okJp = (0 <= Jp) & (Jp < 2 * n)
    C = np.where(okJ, f2[np.clip(J, 0, 2 * n - 1)], 0) \
        * np.conj(np.where(okJp, g2[np.clip(Jp, 0, 2 * n - 1)], 0))
    W = h * _cdft(C, 1)
    return GridFn(GridSpec(2, n, h), W)


def grid_stft(f, g):
    """Short-time Fourier transform ``V[i, m] = h * sum_k f(y_k)
    conj(g(y_k - x_i)) exp(-2 pi i y_k xi_m)`` with window ``g`` (no
    wrap-around: the window is zero off the grid)."""
    _require_selfdual_1d(f, g, "grid_stft")
    n, h = f.spec.n, f.spec.h
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    Jg = k - i + n // 2
    ok = (0 <= Jg) & (Jg < n)
    G = np.where(ok, g.values[np.clip(Jg, 0, n - 1)], 0)
    C = f.values[None, :] * np.conj(G)
    V = h * _cdft(C, 1)
    return GridFn(GridSpec(2, n, h), V)


def _lp_axis(M, p, weight, axis):
    if np.isinf(p):
        return np.max(M, axis=axis)
    return (np.sum(M ** p, axis=axis) * weight) ** (1.0 / p)


def discrete_modnorm(f, g, p=1.0, q=None, s=0.0):
    """Discrete mixed-norm modulation quantity of ``f`` against window ``g``.

    Computes the short-time transform, applies the weight
    ``(1 + |x|^2 + |xi|^2)^{s/2}``, takes the ``l^p`` norm over the time
    axis (with measure ``h``) and then the ``l^q`` norm over the frequency
    axis (measure ``1/(n h)``); ``inf`` means the maximum.
    """
    if q is None:
        q = p
    V = grid_stft(f, g)
    n, h = V.spec.n, V.spec.h
    x = V.spec.axis()
    wt = (1.0 + x[:, None] ** 2 + x[None, :] ** 2) ** (s / 2.0)
    M = np.abs(V.values) * wt
    inner = _lp_axis(M, p, h, axis=0)          # over x, for each xi
    outer = _lp_axis(inner, q, 1.0 / (n * h), axis=0)
    return float(outer)


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
