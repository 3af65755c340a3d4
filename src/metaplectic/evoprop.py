"""Flows of complex quadratic Hamiltonians and their mapping bounds.

A quadratic Hamiltonian ``pi Q z . z`` with complex symmetric ``Q`` and
``Re Q >= 0`` generates a contraction semigroup whose phase-space flow
``S_t = exp(-2 i t J Q)`` stays inside the positive complex symplectic
matrices.  This module builds the flow, splits it into its real unitary and
exponential-type factors, produces the Weyl symbol of the exponential
factor in closed Gaussian form, and evaluates norm bounds for the induced
operators on modulation-type spaces, together with grid diagnostics and a
weighted cone-localization functional used by the ``evolve`` driver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnsupportedShape, ValidationError
from .gausscalc import (
    GaussianState,
    apply_matrix,
    apply_word,
    inner_product,
    norm,
    standard_gaussian,
    wigner_gaussian,
)
from .gridlab import GridSpec, discrete_modnorm, grid_fourier, require_indices, sample
from .sympcore import (
    atom_p,
    atom_r,
    atomic_decompose,
    classify_positivity,
    from_blocks,
    is_symplectic,
    matrix_polar,
    negligible,
    omega,
    semidefinite,
    sym_part,
    symplectic_svd,
)

__all__ = [
    "QuadraticHamiltonian",
    "hamilton_map",
    "propagator_matrix",
    "polar_in_time",
    "weyl_symbol_Z",
    "weyl_pairing",
    "c_weight",
    "mod_norm_bound_U",
    "mod_norm_bound_Z",
    "combined_bound",
    "heat_hamiltonian",
    "hermite_hamiltonian",
    "harmonic_hamiltonian",
    "harmonic_flow",
    "evolve_trajectory",
    "EVOLVE_COLUMNS",
    "cone_profile",
]


def _require_dim(d):
    # checked before any array of that size is built
    if d < 1:
        raise ValidationError("dimension must be >= 1")


@dataclass
class QuadraticHamiltonian:
    """Dimension ``d`` and the ``2d x 2d`` complex symmetric coefficient
    matrix of the Hamiltonian ``pi Q z . z``; ``Re Q >= 0`` is required for
    the evolution to be forward-bounded."""

    d: int
    Qmat: np.ndarray

    def __post_init__(self):
        _require_dim(self.d)
        Q = np.asarray(self.Qmat, dtype=complex)
        if Q.shape != (2 * self.d, 2 * self.d):
            raise ValidationError(f"coefficient matrix must be {2*self.d} x {2*self.d}")
        Q = sym_part(Q, "coefficient matrix", tol=1e-10)
        if not semidefinite(Q.real, 1e-10):
            raise ValidationError("forward evolution needs Re Q >= 0")
        self.Qmat = Q


def hamilton_map(H):
    """The linear map ``F = J Q`` driving the phase-space flow."""
    return omega(H.d) @ H.Qmat


# numerator coefficients of the [13/13] Pade approximant to exp, and the
# 1-norm up to which it is accurate to unit roundoff (Higham, SIMAX 26, 2005)
_PADE13 = (64764752532480000., 32382376266240000., 7771770303897600.,
           1187353796428800., 129060195264000., 10559470521600., 670442572800.,
           33522128640., 1323241920., 40840800., 960960., 16380., 182., 1.)
_THETA13 = 5.371920351148152


def _expm(A):
    """Matrix exponential by [13/13] Pade scaling and squaring.

    ``A`` is scaled by ``2^-s`` into the region where the approximant is
    accurate, the approximant ``(V - W)^{-1} (V + W)`` is formed from the
    odd part ``W`` and the even part ``V``, and the result is squared ``s``
    times.  A non-finite ``A``, or an exponential past the float range,
    gives a non-finite result."""
    A = np.asarray(A, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        norm1 = float(np.abs(A).sum(axis=0).max())
        if not np.isfinite(norm1):
            return np.full_like(A, np.nan)
        s = max(0, math.ceil(math.log2(norm1 / _THETA13))) if norm1 > 0 else 0
        A = A / 2.0 ** s
        b = _PADE13
        I = np.eye(A.shape[0])
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        W = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
        R = np.linalg.solve(V - W, V + W)
        for _ in range(s):
            R = R @ R
    return R


def propagator_matrix(H, t):
    """Flow matrix ``S_t = exp(-2 i t F)``; complex symplectic, and positive
    for ``t >= 0``.  The exponential is the numpy Pade routine
    :func:`_expm`.  A finite time's flow is symplectic: a computed one that
    fails the test (overflowed, or spoiled by squaring) is a numerical error."""
    if not np.isfinite(t):
        raise ValidationError("flow time must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # t F past the float range
        S = _expm(-2j * t * hamilton_map(H))
    if not is_symplectic(S):
        raise NumericalError(f"flow at t = {t:g} is not symplectic within tolerance 1e-10")
    return S


def polar_in_time(H, t):
    """Polar pieces ``S_t = U_t Z_t`` of the flow at time ``t``."""
    return matrix_polar(propagator_matrix(H, t))


def _sigma_slots(theta, delta):
    # x slots carry the shear parameter where present, both slots carry
    # 2 tanh(theta/2) on rotation-type coordinates (supports are disjoint)
    sx = delta + 2.0 * np.tanh(theta / 2)
    sxi = 2.0 * np.tanh(theta / 2)
    return np.r_[sx, sxi]


def weyl_symbol_Z(Z):
    """Weyl symbol of the exponential-type factor, as a Gaussian on the
    doubled phase space.

    With ``Z = V^{-1} Xi V`` in atomic normal form the symbol is
    ``prod cosh(theta_j/2)^{-1} exp(-pi (Sigma V z).(V z))`` where ``Sigma``
    holds ``2 tanh(theta_j/2)`` in both slots of a rotation coordinate and
    ``delta_j`` in the position slot of a shear coordinate; equivalently a
    Gaussian state with ``Q = i V^T Sigma V`` (degenerate directions
    allowed: the symbol need not decay along them).
    """
    return _weyl_symbol(*atomic_decompose(Z))


def _weyl_symbol(V, theta, delta):
    """:func:`weyl_symbol_Z` from the normal form ``(V, theta, delta)``."""
    d = theta.size
    Sig = np.diag(_sigma_slots(theta, delta))
    Q = 1j * V.T @ Sig @ V
    Q = (Q + Q.T) / 2
    c = float(np.prod(1.0 / np.cosh(theta / 2)))
    return GaussianState(2 * d, c, Q, np.zeros(2 * d), allow_degenerate=True)


def weyl_pairing(Z, f, g):
    """Both sides of the defining pairing ``<a, W(g, f)> = <Z_hat f, g>``.

    The right-hand side is evaluated through the normal form,
    ``<Xi_hat(V_hat f), V_hat g>``: the frame appears once in each slot and
    the atom acts by exact closed-form tokens.  ``apply_matrix`` fixes its
    determinant root once per matrix, so both calls realize one operator
    for the frame and its sign cancels between the two slots.
    Returns ``(lhs, rhs)``.
    """
    V, theta, delta = atomic_decompose(Z)
    lhs = inner_product(_weyl_symbol(V, theta, delta), wigner_gaussian(g, f))
    fV, gV = apply_matrix(V, f), apply_matrix(V, g)
    rhs = inner_product(apply_word([atom_r(theta), atom_p(delta)], fV), gV)
    return lhs, rhs


# ----------------------------------------------------------------------------
# norm bounds
# ----------------------------------------------------------------------------

@functools.cache
def _laguerre_rule():
    """The 80-node Gauss-Laguerre rule, built on first use (2-3 ms) and
    shared read-only."""
    from numpy.polynomial.laguerre import laggauss

    u, w = laggauss(80)
    u.flags.writeable = w.flags.writeable = False
    return u, w


_TINY = np.finfo(float).tiny


def _in_range(x, what):
    """``x``, a sum or product of positive factors, as a float; a value
    that left the floating-point range is a :class:`NumericalError`: inf,
    nan from inf times zero, or a value below the smallest normal float
    (zero or subnormal), which positive factors reach only by underflow."""
    if not (np.isfinite(x) and x >= _TINY):
        raise NumericalError(f"{what} leaves the floating-point range")
    return float(x)


def c_weight(s, d=1):
    """Weight constant ``(2 pi^d / Gamma(d)) int_0^inf e^{-pi r^2}
    (1+r^2)^{s/2} r^{2d-1} dr`` (equals 1 at ``s = 0`` in every dimension).

    With ``u = pi r^2`` it is ``(1/Gamma(d)) int_0^inf e^{-u} u^{d-1}
    (1 + u/pi)^{s/2} du``, taken by 80-node Gauss-Laguerre quadrature."""
    if s == 0:
        return 1.0
    u, w = _laguerre_rule()
    with np.errstate(over="ignore", invalid="ignore"):
        total = w @ (u ** (d - 1) * (1 + u / np.pi) ** (s / 2))
    return _in_range(total, f"weight constant at s = {s}") / math.gamma(d)


def mod_norm_bound_U(U, p=2.0, q=None, s=0.0):
    """Mapping bound of a real metaplectic operator between modulation-type
    spaces with indices ``(p, q)`` and polynomial weight ``s``:

        |det A|^{1/p - 1/q} sigma_max(U)^{2s} prod_j ((1+sigma_j^2)/sigma_j)^{1/2}

    over the symplectic singular values ``sigma_j >= 1``.  Unequal indices
    are only reachable for upper block-triangular ``U`` (no position-
    frequency mixing); otherwise :class:`UnsupportedShape` is raised.
    ``p`` and ``q`` must lie in ``(0, inf]`` and ``s`` must be finite; a
    bound that leaves the floating-point range is a :class:`NumericalError`.
    """
    q = p if q is None else q
    require_indices(p, q, s)
    U = np.asarray(U, dtype=float)
    W, sig, Om = symplectic_svd(U)
    d = sig.size
    if p != q and not negligible(U[d:, :d], U, 1e-10):
        raise UnsupportedShape("index-changing bounds need a vanishing lower-left block")
    growth = np.prod(np.sqrt((1 + sig ** 2) / sig))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        detfac = np.abs(np.linalg.det(U[:d, :d])) ** (1.0 / p - 1.0 / q) if p != q else 1.0
        return _in_range(detfac * sig[0] ** (2 * s) * growth, "modulation bound of U")


def mod_norm_bound_Z(Z, s=0.0):
    """Mapping bound of the exponential-type factor on the weighted space of
    order ``s``: the symbol amplitude times ``c_weight(s)`` and the weight
    growth over the symbol's decay ellipsoid; a bound that leaves the
    floating-point range is a :class:`NumericalError`."""
    V, theta, delta = atomic_decompose(Z)
    d = theta.size
    amp = np.prod(1.0 / np.cosh(theta / 2))
    M = np.diag(np.sqrt(_sigma_slots(theta, delta))) @ np.linalg.inv(V)
    smax = np.linalg.svd(M, compute_uv=False)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        bound = c_weight(s, d) * amp * (1 + smax ** 2) ** (s / 2)
    return _in_range(bound, "modulation bound of Z")


def combined_bound(S, p=2.0, q=None, s=0.0):
    """Norm bound for the full propagator via its polar factors; a product
    that leaves the floating-point range is a :class:`NumericalError`."""
    pol = matrix_polar(S)
    return _in_range(mod_norm_bound_U(pol.U, p, q, s) * mod_norm_bound_Z(pol.Z, s),
                     "combined modulation bound")


# ----------------------------------------------------------------------------
# example Hamiltonians
# ----------------------------------------------------------------------------

def heat_hamiltonian(alpha=1.0, beta=1.0, d=1):
    """Heat-type generator with dispersion ``alpha`` and diffusion strength
    ``beta``: the coefficient matrix is ``pi (beta - i alpha) I`` in the
    frequency slot, and the flow is the complex shear
    ``S_t = [[I, -2 pi (alpha + i beta) t I], [0, I]]``.  The L^2 norm of
    the standard Gaussian decays as ``(1 + 2 pi beta t)^{-d/4}``; the
    dispersion alone leaves it unchanged."""
    _require_dim(d)
    Q = np.zeros((2 * d, 2 * d), dtype=complex)
    Q[d:, d:] = np.pi * (beta - 1j * alpha) * np.eye(d)
    return QuadraticHamiltonian(d, Q)


def hermite_hamiltonian(alpha=1.0, beta=0.0, d=1):
    """Isotropic oscillator semigroup generator ``pi (alpha + i beta) |z|^2``;
    the flow is a commuting product of a rotation (speed ``2 pi beta``) and a
    rotation-type atom (rate ``2 pi alpha``)."""
    _require_dim(d)
    return QuadraticHamiltonian(d, np.pi * (alpha + 1j * beta) * np.eye(2 * d))


def harmonic_hamiltonian(d1=1, d2=1):
    """Mixed model with ``d1`` coordinates of ``x^2 + xi^2`` type and ``d2``
    of ``i(x^2 + xi^2)`` type: hyperbolic and elliptic blocks side by side."""
    if min(d1, d2) < 0:
        raise ValidationError("block dimensions must be >= 0")
    _require_dim(d1 + d2)
    dc = np.r_[np.ones(d1), 1j * np.ones(d2)]
    return QuadraticHamiltonian(d1 + d2, np.diag(np.r_[dc, dc]))


def harmonic_flow(d1, d2, t):
    """Closed form of the mixed-model flow: each hyperbolic coordinate
    evolves by ``[[cosh 2t, -i sinh 2t], [i sinh 2t, cosh 2t]]`` and each
    elliptic one by the rotation of angle ``2t``."""
    d = d1 + d2
    A = np.zeros((d, d), dtype=complex)
    B = np.zeros((d, d), dtype=complex)
    C = np.zeros((d, d), dtype=complex)
    for j in range(d1):
        A[j, j] = np.cosh(2 * t)
        B[j, j] = -1j * np.sinh(2 * t)
        C[j, j] = 1j * np.sinh(2 * t)
    for j in range(d1, d):
        A[j, j] = np.cos(2 * t)
        B[j, j] = np.sin(2 * t)
        C[j, j] = -np.sin(2 * t)
    return from_blocks(A, B, C, A.copy())


# ----------------------------------------------------------------------------
# trajectory diagnostics
# ----------------------------------------------------------------------------

EVOLVE_COLUMNS = ["t", "im_frobenius", "min_eig", "polar_residual",
                  "bound_u", "bound_z", "bound_combined",
                  "l2_ratio", "modnorm_ratio"]


def evolve_trajectory(H, times, p=2.0, q=None, s=0.0, grid_n=256):
    """Diagnostics of the flow along a time grid.

    Each row records the size of ``Im S_t``, the positivity certificate's
    smallest eigenvalue, the polar residual, the three norm bounds, the
    exact L^2 growth of the standard Gaussian under the propagator, and (in
    dimension one) the discrete modulation-norm growth on a self-dual grid.
    One rule (:func:`_cell`) keeps the sweep going: a cell is NaN when its
    computation raises :class:`ValidationError` or :class:`NumericalError`
    (a degenerate decomposition, a bound that overflows or underflows), or
    when a value it needs failed, so a time whose flow matrix fails the
    symplectic check is a row of NaN.  ``min_eig`` is
    absolute: the certificate cancels terms of size ``||S||^2``, so it
    loses digits as the flow grows (for a long hermite flow it can read
    negative where the exact value is 1/2).  ``p`` and ``q`` must lie in
    ``(0, inf]`` and ``s`` must be finite.
    """
    qq = p if q is None else q
    require_indices(p, qq, s)
    phi = standard_gaussian(H.d)
    phi_norm = norm(phi)
    gspec = f0 = base = None
    if H.d == 1:
        gspec = GridSpec(1, grid_n, 1.0 / np.sqrt(grid_n))
        f0 = sample(phi, gspec)
        base = discrete_modnorm(f0, f0, p=p, q=qq, s=s)
    rows = []
    for t in times:
        S = _cell(lambda: propagator_matrix(H, float(t)))
        pol = _cell(lambda: matrix_polar(S), S)
        ft = _cell(lambda: apply_matrix(S, phi), S)
        row = {
            "t": float(t),
            "im_frobenius": _cell(lambda: float(np.linalg.norm(S.imag)), S),
            "min_eig": _cell(lambda: classify_positivity(S).min_eigenvalue, S),
            "polar_residual": _cell(lambda: pol.residual, pol),
            "bound_u": _cell(lambda: mod_norm_bound_U(pol.U, p, qq, s), pol),
            "bound_z": _cell(lambda: mod_norm_bound_Z(pol.Z, s), pol),
            "l2_ratio": _cell(lambda: norm(ft) / phi_norm, ft),
            "modnorm_ratio": _cell(
                lambda: discrete_modnorm(sample(ft, gspec), f0, p=p, q=qq, s=s) / base, ft, gspec),
        }
        row["bound_combined"] = _cell(
            lambda: _in_range(row["bound_u"] * row["bound_z"], "combined modulation bound"),
            row["bound_u"], row["bound_z"])
        rows.append({k: float("nan") if row[k] is None else row[k] for k in EVOLVE_COLUMNS})
    return rows


def _cell(compute, *needs):
    """The one NaN rule of a trajectory row: the value of ``compute()``, or
    ``None`` (a NaN cell) when a value it needs is ``None`` or when it raises
    :class:`ValidationError` or :class:`NumericalError`."""
    if any(v is None for v in needs):
        return None
    try:
        return compute()
    except (ValidationError, NumericalError):
        return None


# ----------------------------------------------------------------------------
# cone localization
# ----------------------------------------------------------------------------

def cone_profile(W, z0, aperture, s=0.0):
    """Weighted squared mass of a phase-space grid function over the cone of
    half-angle ``aperture`` around the direction of ``z0``:

        int_cone (1 + |z|^2)^s |W(z)|^2 dz.

    Apertures ``>= pi`` cover the whole plane and reduce to a plain Riemann
    sum.  Smaller cones are integrated in polar coordinates by a tensor
    Gauss-Legendre rule with ``m = max(64, n // 4)`` nodes in the radius
    over ``[0, n h / 2]`` (the inradius of the grid) and in the angle over
    the exact arc ``[theta0 - aperture, theta0 + aperture]``.  At the nodes
    the integrand is the band-limited interpolant of the samples, evaluated
    exactly as the inverse Fourier integral of ``grid_fourier(W)`` summed
    over the dual grid,

        h_dual^2 sum_{k,l} What[k, l] exp(2 pi i (X zeta_k + Y zeta_l)),

    one radial node at a time: an ``(m x n) @ (n x n)`` product and a
    row-wise dot, so the exponential tables hold ``m x n`` entries (1 MB at
    n = 512) where all nodes at once would hold ``m^2 x n`` (hundreds of MB).
    The modulus drops the ``i^{-1}`` phase of the Fourier token.
    """
    if W.spec.d != 2:
        raise ValidationError("cone localization needs a phase-space (d = 2) grid")
    n, h = W.spec.n, W.spec.h
    if aperture >= np.pi:
        mass = np.abs(W.values) ** 2
        if s != 0:
            x2 = W.spec.axis() ** 2
            mass = (1 + (x2[:, None] + x2[None, :])) ** s * mass
        return float(np.sum(mass) * h * h)
    z0 = np.asarray(z0, dtype=float).ravel()
    if z0.size != 2 or not np.hypot(z0[0], z0[1]) > 0:
        raise ValidationError("cone direction must be a nonzero phase-space point")
    if not aperture > 0:
        raise ValidationError("cone aperture must be positive")
    from numpy.polynomial.legendre import leggauss

    t, w = leggauss(max(64, n // 4))
    rmax = n * h / 2
    r = rmax / 2 * (t + 1)
    phi = float(np.arctan2(z0[1], z0[0])) + aperture * t
    F = grid_fourier(W)
    phase = 2j * np.pi * F.spec.axis()
    cos, sin = np.cos(phi), np.sin(phi)
    mag2 = np.empty((r.size, phi.size))
    for a, ra in enumerate(r):
        vals = np.einsum("pl,pl->p", np.exp(np.outer(ra * cos, phase)) @ F.values,
                         np.exp(np.outer(ra * sin, phase)))
        mag2[a] = np.abs(vals * F.spec.h ** 2) ** 2
    radial = (1 + r ** 2) ** s * r * (rmax / 2) * w
    return float(radial @ mag2 @ (aperture * w))
