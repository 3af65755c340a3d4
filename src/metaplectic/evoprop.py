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

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.integrate import quad
from scipy.ndimage import map_coordinates
from scipy.special import gamma

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
from .gridlab import GridSpec, discrete_modnorm, sample
from .sympcore import (
    atom_p,
    atom_r,
    atomic_decompose,
    classify_positivity,
    from_blocks,
    matrix_polar,
    omega,
    require_symplectic,
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


@dataclass
class QuadraticHamiltonian:
    """Dimension ``d`` and the ``2d x 2d`` complex symmetric coefficient
    matrix of the Hamiltonian ``pi Q z . z``; ``Re Q >= 0`` is required for
    the evolution to be forward-bounded."""

    d: int
    Qmat: np.ndarray

    def __post_init__(self):
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


def propagator_matrix(H, t):
    """Flow matrix ``S_t = exp(-2 i t F)``; complex symplectic, and positive
    for ``t >= 0``."""
    S = sla.expm(-2j * t * hamilton_map(H))
    return require_symplectic(S, what="propagator matrix")


def polar_in_time(H, t):
    """Polar pieces ``S_t = U_t Z_t`` of the flow at time ``t``."""
    return matrix_polar(propagator_matrix(H, t))


def _sigma_slots(theta, delta):
    # x slots carry the shear parameter where present, both slots carry
    # 2 tanh(theta/2) on rotation-type coordinates (supports are disjoint)
    sx = delta + 2.0 * np.tanh(theta / 2)
    sxi = 2.0 * np.tanh(theta / 2)
    return np.r_[sx, sxi]


def weyl_symbol_Z(Z, tol=1e-9):
    """Weyl symbol of the exponential-type factor, as a Gaussian on the
    doubled phase space.

    With ``Z = V^{-1} Xi V`` in atomic normal form the symbol is
    ``prod cosh(theta_j/2)^{-1} exp(-pi (Sigma V z).(V z))`` where ``Sigma``
    holds ``2 tanh(theta_j/2)`` in both slots of a rotation coordinate and
    ``delta_j`` in the position slot of a shear coordinate; equivalently a
    Gaussian state with ``Q = i V^T Sigma V`` (degenerate directions
    allowed: the symbol need not decay along them).
    """
    return _weyl_symbol(*atomic_decompose(Z, tol))


def _weyl_symbol(V, theta, delta):
    """:func:`weyl_symbol_Z` from the normal form ``(V, theta, delta)``."""
    d = theta.size
    Sig = np.diag(_sigma_slots(theta, delta))
    Q = 1j * V.T @ Sig @ V
    Q = (Q + Q.T) / 2
    c = float(np.prod(1.0 / np.cosh(theta / 2)))
    return GaussianState(2 * d, c, Q, np.zeros(2 * d), allow_degenerate=True)


def weyl_pairing(Z, f, g, tol=1e-9):
    """Both sides of the defining pairing ``<a, W(g, f)> = <Z_hat f, g>``.

    The right-hand side is evaluated through the normal form,
    ``<Xi_hat(V_hat f), V_hat g>``: the frame appears once in each slot and
    the atom acts by exact closed-form tokens.  ``apply_matrix`` realizes
    one operator for the frame, so its sign cancels between the two slots.
    Returns ``(lhs, rhs)``.
    """
    V, theta, delta = atomic_decompose(Z, tol)
    lhs = inner_product(_weyl_symbol(V, theta, delta), wigner_gaussian(g, f))
    fV = apply_matrix(V, f)
    rhs = inner_product(apply_word([atom_r(theta), atom_p(delta)], fV), apply_matrix(V, g))
    return lhs, rhs


# ----------------------------------------------------------------------------
# norm bounds
# ----------------------------------------------------------------------------

def c_weight(s, d=1):
    """Weight constant ``(2 pi^d / Gamma(d)) int_0^inf e^{-pi r^2}
    (1+r^2)^{s/2} r^{2d-1} dr`` (equals 1 at ``s = 0`` in every dimension)."""
    val, _err = quad(lambda r: np.exp(-np.pi * r * r) * (1 + r * r) ** (s / 2)
                     * r ** (2 * d - 1), 0, np.inf)
    return 2 * np.pi ** d / gamma(d) * val


def mod_norm_bound_U(U, p=2.0, q=None, s=0.0):
    """Mapping bound of a real metaplectic operator between modulation-type
    spaces with indices ``(p, q)`` and polynomial weight ``s``:

        |det A|^{1/p - 1/q} sigma_max(U)^{2s} prod_j ((1+sigma_j^2)/sigma_j)^{1/2}

    over the symplectic singular values ``sigma_j >= 1``.  Unequal indices
    are only reachable for upper block-triangular ``U`` (no position-
    frequency mixing); otherwise :class:`UnsupportedShape` is raised.
    """
    q = p if q is None else q
    U = np.asarray(U, dtype=float)
    W, sig, Om = symplectic_svd(U)
    d = sig.size
    if p != q:
        C = U[d:, :d]
        if np.linalg.norm(C) > 1e-10 * max(1.0, np.linalg.norm(U)):
            raise UnsupportedShape("index-changing bounds need a vanishing lower-left block")
        detfac = float(np.abs(np.linalg.det(U[:d, :d]))) ** (1.0 / p - 1.0 / q)
    else:
        detfac = 1.0
    growth = float(np.prod(np.sqrt((1 + sig ** 2) / sig)))
    return detfac * float(sig[0]) ** (2 * s) * growth


def mod_norm_bound_Z(Z, s=0.0):
    """Mapping bound of the exponential-type factor on the weighted space of
    order ``s``: the symbol amplitude times ``c_weight(s)`` and the weight
    growth over the symbol's decay ellipsoid."""
    V, theta, delta = atomic_decompose(Z)
    d = theta.size
    amp = float(np.prod(1.0 / np.cosh(theta / 2)))
    M = np.diag(np.sqrt(_sigma_slots(theta, delta))) @ np.linalg.inv(V)
    smax = float(np.linalg.svd(M, compute_uv=False)[0])
    return c_weight(s, d) * amp * (1 + smax ** 2) ** (s / 2)


def combined_bound(S, p=2.0, q=None, s=0.0):
    """Norm bound for the full propagator via its polar factors."""
    pol = matrix_polar(S)
    return mod_norm_bound_U(pol.U, p, q, s) * mod_norm_bound_Z(pol.Z, s)


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
    Q = np.zeros((2 * d, 2 * d), dtype=complex)
    Q[d:, d:] = np.pi * (beta - 1j * alpha) * np.eye(d)
    return QuadraticHamiltonian(d, Q)


def hermite_hamiltonian(alpha=1.0, beta=0.0, d=1):
    """Isotropic oscillator semigroup generator ``pi (alpha + i beta) |z|^2``;
    the flow is a commuting product of a rotation (speed ``2 pi beta``) and a
    rotation-type atom (rate ``2 pi alpha``)."""
    return QuadraticHamiltonian(d, np.pi * (alpha + 1j * beta) * np.eye(2 * d))


def harmonic_hamiltonian(d1=1, d2=1):
    """Mixed model with ``d1`` coordinates of ``x^2 + xi^2`` type and ``d2``
    of ``i(x^2 + xi^2)`` type: hyperbolic and elliptic blocks side by side."""
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
    Quantities whose decomposition degenerates at some time are reported as
    NaN for that time rather than aborting the sweep.
    """
    qq = p if q is None else q
    phi = standard_gaussian(H.d)
    base = None
    gspec = None
    if H.d == 1:
        gspec = GridSpec(1, grid_n, 1.0 / np.sqrt(grid_n))
        f0 = sample(phi, gspec)
        base = discrete_modnorm(f0, f0, p=p, q=qq, s=s)
    rows = []
    for t in times:
        S = propagator_matrix(H, float(t))
        rep = classify_positivity(S)
        row = {
            "t": float(t),
            "im_frobenius": float(np.linalg.norm(S.imag)),
            "min_eig": float("nan") if rep.min_eigenvalue is None else rep.min_eigenvalue,
        }
        try:
            pol = matrix_polar(S)
            row["polar_residual"] = pol.residual
        except (ValidationError, NumericalError):
            pol = None
            row["polar_residual"] = float("nan")
        try:
            row["bound_u"] = float("nan") if pol is None else mod_norm_bound_U(pol.U, p, qq, s)
        except NumericalError:
            row["bound_u"] = float("nan")
        try:
            row["bound_z"] = float("nan") if pol is None else mod_norm_bound_Z(pol.Z, s)
        except NumericalError:
            row["bound_z"] = float("nan")
        bu, bz = row["bound_u"], row["bound_z"]
        row["bound_combined"] = bu * bz
        try:
            ft = apply_matrix(S, phi)
            row["l2_ratio"] = norm(ft) / norm(phi)
        except NumericalError:
            ft = None
            row["l2_ratio"] = float("nan")
        if gspec is not None and ft is not None:
            ftg = sample(ft, gspec)
            row["modnorm_ratio"] = discrete_modnorm(ftg, f0, p=p, q=qq, s=s) / base
        else:
            row["modnorm_ratio"] = float("nan")
        rows.append(row)
    return rows


# ----------------------------------------------------------------------------
# cone localization
# ----------------------------------------------------------------------------

def cone_profile(W, z0, aperture, s=0.0):
    """Weighted squared mass of a phase-space grid function over the cone of
    half-angle ``aperture`` around the direction of ``z0``:

        int_cone (1 + |z|^2)^s |W(z)|^2 dz.

    Apertures ``>= pi`` cover the whole plane and reduce to a plain Riemann
    sum.  Smaller cones are integrated in polar coordinates: band-limited
    upsampling by zero-padding the centered spectrum eightfold, cubic
    interpolation onto midpoint radial rings up to ``0.999`` of the inradius,
    and angular cells weighted by their fractional overlap with the arc, so
    the total angular weight is exactly ``2 * aperture`` for every direction.
    """
    if W.spec.d != 2:
        raise ValidationError("cone localization needs a phase-space (d = 2) grid")
    n, h = W.spec.n, W.spec.h
    if aperture >= np.pi:
        pts = W.spec.points()
        r2 = pts[..., 0] ** 2 + pts[..., 1] ** 2
        return float(np.sum((1 + r2) ** s * np.abs(W.values) ** 2) * h * h)
    z0 = np.asarray(z0, dtype=float).ravel()
    if z0.size != 2 or not np.hypot(z0[0], z0[1]) > 0:
        raise ValidationError("cone direction must be a nonzero phase-space point")
    if not aperture > 0:
        raise ValidationError("cone aperture must be positive")
    th0 = float(np.arctan2(z0[1], z0[0]))

    N = 8 * n
    F = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(W.values)))
    Fpad = np.zeros((N, N), dtype=complex)
    lo = (N - n) // 2
    Fpad[lo:lo + n, lo:lo + n] = F
    up = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(Fpad))) * (N / n) ** 2
    hp = h * n / N

    rmax = (n / 2) * h * 0.999
    nr = 4 * n
    dr = rmax / nr
    r = (np.arange(nr) + 0.5) * dr

    nphi = 8 * n
    dphi = 2 * np.pi / nphi
    phic = -np.pi + (np.arange(nphi) + 0.5) * dphi
    loa, hia = th0 - aperture, th0 + aperture
    c = loa + np.mod(phic - loa, 2 * np.pi)
    # fractional overlap of each angular cell with the arc, including the
    # wrapped copy of cells that straddle the arc's starting edge
    wts = np.clip(np.minimum(hia, c + dphi / 2) - np.maximum(loa, c - dphi / 2), 0.0, dphi)
    c2 = c - 2 * np.pi
    wts += np.clip(np.minimum(hia, c2 + dphi / 2) - np.maximum(loa, c2 - dphi / 2), 0.0, dphi)
    keep = wts > 0
    phik, wk = phic[keep], wts[keep]

    X = r[:, None] * np.cos(phik)[None, :]
    Y = r[:, None] * np.sin(phik)[None, :]
    I = X / hp + N / 2
    Jc = Y / hp + N / 2
    vr = map_coordinates(up.real, [I, Jc], order=3, mode="constant", cval=0.0)
    vi = map_coordinates(up.imag, [I, Jc], order=3, mode="constant", cval=0.0)
    mag2 = vr ** 2 + vi ** 2
    radial = (1 + r ** 2) ** s * r * dr
    return float(np.sum(mag2 * radial[:, None] * wk[None, :]))
