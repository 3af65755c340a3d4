"""Covariant time-frequency representations and their classification.

A covariant quadratic representation of signals on R^d is determined by a
``4d x 4d`` complex symplectic matrix acting on the doubled phase space; the
admissible ones form a three-parameter family ``(A11, A13, A21)`` and act on
the Wigner distribution by convolution with a Gaussian-chirp kernel whose
symbol exponent is the ``2d x 2d`` symmetric matrix

    B = [[A13, I/2 - A11], [I/2 - A11^T, -A21]],       Im B <= 0.

This module builds and recognizes such matrices, extracts the convolution
kernel, decides when the representation is a (cross-)spectrogram and
produces its window pair in closed form, recognizes the conjugation-
symmetric subfamily, and assembles the doubled-phase-space operator word of
a metaplectic operator given in split form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericalError, ValidationError
from .gausscalc import GaussianState, apply_token, det_pow, wigner_gaussian
from .gridlab import grid_wigner, grid_wigner_multiplier
from .sympcore import (
    atom_p,
    atom_r,
    chirp,
    classify_positivity,
    from_blocks,
    is_symplectic,
    multiplier,
    negligible,
    rescale,
    require_symplectic,
    scaled_norms,
    semidefinite,
    sym_part,
    tilde,
    word_to_matrix,
)

__all__ = [
    "TFRSpec",
    "build_covariant",
    "is_covariant",
    "symbol_exponent",
    "cohen_kernel",
    "tfr_gaussian",
    "tfr_grid",
    "classify_spectrogram",
    "classify_pure_spectrogram",
    "conjugation_symmetric",
    "SplitWord",
    "split_to_word",
    "wigner_operator",
]


@dataclass
class TFRSpec:
    """A covariant representation: dimension ``d`` and its ``4d x 4d`` matrix."""

    d: int
    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        if A.shape != (4 * self.d, 4 * self.d):
            raise ValidationError(f"representation matrix must be {4*self.d} x {4*self.d}")
        self.A = A


def _bl(A, i, j, d):
    return A[i * d:(i + 1) * d, j * d:(j + 1) * d]


def _params(A, d):
    """The parameter blocks ``(A11, A13, A21)`` of a representation matrix."""
    return _bl(A, 0, 0, d), _bl(A, 0, 2, d), _bl(A, 1, 0, d)


def _covariant_matrix(A11, A13, A21):
    """The ``4d x 4d`` covariant block pattern of a parameter triple."""
    d = A11.shape[0]
    I, O = np.eye(d), np.zeros((d, d))
    rows = [
        [A11, I - A11, A13, A13],
        [A21, -A21, I - A11.T, -A11.T],
        [O, O, I, I],
        [-I, I, O, O],
    ]
    M = np.empty((4 * d, 4 * d), dtype=complex)
    for i, row in enumerate(rows):
        for j, blk in enumerate(row):
            _bl(M, i, j, d)[...] = blk
    return M


def _covariant(spec):
    """The one covariance pass: ``(clauses, (A11, A13, A21), B)``.  The sign
    and symplectic clauses, and ``B``, wait for the pattern clauses."""
    A = spec.A
    blocks = A11, A13, A21 = _params(A, spec.d)
    with np.errstate(over="ignore"):  # a difference that overflows fails
        clauses = {
            "blocks_match_pattern": negligible(A - _covariant_matrix(A11, A13, A21), A, 1e-9),
            "a13_symmetric": negligible(A13 - A13.T, A, 1e-9),
            "a21_symmetric": negligible(A21 - A21.T, A, 1e-9),
        }
    B = None
    if all(clauses.values()):
        B = symbol_exponent(spec)
        clauses["symbol_signature"] = semidefinite(-B.imag, 1e-9)
        clauses["symplectic"] = is_symplectic(A)
    return clauses, blocks, B


def _covariant_params(spec):
    """Parameter blocks and symbol exponent ``B`` of a covariant
    representation, ``B`` being ``None`` where it vanishes (the
    representation is Wigner's); raises otherwise."""
    clauses, blocks, B = _covariant(spec)
    if not all(clauses.values()):
        raise ValidationError(f"not a covariant representation: {clauses}")
    return blocks, (None if negligible(B, spec.A, 1e-12) else B)


def build_covariant(A11, A13, A21):
    """Assemble the covariant representation with parameter blocks
    ``(A11, A13, A21)`` (``A13``, ``A21`` symmetric, ``Im B <= 0``).

    The classical Wigner distribution is ``(I/2, 0, 0)``; the Husimi
    transform is ``(I/2, -iI/2, iI/2)``.
    """
    A11 = np.atleast_2d(np.asarray(A11, dtype=complex))
    A13 = sym_part(np.atleast_2d(np.asarray(A13, dtype=complex)), "A13 parameter", tol=1e-10)
    A21 = sym_part(np.atleast_2d(np.asarray(A21, dtype=complex)), "A21 parameter", tol=1e-10)
    A = _covariant_matrix(A11, A13, A21)
    spec = TFRSpec(A11.shape[0], A)
    if not semidefinite(-symbol_exponent(spec).imag, 1e-10):
        raise ValidationError("symbol exponent needs Im B <= 0; "
                              "this parameter triple is outside the covariant cone")
    rep = classify_positivity(A)
    if rep.klass == "NotSymplectic":
        require_symplectic(A, what="covariant representation matrix")  # raises
    if not rep.positive:
        raise ModelError("covariant matrix with admissible symbol failed the positivity test")
    return spec


def is_covariant(spec):
    """Check the covariant block pattern and the symbol sign condition.

    Returns ``(bool, clauses)``; the clauses record the structural
    equations and the symmetry of the parameter blocks and, once those
    hold, the semidefiniteness of the symbol exponent and the symplectic
    test.  A clause that was not tested is left out.
    """
    clauses, _blocks, _B = _covariant(spec)
    return all(clauses.values()), clauses


def symbol_exponent(spec):
    """The symmetric ``2d x 2d`` exponent ``B`` of the multiplier symbol
    ``exp(-i pi B zeta . zeta)`` relating the representation to Wigner."""
    A11, A13, A21 = _params(spec.A, spec.d)
    I = np.eye(spec.d)
    B = from_blocks(A13, I / 2 - A11, I / 2 - A11.T, -A21)
    return B / 2 + B.T / 2  # halves first: huge entries stay finite


def cohen_kernel(spec):
    """Convolution kernel against the Wigner distribution.

    * ``B`` negligible against the matrix: point mass (the representation
      *is* Wigner) -- ``{"type": "delta"}``.
    * ``Im B`` negative definite: a decaying Gaussian state on the doubled
      phase space, ``{"type": "gaussian", "state": ...}`` with
      ``Q = B^{-1}`` and amplitude ``det(iB)^{-1/2}``.
    * otherwise a pure chirp usable on grids only,
      ``{"type": "chirp", "B": B}``.
    """
    _blocks, B = _covariant_params(spec)
    if B is None:
        return {"type": "delta"}
    if semidefinite(-B.imag, 1e-10, definite=True):
        Q = np.linalg.inv(B)
        Q = (Q + Q.T) / 2
        c = det_pow(1j * B, -0.5)
        return {"type": "gaussian",
                "state": GaussianState(2 * spec.d, c, Q, np.zeros(2 * spec.d))}
    return {"type": "chirp", "B": B}


def tfr_gaussian(spec, f, g=None):
    """The representation applied to a Gaussian pair, in closed form.

    The symbol ``exp(-i pi B zeta.zeta)`` multiplies the Fourier transform
    of ``W(f, g)``, which is the multiplier token of ``B`` on the doubled
    phase space; every step stays inside the Gaussian class.  A spec that
    is not covariant is a :class:`ValidationError`, as in :func:`cohen_kernel`.
    """
    _blocks, B = _covariant_params(spec)
    W = wigner_gaussian(f, g)
    return W if B is None else apply_token(multiplier(B), W)


def tfr_grid(spec, f, g=None):
    """The representation applied to sampled signals (d = 1): the Wigner
    distribution on the self-dual grid, then the multiplier token of the
    symbol exponent ``B``.  Handles chirp-type kernels that have no Gaussian
    convolution form.

    For ``B != 0`` the Wigner distribution is never formed: the
    multiplier's transform over the frequency axis of ``W[i, m] = h (-1)^m
    sum_k K[i, k] exp(-2 pi i k m / n)`` is ``n h K[i, (n/2 - l) mod n]``, a
    row permutation of the lag matrix ``K``, so
    :func:`~metaplectic.gridlab.grid_wigner_multiplier` applies the symbol
    to ``K`` directly (the Cohen-class kernel product in the ambiguity
    domain).  For ``B = 0`` the output is :func:`grid_wigner` itself.  A
    spec that is not covariant is a :class:`ValidationError`, as in
    :func:`cohen_kernel`."""
    if spec.d != 1:
        raise ValidationError("grid route supports d = 1 signals")
    _blocks, B = _covariant_params(spec)
    return grid_wigner(f, g) if B is None else grid_wigner_multiplier(f, g, B)


# ----------------------------------------------------------------------------
# spectrogram recognition
# ----------------------------------------------------------------------------

def _principal_sqrt(z):
    return complex(np.sqrt(complex(z)))


def _window_synthesis(A11, A13):
    """``(X, kappa, q_f, q_g)``: ``X = A13^{-1}``, ``kappa = det(i A13)^{-1/2}``
    and the symmetrized window exponents ``q_f = conj(X A11)`` and
    ``q_g = X (A11 - I)``, of an invertible ``A13``.  An exponent beyond the
    floating-point range comes back inf or nan."""
    X = np.linalg.inv(A13)
    with np.errstate(over="ignore", invalid="ignore"):
        q_f = np.conj(X @ A11)
        q_g = X @ (A11 - np.eye(A11.shape[0]))
        q_f, q_g = (q_f + q_f.T) / 2, (q_g + q_g.T) / 2
    return X, det_pow(1j * A13, -0.5), q_f, q_g


def classify_spectrogram(spec):
    """Decide whether the representation is a cross-spectrogram
    ``A(f, g) = V_phi f * conj(V_psi g)`` and produce the window pair.

    A numerically singular ``A13`` (Wigner's, say) fails the one clause
    ``a13_invertible``.  Otherwise the three structural clauses are: the
    consistency equation ``A21 + A11^T A13^{-1} (A11 - I) = 0`` and the two
    decay signatures ``Im(A11^T A13^{-1}) >= 0`` and
    ``Im(A13^{-1}(A11 - I)) <= 0``.  When they hold the windows are
    Gaussians with exponents

        phi:  -conj(A13^{-1} A11),      psi:  -A13^{-1}(A11 - I)

    and amplitudes ``c1 = conj(sqrt(kappa)) u``, ``c2 = sqrt(kappa) u``
    where ``kappa = det(i A13)^{-1/2}`` and ``u = (kappa/|kappa|)^{1/2}``,
    so that both ``c1 c2 = kappa`` and ``conj(c1) c2 = kappa`` hold; the
    latter is what the factorization identity requires.
    """
    (A11, A13, A21), _B = _covariant_params(spec)
    d = spec.d
    report = {"spectrogram": False, "clauses": {"a13_invertible": False},
              "window_f": None, "window_g": None}
    sv = np.linalg.svd(A13, compute_uv=False)
    if negligible(sv[-1], sv[0], 1e-12):
        return report
    X, kappa, q_f, q_g = _window_synthesis(A11, A13)
    I = np.eye(d)
    top = max(np.linalg.norm(A11), np.linalg.norm(A21), np.linalg.norm(X))
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: fails
        consistency = A21 + A11.T @ X @ (A11 - I)
    report["clauses"] = clauses = {
        "window_consistency": negligible(consistency, top ** 2, 1e-8),
        "window_decay_f": semidefinite((A11.T @ X).imag, 1e-8),
        "window_decay_g": semidefinite(-(X @ (A11 - I)).imag, 1e-8),
    }
    report["spectrogram"] = all(clauses.values())
    if not report["spectrogram"]:
        return report

    u = _principal_sqrt(kappa / abs(kappa))
    c1 = np.conj(_principal_sqrt(kappa)) * u
    c2 = _principal_sqrt(kappa) * u

    def window(c, q):
        degenerate = not semidefinite(-q.imag, 1e-12, definite=True)
        return GaussianState(d, c, -q, np.zeros(d), allow_degenerate=degenerate)

    report["window_f"] = window(c1, q_f)
    report["window_g"] = window(c2, q_g)
    report["kappa"] = kappa
    return report


def classify_pure_spectrogram(spec):
    """Decide whether the representation is a genuine spectrogram
    ``|V_phi f|^2`` (both windows equal) and produce the single window.

    Clauses: ``Re A11 = I/2``; ``A13`` purely imaginary with ``Im A13``
    negative definite, its least eigenvalue beyond ``1e-12`` of the largest
    (floored at one); and, once that holds, the moment consistency
    ``A21 = A13^{-1}/4 + Im(A11)^T A13^{-1} Im(A11)``.  The window amplitude
    is then ``det(i A13)^{-1/4} > 0``.
    """
    (A11, A13, A21), _B = _covariant_params(spec)
    d = spec.d
    top = max(np.linalg.norm(A11), np.linalg.norm(A13), np.linalg.norm(A21))

    # definite at the margin of classify_spectrogram's a13_invertible
    a13_imag = negligible(A13.real, top, 1e-8) and semidefinite(-A13.imag, 1e-12, definite=True)
    clauses = {"re_a11_half": negligible(A11.real - np.eye(d) / 2, top, 1e-8),
               "a13_imaginary": a13_imag}
    if a13_imag:
        X, kappa, q_f, q = _window_synthesis(A11, A13)
        with np.errstate(over="ignore", invalid="ignore"):
            target = X / 4 + A11.imag.T @ X @ A11.imag
            defect = A21 - target
        # a target past the float range is not the finite A21
        clauses["a21_consistency"] = (bool(np.isfinite(target).all())
                                      and negligible(defect, target, 1e-8))

    report = {"pure": all(clauses.values()), "clauses": clauses, "window": None}
    if not report["pure"]:
        return report

    if not (np.isfinite(q).all() and np.isfinite(q_f).all()):
        raise NumericalError("pure spectrogram window leaves the floating-point range")
    if abs(kappa.imag) > 1e-10 * abs(kappa) or kappa.real <= 0:  # a phase: no floor
        raise ModelError("pure spectrogram amplitude must be positive")
    if not negligible(q - q_f, q, 1e-8):
        raise ModelError("pure spectrogram windows failed to coincide")
    report["window"] = GaussianState(d, _principal_sqrt(kappa), -q, np.zeros(d))
    return report


# ----------------------------------------------------------------------------
# conjugation symmetry
# ----------------------------------------------------------------------------

def conjugation_symmetric(spec, detail=False):
    """Is ``A(f, f)`` real for every signal, i.e. does the representation
    commute with complex conjugation?

    Two independent tests are run and cross-asserted: the block pattern of
    the matrix itself (columns 2 and 4 are signed conjugates of columns 1
    and 3), and the tilde-symmetry of the transition matrix against the
    classical Wigner representation.  Both defects are measured relative to
    ``max(1, |A|)`` against one threshold.  The transition defect is the
    pattern defect seen through the fixed Wigner matrix, so near the
    threshold the two may fall on either side of it, by at most the
    condition number of that matrix; the pattern verdict then stands.
    """
    # the defects are linear in A: they are taken of A scaled as its norm
    # is in scaled_norms, and one that still overflows is inf or nan and fails
    one, (norm_a,) = scaled_norms(spec.A)
    A, d, scale = spec.A * one, spec.d, max(one, norm_a)

    # column pattern: sign +1 for the first two block rows, -1 for the last
    # two in column 2, and the opposite in column 4
    sign = np.repeat([1.0, -1.0], 2 * d)[:, None]
    A1, A2, A3, A4 = np.hsplit(A, 4)
    O = np.zeros((d, d))
    W = _covariant_matrix(np.eye(d) / 2, O, O)
    with np.errstate(over="ignore", invalid="ignore"):
        pattern_defect = np.linalg.norm(
            np.hstack([A2 - sign * A1.conj(), A4 + sign * A3.conj()])) / scale
        T = A @ np.linalg.inv(W)
        cross_defect = np.linalg.norm(T - tilde(T)) / scale
    pattern, cross = bool(pattern_defect <= 1e-9), bool(cross_defect <= 1e-9)
    low, high = sorted((pattern_defect, cross_defect))
    if pattern != cross and high > np.linalg.cond(W) * low:
        raise ModelError("conjugation-symmetry tests disagree")
    if detail:
        return pattern, {"column_pattern": pattern, "transition_tilde_fixed": cross}
    return pattern


# ----------------------------------------------------------------------------
# doubled-phase-space operator
# ----------------------------------------------------------------------------

@dataclass
class SplitWord:
    """A word in split form: real prefix, atom pair, real suffix.

    The operator is ``U1_hat . Xi_hat . U2_hat`` where ``U1``/``U2`` are
    words of real-parameter tokens and ``Xi`` the atom with parameters
    ``(theta, delta)`` of disjoint support.
    """

    u1: list
    theta: np.ndarray
    delta: np.ndarray
    u2: list

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.delta = np.atleast_1d(np.asarray(self.delta, dtype=float))


def _require_real_word(word, what):
    for t in word:
        if t.op in ("fourier", "rescale"):
            continue
        if t.op in ("chirp", "multiplier"):
            M = t.matrix_param()
            if negligible(M.imag, M, 1e-12):
                continue
        raise ValidationError(f"{what} must consist of real-parameter tokens; "
                              "atoms belong to the middle factor")


def split_to_word(split):
    """Flatten a split word into an ordinary token list (leftmost acts last)."""
    mid = [atom_r(split.theta), atom_p(split.delta)]
    return list(split.u1) + mid + list(split.u2)


def wigner_operator(split):
    """Word of the doubled-phase-space operator ``K`` with
    ``K W(f, g) = W(S_hat f, S_hat g)`` (up to one unimodular constant).

    Input must be in split form; the two real factors conjugate the doubled
    atom by the partial Fourier transform in the second ``d`` variables,
    realized exactly by chirp/multiplier triples.  For a real word (trivial
    atom) the middle eight tokens collapse to the identity and ``K`` reduces
    to the coordinate change by ``(U1 U2)^{-1}``.
    """
    if not isinstance(split, SplitWord):
        raise ValidationError("wigner_operator expects a word in split form")
    d = split.theta.size
    if split.delta.size != d:
        raise ValidationError("atom parameter vectors must have equal length")
    if np.any(split.theta < 0) or np.any(split.delta < 0):
        raise ValidationError("atom parameters must be nonnegative")
    if np.any(split.theta * split.delta > 1e-10):
        raise ValidationError("atom parameters must have disjoint supports")
    _require_real_word(split.u1, "the split prefix")
    _require_real_word(split.u2, "the split suffix")

    U1 = word_to_matrix(split.u1).real if split.u1 else np.eye(2 * d)
    U2 = word_to_matrix(split.u2).real if split.u2 else np.eye(2 * d)
    E2 = np.diag(np.r_[np.zeros(d), np.ones(d)])
    s2 = np.sqrt(2.0)

    return [
        rescale(s2 * np.linalg.inv(U1)),
        chirp(E2), multiplier(-E2), chirp(E2),
        atom_p(np.r_[split.delta, split.delta]),
        atom_r(np.r_[split.theta, split.theta]),
        chirp(-E2), multiplier(E2), chirp(-E2),
        rescale(np.linalg.inv(U2) / s2),
    ]
