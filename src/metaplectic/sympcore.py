"""Complex symplectic matrices and their positivity structure.

Matrices act on row-stacked phase-space coordinates ``(x, xi)`` with the
standard form

    J = [[ 0,  I],
         [-I,  0]]

and ``S`` is symplectic when ``S^T J S = J`` (transpose, not adjoint, also
for complex entries).  The central objects are:

* the *positivity certificate* ``positivity_matrix``: a real symmetric
  ``4d x 4d`` matrix built from the real and imaginary parts of ``S`` whose
  positive semidefiniteness characterizes the matrices whose quantization is
  a bounded (norm <= 1) operator;
* *generator words*: finite sequences of the five elementary generators
  (chirp, rescale, Fourier, Fourier-side multiplier, and the two
  one-parameter atom families) together with their ``2d x 2d`` matrices;
* structure theory on the positive cone: polar factorization ``S = U Z``
  with ``U`` real and ``Z`` of exponential type, the atomic normal form of
  ``Z``, a symplectic singular value decomposition for real ``U``, and
  block-shape classifiers that certify positivity from triangular or
  conjugation-symmetric structure.

All tolerances are relative: a quantity is "zero" when it is small compared
to the scale of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DecompositionError,
    NotConjugationSymmetric,
    NotTriangular,
    UnsupportedDegenerate,
    ValidationError,
)

__all__ = [
    "omega",
    "blocks",
    "from_blocks",
    "is_symplectic",
    "require_symplectic",
    "sym_part",
    "semidefinite",
    "positivity_matrix",
    "PositivityReport",
    "classify_positivity",
    "pseudo_inverse",
    "schur_psd_test",
    "inverse_symplectic",
    "sharp",
    "tilde",
    "tensor_interleave",
    "Token",
    "fourier",
    "chirp",
    "rescale",
    "multiplier",
    "atom_r",
    "atom_p",
    "token_matrix",
    "word_to_matrix",
    "word_dim",
    "tilde_word",
    "atom_matrix",
    "factor_R_theta",
    "PolarDecomposition",
    "matrix_polar",
    "atomic_decompose",
    "symplectic_svd",
    "classify_block_triangular",
    "classify_conjugation_commuting",
    "random_word",
]


# ----------------------------------------------------------------------------
# basic structure
# ----------------------------------------------------------------------------

def omega(d):
    """Standard symplectic form on R^{2d} (block off-diagonal +I / -I)."""
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = np.eye(d)
    J[d:, :d] = -np.eye(d)
    return J


def blocks(S):
    """Split a 2d x 2d matrix into its (A, B, C, D) quadrants."""
    S = np.asarray(S)
    n = S.shape[0]
    if S.ndim != 2 or S.shape[1] != n or n % 2:
        raise ValidationError(f"expected a square even-dimensional matrix, got shape {S.shape}")
    d = n // 2
    return S[:d, :d], S[:d, d:], S[d:, :d], S[d:, d:]


def from_blocks(A, B, C, D):
    return np.block([[np.asarray(A), np.asarray(B)], [np.asarray(C), np.asarray(D)]])


def is_symplectic(S, tol=1e-10):
    """Test ``S^T J S = J`` in relative Frobenius norm.

    Parameters
    ----------
    S : (2d, 2d) array_like
        Matrix to test.
    tol : float
        Relative tolerance; the defect is compared against
        ``tol * max(1, ||S||_F^2)`` since the defect is quadratic in S.
    """
    S = np.asarray(S, dtype=complex)
    n = S.shape[0]
    if S.ndim != 2 or S.shape[1] != n or n % 2:
        return False
    J = omega(n // 2)
    # an overflowing entry makes the defect or the scale inf or nan, and
    # nothing then certifies the identity
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.linalg.norm(S.T @ J @ S - J)
        scale = np.linalg.norm(S) ** 2
    return bool(np.isfinite(defect) and np.isfinite(scale)
                and defect <= tol * max(1.0, scale))


def require_symplectic(S, tol=1e-10, what="matrix"):
    S = np.asarray(S, dtype=complex)
    if not is_symplectic(S, tol):
        raise ValidationError(f"{what} is not symplectic within tolerance {tol}")
    return S


def sym_part(M, what, tol=1e-8):
    """Symmetrize, guarding against genuinely asymmetric input."""
    M = np.asarray(M)
    asym = np.linalg.norm(M - M.T)
    if asym > tol * max(1.0, np.linalg.norm(M)):
        raise ValidationError(f"{what} is not symmetric (relative defect {asym:.2e})")
    return (M + M.T) / 2


def semidefinite(H, tol, definite=False):
    """Is the symmetric part of real ``H`` positive semidefinite (or, with
    ``definite``, positive definite) up to the relative margin
    ``tol * max(1, max |eig|)``?  The negative side is tested on ``-H``."""
    w = np.linalg.eigvalsh((H + H.T) / 2)
    if not w.size:
        return True
    margin = tol * max(1.0, float(np.max(np.abs(w))))
    return bool(w[0] > margin) if definite else bool(w[0] >= -margin)


def _real_invertible(M, tol):
    """``(real, invertible)`` verdicts for a square block, each with a
    relative margin ``tol``; a real block gets the cheaper real SVD."""
    real = bool(np.linalg.norm(M.imag) <= tol * max(1.0, np.linalg.norm(M)))
    sv = np.linalg.svd(M.real if real else M, compute_uv=False)
    return real, bool(sv[-1] > tol * max(1.0, sv[0]))


# ----------------------------------------------------------------------------
# positivity certificate
# ----------------------------------------------------------------------------

def positivity_matrix(S):
    """Real symmetric certificate matrix for the positivity of ``S``.

    With ``S = S_R + i S_I`` the matrix is

        M(S) = [[ S_R^T J S_I,  S_I^T J S_I ],
                [-S_I^T J S_I,  S_R^T J S_I ]]

    which is symmetric whenever ``S`` is symplectic (the diagonal block is
    then symmetric and the off-diagonal block antisymmetric).  ``M(S) >= 0``
    is equivalent to the quantization of ``S`` being a contraction.

    Returns
    -------
    (4d, 4d) ndarray, real symmetric.
    """
    S = require_symplectic(S)
    d = S.shape[0] // 2
    J = omega(d)
    SR, SI = S.real, S.imag
    X = SR.T @ J @ SI          # symmetric for symplectic S
    Y = SI.T @ J @ SI          # antisymmetric
    M = np.block([[X, Y], [-Y, X]])
    return (M + M.T) / 2


@dataclass
class PositivityReport:
    """Outcome of :func:`classify_positivity`.

    ``klass`` is one of ``NotSymplectic``, ``Real``, ``StrictlyPositive``,
    ``Positive``, ``NotPositive``.  ``min_eigenvalue`` is the smallest
    eigenvalue of the certificate matrix (``None`` when not symplectic) and
    ``margin`` the decision threshold ``tol * ||M||_2`` it was compared to.
    """

    klass: str
    min_eigenvalue: float | None = None
    margin: float = 0.0

    @property
    def positive(self):
        return self.klass in ("Real", "Positive", "StrictlyPositive")

    def to_dict(self):
        return {"class": self.klass, "min_eigenvalue": self.min_eigenvalue}


def classify_positivity(S, tol=1e-9):
    """Classify ``S`` against the positive cone.

    The order of checks: symplecticity; exact realness (real symplectic
    matrices have a vanishing certificate and unitary quantization); then the
    sign of the smallest certificate eigenvalue with relative margin
    ``tol * ||M||_2``.
    """
    S = np.asarray(S, dtype=complex)
    if not is_symplectic(S):
        return PositivityReport("NotSymplectic")
    normS = max(1.0, np.linalg.norm(S))
    M = positivity_matrix(S)
    w = np.linalg.eigvalsh(M)
    mn = float(w[0])
    margin = tol * float(np.max(np.abs(w))) if w.size else 0.0
    if np.linalg.norm(S.imag) <= tol * normS:
        return PositivityReport("Real", mn, margin)
    if mn > margin:
        return PositivityReport("StrictlyPositive", mn, margin)
    if mn >= -margin:
        return PositivityReport("Positive", mn, margin)
    return PositivityReport("NotPositive", mn, margin)


def pseudo_inverse(A, tol=1e-12):
    """Moore-Penrose inverse with singular values below ``tol * sigma_max`` dropped."""
    return np.linalg.pinv(np.asarray(A, dtype=complex), rcond=tol)


def schur_psd_test(M, tol=1e-10):
    """Certify positive semidefiniteness of symmetric ``M`` blockwise.

    Partition ``M = [[P, Q], [Q^T, R]]`` at the midpoint.  ``M >= 0`` iff

    1. ``P >= 0``,
    2. ``range(Q) <= range(P)``  (tested as ``(I - P P^+) Q = 0``),
    3. ``R - Q^T P^+ Q >= 0``.

    The three clauses are evaluated with relative margins and cross-checked
    against a direct eigenvalue test of ``M`` itself.

    Returns
    -------
    (bool, dict)
        Overall verdict and a certificate with the individual clauses and
        the direct minimum eigenvalue.
    """
    M = sym_part(np.asarray(M, dtype=float), "schur test input")
    n = M.shape[0]
    if n % 2:
        raise ValidationError("schur_psd_test expects an even-dimensional matrix")
    m = n // 2
    P, Q, R = M[:m, :m], M[:m, m:], M[m:, m:]
    scale = max(1.0, float(np.linalg.norm(M, 2)))

    wP = np.linalg.eigvalsh((P + P.T) / 2)
    block_psd = bool(wP[0] >= -tol * scale)

    Pp = np.linalg.pinv(P, rcond=max(tol, 1e-13))
    range_ok = bool(np.linalg.norm(Q - P @ Pp @ Q) <= np.sqrt(tol) * scale)

    Sc = R - Q.T @ Pp @ Q
    wS = np.linalg.eigvalsh((Sc + Sc.T) / 2)
    schur_ok = bool(wS[0] >= -tol * scale)

    verdict = block_psd and range_ok and schur_ok
    w = np.linalg.eigvalsh(M)
    direct = bool(w[0] >= -tol * scale)
    cert = {
        "psd": verdict,
        "block_psd": block_psd,
        "range_ok": range_ok,
        "schur_psd": schur_ok,
        "direct_psd": direct,
        "direct_min_eigenvalue": float(w[0]),
        "agrees": verdict == direct,
    }
    return verdict, cert


# ----------------------------------------------------------------------------
# involutions and products
# ----------------------------------------------------------------------------

def inverse_symplectic(S):
    """Closed-form inverse ``S^{-1} = [[D^T, -B^T], [-C^T, A^T]]``."""
    A, B, C, D = blocks(require_symplectic(S))
    return from_blocks(D.T, -B.T, -C.T, A.T)


def sharp(S):
    """Adjoint-type involution ``S -> [[D^*, -B^*], [-C^*, A^*]]`` (conjugate
    transposes blockwise).  Anti-homomorphism; fixed points of ``sharp`` with
    positive spectrum are exactly the exponential-type factors ``Z``."""
    A, B, C, D = blocks(np.asarray(S, dtype=complex))
    return from_blocks(D.conj().T, -B.conj().T, -C.conj().T, A.conj().T)


def tilde(S):
    """Conjugation symmetry ``S -> [[conj A, -conj B], [-conj C, conj D]]``.

    Quantizations satisfy: the operator of ``tilde(S)`` is the conjugate
    ``f -> conj(S_hat conj(f))`` of the operator of ``S``.
    """
    A, B, C, D = blocks(np.asarray(S, dtype=complex))
    return from_blocks(A.conj(), -B.conj(), -C.conj(), D.conj())


def tensor_interleave(S1, S2):
    """Direct sum of symplectic matrices in stacked coordinates.

    For ``S_k`` on dimension ``d_k`` the result acts on ``(x1, x2, xi1, xi2)``
    with each quadrant the block diagonal of the corresponding quadrants, so
    that the symplectic form on the joint phase space is again standard.
    """
    pairs = zip(blocks(np.asarray(S1, dtype=complex)), blocks(np.asarray(S2, dtype=complex)))
    return from_blocks(*(sla.block_diag(X, Y) for X, Y in pairs))


# ----------------------------------------------------------------------------
# generator tokens and words
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    """One generator in a word.

    ``op`` is one of ``fourier``, ``chirp``, ``rescale``, ``multiplier``,
    ``atom_r``, ``atom_p``.  ``mat`` carries the matrix parameter (chirp Q,
    rescale E, multiplier P), ``vec`` the atom parameter vector, ``maslov``
    the integer phase index of a rescale.  Use the factory functions below;
    they validate the admissible parameter domain.
    """

    op: str
    d: int
    mat: tuple | None = None
    vec: tuple | None = None
    maslov: int = 0

    def matrix_param(self):
        return None if self.mat is None else np.array(self.mat, dtype=complex)

    def vector_param(self):
        return None if self.vec is None else np.array(self.vec, dtype=float)


def _freeze(M):
    return tuple(map(tuple, np.asarray(M, dtype=complex)))


def fourier(d):
    """Fourier generator in dimension ``d`` (matrix ``J``)."""
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    return Token("fourier", int(d))


def chirp(Q, tol=1e-10):
    """Multiplication by ``exp(i pi Q x . x)``; requires ``Im Q >= 0``."""
    Q = sym_part(np.atleast_2d(np.asarray(Q, dtype=complex)), "chirp parameter")
    if not semidefinite(Q.imag, tol):
        raise ValidationError("chirp parameter needs positive semidefinite imaginary part")
    return Token("chirp", Q.shape[0], mat=_freeze(Q))


def rescale(E, maslov=0, tol=1e-10):
    """Dilation ``f -> i^maslov |det E|^{1/2} f(E x)``; E real invertible."""
    E = np.atleast_2d(np.asarray(E, dtype=complex))
    real, invertible = _real_invertible(E, tol)
    if not real:
        raise ValidationError("rescale matrix must be real")
    E = E.real
    if not invertible:
        raise ValidationError("rescale matrix must be invertible")
    return Token("rescale", E.shape[0], mat=_freeze(E), maslov=int(maslov) % 4)


def multiplier(P, tol=1e-10):
    """Fourier-side chirp: multiplies the transform by ``exp(-i pi P xi . xi)``;
    requires ``Im P <= 0``."""
    P = sym_part(np.atleast_2d(np.asarray(P, dtype=complex)), "multiplier parameter")
    if not semidefinite(-P.imag, tol):
        raise ValidationError("multiplier parameter needs negative semidefinite imaginary part")
    return Token("multiplier", P.shape[0], mat=_freeze(P))


def _atom_vec(v, what):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(v < -1e-12):
        raise ValidationError(f"{what} parameters must be nonnegative")
    return np.maximum(v, 0.0)


def atom_r(theta):
    """Rotation-type atom with parameter vector ``theta >= 0``."""
    th = _atom_vec(theta, "atom_r")
    return Token("atom_r", th.size, vec=tuple(th))


def atom_p(delta):
    """Shear-type atom ``chirp(i diag(delta))`` with ``delta >= 0``."""
    de = _atom_vec(delta, "atom_p")
    return Token("atom_p", de.size, vec=tuple(de))


def token_matrix(t):
    """The 2d x 2d symplectic matrix of a single token."""
    d = t.d
    I = np.eye(d)
    O = np.zeros((d, d))
    if t.op == "fourier":
        return omega(d).astype(complex)
    if t.op == "chirp":
        Q = t.matrix_param()
        return from_blocks(I, O, Q, I)
    if t.op == "rescale":
        E = t.matrix_param().real
        return from_blocks(np.linalg.inv(E), O, O, E.T).astype(complex)
    if t.op == "multiplier":
        P = t.matrix_param()
        return from_blocks(I, P, O, I)
    if t.op == "atom_r":
        th = t.vector_param()
        ch, sh = np.diag(np.cosh(th)), np.diag(np.sinh(th))
        return from_blocks(ch, -1j * sh, 1j * sh, ch)
    if t.op == "atom_p":
        de = t.vector_param()
        return from_blocks(I, O, 1j * np.diag(de), I)
    raise ValidationError(f"unknown token op {t.op!r}")


def word_dim(word):
    if not word:
        raise ValidationError("empty word has no dimension")
    d = word[0].d
    if any(t.d != d for t in word):
        raise ValidationError("all tokens in a word must share one dimension")
    return d


def word_to_matrix(word):
    """Product of the token matrices, in list order.

    The first token in the list is the leftmost factor, i.e. the operator
    applied *last*; ``apply_word`` uses the same convention.
    """
    d = word_dim(word)
    S = np.eye(2 * d, dtype=complex)
    for t in word:
        S = S @ token_matrix(t)
    return S


def tilde_word(word):
    """Token-level conjugation: the word whose operator is the conjugate
    ``f -> conj(W_hat conj f)`` of the operator of ``word``, parameter-exactly.

    Chirp and multiplier negate-conjugate their parameter, a rescale flips
    the sign of its phase index, the Fourier token picks up a parity factor
    (its conjugate is the inverse transform), and the atoms are fixed.
    """
    out = []
    for t in word:
        if t.op == "chirp":
            out.append(chirp(-np.conj(t.matrix_param())))
        elif t.op == "multiplier":
            out.append(multiplier(-np.conj(t.matrix_param())))
        elif t.op == "rescale":
            out.append(rescale(t.matrix_param().real, maslov=-t.maslov))
        elif t.op == "fourier":
            out.append(rescale(-np.eye(t.d), maslov=t.d))
            out.append(fourier(t.d))
        else:  # atoms commute with conjugation
            out.append(t)
    return out


def atom_matrix(theta, delta, tol=1e-12):
    """Matrix of the combined atom with disjointly supported parameters.

    ``theta`` and ``delta`` are nonnegative vectors with ``theta_j delta_j = 0``;
    the result is ``atom_r(theta) @ atom_p(delta)``.
    """
    th = _atom_vec(theta, "atom")
    de = _atom_vec(delta, "atom")
    if th.size != de.size:
        raise ValidationError("theta and delta must have equal length")
    if np.any(th * de > tol):
        raise ValidationError("theta and delta must have disjoint supports")
    return token_matrix(atom_r(th)) @ token_matrix(atom_p(de))


def factor_R_theta(theta):
    """Exact elementary-word factorization of the rotation-type atom.

    For ``T = diag(tanh theta)`` and ``c = diag(cosh theta)`` the atom equals

        chirp(iT) . rescale(-c^{-1}, maslov=d) . fourier . chirp(iT) . fourier

    as an operator identity (phases included); the rescale's parity and phase
    index implement the inverse Fourier transform appearing in the middle.
    """
    th = _atom_vec(theta, "atom_r")
    d = th.size
    T = 1j * np.diag(np.tanh(th))
    E = -np.diag(1.0 / np.cosh(th))
    return [chirp(T), rescale(E, maslov=d), fourier(d), chirp(T), fourier(d)]


# ----------------------------------------------------------------------------
# polar factorization and atomic normal form
# ----------------------------------------------------------------------------

@dataclass
class PolarDecomposition:
    """``S = U @ Z`` with ``U`` real symplectic and ``Z = sqrt(sharp(S) S)``."""

    U: np.ndarray
    Z: np.ndarray
    residual: float


def matrix_polar(S, tol=1e-9):
    """Polar factorization of a positive symplectic matrix.

    ``Z`` is the principal square root of ``sharp(S) @ S`` (whose spectrum,
    for positive ``S``, lies in the open right half plane, so the principal
    branch is unambiguous) and ``U = S Z^{-1}`` is real symplectic.

    Raises
    ------
    ValidationError
        If ``S`` is not symplectic or not positive.
    DecompositionError
        If the spectrum touches the branch cut or ``U`` fails to be real
        symplectic.
    """
    S = np.asarray(S, dtype=complex)
    rep = classify_positivity(S)
    if rep.klass == "NotSymplectic":
        raise ValidationError("polar factorization input must be symplectic")
    if not rep.positive:
        raise ValidationError(f"polar factorization needs a positive matrix, got {rep.klass}")
    G = sharp(S) @ S
    lam = np.linalg.eigvals(G)
    if np.any((lam.real <= 0) & (np.abs(lam.imag) <= 1e-12 * np.abs(lam))):
        raise DecompositionError("spectrum meets the negative real axis; principal root undefined")
    Z = sla.sqrtm(G)
    U = S @ np.linalg.inv(Z)
    normU = max(1.0, np.linalg.norm(U))
    if np.linalg.norm(U.imag) > max(tol, 1e-8) * normU:
        raise DecompositionError("real factor of the polar decomposition came out complex")
    U = U.real
    if not is_symplectic(U):
        # an ill-conditioned Z leaves U too far from the group for the
        # decompositions that consume it
        raise DecompositionError("real factor of the polar decomposition is not symplectic")
    residual = float(np.linalg.norm(S - U @ Z) / max(1e-300, np.linalg.norm(S)))
    if residual > max(100 * tol, 1e-7):
        raise DecompositionError(f"polar residual {residual:.2e} exceeds tolerance")
    return PolarDecomposition(U, Z, residual)


def _williamson(P, tol=1e-9):
    """Normal form of a symmetric positive definite ``P``: returns
    ``(lam, V)`` with ``V`` real symplectic, ``lam`` descending, and
    ``P = V^T diag(lam, lam) V``.

    The construction diagonalizes the antisymmetric ``K = P^{-1/2} J P^{-1/2}``
    by a real Schur form; the same orthogonal matrix then block-diagonalizes
    both half powers of ``P``, and a diagonal rescaling symplectifies it.
    """
    P = sym_part(np.asarray(P, dtype=float), "normal form input")
    n = P.shape[0]
    d = n // 2
    J = omega(d)
    w, Q = np.linalg.eigh(P)
    if w[0] <= 0:
        raise DecompositionError("normal form needs a positive definite matrix")
    Proot = (Q * np.sqrt(w)) @ Q.T
    Pinvroot = (Q / np.sqrt(w)) @ Q.T

    K = Pinvroot @ J @ Pinvroot
    K = (K - K.T) / 2
    T, Zs = sla.schur(K, output="real")
    # rotate each 2x2 block [[0, t], [-t, 0]] to have t > 0 by swapping the
    # corresponding column pair
    for j in range(0, n, 2):
        if T[j, j + 1] < 0:
            Zs[:, [j, j + 1]] = Zs[:, [j + 1, j]]
    T = Zs.T @ K @ Zs
    kappa = np.array([T[j, j + 1] for j in range(0, n, 2)])
    if np.any(kappa <= tol * max(1.0, float(np.max(np.abs(kappa))))):
        raise DecompositionError("normal form pairing degenerated")
    lam = 1.0 / kappa

    # interleaved pair coordinates -> stacked (x..., xi...)
    perm = np.r_[np.arange(0, n, 2), np.arange(1, n, 2)]
    O = Zs[:, perm]
    lam2 = np.r_[lam, lam]
    V = (O.T * (lam2 ** -0.5)[:, None]) @ Proot

    # descending order, permuting x and xi slots together
    order = np.argsort(-lam)
    lam = lam[order]
    V = V[np.r_[order, order + d], :]

    scale = max(1.0, float(np.linalg.norm(P)))
    if np.linalg.norm(V.T @ np.diag(np.r_[lam, lam]) @ V - P) > max(1e3 * tol, 1e-8) * scale:
        raise DecompositionError("normal form reconstruction failed")
    if np.linalg.norm(V @ J @ V.T - J) > max(1e3 * tol, 1e-8) * max(1.0, np.linalg.norm(V) ** 2):
        raise DecompositionError("normal form produced a non-symplectic frame")
    return lam, V


def atomic_decompose(Z, tol=1e-9):
    """Atomic normal form of an exponential-type factor.

    Writes ``Z = V^{-1} atom_matrix(theta, delta) V`` with ``V`` real
    symplectic, by reading off the real quadratic generator: ``M = i log Z``
    is real with ``P = -J M`` symmetric positive semidefinite.

    * ``P = 0``: identity atom.
    * ``P`` definite: the normal form of ``P`` gives a pure rotation-type
      atom, parameters descending.
    * ``P`` singular: supported in dimension one only (rank-one shear atom);
      higher-dimensional degenerate generators raise
      :class:`UnsupportedDegenerate`.

    Returns
    -------
    (V, theta, delta)
    """
    Z = np.asarray(Z, dtype=complex)
    Z = require_symplectic(Z, what="exponential factor")
    n = Z.shape[0]
    d = n // 2
    J = omega(d)

    L = sla.logm(Z)
    M = 1j * L
    if np.linalg.norm(M.imag) > max(1e3 * tol, 1e-8) * max(1.0, np.linalg.norm(M)):
        raise DecompositionError("generator of the exponential factor is not real")
    M = M.real
    P = -J @ M
    P = (P + P.T) / 2

    w = np.linalg.eigvalsh(P)
    scaleP = float(np.max(np.abs(w))) if w.size else 0.0
    if scaleP <= tol * max(1.0, np.linalg.norm(Z)):
        return np.eye(n), np.zeros(d), np.zeros(d)
    if w[0] < -tol * scaleP:
        raise DecompositionError("generator is not positive semidefinite")

    if w[0] > tol * scaleP:
        lam, V = _williamson(P, tol)
        theta, delta = lam, np.zeros(d)
    elif d == 1:
        # rank-one generator: P = kappa u u^T gives a pure shear atom in the
        # rotated frame with first row u
        kappa = float(w[-1])
        u = np.linalg.eigh(P)[1][:, -1]
        V = np.array([[u[0], u[1]], [-u[1], u[0]]])
        theta, delta = np.zeros(1), np.array([kappa])
    else:
        raise UnsupportedDegenerate(
            "semidefinite generators are only supported in dimension one")

    back = np.linalg.inv(V) @ atom_matrix(theta, delta) @ V
    if np.linalg.norm(back - Z) > max(1e4 * tol, 1e-6) * max(1.0, np.linalg.norm(Z)):
        raise DecompositionError("atomic reconstruction failed its residual check")
    return V, theta, delta


def symplectic_svd(U, tol=1e-9):
    """Singular value decomposition within the real symplectic group.

    For real symplectic ``U`` returns ``(W, sigma, V)`` with ``W, V``
    orthogonal *and* symplectic, ``sigma`` the descending singular values
    ``>= 1``, and ``U = W diag(sigma, 1/sigma) V^T``.

    The generator ``L = log(U^T U)/2`` anticommutes with ``J``, so ``J`` maps
    the ``+mu`` eigenspace onto the ``-mu`` one; an orthonormal eigenbasis of
    the positive side, completed by ``-J`` images (and a paired basis of the
    kernel), is automatically orthogonal-symplectic.
    """
    U = np.asarray(U, dtype=float)
    U = require_symplectic(U, what="real symplectic matrix").real
    n = U.shape[0]
    d = n // 2
    J = omega(d)

    G = U.T @ U
    w, Q = np.linalg.eigh((G + G.T) / 2)
    if w[0] <= 0:
        raise DecompositionError("Gram matrix is not positive definite")
    L = (Q * (0.5 * np.log(w))) @ Q.T
    mu, E = np.linalg.eigh(L)
    scale = max(1.0, float(np.max(np.abs(mu))))

    pos = [i for i in range(n) if mu[i] > tol * scale][::-1]      # descending
    ker = [i for i in range(n) if abs(mu[i]) <= tol * scale]
    if len(pos) + len(ker) // 2 != d or len(ker) % 2:
        raise DecompositionError("eigenvalue pairing of the symplectic SVD failed")

    cols = [E[:, i] for i in pos]
    mus = [mu[i] for i in pos]
    # pair the kernel symplectically: pick the residual column of largest
    # norm, take out its plane span(v, Jv), repeat (J preserves the kernel,
    # so every picked vector stays inside it)
    kbasis = E[:, ker]
    for _ in range(len(ker) // 2):
        norms = np.linalg.norm(kbasis, axis=0)
        j = int(np.argmax(norms))
        if norms[j] <= 1e-8:
            raise DecompositionError("kernel pairing of the symplectic SVD degenerated")
        v = kbasis[:, j] / norms[j]
        cols.append(v)
        mus.append(0.0)
        span = np.stack([v, J @ v], axis=1)
        kbasis = kbasis - span @ (span.T @ kbasis)

    Wcols = np.stack(cols, axis=1)
    Om = np.concatenate([Wcols, -J @ Wcols], axis=1)
    sig = np.exp(np.array(mus))
    Dinv = np.r_[1.0 / sig, sig]
    W = U @ Om * Dinv[None, :]

    recon = (W * np.r_[sig, 1.0 / sig][None, :]) @ Om.T
    if np.linalg.norm(recon - U) > max(1e3 * tol, 1e-8) * max(1.0, np.linalg.norm(U)):
        raise DecompositionError("symplectic SVD reconstruction failed")
    for F in (W, Om):
        if np.linalg.norm(F.T @ F - np.eye(n)) > max(1e3 * tol, 1e-8):
            raise DecompositionError("symplectic SVD frame is not orthogonal")
    return W, sig, Om


# ----------------------------------------------------------------------------
# structural classifiers
# ----------------------------------------------------------------------------

def classify_block_triangular(S, tol=1e-9):
    """Certify positivity of a block-triangular symplectic matrix.

    For ``B = 0`` positivity is equivalent to: the diagonal block ``A`` is
    *real* and invertible, and ``Im(A^T C) >= 0``.  For ``C = 0`` the dual
    conditions apply (``Im(D^T B) <= 0``).  A complex invertible diagonal
    block does not suffice: realness is part of the characterization, and
    the report marks the case where only realness fails.

    The structural verdict is cross-checked against the eigenvalue test of
    the positivity certificate.

    Raises
    ------
    NotTriangular
        If neither off-diagonal block vanishes.
    """
    S = require_symplectic(S)
    A, B, C, D = blocks(S)
    scale = max(1.0, np.linalg.norm(S))
    b_zero = np.linalg.norm(B) <= tol * scale
    c_zero = np.linalg.norm(C) <= tol * scale
    if not (b_zero or c_zero):
        raise NotTriangular("neither off-diagonal block vanishes")

    if b_zero:
        shape = "lower"
        diag, off = A, A.T @ C
        sign = +1
    else:
        shape = "upper"
        diag, off = D, D.T @ B
        sign = -1

    a_real, a_invertible = _real_invertible(diag, tol)
    signature_ok = semidefinite(sign * off.imag, tol)

    structural = a_real and a_invertible and signature_ok
    eigen = classify_positivity(S, tol)
    report = {
        "shape": shape,
        "positive": structural,
        "conditions": {
            "diagonal_block_real": a_real,
            "diagonal_block_invertible": a_invertible,
            "offdiagonal_signature": signature_ok,
        },
        "eigen_class": eigen.klass,
        "agrees": structural == eigen.positive,
    }
    if a_invertible and not a_real:
        report["note"] = ("positivity requires the diagonal block to be real; "
                          "complex invertibility alone does not certify it")
    return report


def classify_conjugation_commuting(S, tol=1e-9):
    """Certify positivity of a conjugation-symmetric symplectic matrix and
    synthesize its generator word.

    Requires ``S = tilde(S)`` (real diagonal blocks, purely imaginary
    off-diagonal blocks).  Positivity is then equivalent to the conjunction:
    ``A`` real invertible, ``Im(A^T C) >= 0``, ``Im(A B^T) <= 0``.  When
    positive, the operator factors exactly as

        chirp(C A^{-1}) . rescale(A^{-1}) . multiplier(A^{-1} B)

    and the report carries that word together with its reconstruction
    residual.

    Raises
    ------
    NotConjugationSymmetric
        If ``S`` is not fixed by the tilde involution.
    """
    S = require_symplectic(S)
    scale = max(1.0, np.linalg.norm(S))
    if np.linalg.norm(S - tilde(S)) > tol * scale:
        raise NotConjugationSymmetric("matrix is not fixed by the conjugation symmetry")
    A, B, C, D = blocks(S)

    a_real, a_invertible = _real_invertible(A, tol)
    lower_ok = semidefinite((A.T @ C).imag, tol)
    upper_ok = semidefinite(-(A @ B.T).imag, tol)

    structural = a_real and a_invertible and lower_ok and upper_ok
    eigen = classify_positivity(S, tol)
    report = {
        "conjugation_symmetric": True,
        "positive": structural,
        "conditions": {
            "diagonal_block_real": a_real,
            "diagonal_block_invertible": a_invertible,
            "lower_signature": lower_ok,
            "upper_signature": upper_ok,
        },
        "eigen_class": eigen.klass,
        "agrees": structural == eigen.positive,
        "word": None,
    }
    if structural:
        Ainv = np.linalg.inv(A.real)
        Qc = sym_part(C @ Ainv, "synthesized chirp parameter", tol=1e-6)
        Pm = sym_part(Ainv @ B, "synthesized multiplier parameter", tol=1e-6)
        word = [chirp(Qc), rescale(Ainv), multiplier(Pm)]
        resid = float(np.linalg.norm(word_to_matrix(word) - S) / scale)
        report["word"] = word
        report["synthesis_residual"] = resid
    return report


# ----------------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------------

def random_word(rng, d, max_len=8, scale=0.6):
    """Draw a random generator word inside the positivity domain.

    Parameters are kept at moderate scale so that products of up to
    ``max_len`` factors stay well-conditioned for the default tolerances.
    """
    def sym(M):
        return (M + M.T) / 2

    def psd(s):
        G = rng.standard_normal((d, d)) * s
        return G @ G.T / max(1, d)

    n = int(rng.integers(1, max_len + 1))
    word = []
    for _ in range(n):
        kind = rng.integers(0, 6)
        if kind == 0:
            word.append(fourier(d))
        elif kind == 1:
            Q = sym(rng.standard_normal((d, d))) * scale + 1j * psd(scale)
            word.append(chirp(Q))
        elif kind == 2:
            q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
            q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
            E = q1 @ np.diag(np.exp(rng.uniform(-0.5, 0.5, d))) @ q2
            word.append(rescale(E, maslov=int(rng.integers(0, 4))))
        elif kind == 3:
            P = sym(rng.standard_normal((d, d))) * scale - 1j * psd(scale)
            word.append(multiplier(P))
        elif kind == 4:
            word.append(atom_r(rng.uniform(0.0, 0.8, d)))
        else:
            word.append(atom_p(rng.uniform(0.0, 0.8, d)))
    return word
