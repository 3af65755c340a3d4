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

Both symplectic normal forms take their frames from one pairing rule,
Williamson's (:func:`_pairing`): the eigenvectors ``a + ib`` of ``i K``, for an
antisymmetric ``K`` of full rank, give orthonormal symplectic pairs.

A quantity vanishes by one relative rule (:func:`negligible`): ``x`` is zero
against a scale ``s`` at ``tol`` when ``||x|| <= tol * max(1, ||s||)``; an
eigenvalue sign has the like margin against the spectrum (:func:`semidefinite`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionError,
    NotConjugationSymmetric,
    NotTriangular,
    NumericalError,
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
    "negligible",
    "scaled_norms",
    "semidefinite",
    "positivity_matrix",
    "PositivityReport",
    "classify_positivity",
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
    """The block matrix ``[[A, B], [C, D]]`` of four 2-d blocks."""
    A, B, C, D = np.asarray(A), np.asarray(B), np.asarray(C), np.asarray(D)
    r, c = A.shape
    out = np.empty((r + C.shape[0], c + B.shape[1]), dtype=np.result_type(A, B, C, D))
    out[:r, :c], out[:r, c:], out[r:, :c], out[r:, c:] = A, B, C, D
    return out


def is_symplectic(S):
    """Test ``S^T J S = J``: the defect must be :func:`negligible` against
    ``||S||_F^2`` at ``1e-10``, since it is quadratic in ``S``."""
    S = np.asarray(S, dtype=complex)
    n = S.shape[0]
    if S.ndim != 2 or S.shape[1] != n or n % 2:
        return False
    J = omega(n // 2)
    # an overflowing entry makes the defect or the scale inf or nan, and
    # nothing then certifies the identity
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.linalg.norm(S) ** 2
        return bool(np.isfinite(scale) and negligible(S.T @ J @ S - J, scale, 1e-10))


def require_symplectic(S, what="matrix"):
    S = np.asarray(S, dtype=complex)
    if not is_symplectic(S):
        raise ValidationError(f"{what} is not symplectic within tolerance 1e-10")
    return S


def sym_part(M, what, tol=1e-8):
    """Symmetrize a matrix, or each member of a ``(k, d, d)`` stack, guarding
    against genuinely asymmetric input.

    The defect is measured on ``M`` divided by ``max(1, max |M/2|)``, whose
    entries have modulus at most two, so huge finite entries cannot
    overflow the norms.  That divisor lies between 1 and ``||M||``, so the
    verdict is the one for ``M`` itself; halving before adding keeps the
    result finite.  In a stack each member has its own divisor and verdict,
    and the first member that fails names its defect."""
    M = np.asarray(M)
    # an inf entry halves, scales and sums to nan, which the callers' own
    # checks reject
    with np.errstate(invalid="ignore"):
        half = M / 2
        Mn = M / np.abs(half).max(axis=(-2, -1), keepdims=True, initial=1.0)
        out = half + half.swapaxes(-1, -2)
    E = Mn - Mn.swapaxes(-1, -2)
    # each member's bar is at least tol, so a stack whose whole defect is
    # below tol passes without the member-by-member norms (a nan defect
    # proves nothing and takes them)
    if not np.vdot(E, E).real <= tol * tol:
        asym = np.sqrt(np.einsum("...ij,...ij->...", E, E.conj()).real)
        bad = asym > tol * np.maximum(1.0, np.sqrt(np.einsum("...ij,...ij->...", Mn, Mn.conj()).real))
        if bad.any():
            raise ValidationError(f"{what} is not symmetric (relative defect {asym[bad][0]:.2e})")
    return out


def negligible(x, scale, tol):
    """The one relative-tolerance rule, ``||x|| <= tol * max(1, ||scale||)``
    (Frobenius norm of an array, modulus of a number; a nan ``x`` fails).
    The norms are those of :func:`scaled_norms`, so one that overflows
    does not decide the verdict."""
    one, (nx, ns) = scaled_norms(x, scale)
    return bool(nx <= tol * max(one, ns))


def scaled_norms(*arrays):
    """``(one, norms)``: the Frobenius norms (moduli of numbers) of the
    arrays, each times the power of two ``one``.

    ``one`` is 1 unless a norm overflows; it is then the power of two that
    brings the largest finite real or imaginary part below one.  Scaling by
    it is exact, so the norms keep their ratios to each other and to
    ``one``, and ``max(one, norm)`` stands for ``max(1, norm)``; an array
    with an infinite entry keeps its infinite norm."""
    with np.errstate(over="ignore"):
        norms = [_size(a) for a in arrays]
    if np.inf not in norms:
        return 1.0, norms
    parts = np.abs([p for a in arrays for p in np.ravel([np.real(a), np.imag(a)])])
    one = np.ldexp(1.0, -int(np.frexp(parts[np.isfinite(parts)].max(initial=0.0))[1]))
    return one, [_size(a * one) if np.isfinite(a).all() else n for a, n in zip(arrays, norms)]


def _size(a):
    return np.linalg.norm(a) if isinstance(a, np.ndarray) else abs(a)


def semidefinite(H, tol, definite=False, size=None):
    """Is the symmetric part of real ``H`` positive semidefinite (or, with
    ``definite``, positive definite) up to the relative margin
    ``tol * max(1, max |eig|)``?  The negative side is tested on ``-H``.

    A caller that knows the ``size`` of the object ``H`` was taken from
    passes it, and the margin is then at most ``tol * size``: relative to
    that object below size one as well.  For a ``(k, d, d)`` stack ``size``
    is one value per member (or one for all), and the stack passes only if
    every member does."""
    H = np.asarray(H)
    w = np.linalg.eigvalsh(H / 2 + H.swapaxes(-1, -2) / 2)
    if not w.size:
        return True
    scale = np.abs(w).max(axis=-1, initial=1.0)
    if size is not None:
        scale = np.minimum(scale, size)
    # eigvalsh sorts ascending
    lo, margin = w[..., 0], tol * scale
    ok = lo > margin if definite else lo >= -margin
    return bool(np.count_nonzero(ok) == ok.size)


def _real_invertible(M, tol):
    """``(real, invertible)`` verdicts for a square block, each with a
    relative margin ``tol``; a real block gets the cheaper real SVD.

    The realness norms are taken of ``M`` scaled to parts of size at most
    one, where they cannot both overflow to inf and pass a complex block;
    the verdict is the one for ``M`` itself."""
    top = max(1.0, np.abs(M.real).max(), np.abs(M.imag).max())
    with np.errstate(invalid="ignore"):  # an inf entry scales to nan: not real
        Mn = M / top
    real = negligible(Mn.imag, Mn, tol)
    sv = np.linalg.svd(M.real if real else M, compute_uv=False)
    return real, not negligible(sv[-1], sv[0], tol)


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
    M = from_blocks(X, Y, -Y, X)
    return (M + M.T) / 2


@dataclass
class PositivityReport:
    """Outcome of :func:`classify_positivity`.

    ``klass`` is one of ``NotSymplectic``, ``Real``, ``StrictlyPositive``,
    ``Positive``, ``NotPositive``.  ``min_eigenvalue`` is the smallest
    eigenvalue of the certificate matrix (``None`` when not symplectic) and
    ``margin`` the decision threshold ``1e-9 * ||M||_2`` it was compared to.
    """

    klass: str
    min_eigenvalue: float | None = None
    margin: float = 0.0

    @property
    def positive(self):
        return self.klass in ("Real", "Positive", "StrictlyPositive")

    def to_dict(self):
        return {"class": self.klass, "min_eigenvalue": self.min_eigenvalue}


def classify_positivity(S):
    """Classify ``S`` against the positive cone.

    The order of checks: symplecticity; realness (``Im S`` negligible against
    ``S`` at ``1e-9``; real symplectic matrices have a vanishing certificate
    and unitary quantization); then the sign of the smallest certificate
    eigenvalue with relative margin ``1e-9 * ||M||_2``.
    """
    S = np.asarray(S, dtype=complex)
    try:
        M = positivity_matrix(S)  # runs the one symplectic test of this call
    except ValidationError:
        return PositivityReport("NotSymplectic")
    w = np.linalg.eigvalsh(M)
    mn = float(w[0])
    margin = 1e-9 * float(np.max(np.abs(w))) if w.size else 0.0  # own spectrum, no floor
    if negligible(S.imag, S, 1e-9):
        return PositivityReport("Real", mn, margin)
    if mn > margin:
        return PositivityReport("StrictlyPositive", mn, margin)
    if mn >= -margin:
        return PositivityReport("Positive", mn, margin)
    return PositivityReport("NotPositive", mn, margin)


def schur_psd_test(M):
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
    normM = float(np.linalg.norm(M, 2))

    def psd(w):  # the smallest eigenvalue is nonnegative or negligible
        return bool(w[0] >= 0 or negligible(w[0], normM, 1e-10))

    block_psd = psd(np.linalg.eigvalsh((P + P.T) / 2))

    Pp = np.linalg.pinv(P, rcond=1e-10)
    range_ok = negligible(Q - P @ Pp @ Q, normM, 1e-5)

    Sc = R - Q.T @ Pp @ Q
    schur_ok = psd(np.linalg.eigvalsh((Sc + Sc.T) / 2))

    verdict = block_psd and range_ok and schur_ok
    w = np.linalg.eigvalsh(M)
    direct = psd(w)
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
    S1, S2 = np.asarray(S1, dtype=complex), np.asarray(S2, dtype=complex)
    d1, d2 = len(blocks(S1)[0]), len(blocks(S2)[0])
    d = d1 + d2
    S = np.zeros((2 * d, 2 * d), dtype=complex)
    for Sk, idx in ((S1, np.r_[:d1, d:d + d1]), (S2, np.r_[d1:d, d + d1:2 * d])):
        S[np.ix_(idx, idx)] = Sk
    return S


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


def _matrix_param(M, what):
    """A token's matrix parameter: nonempty, square and finite."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise ValidationError(f"{what} must be a nonempty square matrix")
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{what} must be finite")
    return M


def fourier(d):
    """Fourier generator in dimension ``d`` (matrix ``J``)."""
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    return Token("fourier", int(d))


def chirp(Q):
    """Multiplication by ``exp(i pi Q x . x)``; requires ``Im Q >= 0``."""
    Q = sym_part(_matrix_param(Q, "chirp parameter"), "chirp parameter")
    if not semidefinite(Q.imag, 1e-10):
        raise ValidationError("chirp parameter needs positive semidefinite imaginary part")
    return Token("chirp", Q.shape[0], mat=_freeze(Q))


def rescale(E, maslov=0):
    """Dilation ``f -> i^maslov |det E|^{1/2} f(E x)``; E real invertible."""
    E = _matrix_param(E, "rescale matrix")
    real, invertible = _real_invertible(E, 1e-10)
    if not real:
        raise ValidationError("rescale matrix must be real")
    E = E.real
    if not invertible:
        raise ValidationError("rescale matrix must be invertible")
    return Token("rescale", E.shape[0], mat=_freeze(E), maslov=int(maslov) % 4)


def multiplier(P):
    """Fourier-side chirp: multiplies the transform by ``exp(-i pi P xi . xi)``;
    requires ``Im P <= 0``."""
    P = sym_part(_matrix_param(P, "multiplier parameter"), "multiplier parameter")
    if not semidefinite(-P.imag, 1e-10):
        raise ValidationError("multiplier parameter needs negative semidefinite imaginary part")
    return Token("multiplier", P.shape[0], mat=_freeze(P))


def _atom_vec(v, what):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1 or not v.size:
        raise ValidationError(f"{what} parameters must be a nonempty vector")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{what} parameters must be finite")
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
        if max(t.vec) > 710:  # cosh and sinh overflow near log(2 DBL_MAX) = 710.48
            with np.errstate(over="ignore"):
                if not np.isfinite(np.cosh(th)).all():
                    raise NumericalError(f"atom_r parameter theta = {th.max():g} takes cosh "
                                         "and sinh beyond the floating-point range")
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
    applied *last*; ``apply_word`` uses the same convention.  A product
    beyond the floating-point range is a :class:`NumericalError`.
    """
    d = word_dim(word)
    mats = [token_matrix(t) for t in word]
    S = np.eye(2 * d, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for M in mats:
            S = S @ M
    if not np.isfinite(S).all():
        raise NumericalError("word matrix leaves the floating-point range")
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


def atom_matrix(theta, delta):
    """Matrix of the combined atom with disjointly supported parameters.

    ``theta`` and ``delta`` are nonnegative vectors with ``theta_j delta_j = 0``;
    the result is ``atom_r(theta) @ atom_p(delta)``.
    """
    th = _atom_vec(theta, "atom")
    de = _atom_vec(delta, "atom")
    if th.size != de.size:
        raise ValidationError("theta and delta must have equal length")
    if np.any(th * de > 1e-12):
        raise ValidationError("theta and delta must have disjoint supports")
    return token_matrix(atom_r(th)) @ token_matrix(atom_p(de))


def factor_R_theta(theta):
    """Exact elementary-word factorization of the rotation-type atom.

    For ``T = diag(tanh theta)`` and ``c = diag(cosh theta)`` the atom equals

        chirp(iT) . rescale(-c^{-1}, maslov=d) . fourier . chirp(iT) . fourier

    as an operator identity (phases included); the rescale's parity and phase
    index implement the inverse Fourier transform appearing in the middle.

    The tokens are built here, not by the factories: for a validated
    ``theta``, ``iT`` is symmetric with ``Im iT >= 0`` and ``-c^{-1}`` is a
    real diagonal, so both are valid by construction.  Invertibility is the
    rescale factory's verdict on a real diagonal, ``1/cosh theta`` against
    its largest entry at ``1e-10``; ``cosh theta`` past the float range gives
    ``1/cosh theta = 0`` and fails it.  The word is ``==`` to the one the
    factories build, and a ``theta`` they reject raises what they raise.
    """
    th = _atom_vec(theta, "atom_r")
    d = th.size
    with np.errstate(over="ignore"):
        c = 1.0 / np.cosh(th)
    if negligible(c.min(), c.max(), 1e-10):
        raise ValidationError("rescale matrix must be invertible")
    # the chirp factory's symmetrization t/2 + t/2, which rounds a subnormal t
    half = np.tanh(th) / 2
    T = _freeze(1j * np.diag(half + half))
    return [Token("chirp", d, mat=T), Token("rescale", d, mat=_freeze(-np.diag(c)), maslov=d % 4),
            Token("fourier", d), Token("chirp", d, mat=T), Token("fourier", d)]


# ----------------------------------------------------------------------------
# polar factorization and atomic normal form
# ----------------------------------------------------------------------------

@dataclass
class PolarDecomposition:
    """``S = U @ Z`` with ``U`` real symplectic and ``Z = sharp(U) @ S`` of
    exponential type (``sharp(Z) = Z``, spectrum in the right half plane)."""

    U: np.ndarray
    Z: np.ndarray
    residual: float


def matrix_polar(S):
    """Polar factorization of a positive symplectic matrix.

    ``sharp`` is the adjoint for the form ``x^* J y``, so ``S = U Z`` is the
    generalized polar decomposition of Higham, Mackey, Mackey and Tisseur
    (SIMAX 2005, 2006): ``U`` is the limit of the Newton iteration
    ``X <- (X + sharp(X)^{-1}) / 2`` started from ``S``, and
    ``Z = sharp(U) S = U^{-1} S``.  The iteration never forms
    ``sharp(S) @ S`` (which is ``Z^2``), so ``cond Z`` is not squared.  Nor
    is the input screened by the spectrum of that product: for a long flow
    the small partner ``e^{-2 theta}`` of an eigenvalue pair lies below the
    rounding of ``e^{2 theta}``, so its computed sign is noise.  The
    iteration's own failures and the checks on its result decide instead.

    For symplectic ``S``, ``sharp(S)^{-1} = conj(S)``, so the first step is
    exactly ``Re S``; from there every iterate is real, and the iteration
    runs in real arithmetic as ``X <- (X + J^T X^{-T} J) / 2``.  ``U`` is
    therefore real by construction.

    Raises
    ------
    ValidationError
        If ``S`` is not symplectic or not positive.
    DecompositionError
        If ``Re S`` or an iterate is singular, the iteration stalls, ``U``
        fails to be symplectic, or the residual of ``S = U Z`` is too large.
    """
    S = np.asarray(S, dtype=complex)
    rep = classify_positivity(S)
    if rep.klass == "NotSymplectic":
        raise ValidationError("polar factorization input must be symplectic")
    if not rep.positive:
        raise ValidationError(f"polar factorization needs a positive matrix, got {rep.klass}")
    # the step size estimates the error of the previous iterate, which the
    # quadratic convergence squares
    J = omega(S.shape[0] // 2)
    X = S.real
    try:
        for _ in range(100):
            X, X_old = (X + J.T @ np.linalg.inv(X).T @ J) / 2, X
            # the iterate nears a symplectic matrix, of norm >= 1: no floor
            if np.linalg.norm(X - X_old) <= 1e-9 * np.linalg.norm(X):
                break
        else:
            raise DecompositionError("polar iteration did not converge")
    except np.linalg.LinAlgError:
        raise DecompositionError("polar iteration met a singular iterate") from None
    U = X
    if not is_symplectic(U):
        # the symplectic SVD and the bounds consume U as a group element
        raise DecompositionError("real factor of the polar decomposition is not symplectic")
    Z = sharp(U) @ S
    residual = float(np.linalg.norm(S - U @ Z) / max(1e-300, np.linalg.norm(S)))
    if residual > 1e-7:
        raise DecompositionError(f"polar residual {residual:.2e} exceeds tolerance")
    return PolarDecomposition(U, Z, residual)


def _pairing(K):
    """Williamson's pairing of an antisymmetric ``K`` of full rank ``2m``:
    ``(kappa, O)``, where ``O = sqrt(2) [Im E | Re E]`` over the eigenvectors
    ``E`` of the positive eigenvalues of ``i K`` is orthogonal, in stacked
    ``(x, xi)`` order, with ``O^T K O = [[0, diag kappa], [-diag kappa, 0]]``
    (``kappa`` read off the computed ``O``, ascending up to rounding).  From
    ``i K (a + ib) = kappa (a + ib)``, ``K a = kappa b`` and ``K b = -kappa a``,
    and orthogonality to the conjugate (of eigenvalue ``-kappa``) gives
    ``|a| = |b|`` and ``a . b = 0``."""
    m = K.shape[0] // 2
    K = (K - K.T) / 2
    E = np.linalg.eigh(1j * K)[1][:, m:]
    O = np.sqrt(2) * np.concatenate([E.imag, E.real], axis=1)
    return np.diag(O[:, :m].T @ K @ O[:, m:]), O


def _williamson(P, w, Q):
    """Normal form of a symmetric positive definite ``P`` with the eigenpairs
    ``(w, Q)``: returns ``(lam, V)`` with ``V`` real symplectic, ``lam``
    descending, and ``P = V^T diag(lam, lam) V``.

    The pairing (:func:`_pairing`) of ``K = P^{-1/2} J P^{-1/2}`` is an
    orthogonal ``O`` with ``O^T K O = [[0, diag kappa], [-diag kappa, 0]]``.
    Then ``lam = 1 / kappa`` descends as ``kappa`` ascends, and
    ``V = diag(lam, lam)^{-1/2} O^T P^{1/2}``.
    """
    J = omega(P.shape[0] // 2)
    Proot = (Q * np.sqrt(w)) @ Q.T
    Pinvroot = (Q / np.sqrt(w)) @ Q.T
    kappa, O = _pairing(Pinvroot @ J @ Pinvroot)
    if kappa.min() <= 0 or negligible(kappa.min(), kappa.max(), 1e-9):
        raise DecompositionError("normal form pairing degenerated")
    lam = 1.0 / kappa
    lam2 = np.r_[lam, lam]
    V = (O.T * (lam2 ** -0.5)[:, None]) @ Proot

    if not negligible(V.T @ np.diag(lam2) @ V - P, P, 1e-6):
        raise DecompositionError("normal form reconstruction failed")
    if not negligible(V @ J @ V.T - J, np.linalg.norm(V) ** 2, 1e-6):
        raise DecompositionError("normal form produced a non-symplectic frame")
    return lam, V


def atomic_decompose(Z):
    """Atomic normal form of an exponential-type factor.

    Writes ``Z = V^{-1} Xi V`` with ``Xi = atom_matrix(theta, delta)`` and
    ``V`` real symplectic.  Since ``J V^{-1} = V^T J``, the form
    ``P = J Im Z = V^T (J Im Xi) V`` is symmetric positive semidefinite, and
    ``J Im Xi`` is diagonal: ``sinh theta_j`` in both slots of a rotation
    coordinate and ``delta_j`` in the position slot of a shear coordinate.
    So the normal form of ``P`` reads off ``V`` and the parameters.

    * ``P = 0``: identity atom.
    * ``P`` definite: the normal form of ``P`` gives a pure rotation-type
      atom, ``theta = arcsinh(lam)`` descending.
    * ``P`` singular: supported in dimension one only (rank-one shear atom);
      higher-dimensional degenerate forms raise
      :class:`UnsupportedDegenerate`.

    The reconstruction ``V^{-1} Xi V = Z`` is checked, which rejects an input
    that is not of exponential type.

    Returns
    -------
    (V, theta, delta)
    """
    Z = require_symplectic(Z, what="exponential factor")
    d = Z.shape[0] // 2
    P = omega(d) @ Z.imag
    P = (P + P.T) / 2

    w, Q = np.linalg.eigh(P)
    scaleP = float(np.max(np.abs(w))) if w.size else 0.0
    if negligible(scaleP, Z, 1e-9):
        V, theta, delta = np.eye(2 * d), np.zeros(d), np.zeros(d)
    elif w[0] < -1e-9 * scaleP:  # P is not zero: against its own spectrum
        raise DecompositionError("J Im Z is not positive semidefinite")
    elif w[0] > 1e-9 * scaleP:
        lam, V = _williamson(P, w, Q)
        theta, delta = np.arcsinh(lam), np.zeros(d)
    elif d == 1:
        # rank-one form: P = kappa u u^T gives a pure shear atom in the
        # rotated frame with first row u
        kappa, u = float(w[-1]), Q[:, -1]
        V = np.array([[u[0], u[1]], [-u[1], u[0]]])
        theta, delta = np.zeros(1), np.array([kappa])
    else:
        raise UnsupportedDegenerate(
            "a singular form J Im Z is only supported in dimension one")

    back = np.linalg.inv(V) @ atom_matrix(theta, delta) @ V
    if not negligible(back - Z, Z, 1e-5):
        raise DecompositionError("atomic reconstruction failed its residual check")
    return V, theta, delta


def symplectic_svd(U):
    """Singular value decomposition within the real symplectic group.

    For real symplectic ``U`` returns ``(W, sigma, V)`` with ``W, V``
    orthogonal *and* symplectic, ``sigma`` the descending singular values
    ``>= 1``, and ``U = W diag(sigma, 1/sigma) V^T``.

    The generator ``L = log(U^T U)/2`` anticommutes with ``J``, so ``J`` maps
    the ``+mu`` eigenspace onto the ``-mu`` one; an orthonormal eigenbasis of
    the positive side, completed by ``-J`` images, is automatically
    orthogonal-symplectic.  ``J`` maps the kernel of ``L`` onto itself, and
    there the pairing of :func:`_pairing`, applied to ``J`` on the kernel,
    gives the ``x`` slots: the rule that builds the frame of the normal form
    in :func:`atomic_decompose`.
    """
    U = require_symplectic(np.asarray(U, dtype=float), what="real symplectic matrix").real
    d = U.shape[0] // 2
    J = omega(d)

    G = U.T @ U
    w, E = np.linalg.eigh((G + G.T) / 2)
    if w[0] <= 0:
        raise DecompositionError("Gram matrix is not positive definite")
    # L has the eigenvectors E and the ascending eigenvalues log(w)/2
    mu = 0.5 * np.log(w)
    top = float(np.max(np.abs(mu)))
    ker = np.array([negligible(x, top, 1e-9) for x in mu])
    pos = np.flatnonzero((mu > 0) & ~ker)[::-1]      # descending
    m = np.count_nonzero(ker) // 2
    if pos.size + m != d or np.count_nonzero(ker) % 2:
        raise DecompositionError("eigenvalue pairing of the symplectic SVD failed")

    # J maps the kernel onto itself: the x slots of the pairing of J there
    # complete the frame
    Wcols, kb = E[:, pos], E[:, ker]
    if m:
        Wcols = np.concatenate([Wcols, kb @ _pairing(kb.T @ J @ kb)[1][:, :m]], axis=1)
    Om = np.concatenate([Wcols, -J @ Wcols], axis=1)
    sig = np.exp(np.concatenate([mu[pos], np.zeros(m)]))
    W = U @ Om * np.r_[1.0 / sig, sig]

    recon = (W * np.r_[sig, 1.0 / sig][None, :]) @ Om.T
    if not negligible(recon - U, U, 1e-6):
        raise DecompositionError("symplectic SVD reconstruction failed")
    for F in (W, Om):
        if np.linalg.norm(F.T @ F - np.eye(2 * d)) > 1e-6:
            raise DecompositionError("symplectic SVD frame is not orthogonal")
    return W, sig, Om


# ----------------------------------------------------------------------------
# structural classifiers
# ----------------------------------------------------------------------------

def classify_block_triangular(S):
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
    S = np.asarray(S, dtype=complex)
    eigen = classify_positivity(S)  # the one symplectic test of this call
    if eigen.klass == "NotSymplectic":
        require_symplectic(S)  # raises
    A, B, C, D = blocks(S)
    normS = np.linalg.norm(S)
    b_zero, c_zero = negligible(B, normS, 1e-9), negligible(C, normS, 1e-9)
    if not (b_zero or c_zero):
        raise NotTriangular("neither off-diagonal block vanishes")

    shape, diag, off, sign = ("lower", A, A.T @ C, 1) if b_zero else ("upper", D, D.T @ B, -1)

    a_real, a_invertible = _real_invertible(diag, 1e-9)
    signature_ok = semidefinite(sign * off.imag, 1e-9)

    structural = a_real and a_invertible and signature_ok
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


def classify_conjugation_commuting(S):
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
    S = np.asarray(S, dtype=complex)
    eigen = classify_positivity(S)  # the one symplectic test of this call
    if eigen.klass == "NotSymplectic":
        require_symplectic(S)  # raises
    normS = np.linalg.norm(S)
    if not negligible(S - tilde(S), normS, 1e-9):
        raise NotConjugationSymmetric("matrix is not fixed by the conjugation symmetry")
    A, B, C, D = blocks(S)

    a_real, a_invertible = _real_invertible(A, 1e-9)
    lower_ok = semidefinite((A.T @ C).imag, 1e-9)
    upper_ok = semidefinite(-(A @ B.T).imag, 1e-9)

    structural = a_real and a_invertible and lower_ok and upper_ok
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
        resid = float(np.linalg.norm(word_to_matrix(word) - S) / max(1.0, normS))
        report["word"] = word
        report["synthesis_residual"] = resid
    return report


# ----------------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------------

def random_word(rng, d, max_len=8):
    """Draw a random generator word inside the positivity domain.

    Parameters are kept at the moderate scale 0.6 so that products of up to
    ``max_len`` factors stay well-conditioned for the fixed tolerances.
    """
    def sym(M):
        return (M + M.T) / 2 * 0.6

    def psd():
        G = rng.standard_normal((d, d)) * 0.6
        return G @ G.T / max(1, d)

    n = int(rng.integers(1, max_len + 1))
    word = []
    for _ in range(n):
        kind = rng.integers(0, 6)
        if kind == 0:
            word.append(fourier(d))
        elif kind == 1:
            Q = sym(rng.standard_normal((d, d))) + 1j * psd()
            word.append(chirp(Q))
        elif kind == 2:
            q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
            q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
            E = q1 @ np.diag(np.exp(rng.uniform(-0.5, 0.5, d))) @ q2
            word.append(rescale(E, maslov=int(rng.integers(0, 4))))
        elif kind == 3:
            P = sym(rng.standard_normal((d, d))) - 1j * psd()
            word.append(multiplier(P))
        elif kind == 4:
            word.append(atom_r(rng.uniform(0.0, 0.8, d)))
        else:
            word.append(atom_p(rng.uniform(0.0, 0.8, d)))
    return word
