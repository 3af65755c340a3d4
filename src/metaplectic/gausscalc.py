"""Closed-form action of generator words on Gaussian states.

A *Gaussian state* is

    f(x) = c * exp(i pi Q x . x + 2 pi i b . x)

with ``Q`` complex symmetric, ``Im Q`` positive definite (or semidefinite
when explicitly allowed, e.g. for phase-space symbols), ``b`` a complex
vector and ``c`` a complex amplitude.  Finite lists of states ("Gaussian
sums") are closed under every operation here, and every operation is exact
in the parameters: the only floating-point error is that of the matrix
algebra itself.  This makes the module the reference oracle for the sampled
grid representation.

Conventions fixed once:

* the Fourier generator is ``i^{-d/2}`` times the classical transform
  (integral kernel ``exp(-2 pi i x . xi)``);
* every token except a rescale acts through one formula, the matrix
  action ``Q -> (C + D Q)(A + B Q)^{-1}`` of :func:`apply_matrix`;
* a sum is acted on as one stack: the token matrix, the determinant root
  of the matrix and each numpy step are taken once per matrix, not once
  per term, and a single state is a stack of one;
* square roots of determinants are taken eigenvalue-by-eigenvalue on the
  principal branch; for a token matrix ``det(A + iB)^{-1/2}`` is then the
  token's metaplectic phase, so words carry a definite phase;
* the action of a matrix fixes that root once per matrix and continues it
  from the ground state to every other state, so a matrix acts as one
  linear operator, defined up to a global sign;
* the Wigner distribution uses the *classical* partial Fourier transform,
  so that ``W(f, f)`` is real for every ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, ValidationError
from .sympcore import (
    Token,
    blocks,
    from_blocks,
    semidefinite,
    sym_part,
    token_matrix,
    word_dim,
    word_to_matrix,
)

__all__ = [
    "GaussianState",
    "standard_gaussian",
    "conjugate_state",
    "eval_state",
    "det_pow",
    "gaussian_integral",
    "shift",
    "complex_shift",
    "apply_token",
    "apply_word",
    "apply_matrix",
    "inner_product",
    "norm",
    "wigner_gaussian",
    "check_intertwining",
]


@dataclass(frozen=True)
class GaussianState:
    """Parameters of ``c exp(i pi Q x.x + 2 pi i b.x)`` on R^d."""

    d: int
    c: complex
    Q: np.ndarray
    b: np.ndarray
    allow_degenerate: bool = False

    def __post_init__(self):
        d = int(self.d)
        Q = np.atleast_2d(np.asarray(self.Q, dtype=complex))
        b = np.atleast_1d(np.asarray(self.b, dtype=complex))
        if Q.shape != (d, d) or b.shape != (d,):
            raise ValidationError(f"state shape mismatch: d={d}, Q {Q.shape}, b {b.shape}")
        Q = sym_part(Q, "Q", tol=1e-10)
        if self.allow_degenerate:
            if not semidefinite(Q.imag, 1e-9):
                raise ValidationError("Im Q must be positive semidefinite")
        elif not semidefinite(Q.imag, 1e-14, definite=True):
            raise ValidationError("Im Q must be positive definite (decaying state)")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)


def standard_gaussian(d):
    """The unit-amplitude Gaussian ``exp(-pi |x|^2)`` (Q = iI, b = 0, c = 1)."""
    return GaussianState(d, 1.0, 1j * np.eye(d), np.zeros(d))


def conjugate_state(f):
    """State of ``conj(f)``: ``Q -> -conj Q``, ``b -> -conj b``, ``c -> conj c``."""
    if isinstance(f, list):
        return [conjugate_state(t) for t in f]
    return GaussianState(f.d, np.conj(f.c), -np.conj(f.Q), -np.conj(f.b), f.allow_degenerate)


def _terms(f):
    return f if isinstance(f, list) else [f]


def _sum_dim(terms):
    """Dimension of a nonempty list of terms; an empty sum has none."""
    if not terms:
        raise ValidationError("empty Gaussian sum has no dimension")
    return terms[0].d


def eval_state(f, x):
    """Evaluate a state or sum at points ``x`` (shape ``(..., d)``; for d=1
    plain scalars/vectors are accepted)."""
    terms = _terms(f)
    d = _sum_dim(terms)
    x = np.asarray(x, dtype=complex)
    if d == 1 and (x.ndim == 0 or x.shape[-1] != 1):
        x = x[..., None]
    acc = 0
    for t in terms:
        quad = np.einsum("...i,ij,...j->...", x, t.Q, x)
        lin = x @ t.b
        acc = acc + t.c * np.exp(1j * np.pi * quad + 2j * np.pi * lin)
    return acc


def det_pow(M, power):
    """``det(M)^power`` as a product of per-eigenvalue principal powers.

    This is the branch convention used throughout: it is continuous along
    the parameter paths generated by the token semigroup, where the whole
    spectrum stays off the closed negative real axis.
    """
    lam = np.linalg.eigvals(np.atleast_2d(M))
    if np.any(np.abs(lam) < 1e-300):
        raise DecompositionError("singular matrix in determinant power")
    return complex(np.exp(power * np.sum(np.log(lam))))


def gaussian_integral(M, z):
    """``int exp(-pi M y.y - 2 pi i z.y) dy = det(M)^{-1/2} exp(-pi M^{-1} z.z)``.

    Requires ``Re M`` positive definite (absolute convergence).  The
    determinant root is the product of principal eigenvalue roots, which on
    the convergence domain agrees with the continuous branch through
    ``M = I``.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    ReM = (M.real + M.real.T) / 2
    w = np.linalg.eigvalsh(ReM)
    if w[0] <= 0:
        raise ValidationError("gaussian_integral requires Re M positive definite")
    return det_pow(M, -0.5) * np.exp(-np.pi * np.linalg.solve(M, z) @ z)


# ----------------------------------------------------------------------------
# phase-space shifts
# ----------------------------------------------------------------------------

def shift(f, z, tau=0.0):
    """Time-frequency shift ``e^{2 pi i tau} e^{-i pi x0.xi0} e^{2 pi i xi0.y} f(y - x0)``
    with real phase-space point ``z = (x0, xi0)``."""
    if isinstance(f, list):
        return [shift(t, z, tau) for t in f]
    z = np.asarray(z, dtype=float)
    d = f.d
    if z.shape != (2 * d,):
        raise ValidationError("shift expects a real phase-space point of length 2d")
    return complex_shift(f, z[:d], z[d:], tau)


def complex_shift(f, zx, zw, tau=0.0):
    """Complexified shift ``e^{2 pi i tau} e^{-i pi z.w} e^{2 pi i w.y} f(y - z)``.

    The parameters may be complex; with ``w = xi0``, ``z = x0`` real this is
    :func:`shift`.  Completing the square in the exponent gives the exact
    parameter update.
    """
    if isinstance(f, list):
        return [complex_shift(t, zx, zw, tau) for t in f]
    zx = np.atleast_1d(np.asarray(zx, dtype=complex))
    zw = np.atleast_1d(np.asarray(zw, dtype=complex))
    b = f.b + zw - f.Q @ zx
    c = f.c * np.exp(2j * np.pi * tau
                     - 1j * np.pi * zx @ zw
                     + 1j * np.pi * (f.Q @ zx) @ zx
                     - 2j * np.pi * f.b @ zx)
    return GaussianState(f.d, c, f.Q, b, f.allow_degenerate)


# ----------------------------------------------------------------------------
# token and word action
# ----------------------------------------------------------------------------

def apply_token(t, f):
    """Apply one generator token to a state or sum; exact in parameters.

    A rescale carries its own phase ``i^maslov |det E|^{1/2}``.  Every other
    token acts through :func:`apply_matrix` on its matrix, where the root
    ``det(A + iB)^{-1/2}`` is the token's metaplectic phase: ``exp(-i pi d/4)``
    for the Fourier token, 1 for a chirp and ``atom_p``, and the continuous
    branch from the identity for a multiplier and ``atom_r`` (``A + iB``
    keeps its spectrum in the open right half plane there).  A sum shares
    one token matrix.
    """
    if not isinstance(t, Token):
        raise ValidationError("apply_token expects a generator token")
    terms = _terms(f)
    for g in terms:
        if t.d != g.d:
            raise ValidationError(f"token dimension {t.d} does not match state dimension {g.d}")
    if not terms:
        return []
    if t.op != "rescale":
        return apply_matrix(token_matrix(t), f)
    E = t.matrix_param().real
    phase, scale = (1j) ** (t.maslov % 4), np.sqrt(abs(np.linalg.det(E)))
    out = [GaussianState(g.d, g.c * phase * scale, E.T @ g.Q @ E, E.T @ g.b, g.allow_degenerate)
           for g in terms]
    return out if isinstance(f, list) else out[0]


def apply_word(word, f):
    """Apply a generator word; the first token in the list acts last."""
    for t in reversed(word):
        f = apply_token(t, f)
    return f


def apply_matrix(S, f):
    """Closed-form action of the operator of a positive symplectic ``S``.

    For ``f`` with parameters ``(Q, b, c)`` and ``S = [[A, B], [C, D]]``:

        Q' = (C + D Q)(A + B Q)^{-1}
        b' = D b - Q' B b
        c' = c det(A + B Q)^{-1/2} exp(-i pi (B b).(D b)) exp(i pi Q'(B b).(B b))

    The determinant root is fixed once per matrix.  With ``T0 = A + iB``
    and ``lam`` the eigenvalues of ``T0^{-1} (A + B Q)``, along the segment
    ``Q_s = iI + s (Q - iI)`` we have ``det(A + B Q_s) = det(T0) prod_j
    (1 + s (lam_j - 1))``; each factor runs on a straight segment from 1 that
    misses 0, so ``det_pow(T0, -1/2) prod_j lam_j^{-1/2}`` is the
    continuation from the ground state.  The result is one linear operator,
    equal to the word route up to one global sign (and exactly in ``Q`` and
    ``b``).

    A sum acts as one stack: the blocks and the root of ``det T0`` are taken
    once, and each step of the term algebra is one batched call over the
    ``(k, d, d)`` stack of the ``k`` terms.  A single state is a stack of one.
    """
    terms = _terms(f)
    if not terms:
        return []
    S = np.asarray(S, dtype=complex)
    A, B, C, D = blocks(S)
    if not np.all(np.isfinite(S)):
        raise ValidationError("matrix must be finite")
    if any(g.d != A.shape[0] for g in terms):
        raise ValidationError("matrix dimension does not match state dimension")
    Q = np.array([g.Q for g in terms])
    b = np.array([g.b for g in terms])[..., None]   # (k, d, 1) columns
    T0 = A + 1j * B
    T = A + B @ Q
    try:
        lam = np.linalg.eigvals(np.linalg.solve(T0, T))
    except np.linalg.LinAlgError:
        raise DecompositionError("matrix action is singular on the ground state")
    mod = np.abs(lam)
    if np.any(mod.min(axis=1) < 1e-10 * mod.max(axis=1, initial=1.0)):
        raise DecompositionError("matrix action is singular on this state")
    Qp = np.linalg.solve(T.transpose(0, 2, 1), (C + D @ Q).transpose(0, 2, 1))
    Qp = Qp.transpose(0, 2, 1) / 2 + Qp / 2
    Bb, Db = B @ b, D @ b
    QBb = Qp @ Bb
    bp = (Db - QBb)[..., 0]
    # row-times-column products round as the per-term vector dot does
    phase = (np.swapaxes(-1j * np.pi * Bb, 1, 2) @ Db
             + np.swapaxes(1j * np.pi * QBb, 1, 2) @ Bb)[:, 0, 0]
    c = np.array([g.c for g in terms]) * det_pow(T0, -0.5) * np.prod(lam ** -0.5, axis=1) \
        * np.exp(phase)
    out = [GaussianState(g.d, ck, Qk, bk, g.allow_degenerate)
           for g, ck, Qk, bk in zip(terms, c, Qp, bp)]
    return out if isinstance(f, list) else out[0]


# ----------------------------------------------------------------------------
# sesquilinear forms
# ----------------------------------------------------------------------------

def inner_product(f, g):
    """L^2 inner product ``<f, g> = int f conj(g)`` of states or sums."""
    total = 0j
    for tf in _terms(f):
        for tg in _terms(g):
            M = -1j * (tf.Q - np.conj(tg.Q))
            z = tf.b - np.conj(tg.b)
            total += tf.c * np.conj(tg.c) * gaussian_integral(M, z)
    return total


def norm(f):
    val = inner_product(f, f).real
    return float(np.sqrt(max(val, 0.0)))


# ----------------------------------------------------------------------------
# Wigner distribution
# ----------------------------------------------------------------------------

def wigner_gaussian(f, g=None):
    """Cross-Wigner distribution ``W(f, g)`` as a 2d-dimensional Gaussian sum.

    ``W(f, g)(x, xi) = int f(x + y/2) conj(g(x - y/2)) e^{-2 pi i y.xi} dy``
    computed exactly: tensor ``f`` with the conjugate of ``g``, pull back by
    the coordinate change ``(x, y) -> (x + y/2, x - y/2)``, and take the
    classical Fourier transform in ``y``.  That transform is
    :func:`apply_matrix` of the partial Fourier matrix, whose metaplectic
    phase ``exp(-i pi d/4)`` the amplitude cancels in advance.  ``W(f, f)``
    is real; for the standard Gaussian ``W = 2^{d/2} exp(-2 pi |z|^2)``.
    """
    if g is None:
        g = f
    fterms, gterms = _terms(f), _terms(g)
    d = _sum_dim(fterms)
    if _sum_dim(gterms) != d:
        raise ValidationError("both slots of a Wigner distribution need one dimension")
    I = np.eye(d)
    Ew = from_blocks(I, I / 2, I, -I / 2)
    X = np.diag(np.r_[np.ones(d), np.zeros(d)])
    Y = np.eye(2 * d) - X
    F2 = from_blocks(X, Y, -Y, X)
    phase = np.exp(0.25j * np.pi * d)
    gconj = conjugate_state(gterms)
    tensors = []
    for tf in fterms:
        for tg, tgc in zip(gterms, gconj):
            Qt = np.zeros((2 * d, 2 * d), dtype=complex)
            Qt[:d, :d], Qt[d:, d:] = tf.Q, tgc.Q
            tensors.append(GaussianState(2 * d, phase * tf.c * tgc.c, Ew.T @ Qt @ Ew,
                                         Ew.T @ np.r_[tf.b, tgc.b],
                                         tf.allow_degenerate or tg.allow_degenerate))
    out = apply_matrix(F2, tensors)
    return out if (isinstance(f, list) or isinstance(g, list)) else out[0]


# ----------------------------------------------------------------------------
# intertwining check
# ----------------------------------------------------------------------------

def check_intertwining(word, z, tau, f):
    """Residual of the covariance relation of a word with phase-space shifts.

    Left route: shift by the real point ``z`` (with phase ``tau``), then
    apply the word.  Right route: apply the word, then shift by the
    (generally complex) image ``S z`` under the word's matrix.  The two are
    equal as operators, so the parameters of the resulting sums must match
    term by term, phases included.  Returns the largest relative discrepancy
    over parameters and over pointwise samples.
    """
    terms = _terms(f)
    d = _sum_dim(terms)
    z = np.asarray(z, dtype=float)
    S = word_to_matrix(word)
    if word_dim(word) != d or z.shape != (2 * d,):
        raise ValidationError("word, state, and shift dimensions must agree")
    Sz = S @ z

    left = apply_word(word, shift(terms, z, tau))
    right = complex_shift(apply_word(word, terms), Sz[:d], Sz[d:], tau)

    res = 0.0
    for lt, rt in zip(left, right):
        res = max(res, np.linalg.norm(lt.Q - rt.Q) / max(1.0, np.linalg.norm(lt.Q)))
        res = max(res, np.linalg.norm(lt.b - rt.b) / max(1.0, np.linalg.norm(lt.b)))
        res = max(res, abs(lt.c - rt.c) / max(1.0, abs(lt.c)))

    ts = np.linspace(-1.5, 1.5, 7)
    dirs = [np.ones(d), np.eye(d)[0]]
    pts = np.concatenate([np.outer(ts, v) for v in dirs], axis=0)
    lv = eval_state(left, pts)
    rv = eval_state(right, pts)
    res = max(res, float(np.max(np.abs(lv - rv)) / max(1.0, float(np.max(np.abs(lv))))))
    return float(res)
