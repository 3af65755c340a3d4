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
* inside the module a state or a sum is one parameter stack ``c (k,)``,
  ``Q (k, d, d)``, ``b (k, d)``, ``degenerate (k,)``, and every operation
  is arithmetic on it: a word takes each token's matrix, determinant root
  and numpy step once, not once per term.  :func:`_stack` is the one entry,
  where a sum must have one dimension, and :func:`_unstack` the one exit,
  where states are built.  An empty sum has no dimension: the maps (shifts,
  conjugation, token, word and matrix action) keep it empty, its inner
  products are 0, and the other operations raise :class:`ValidationError`;
* every token except a rescale acts through one formula, the matrix
  action ``Q -> (C + D Q)(A + B Q)^{-1}`` of :func:`apply_matrix`;
* each token's output is validated once, as a stack, with the tests of
  :class:`GaussianState` (the symmetry test only after a rescale, the
  matrix action being symmetric by construction);
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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, NumericalError, ValidationError
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
    """Parameters of ``c exp(i pi Q x.x + 2 pi i b.x)`` on R^d.

    Construction checks that ``Q`` is symmetric and that the state decays
    (:func:`_require_decay`); the results of this module are built from
    stacks that passed the same checks."""

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
        _require_decay(Q[None], np.array([self.allow_degenerate]))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)

    @classmethod
    def _from_valid(cls, d, c, Q, b, allow_degenerate):
        """A state from fields that already pass the checks above: ``Q`` a
        symmetric complex ``(d, d)`` array that decays as flagged, ``b`` a
        complex ``(d,)`` array.  Private to this module."""
        state = object.__new__(cls)
        state.__dict__.update(d=d, c=c, Q=Q, b=b, allow_degenerate=allow_degenerate)
        return state


def _require_decay(Q, degenerate):
    """Raise as :class:`GaussianState` does unless ``Im Q`` of every member
    of the stack ``Q`` is positive definite, or, where ``degenerate`` flags
    it, positive semidefinite.  Below size one the margin is relative to the
    member's own size ``max |Q_ij|``, so a flat decaying exponent passes
    however small it is, and ``Q = 0`` decays only when allowed to be
    degenerate."""
    H = Q.imag
    size = np.abs(Q).max(axis=(-2, -1))
    if np.count_nonzero(degenerate):
        if not semidefinite(H[degenerate], 1e-9, size=size[degenerate]):
            raise ValidationError("Im Q must be positive semidefinite")
        H, size = H[~degenerate], size[~degenerate]
    if H.size and not semidefinite(H, 1e-14, definite=True, size=size):
        raise ValidationError("Im Q must be positive definite (decaying state)")


def _validated(Q, degenerate, symmetric):
    """``Q`` of a stack of output terms, after the tests of
    :class:`GaussianState` run once over the stack: the symmetry test only
    where ``Q`` is not ``symmetric`` by construction, and the decay test.
    When the stack fails, its terms are tested one by one, so the error is
    that of the first failing term."""
    try:
        out = Q if symmetric else sym_part(Q, "Q", tol=1e-10)
        _require_decay(out, degenerate)
        return out
    except ValidationError:
        if len(Q) > 1:
            for k in range(len(Q)):
                _validated(Q[k:k + 1], degenerate[k:k + 1], symmetric)
        raise


def _stack(f, empty=False):
    """The parameter stack ``(c, Q, b, degenerate)`` of a state or a sum,
    the one entry of the module: the terms of a sum must share one
    dimension.  An empty sum has none; it is ``None`` where ``empty`` admits
    it and a :class:`ValidationError` elsewhere."""
    terms = f if isinstance(f, list) else [f]
    if not terms:
        if empty:
            return None
        raise ValidationError("empty Gaussian sum has no dimension")
    dims = {g.d for g in terms}
    if len(dims) > 1:
        raise ValidationError(f"a Gaussian sum needs one dimension, not {sorted(dims)}")
    return (np.array([g.c for g in terms]), np.array([g.Q for g in terms]),
            np.array([g.b for g in terms]), np.array([g.allow_degenerate for g in terms]))


def _unstack(stack, *like):
    """The states of a validated stack, the one exit of the module: a list
    when any of the inputs ``like`` is a sum, else the one state."""
    c, Q, b, degenerate = stack
    out = [GaussianState._from_valid(Q.shape[-1], complex(ck), Qk, bk, bool(gk))
           for ck, Qk, bk, gk in zip(c, Q, b, degenerate)]
    return out if any(isinstance(x, list) for x in like) else out[0]


def _map(op, f):
    """``op`` on the stack of ``f``, as states shaped like ``f``; an empty
    sum stays empty."""
    stack = _stack(f, empty=True)
    return [] if stack is None else _unstack(op(*stack), f)


def standard_gaussian(d):
    """The unit-amplitude Gaussian ``exp(-pi |x|^2)`` (Q = iI, b = 0, c = 1)."""
    return GaussianState(d, 1.0, 1j * np.eye(d), np.zeros(d))


def conjugate_state(f):
    """State of ``conj(f)``: ``Q -> -conj Q``, ``b -> -conj b``, ``c -> conj c``."""
    # Im(-conj Q) = Im Q and -conj Q is symmetric: the stack's checks still hold
    return _map(lambda c, Q, b, degenerate: (np.conj(c), -np.conj(Q), -np.conj(b), degenerate),
                f)


def eval_state(f, x):
    """Evaluate a state or sum at points ``x`` (shape ``(..., d)``; for d=1
    plain scalars/vectors are accepted)."""
    return _eval(_stack(f), x)


def _eval(stack, x):
    """:func:`eval_state` of a stack."""
    c, Q, b, _ = stack
    d = Q.shape[-1]
    x = np.asarray(x, dtype=complex)
    if d == 1 and (x.ndim == 0 or x.shape[-1] != 1):
        x = x[..., None]
    if x.shape[-1] != d:
        raise ValidationError(f"evaluation points need {d} coordinates")
    quad = np.einsum("...i,kij,...j->...k", x, Q, x)
    return np.sum(c * np.exp(1j * np.pi * quad + 2j * np.pi * (x @ b.T)), axis=-1)


def det_pow(M, power):
    """``det(M)^power`` as a product of per-eigenvalue principal powers, for
    a matrix or for each member of a stack ``(..., d, d)``.

    This is the branch convention used throughout: it is continuous along
    the parameter paths generated by the token semigroup, where the whole
    spectrum stays off the closed negative real axis.
    """
    lam = np.linalg.eigvals(np.atleast_2d(M))
    if np.any(np.abs(lam) < 1e-300):
        raise DecompositionError("singular matrix in determinant power")
    return np.exp(power * np.sum(np.log(lam), axis=-1))


def gaussian_integral(M, z):
    """``int exp(-pi M y.y - 2 pi i z.y) dy = det(M)^{-1/2} exp(-pi M^{-1} z.z)``,
    for one ``M`` and ``z`` or for each member of stacks ``(..., d, d)`` and
    ``(..., d)``.

    Requires ``Re M`` positive definite (absolute convergence).  The
    determinant root is the product of principal eigenvalue roots, which on
    the convergence domain agrees with the continuous branch through
    ``M = I``.  An integral beyond the float range is a
    :class:`NumericalError`.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    ReM = (M.real + M.real.swapaxes(-1, -2)) / 2
    if (np.linalg.eigvalsh(ReM)[..., 0] <= 0).any():
        raise ValidationError("gaussian_integral requires Re M positive definite")
    y = np.linalg.solve(M, z[..., None])
    with np.errstate(over="ignore", invalid="ignore"):
        # a row-times-column product rounds as the vector dot does
        out = det_pow(M, -0.5) * np.exp((-np.pi * y.swapaxes(-1, -2) @ z[..., None])[..., 0, 0])
    if not np.isfinite(out).all():
        raise NumericalError("Gaussian integral overflows")
    return out


# ----------------------------------------------------------------------------
# phase-space shifts
# ----------------------------------------------------------------------------

def shift(f, z, tau=0.0):
    """Time-frequency shift ``e^{2 pi i tau} e^{-i pi x0.xi0} e^{2 pi i xi0.y} f(y - x0)``
    with real phase-space point ``z = (x0, xi0)``."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return complex_shift(f, z[:z.size // 2], z[z.size // 2:], tau)


def complex_shift(f, zx, zw, tau=0.0):
    """Complexified shift ``e^{2 pi i tau} e^{-i pi z.w} e^{2 pi i w.y} f(y - z)``.

    The parameters may be complex; with ``w = xi0``, ``z = x0`` real this is
    :func:`shift`.  Completing the square in the exponent gives the exact
    parameter update.  Non-finite parameters are a :class:`ValidationError`,
    and a shift whose new state overflows is a :class:`NumericalError`.
    """
    return _map(lambda *stack: _shift(stack, zx, zw, tau), f)


def _shift(stack, zx, zw, tau):
    """:func:`complex_shift` of a stack."""
    c, Q, b, degenerate = stack
    zx = np.atleast_1d(np.asarray(zx, dtype=complex))
    zw = np.atleast_1d(np.asarray(zw, dtype=complex))
    if not (np.isfinite(zx).all() and np.isfinite(zw).all() and np.isfinite(tau)):
        raise ValidationError("shift parameters must be finite")
    if not zx.shape == zw.shape == b.shape[1:]:
        raise ValidationError(f"a shift in dimension {b.shape[1]} needs a point of length "
                              f"{2 * b.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        Qz = Q @ zx
        c = c * np.exp(2j * np.pi * tau
                       - 1j * np.pi * zx @ zw
                       + 1j * np.pi * Qz @ zx
                       - 2j * np.pi * b @ zx)
        b = b + zw - Qz
    if not (np.isfinite(c).all() and np.isfinite(b).all()):
        raise NumericalError("shifted state overflows")
    # Q is unchanged, so the stack's checks on it still hold
    return c, Q, b, degenerate


# ----------------------------------------------------------------------------
# token and word action
# ----------------------------------------------------------------------------

def apply_token(t, f):
    """Apply one generator token to a state or sum; exact in parameters.

    A rescale carries its own phase ``i^maslov |det E|^{1/2}``.  Every other
    token acts through the matrix action of :func:`apply_matrix` on its
    matrix, where the root ``det(A + iB)^{-1/2}`` is the token's metaplectic
    phase: ``exp(-i pi d/4)`` for the Fourier token, 1 for a chirp and
    ``atom_p``, and the continuous branch from the identity for a
    multiplier and ``atom_r`` (``A + iB`` keeps its spectrum in the open
    right half plane there).  This is the word ``[t]``.
    """
    return apply_word([t], f)


def apply_word(word, f):
    """Apply a generator word; the first token in the list acts last.

    Each token is checked (type, then dimension) when it is reached, so a
    word fails at the same token, with the same error, as applying its
    tokens one at a time.
    """
    stack = _word(word, _stack(f, empty=True))
    return [] if stack is None else _unstack(stack, f)


def _word(word, stack):
    """:func:`apply_word` on a stack; on ``None``, an empty sum, only the
    token types are checked."""
    for t in reversed(word):
        if not isinstance(t, Token):
            raise ValidationError("apply_token expects a generator token")
        if stack is None:
            continue
        d = stack[2].shape[1]
        if t.d != d:
            raise ValidationError(f"token dimension {t.d} does not match state dimension {d}")
        if t.op == "rescale":
            stack = _rescale(t.matrix_param().real, t.maslov, *stack)
        else:
            stack = _act(_matrix_blocks(token_matrix(t), d), *stack)
    return stack


def _rescale(E, maslov, c, Q, b, degenerate):
    """``f -> i^maslov |det E|^{1/2} f(E x)`` on a stack; a rescaled state
    past the float range is a :class:`NumericalError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = c * (1j) ** (maslov % 4) * np.sqrt(abs(np.linalg.det(E)))
        Q, b = E.T @ Q @ E, b @ E
    if not (np.isfinite(c).all() and np.isfinite(Q).all() and np.isfinite(b).all()):
        raise NumericalError("rescaled state leaves the floating-point range")
    return c, _validated(Q, degenerate, symmetric=False), b, degenerate


def _matrix_blocks(S, d):
    """The blocks of a finite matrix that acts on states of dimension ``d``."""
    S = np.asarray(S, dtype=complex)
    A, B, C, D = blocks(S)
    if not np.isfinite(S).all():
        raise ValidationError("matrix must be finite")
    if A.shape[0] != d:
        raise ValidationError("matrix dimension does not match state dimension")
    return A, B, C, D


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
    ``b``).  The blocks and the root of ``det T0`` are taken once per sum.
    """
    return _map(lambda *stack: _act(_matrix_blocks(S, stack[2].shape[1]), *stack), f)


def _act(ABCD, c, Q, b, degenerate):
    """The matrix action of :func:`apply_matrix` on a stack."""
    A, B, C, D = ABCD
    b = b[..., None]   # (k, d, 1) columns
    with np.errstate(over="ignore", invalid="ignore"):
        T = A + B @ Q
        N = C + D @ Q
    if not (np.isfinite(T).all() and np.isfinite(N).all()):
        raise NumericalError("matrix action overflows on this state")
    T0 = A + 1j * B
    try:
        lam = np.linalg.eigvals(np.linalg.solve(T0, T))
    except np.linalg.LinAlgError:
        raise DecompositionError("matrix action is singular on the ground state")
    mod = np.abs(lam)
    if (mod.min(axis=1) < 1e-10 * mod.max(axis=1, initial=1.0)).any():  # negligible, per term
        raise DecompositionError("matrix action is singular on this state")
    Qp = np.linalg.solve(T.transpose(0, 2, 1), N.transpose(0, 2, 1))
    Qp = Qp.transpose(0, 2, 1) / 2 + Qp / 2
    Bb, Db = B @ b, D @ b
    QBb = Qp @ Bb
    bp = (Db - QBb)[..., 0]
    # row-times-column products round as the per-term vector dot does
    phase = (np.swapaxes(-1j * np.pi * Bb, 1, 2) @ Db
             + np.swapaxes(1j * np.pi * QBb, 1, 2) @ Bb)[:, 0, 0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pre = c * det_pow(T0, -0.5) * np.prod(lam ** -0.5, axis=1)
        c = pre * np.exp(phase)
        if not np.isfinite(c).all():
            # exp(phase) alone may leave the float range: one exponential of
            # the summed logarithms keeps a product that is itself in range
            # (a zero pre-factor has lost its size already)
            c = np.where(np.isfinite(c) | (pre == 0), c, np.exp(np.log(pre) + phase))
            if not np.isfinite(c).all():
                raise NumericalError("amplitude of the transformed state leaves the "
                                     "floating-point range")
    return c, _validated(Qp, degenerate, symmetric=True), bp, degenerate


# ----------------------------------------------------------------------------
# sesquilinear forms
# ----------------------------------------------------------------------------

def inner_product(f, g):
    """L^2 inner product ``<f, g> = int f conj(g)`` of states or sums, from
    :func:`_inner`; one that overflows is a :class:`NumericalError`."""
    a, b, unit = _inner(f, g)
    out = a * (b * complex(unit))  # Python arithmetic: an overflow is inf, not a warning
    if not np.isfinite(out):
        raise NumericalError("inner product overflows")
    return np.complex128(out)


def norm(f):
    """``sqrt <f, f>`` from :func:`_inner`: in range where the norm is."""
    a, _, unit = _inner(f, f)
    out = a * math.sqrt(max(float(unit.real), 0.0))
    if not math.isfinite(out):
        raise NumericalError("norm overflows")
    return out


def _inner(f, g):
    """``<f, g> = a b u`` as ``(a, b, u)``: ``a`` and ``b`` are the largest
    amplitude of each slot rounded down to a power of two (``2^-1022`` at
    least, so that dividing by it is exact), and ``u`` is one
    :func:`gaussian_integral` over the ``(k, m, d, d)`` stack of the pairs of
    terms, the amplitudes divided by ``a`` and ``b``.  Where ``<f, g>`` is
    in range, ``a b u`` is it to the bit."""
    fs, gs = _stack(f, empty=True), _stack(g, empty=True)
    if fs is None or gs is None:
        return 1.0, 1.0, 0j
    (fc, fQ, fb, _), (gc, gQ, gb, _) = fs, gs
    if fQ.shape[-1] != gQ.shape[-1]:
        raise ValidationError("both slots of an inner product need one dimension")
    a, b = (math.ldexp(1.0, max(math.frexp(np.abs(c).max())[1] - 1, -1022)) for c in (fc, gc))
    M = -1j * (fQ[:, None] - np.conj(gQ))
    z = fb[:, None] - np.conj(gb)
    return a, b, np.sum((fc / a)[:, None] * np.conj(gc / b) * gaussian_integral(M, z))


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
    fs = _stack(f)
    gs = fs if g is None else _stack(g)
    (fc, fQ, fb, fdeg), (gc, gQ, gb, gdeg) = fs, gs
    d = fQ.shape[-1]
    if gQ.shape[-1] != d:
        raise ValidationError("both slots of a Wigner distribution need one dimension")
    I = np.eye(d)
    Ew = from_blocks(I, I / 2, I, -I / 2)
    X = np.diag(np.r_[np.ones(d), np.zeros(d)])
    Y = np.eye(2 * d) - X
    F2 = from_blocks(X, Y, -Y, X)
    # the tensor of each term of f with the conjugate of each term of g, as
    # one (k m)-stack: Q = Ew^T diag(Qf, -conj Qg) Ew, b = Ew^T (bf, -conj bg)
    Qt = np.zeros((len(fc), len(gc), 2 * d, 2 * d), dtype=complex)
    Qt[..., :d, :d], Qt[..., d:, d:] = fQ[:, None], -np.conj(gQ)
    bt = np.concatenate(np.broadcast_arrays(fb[:, None], -np.conj(gb)), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # _act rejects an inf amplitude
        c = (np.exp(0.25j * np.pi * d) * fc[:, None] * np.conj(gc)).reshape(-1)
    deg = (fdeg[:, None] | gdeg).reshape(-1)
    Q = _validated(Ew.T @ Qt.reshape(-1, 2 * d, 2 * d) @ Ew, deg, symmetric=False)
    return _unstack(_act(_matrix_blocks(F2, 2 * d), c, Q, bt.reshape(-1, 2 * d) @ Ew, deg),
                    f, g)


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
    over parameters and over pointwise samples; a discrepancy that is not
    finite (a route overflowed) is a :class:`NumericalError`.
    """
    stack = _stack(f)
    k, d = stack[2].shape
    z = np.asarray(z, dtype=float)
    S = word_to_matrix(word)
    if word_dim(word) != d or z.shape != (2 * d,):
        raise ValidationError("word, state, and shift dimensions must agree")
    shifted = _shift(stack, z[:d], z[d:], tau)
    # an overflow anywhere below ends in a discrepancy that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        Sz = S @ z
        if not np.isfinite(Sz).all():
            raise NumericalError("image of the shift under the word overflows")
        # both routes share one stack through the word: the shifted terms,
        # then the terms themselves
        both = _word(word, tuple(np.concatenate(p) for p in zip(shifted, stack)))
        left = tuple(p[:k] for p in both)
        right = _shift(tuple(p[k:] for p in both), Sz[:d], Sz[d:], tau)
        # per term, the gaps in c, Q and b, each relative above size one
        parts = [np.linalg.norm((lp - rp).reshape(k, -1), axis=1)
                 / np.maximum(1.0, np.linalg.norm(lp.reshape(k, -1), axis=1))
                 for lp, rp in zip(left[:3], right[:3])]
        ts = np.linspace(-1.5, 1.5, 7)
        pts = np.concatenate([np.outer(ts, v) for v in (np.ones(d), np.eye(d)[0])], axis=0)
        lv, rv = _eval(left, pts), _eval(right, pts)
        parts = np.concatenate(parts + [[np.max(np.abs(lv - rv)) / max(1.0, np.max(np.abs(lv)))]])
    if not np.isfinite(parts).all():
        raise NumericalError("intertwining residual is not finite")
    return float(parts.max())
