"""Independent closed forms the benchmark checks the package against.

Nothing here imports :mod:`metaplectic`.  Every formula is written out from
its definition with plain numpy, so a result that matches it was not merely
computed twice by the same code.  Gaussian states are passed around as
``(c, Q, b)`` triples for ``c exp(i pi Q x.x + 2 pi i b.x)``.
"""

import numpy as np


def omega(d):
    """The standard form ``J = [[0, I], [-I, 0]]``."""
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = np.eye(d)
    J[d:, :d] = -np.eye(d)
    return J


def _blocks(A, B, C, D):
    return np.block([[A, B], [C, D]]).astype(complex)


def token_matrix(op, d, param):
    """Matrix of one generator, from its parameter (see ``sympcore``'s
    docstrings for the operator each one stands for)."""
    I, O = np.eye(d), np.zeros((d, d))
    if op == "fourier":
        return omega(d).astype(complex)
    if op == "chirp":
        return _blocks(I, O, param, I)
    if op == "multiplier":
        return _blocks(I, param, O, I)
    if op == "rescale":
        return _blocks(np.linalg.inv(param), O, O, param.T)
    if op == "atom_r":
        ch, sh = np.diag(np.cosh(param)), np.diag(np.sinh(param))
        return _blocks(ch, -1j * sh, 1j * sh, ch)
    if op == "atom_p":
        return _blocks(I, O, 1j * np.diag(param), I)
    raise ValueError(op)


def word_matrix(ops, d):
    """Product of token matrices in list order (leftmost acts last)."""
    S = np.eye(2 * d, dtype=complex)
    for op, param in ops:
        S = S @ token_matrix(op, d, param)
    return S


def certificate_min_eig(S):
    """Smallest eigenvalue of the real positivity certificate of ``S``."""
    d = S.shape[0] // 2
    J = omega(d)
    X = S.real.T @ J @ S.imag
    Y = S.imag.T @ J @ S.imag
    M = np.block([[X, Y], [-Y, X]])
    w = np.linalg.eigvalsh((M + M.T) / 2)
    return float(w[0]), float(np.max(np.abs(w)))


def moebius(S, Q, b, c):
    """Parameters of ``S_hat f`` for ``f = (c, Q, b)``: exact ``Q'`` and
    ``b'`` and the modulus of ``c'`` (the phase depends on a branch of the
    determinant root, which this reference does not choose)."""
    d = Q.shape[0]
    A, B, C, D = S[:d, :d], S[:d, d:], S[d:, :d], S[d:, d:]
    T = A + B @ Q
    Qp = (C + D @ Q) @ np.linalg.inv(T)
    Qp = (Qp + Qp.T) / 2
    Bb = B @ b
    bp = D @ b - Qp @ Bb
    mod = abs(c) * abs(np.linalg.det(T)) ** -0.5 \
        * abs(np.exp(-1j * np.pi * Bb @ (D @ b) + 1j * np.pi * (Qp @ Bb) @ Bb))
    return Qp, bp, mod


def evaluate(c, Q, b, pts):
    """``c exp(i pi Q x.x + 2 pi i b.x)`` at points of shape ``(..., d)``."""
    pts = np.asarray(pts, dtype=complex)
    quad = np.einsum("...i,ij,...j->...", pts, Q, pts)
    return c * np.exp(1j * np.pi * quad + 2j * np.pi * (pts @ b))


def _det_root_inv(M):
    """``det(M)^(-1/2)`` for complex symmetric ``M`` with ``Re M`` positive
    definite; the spectrum then lies in the open right half plane, where the
    product of principal roots is the branch continuous from ``M = I``."""
    lam = np.linalg.eigvals(M)
    return complex(np.prod(lam ** -0.5))


def norm2_sq(c, Q, b):
    """``||f||^2 = |c|^2 det(2 Im Q)^(-1/2) exp(2 pi Im b . (Im Q)^(-1) Im b)``."""
    ImQ, Imb = Q.imag, b.imag
    return float(abs(c) ** 2 * np.linalg.det(2 * ImQ) ** -0.5
                 * np.exp(2 * np.pi * Imb @ np.linalg.solve(ImQ, Imb)))


def inner(f, g):
    """``<f, g> = int f conj(g)`` of two states."""
    (cf, Qf, bf), (cg, Qg, bg) = f, g
    M = -1j * (Qf - np.conj(Qg))
    z = bf - np.conj(bg)
    return complex(cf * np.conj(cg) * _det_root_inv(M)
                   * np.exp(-np.pi * z @ np.linalg.solve(M, z)))


def wigner(c, Q, b, x, xi):
    """Wigner distribution ``W(f, f)(x, xi)`` of one state, with ``x`` and
    ``xi`` of shape ``(..., d)``: completing the square in
    ``int f(x + y/2) conj f(x - y/2) e^{-2 pi i y.xi} dy`` gives

        |c|^2 det(Im Q / 2)^(-1/2) exp(-2 pi Im Q x.x - 4 pi Im b.x)
              exp(-2 pi (Im Q)^(-1) z.z),     z = xi - Re Q x - Re b.
    """
    ImQ, Imb = Q.imag, b.imag
    z = xi - x @ Q.real.T - b.real
    return (abs(c) ** 2 * np.linalg.det(ImQ / 2) ** -0.5
            * np.exp(-2 * np.pi * np.einsum("...i,ij,...j->...", x, ImQ, x)
                     - 4 * np.pi * x @ Imb
                     - 2 * np.pi * np.einsum("...i,ij,...j->...", z, np.linalg.inv(ImQ), z)))


def stft(f, w, x, xi):
    """Short-time transform ``V_w f(x, xi) = int f(y) conj(w(y - x))
    e^{-2 pi i y.xi} dy`` of Gaussian ``f`` against Gaussian window ``w``."""
    (cf, Qf, bf), (cw, Qw, _bw) = f, w
    Qwc = np.conj(Qw)
    M = -1j * (Qf - Qwc)
    z = bf + x @ Qwc.T - xi
    Minv = np.linalg.inv(M)
    return (cf * np.conj(cw) * _det_root_inv(M)
            * np.exp(-1j * np.pi * np.einsum("...i,ij,...j->...", x, Qwc, x)
                     - np.pi * np.einsum("...i,ij,...j->...", z, Minv, z)))


def pure_spectrogram(d, a, Sw):
    """Parameter blocks of the covariant representation ``|V_w f|^2`` and
    its window ``w``, for the window family ``Q_w = (a + i/2) Sw^{-1}``,
    ``c_w = det(Sw)^(-1/4)`` with real ``a`` and symmetric positive
    definite ``Sw``:

        A11 = I/2 + i a I,   A13 = -i Sw,   A21 = i (1/4 + a^2) Sw^{-1}.
    """
    Si = np.linalg.inv(Sw)
    A11 = np.eye(d) / 2 + 1j * a * np.eye(d)
    A13 = -1j * Sw
    A21 = 1j * (0.25 + a * a) * Si
    window = (np.linalg.det(Sw) ** -0.25 + 0j, (a + 0.5j) * Si, np.zeros(d, dtype=complex))
    return (A11, A13, A21), window


def heat_l2_ratio(beta, t):
    """``||S_t phi|| / ||phi||`` for the standard Gaussian under the heat
    flow: the transform ``e^{-pi xi^2}`` is multiplied by a symbol of
    modulus ``e^{-2 pi^2 beta t xi^2}``, so the ratio is
    ``(1 + 2 pi beta t)^(-1/4)``."""
    return (1.0 + 2.0 * np.pi * beta * t) ** -0.25


def hyperbolic_flow(t):
    """Flow of the one-coordinate hyperbolic model ``x^2 + xi^2``:
    ``[[cosh 2t, -i sinh 2t], [i sinh 2t, cosh 2t]]``.  It maps ``Q = i``
    to itself with amplitude ``(cosh 2t + sinh 2t)^(-1/2) = e^{-t}``."""
    ch, sh = np.cosh(2 * t), np.sinh(2 * t)
    return np.array([[ch, -1j * sh], [1j * sh, ch]])


def rel(got, want):
    """Relative Euclidean distance; ``inf`` when ``got`` is not finite."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if not np.all(np.isfinite(got)):
        return float("inf")
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))
