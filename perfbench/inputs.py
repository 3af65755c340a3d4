"""Seeded input generators and the check ledger shared by the workloads.

Inputs are plain numpy parameters: the benchmark builds its own reference
from them (``reference``) and hands the package only the tokens, states and
matrices made from them.
"""

import numpy as np

from reference import omega, token_matrix, word_matrix


class Checks:
    """Ledger of one case's checks.

    ``close`` records a relative error against an independent reference,
    which also feeds the run's ``err_digits``; ``holds`` records a property
    that is either true or not.  Any failure fails the case.
    """

    def __init__(self):
        self.errors = []
        self.failures = []

    def close(self, name, err, tol):
        err = float(err)
        self.errors.append(err)
        if not err <= tol:
            self.failures.append(f"{name}: {err:.3e} > {tol:.0e}")

    def holds(self, name, ok):
        if not ok:
            self.failures.append(name)

    @property
    def ok(self):
        return not self.failures


def state_params(rng, d):
    """``(c, Q, b)`` with ``Im Q >= 0.6 I`` and moderate linear term, so the
    state and its images under the workload words stay well inside the
    grids used here."""
    A = rng.normal(size=(d, d)) * 0.6
    B = rng.normal(size=(d, d)) * 0.6
    Q = (A + A.T) / 2 + 1j * (B @ B.T / max(1, d) + 0.6 * np.eye(d))
    b = 0.4 * rng.normal(size=d) + 0.1j * rng.normal(size=d)
    c = complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random()))
    return c, Q, b


def _sym(rng, d, scale):
    G = rng.normal(size=(d, d))
    return scale * (G + G.T) / 2


def _psd(rng, d, scale):
    G = rng.normal(size=(d, d)) * scale
    return G @ G.T / max(1, d)


def _orth(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)))[0]


def frac_factor(rng):
    """A rescale factor that is never an integer: ``|s|`` in ``[0.7, 0.95]``
    or ``[1.05, 1.4]`` with a random sign."""
    s = rng.uniform(0.7, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 1.4)
    return s if rng.random() < 0.5 else -s


def positive_word_ops(rng, d):
    """One token of each of the six kinds, in a fixed order, with complex
    parameters inside the positivity domain.  Returns ``(ops, maslov)``
    where ``ops`` is a list of ``(op, param)``."""
    Qc = _sym(rng, d, 0.4) + 1j * _psd(rng, d, 0.4)
    E = _orth(rng, d) @ np.diag(np.exp(rng.uniform(-0.3, 0.3, d))) @ _orth(rng, d)
    P = _sym(rng, d, 0.4) - 1j * _psd(rng, d, 0.4)
    theta = rng.uniform(0.1, 0.7, d)
    delta = rng.uniform(0.0, 0.6, d)
    ops = [("chirp", Qc), ("rescale", E), ("fourier", None), ("multiplier", P),
           ("atom_r", theta), ("atom_p", delta)]
    return ops, int(rng.integers(4))


def real_word_matrix(rng, d):
    """Real symplectic matrix of a real chirp, a rescale and a Fourier
    token: the frame of the generic positive matrices below."""
    E = _orth(rng, d) @ np.diag(rng.uniform(0.7, 1.4, d)) @ _orth(rng, d)
    ops = [("chirp", _sym(rng, d, 0.6)), ("rescale", E), ("fourier", None)]
    return word_matrix(ops, d).real


def generic_positive(rng, d):
    """``S = R V^{-1} A(theta) V`` with real ``R``, ``V`` and ``theta > 0``,
    as the polar and normal-form acceptance tests build them.  Returns
    ``(S, R, theta)``: polar splitting must give ``U = R``, and the normal
    form of its exponential factor ``V^{-1} A(theta) V`` must give
    ``theta``."""
    R = real_word_matrix(rng, d)
    V = real_word_matrix(rng, d)
    theta = np.sort(rng.uniform(0.2, 1.2, d))[::-1]
    Z = np.linalg.inv(V) @ token_matrix("atom_r", d, theta) @ V
    return R @ Z, R, theta


def symplectic_defect(U):
    d = U.shape[0] // 2
    J = omega(d)
    return float(np.linalg.norm(U.T @ J @ U - J) / max(1.0, np.linalg.norm(U) ** 2))


# ----------------------------------------------------------------------------
# the package's JSON layout, written without the package
# ----------------------------------------------------------------------------

def _cplx(z):
    z = complex(z)
    return [z.real, z.imag]


def matrix_json(M, d):
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return {"d": int(d), "rows": [[_cplx(z) for z in row] for row in M]}


def state_json(c, Q, b):
    d = Q.shape[0]
    return {"d": d, "c": _cplx(c), "Q": matrix_json(Q, d), "b": [_cplx(z) for z in b]}


def word_json(ops, d, maslov=0):
    toks = []
    for op, p in ops:
        if op == "fourier":
            toks.append({"op": "fourier"})
        elif op == "chirp":
            toks.append({"op": "chirp", "Q": matrix_json(p, d)})
        elif op == "multiplier":
            toks.append({"op": "multiplier", "P": matrix_json(p, d)})
        elif op == "rescale":
            toks.append({"op": "rescale", "E": matrix_json(p, d), "maslov": maslov})
        elif op == "atom_r":
            toks.append({"op": "atom_r", "theta": [float(v) for v in p]})
        else:
            toks.append({"op": "atom_p", "delta": [float(v) for v in p]})
    return {"d": d, "tokens": toks}


def parse_matrix(obj):
    return np.array([[complex(*z) for z in row] for row in obj["rows"]])


def parse_state(obj):
    return (complex(*obj["c"]), parse_matrix(obj["Q"]),
            np.array([complex(*z) for z in obj["b"]]))


def covariant_matrix(A11, A13, A21):
    """The ``4d x 4d`` covariant block pattern of ``(A11, A13, A21)``."""
    d = A11.shape[0]
    I, O = np.eye(d), np.zeros((d, d))
    return np.block([
        [A11, I - A11, A13, A13],
        [A21, -A21, I - A11.T, -A11.T],
        [O, O, I, I],
        [-I, I, O, O],
    ])


def window_family(rng, d):
    """Random member of the pure-spectrogram family of
    :func:`reference.pure_spectrogram`."""
    a = rng.uniform(-0.5, 0.5)
    G = rng.normal(size=(d, d)) * 0.3
    Sw = G @ G.T + np.diag(rng.uniform(0.4, 0.9, d))
    return a, Sw
