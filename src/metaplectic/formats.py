"""Serialization: JSON objects, the MPGF binary grid container, CSV export.

All JSON emitters produce deterministic bytes: keys are sorted, separators
fixed, and floats rendered by ``repr`` (shortest string that round-trips the
double, at most 17 significant digits), so equal objects serialize to equal
files.  Complex numbers are ``[re, im]`` pairs throughout.  :func:`dumps_json`
is the one writer of reports: it writes a Gaussian state and a complex
number wherever they occur, so callers hand it results as they are.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import FormatError, ValidationError
from .gausscalc import GaussianState
from .gridlab import GridFn, GridSpec
from .evoprop import QuadraticHamiltonian
from .sympcore import atom_p, atom_r, chirp, fourier, multiplier, rescale
from .tfrzoo import TFRSpec

__all__ = [
    "dumps_json",
    "dump_complex", "load_complex",
    "dump_matrix", "load_matrix",
    "dump_state", "load_state",
    "dump_sum", "load_sum", "load_state_or_sum",
    "dump_token", "load_token",
    "dump_word", "load_word",
    "dump_tfrspec", "load_tfrspec",
    "dump_hamiltonian", "load_hamiltonian",
    "MPGF_MAGIC", "MPGF_VERSION",
    "write_mpgf", "read_mpgf",
    "grid_csv", "rows_csv",
]


def _scalarize(v):
    # states, complex numbers and numpy scalars sit in report dictionaries
    if isinstance(v, GaussianState):
        return dump_state(v)
    if isinstance(v, complex):  # np.complex128 too
        return dump_complex(v)
    if isinstance(v, np.generic):
        return v.item()
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def dumps_json(obj):
    """Deterministic JSON text (sorted keys, compact separators)."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=True, default=_scalarize)
    except (TypeError, ValueError) as e:
        raise FormatError(f"object is not JSON-serializable: {e}")


def _expect(cond, msg):
    if not cond:
        raise FormatError(msg)


def _as_dict(obj, what):
    _expect(isinstance(obj, dict), f"{what} must be a JSON object")
    return obj


def _get(obj, key, what):
    _expect(key in obj, f"{what} is missing the '{key}' field")
    return obj[key]


def _as_int(x, what):
    _expect(isinstance(x, int) and not isinstance(x, bool), f"{what} must be an integer")
    return x


def dump_complex(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _as_real(x, what):
    _expect(isinstance(x, (int, float)) and not isinstance(x, bool), f"{what} must be a number")
    # json reads NaN and Infinity as floats, and integer literals of any size
    try:
        x = float(x)
    except OverflowError:
        raise FormatError(f"{what} must be finite")
    _expect(math.isfinite(x), f"{what} must be finite")
    return x


def load_complex(obj, what="complex entry"):
    _expect(isinstance(obj, (list, tuple)) and len(obj) == 2, f"{what} must be a [re, im] pair")
    re, im = obj
    return complex(_as_real(re, f"{what} real part"), _as_real(im, f"{what} imaginary part"))


def dump_matrix(M, d):
    """Matrix object ``{"d": ..., "rows": [[[re, im], ...], ...]}``; ``d`` is
    the ambient signal dimension, the rows carry the actual (square) shape."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return {"d": int(d), "rows": [[dump_complex(z) for z in row] for row in M]}


def load_matrix(obj, what="matrix"):
    obj = _as_dict(obj, what)
    d = _as_int(_get(obj, "d", what), f"{what} dimension")
    rows = _get(obj, "rows", what)
    _expect(isinstance(rows, list) and rows, f"{what} rows must be a nonempty list")
    n = len(rows)
    M = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == n, f"{what} must be square")
        for j, entry in enumerate(row):
            M[i, j] = load_complex(entry, f"{what} entry ({i},{j})")
    _expect(d >= 1, f"{what} dimension must be positive")
    return d, M


def dump_vector(b):
    return [dump_complex(z) for z in np.asarray(b, dtype=complex).ravel()]


def load_vector(obj, what="vector"):
    _expect(isinstance(obj, list), f"{what} must be a list of [re, im] pairs")
    return np.array([load_complex(e, what) for e in obj], dtype=complex)


def _load_reals(obj, what):
    _expect(isinstance(obj, list), f"{what} must be a list of numbers")
    return np.array([_as_real(x, f"{what} entry {j}") for j, x in enumerate(obj)])


def dump_state(f):
    out = {
        "d": int(f.d),
        "c": dump_complex(f.c),
        "Q": dump_matrix(f.Q, f.d),
        "b": dump_vector(f.b),
    }
    if f.allow_degenerate:
        out["allow_degenerate"] = True
    return out


def load_state(obj, what="Gaussian state"):
    obj = _as_dict(obj, what)
    d = _as_int(_get(obj, "d", what), f"{what} dimension")
    c = load_complex(_get(obj, "c", what), f"{what} amplitude")
    dq, Q = load_matrix(_get(obj, "Q", what), f"{what} exponent")
    _expect(dq == d and Q.shape == (d, d), f"{what} exponent shape disagrees with d")
    b = load_vector(_get(obj, "b", what), f"{what} linear term")
    _expect(b.size == d, f"{what} linear term must have length d")
    degenerate = obj.get("allow_degenerate", False)
    _expect(isinstance(degenerate, bool), f"{what} allow_degenerate must be a boolean")
    return GaussianState(d, c, Q, b, allow_degenerate=degenerate)


def dump_sum(states):
    states = states if isinstance(states, list) else [states]
    return [dump_state(f) for f in states]


def load_sum(obj, what="Gaussian sum"):
    _expect(isinstance(obj, list) and obj, f"{what} must be a nonempty list of states")
    return [load_state(e, f"{what} term") for e in obj]


def load_state_or_sum(obj, what="Gaussian state"):
    """A JSON object is one state, a list is a sum: the layout
    :func:`dumps_json` writes for either."""
    if isinstance(obj, list):
        return load_sum(obj, what)
    return load_state(obj, what)


def dump_token(t):
    if t.op == "fourier":
        return {"op": "fourier"}
    if t.op == "chirp":
        return {"op": "chirp", "Q": dump_matrix(t.matrix_param(), t.d)}
    if t.op == "multiplier":
        return {"op": "multiplier", "P": dump_matrix(t.matrix_param(), t.d)}
    if t.op == "rescale":
        return {"op": "rescale", "E": dump_matrix(t.matrix_param(), t.d),
                "maslov": int(t.maslov)}
    if t.op == "atom_r":
        return {"op": "atom_r", "theta": [float(v) for v in t.vector_param()]}
    if t.op == "atom_p":
        return {"op": "atom_p", "delta": [float(v) for v in t.vector_param()]}
    raise FormatError(f"unknown token kind '{t.op}'")


def load_token(obj, d, what="token"):
    obj = _as_dict(obj, what)
    op = _get(obj, "op", what)
    if op == "fourier":
        return fourier(d)
    if op == "chirp":
        _dq, Q = load_matrix(_get(obj, "Q", what), f"{what} chirp exponent")
        return chirp(Q)
    if op == "multiplier":
        _dp, P = load_matrix(_get(obj, "P", what), f"{what} multiplier exponent")
        return multiplier(P)
    if op == "rescale":
        _de, E = load_matrix(_get(obj, "E", what), f"{what} rescale matrix")
        m = obj.get("maslov", 0)
        return rescale(E, maslov=_as_int(m, f"{what} phase index"))
    if op == "atom_r":
        return atom_r(_load_reals(_get(obj, "theta", what), f"{what} theta"))
    if op == "atom_p":
        return atom_p(_load_reals(_get(obj, "delta", what), f"{what} delta"))
    raise FormatError(f"unknown token kind '{op}'")


def dump_word(word):
    _expect(bool(word), "an empty word has no dimension")
    return {"d": int(word[0].d), "tokens": [dump_token(t) for t in word]}


def load_word(obj, what="word"):
    obj = _as_dict(obj, what)
    d = _as_int(_get(obj, "d", what), f"{what} dimension")
    toks = _get(obj, "tokens", what)
    _expect(isinstance(toks, list), f"{what} tokens must be a list")
    word = [load_token(t, d, f"{what} token {i}") for i, t in enumerate(toks)]
    for t in word:
        _expect(t.d == d, f"{what} contains a token of mismatched dimension")
    return word


def dump_tfrspec(spec):
    return {"d": int(spec.d), "A": dump_matrix(spec.A, spec.d)}


def load_tfrspec(obj, what="representation spec"):
    obj = _as_dict(obj, what)
    d = _as_int(_get(obj, "d", what), f"{what} dimension")
    _da, A = load_matrix(_get(obj, "A", what), f"{what} matrix")
    _expect(A.shape == (4 * d, 4 * d), f"{what} matrix must be 4d x 4d")
    return TFRSpec(d, A)


def dump_hamiltonian(H):
    return {"d": int(H.d), "Q": dump_matrix(H.Qmat, H.d)}


def load_hamiltonian(obj, what="Hamiltonian"):
    obj = _as_dict(obj, what)
    d = _as_int(_get(obj, "d", what), f"{what} dimension")
    _dq, Q = load_matrix(_get(obj, "Q", what), f"{what} coefficient matrix")
    _expect(Q.shape == (2 * d, 2 * d), f"{what} coefficient matrix must be 2d x 2d")
    return QuadraticHamiltonian(d, Q)


# ----------------------------------------------------------------------------
# MPGF binary grids
# ----------------------------------------------------------------------------

MPGF_MAGIC = b"MPGF"
MPGF_VERSION = 1
_HEADER = struct.Struct("<4sBBId")          # magic, version, d, n, h


def write_mpgf(g):
    """Serialize a grid function: an 18-byte little-endian header
    (magic ``MPGF``, version, d, n, h) followed by the ``n^d`` complex128
    samples in row-major order."""
    head = _HEADER.pack(MPGF_MAGIC, MPGF_VERSION, g.spec.d, g.spec.n, g.spec.h)
    body = np.ascontiguousarray(g.values, dtype="<c16").tobytes()
    return head + body


def read_mpgf(data):
    if len(data) < _HEADER.size:
        raise FormatError("grid container is shorter than its header")
    magic, version, d, n, h = _HEADER.unpack_from(data)
    if magic != MPGF_MAGIC:
        raise FormatError("bad magic; not a grid container")
    if version != MPGF_VERSION:
        raise FormatError(f"unsupported grid container version {version}")
    try:
        spec = GridSpec(int(d), int(n), float(h))
    except ValidationError as e:
        raise FormatError(f"grid container header is inconsistent: {e}")
    count = n ** d
    want = _HEADER.size + 16 * count
    if len(data) != want:
        raise FormatError(f"grid container holds {len(data)} bytes, expected {want}")
    vals = np.frombuffer(data, dtype="<c16", count=count, offset=_HEADER.size)
    return GridFn(spec, vals.astype(complex).reshape((n,) * d))


# ----------------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------------

def grid_csv(g):
    """One-dimensional grid samples as ``index,x,re,im`` text."""
    if g.spec.d != 1:
        raise FormatError("CSV grid export is defined for d = 1 only")
    x = g.spec.axis()
    lines = ["index,x,re,im"]
    for k in range(g.spec.n):
        v = complex(g.values[k])
        lines.append(f"{k},{float(x[k])!r},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"


def rows_csv(rows, columns):
    """Dictionaries to CSV in a fixed column order, floats via ``repr``."""
    def cell(v):
        if isinstance(v, np.generic):
            v = v.item()
        if isinstance(v, float):
            return repr(v)
        return str(v)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"
