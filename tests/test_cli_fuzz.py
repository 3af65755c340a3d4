"""Command-line fuzz: every subcommand on small valid files with random
option values, and the Gaussian commands on state and word files with random
entries, including nan, inf, zero and negative numbers.

Each case must exit 0, 1, 2 or 3, leave no traceback and no numpy
``RuntimeWarning``, and a case that exits 0 must not report a NaN.  The one
documented exception is ``evolve``: a row whose decomposition degenerates
carries NaN cells by design, so only its time column is checked there."""
import json
import math
import os
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from metaplectic import formats as F
from metaplectic.cli import main
from metaplectic.evoprop import heat_hamiltonian
from metaplectic.gausscalc import GaussianState
from metaplectic.sympcore import (atom_r, chirp, fourier, multiplier, rescale,
                                  word_to_matrix)
from metaplectic.tfrzoo import build_covariant

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 1e300]
numbers = st.one_of(st.sampled_from(SPECIAL), st.floats(-4, 4),
                    st.floats(allow_nan=False, allow_infinity=False))
# valid sizes often enough to reach the grids; never above 64 points per axis
grid_sizes = st.one_of(st.sampled_from([4, 8, 16, 32, 64]), st.integers(-8, 64))


def text(x):
    return repr(float(x))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    word = [chirp(np.array([[0.5 + 0.2j]])), fourier(1), atom_r([0.4])]
    texts = {
        "word": F.dump_word(word),
        "positive": F.dump_matrix(word_to_matrix(word), 1),
        "triangular": F.dump_matrix(word_to_matrix(
            [rescale(np.array([[2.0]])), multiplier(np.array([[-0.4j]]))]), 1),
        "conjugation": F.dump_matrix(word_to_matrix(
            [chirp(np.array([[0.3j]])), multiplier(np.array([[-0.2j]]))]), 1),
        "real": F.dump_matrix(word_to_matrix([fourier(1)]), 1),
        "state": F.dump_state(GaussianState(1, 0.7 + 0.2j, [[0.2 + 0.8j]], [0.3 - 0.2j])),
        "sum": F.dump_sum([GaussianState(1, 1.1 - 0.4j, [[-0.3 + 1.2j]], [-0.1 + 0.4j]),
                           GaussianState(1, 0.5, [[1j]], [0.2])]),
        "husimi": F.dump_tfrspec(build_covariant(np.eye(1) / 2, -0.5j * np.eye(1),
                                                 0.5j * np.eye(1))),
        "wigner": F.dump_tfrspec(build_covariant(np.eye(1) / 2, np.zeros((1, 1)),
                                                 np.zeros((1, 1)))),
        "cohen": F.dump_tfrspec(build_covariant(np.eye(1) / 2 + 0.1j, -0.3j * np.eye(1),
                                                0.6j * np.eye(1))),
        "ham": F.dump_hamiltonian(heat_hamiltonian(1.0, 1.0, 1)),
    }
    paths = {}
    for name, obj in texts.items():
        p = root / f"{name}.json"
        p.write_text(F.dumps_json(obj))
        paths[name] = str(p)
    return paths


def _has_nan(obj):
    if isinstance(obj, float):
        return math.isnan(obj)
    if isinstance(obj, dict):
        return any(_has_nan(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_nan(v) for v in obj)
    return False


def invoke(args):
    """Run the CLI in process; return the result and the RuntimeWarnings it
    raised (every one, not only the first per source line)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        r = CliRunner().invoke(main, args)
    return r, [w for w in caught if issubclass(w.category, RuntimeWarning)]


def check(args, output="json"):
    r, runtime = invoke(args)
    assert r.exit_code in (0, 1, 2, 3), (args, r.output)
    assert r.exception is None or isinstance(r.exception, SystemExit), (args, repr(r.exception))
    assert "Traceback" not in r.stderr, (args, r.stderr)
    assert not runtime, (args, [str(w.message) for w in runtime])
    if r.exit_code:
        return r
    if output == "json":
        assert not _has_nan(json.loads(r.stdout)), (args, r.stdout)
    elif output == "csv":
        cells = [c for line in r.stdout.splitlines()[1:] for c in line.split(",")]
        assert not any(math.isnan(float(c)) for c in cells), (args, r.stdout)
    elif output == "bin":
        assert np.isfinite(F.read_mpgf(r.stdout_bytes).values).all(), args
    elif output == "evolve":
        rows = r.stdout.splitlines()[1:]
        assert rows and all(math.isfinite(float(row.split(",")[0])) for row in rows), args
    return r


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["positivity", "triangular", "conjugation"]),
       st.sampled_from(["positive", "triangular", "conjugation", "real", "state"]),
       st.booleans())
def test_fuzz_classify_and_polar(files, mode, matrix, polar):
    if polar:
        check(["polar", "--matrix", files[matrix]])
    else:
        check(["classify", "--matrix", files[matrix], "--mode", mode])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["word", "positive", "real"]), st.sampled_from(["state", "sum"]),
       st.sampled_from(["json", "csv", "bin"]), grid_sizes,
       st.one_of(st.none(), numbers))
def test_fuzz_gaussian_apply(files, source, state, fmt, grid_n, grid_h):
    args = ["gaussian", "apply", "--state", files[state], "--format", fmt,
            "--grid-n", str(grid_n)]
    args += ["--word", files["word"]] if source == "word" else ["--matrix", files[source]]
    if grid_h is not None:
        args += ["--grid-h", text(grid_h)]
    check(args, output=fmt)


# token parameters: the fuzz numbers and values that take cosh, sinh or the
# Gaussian exponents past the float range
token_numbers = st.one_of(numbers, st.sampled_from([800.0, 1e300]))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["state", "sum"]), st.sampled_from(["json", "csv", "bin"]),
       token_numbers, token_numbers, token_numbers, token_numbers)
def test_fuzz_gaussian_apply_word(files, state, fmt, q_re, q_im, theta, delta):
    # the word file varies: chirp entry, atom_r and atom_p parameters
    word = {"d": 1, "tokens": [
        {"op": "chirp", "Q": {"d": 1, "rows": [[[q_re, q_im]]]}},
        {"op": "fourier"},
        {"op": "atom_r", "theta": [theta]},
        {"op": "atom_p", "delta": [delta]},
    ]}
    path = os.path.join(os.path.dirname(files["word"]), "drawn_word.json")
    with open(path, "w") as fh:
        json.dump(word, fh)
    check(["gaussian", "apply", "--word", path, "--state", files[state], "--format", fmt,
           "--grid-n", "16"], output=fmt)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["apply", "wigner", "intertwine"]), st.booleans(), numbers, numbers,
       numbers, st.sampled_from(["json", "csv", "bin"]))
def test_fuzz_state_and_word_files(files, command, as_sum, c_re, c_im, factor, fmt):
    # the state file carries a drawn amplitude, the word file a drawn
    # rescale factor in front of the Fourier token
    root = os.path.dirname(files["word"])
    state = {"d": 1, "c": [c_re, c_im], "Q": {"d": 1, "rows": [[[0.2, 0.8]]]},
             "b": [[0.3, -0.2]]}
    word = {"d": 1, "tokens": [{"op": "fourier"},
                               {"op": "rescale", "E": {"d": 1, "rows": [[[factor, 0.0]]]}}]}
    paths = {}
    for name, obj in (("state", [state, {**state, "c": [0.5, 0.0]}] if as_sum else state),
                      ("word", word)):
        paths[name] = os.path.join(root, f"fuzzed_{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(obj, fh)
    if command == "apply":
        check(["gaussian", "apply", "--word", paths["word"], "--state", paths["state"],
               "--format", fmt, "--grid-n", "16"], output=fmt)
    elif command == "wigner":
        check(["gaussian", "wigner", "--state", paths["state"]])
    else:
        check(["gaussian", "intertwine", "--word", paths["word"], "--state", paths["state"],
               "--z", "0.3,0.7"])


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["state", "sum"]), st.sampled_from([None, "state", "sum"]))
def test_fuzz_gaussian_wigner(files, state, state2):
    args = ["gaussian", "wigner", "--state", files[state]]
    check(args if state2 is None else args + ["--state2", files[state2]])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["state", "sum"]), st.lists(numbers, min_size=1, max_size=3),
       st.one_of(st.none(), numbers))
def test_fuzz_gaussian_intertwine(files, state, z, tau):
    args = ["gaussian", "intertwine", "--word", files["word"], "--state", files[state],
            "--z", ",".join(text(v) for v in z)]
    if tau is not None:
        args += ["--tau", text(tau)]
    check(args)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["classify", "kernel", "windows"]),
       st.sampled_from(["husimi", "wigner", "cohen", "state"]))
def test_fuzz_tfr(files, command, spec):
    check(["tfr", command, "--tfr", files[spec]])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["heat", "hermite", "harmonic", "ham"]), numbers,
       st.one_of(st.none(), numbers), st.one_of(st.none(), numbers),
       st.one_of(st.none(), numbers), grid_sizes)
def test_fuzz_evolve(files, model, t_max, p, q, s, grid_n):
    args = ["evolve", "--t-max", text(t_max), "--t-steps", "3", "--grid-n", str(grid_n)]
    args += ["--hamiltonian", files["ham"]] if model == "ham" else ["--example", model]
    for name, value in (("--p", p), ("--q", q), ("--s", s)):
        if value is not None:
            args += [name, text(value)]
    check(args, output="evolve")
