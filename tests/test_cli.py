"""Command-line interface: commands, formats, and exit-code contract."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from metaplectic import formats as F
from metaplectic.cli import main
from metaplectic.evoprop import (EVOLVE_COLUMNS, heat_hamiltonian,
                                 hermite_hamiltonian, propagator_matrix)
from metaplectic.gausscalc import GaussianState
from metaplectic.sympcore import (chirp, classify_positivity, fourier, matrix_polar,
                                  multiplier, rescale, word_to_matrix)
from metaplectic.tfrzoo import build_covariant


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    word = [chirp(np.array([[0.5]])), fourier(1)]
    paths = {}

    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)

    put("word.json", F.dumps_json(F.dump_word(word)))
    put("matrix.json", F.dumps_json(F.dump_matrix(word_to_matrix(word), 1)))
    put("state.json", F.dumps_json(F.dump_state(
        GaussianState(1, 0.7 + 0.2j, [[0.2 + 0.8j]], [0.3 - 0.2j]))))
    put("state2.json", F.dumps_json(F.dump_state(
        GaussianState(1, 1.1 - 0.4j, [[-0.3 + 1.2j]], [-0.1 + 0.4j]))))
    put("husimi.json", F.dumps_json(F.dump_tfrspec(
        build_covariant(np.eye(1) / 2, -0.5j * np.eye(1), 0.5j * np.eye(1)))))
    put("wigner.json", F.dumps_json(F.dump_tfrspec(
        build_covariant(np.eye(1) / 2, np.zeros((1, 1)), np.zeros((1, 1))))))
    put("ham.json", F.dumps_json(F.dump_hamiltonian(heat_hamiltonian(1.0, 1.0, 1))))
    put("tri.json", F.dumps_json(F.dump_matrix(
        word_to_matrix([rescale(np.array([[2.0]])),
                        multiplier(np.array([[-0.4j]]))]), 1)))
    put("bad.json", "{not json")
    paths["dir"] = str(tmp_path)
    return paths


def test_classify_positivity(runner, files):
    r = runner.invoke(main, ["classify", "--matrix", files["matrix.json"],
                             "--mode", "positivity"])
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["class"] in ("Positive", "StrictlyPositive", "Real")
    assert "min_eigenvalue" in rep


def test_classify_triangular(runner, files):
    r = runner.invoke(main, ["classify", "--matrix", files["tri.json"],
                             "--mode", "triangular"])
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["shape"] == "upper"
    assert rep["agrees"]


def test_classify_conjugation(runner, files):
    r = runner.invoke(main, ["classify", "--matrix", files["tri.json"],
                             "--mode", "conjugation"])
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["conjugation_symmetric"] and rep["positive"]
    assert rep["word"]["tokens"][0]["op"] == "chirp"
    assert rep["synthesis_residual"] <= 1e-10


def test_classify_bad_file_exits_2(runner, files):
    r = runner.invoke(main, ["classify", "--matrix", files["bad.json"],
                             "--mode", "positivity"])
    assert r.exit_code == 2


def test_classify_non_triangular_exits_1(runner, files):
    r = runner.invoke(main, ["classify", "--matrix", files["matrix.json"],
                             "--mode", "triangular"])
    assert r.exit_code == 1


def test_nan_matrix_exits_2(runner, files, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"d":1,"rows":[[[NaN,0],[0,0]],[[0,0],[1,0]]]}')
    r = runner.invoke(main, ["gaussian", "apply", "--matrix", str(path),
                             "--state", files["state.json"]])
    assert r.exit_code == 2


def test_overflowing_matrix_is_not_symplectic(runner, tmp_path):
    # det = 1e308 while S^T J S overflows: nothing certifies the identity
    path = tmp_path / "huge.json"
    path.write_text(F.dumps_json(F.dump_matrix(np.array([[1e308, 1e308], [0.0, 1.0]]), 1)))
    r = runner.invoke(main, ["classify", "--matrix", str(path)])
    assert r.exit_code == 0
    assert json.loads(r.output)["class"] == "NotSymplectic"
    assert runner.invoke(main, ["polar", "--matrix", str(path)]).exit_code == 1


def test_classify_and_polar_take_the_library_tolerance(runner, tmp_path):
    # ||Im S|| = 5e-10 lies inside the library's realness margin 1e-9
    S = np.array([[1, 0], [-5e-10j, 1]])
    assert classify_positivity(S).klass == "Real"
    path = tmp_path / "nearly_real.json"
    path.write_text(F.dumps_json(F.dump_matrix(S, 1)))
    r = runner.invoke(main, ["classify", "--matrix", str(path)])
    assert r.exit_code == 0
    assert json.loads(r.output)["class"] == "Real"
    r = runner.invoke(main, ["classify", "--matrix", str(path), "--mode", "triangular"])
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["positive"] is True and rep["eigen_class"] == "Real" and rep["agrees"]
    r = runner.invoke(main, ["polar", "--matrix", str(path)])
    assert r.exit_code == 0
    assert json.loads(r.output)["residual"] <= 1e-12


@pytest.mark.parametrize("command", [["classify", "--matrix"], ["polar", "--matrix"],
                                     ["gaussian", "apply", "--matrix"],
                                     ["tfr", "classify", "--tfr"], ["tfr", "windows", "--tfr"]])
def test_no_tolerance_option(runner, files, command):
    path = files["husimi.json" if command[0] == "tfr" else "matrix.json"]
    args = command + [path, "--tol", "1e-3"]
    if command[0] == "gaussian":
        args += ["--state", files["state.json"]]
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    assert "No such option" in r.output and "--tol" in r.output


def test_stray_linalg_error_exits_3(runner, files, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("metaplectic.sympcore.classify_positivity", singular)
    r = runner.invoke(main, ["classify", "--matrix", files["matrix.json"]])
    assert r.exit_code == 3
    assert r.stderr == "numerical error: Singular matrix\n"
    assert isinstance(r.exception, SystemExit)


def test_polar(runner, files):
    r = runner.invoke(main, ["polar", "--matrix", files["matrix.json"]])
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["residual"] <= 1e-9
    _, U = F.load_matrix(rep["U"])
    assert np.linalg.norm(U.imag) <= 1e-9


def test_gaussian_apply_json(runner, files):
    r = runner.invoke(main, ["gaussian", "apply", "--word", files["word.json"],
                             "--state", files["state.json"], "--format", "json"])
    assert r.exit_code == 0
    g = F.load_state(json.loads(r.output))
    assert np.asarray(g.Q).imag[0, 0] > 0


def test_gaussian_apply_word_xor_matrix(runner, files):
    r = runner.invoke(main, ["gaussian", "apply", "--word", files["word.json"],
                             "--matrix", files["matrix.json"],
                             "--state", files["state.json"]])
    assert r.exit_code == 2
    r = runner.invoke(main, ["gaussian", "apply", "--state", files["state.json"]])
    assert r.exit_code == 2


def _exits_cleanly(r, code):
    # a handled error exits through SystemExit; an escaped exception would
    # leave a traceback behind
    assert r.exit_code == code, r.output
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.stderr


def test_gaussian_wigner_rejects_a_sum_of_two_dimensions(runner, tmp_path):
    # ended in a raw numpy ValueError traceback
    path = tmp_path / "mixed.json"
    path.write_text(F.dumps_json(F.dump_sum([GaussianState(1, 1.0, [[1j]], [0.0]),
                                             GaussianState(2, 1.0, 1j * np.eye(2), [0.0, 0.0])])))
    r = runner.invoke(main, ["gaussian", "wigner", "--state", str(path)])
    _exits_cleanly(r, 1)
    assert r.stderr.startswith("validation error:") and "one dimension" in r.stderr
    assert len(r.stderr.splitlines()) == 1


def test_gaussian_apply_rejects_non_symplectic_matrix(runner, files, tmp_path):
    # 2I scales the standard Gaussian but is no symplectic matrix
    path = tmp_path / "twice.json"
    path.write_text(F.dumps_json(F.dump_matrix(2 * np.eye(2), 1)))
    r = runner.invoke(main, ["gaussian", "apply", "--matrix", str(path),
                             "--state", files["state.json"]])
    _exits_cleanly(r, 1)
    assert r.stderr.startswith("validation error:")
    assert len(r.stderr.splitlines()) == 1


def test_gaussian_apply_matrix_json(runner, files):
    r = runner.invoke(main, ["gaussian", "apply", "--matrix", files["matrix.json"],
                             "--state", files["state.json"]])
    assert r.exit_code == 0
    assert np.asarray(F.load_state(json.loads(r.output)).Q).imag[0, 0] > 0


@pytest.mark.parametrize("op", ["atom_r", "atom_p"])
@pytest.mark.parametrize("entries", ['["x"]', "[" + str(2**1100) + "]", "[1e999999]",
                                     "[NaN]", "[null]", "[[0.5]]", "[true]", "0.5"],
                         ids=["string", "huge-int", "overflow", "nan", "null",
                              "nested", "bool", "scalar"])
def test_atom_parameters_parse_like_matrix_entries(runner, files, tmp_path, op, entries):
    key = "theta" if op == "atom_r" else "delta"
    path = tmp_path / "atom.json"
    path.write_text(f'{{"d": 1, "tokens": [{{"op": "{op}", "{key}": {entries}}}]}}')
    r = runner.invoke(main, ["gaussian", "apply", "--word", str(path),
                             "--state", files["state.json"]])
    _exits_cleanly(r, 2)
    assert r.stderr.startswith("format error:")


def test_gaussian_apply_csv(runner, files):
    r = runner.invoke(main, ["gaussian", "apply", "--word", files["word.json"],
                             "--state", files["state.json"], "--format", "csv",
                             "--grid-n", "64"])
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert lines[0] == "index,x,re,im"
    assert len(lines) == 65
    assert "np.float64" not in r.output


def test_gaussian_apply_bin(runner, files, tmp_path):
    out = str(tmp_path / "out.mpgf")
    r = runner.invoke(main, ["gaussian", "apply", "--word", files["word.json"],
                             "--state", files["state.json"], "--format", "bin",
                             "--grid-n", "32", "--out", out])
    assert r.exit_code == 0
    g = F.read_mpgf(open(out, "rb").read())
    assert g.spec.n == 32


def test_gaussian_wigner(runner, files):
    r = runner.invoke(main, ["gaussian", "wigner", "--state", files["state.json"],
                             "--state2", files["state2.json"]])
    assert r.exit_code == 0
    W = F.load_state(json.loads(r.output))
    assert W.d == 2


def test_gaussian_intertwine(runner, files):
    r = runner.invoke(main, ["gaussian", "intertwine", "--word", files["word.json"],
                             "--state", files["state.json"],
                             "--z", "0.3,0.7", "--tau", "0.1"])
    assert r.exit_code == 0
    assert float(r.output) < 1e-10


def test_tfr_classify(runner, files):
    r = runner.invoke(main, ["tfr", "classify", "--tfr", files["husimi.json"]])
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert rep["covariant"] and rep["conjugation_symmetric"]
    assert rep["spectrogram"]["spectrogram"]
    assert rep["pure_spectrogram"]["pure"]


def test_tfr_classify_near_conjugation_margin(runner, tmp_path):
    # at the conjugation-symmetry threshold both of its tests are near their
    # margin; the report still carries a verdict
    path = tmp_path / "near.json"
    path.write_text(F.dumps_json(F.dump_tfrspec(
        build_covariant(np.eye(1) / 2 + 1e-9, -0.5j * np.eye(1), 0.5j * np.eye(1)))))
    r = runner.invoke(main, ["tfr", "classify", "--tfr", str(path)])
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    assert rep["covariant"] and rep["conjugation_symmetric"] in (True, False)


def test_tfr_kernel(runner, files):
    r = runner.invoke(main, ["tfr", "kernel", "--tfr", files["husimi.json"]])
    assert r.exit_code == 0
    ker = json.loads(r.output)
    assert ker["type"] == "gaussian"
    st = F.load_state(ker["state"])
    assert abs(st.c - 2.0) < 1e-12


def test_tfr_windows(runner, files):
    r = runner.invoke(main, ["tfr", "windows", "--tfr", files["husimi.json"]])
    assert r.exit_code == 0
    rep = json.loads(r.output)
    wf = F.load_state(rep["window_f"])
    assert abs(abs(wf.c) - 2.0 ** 0.25) < 1e-10


def test_tfr_windows_singular_exits_1(runner, files):
    r = runner.invoke(main, ["tfr", "windows", "--tfr", files["wigner.json"]])
    assert r.exit_code == 1
    assert r.stderr == ("validation error: representation is not a spectrogram: "
                        "{'a13_invertible': False}\n")


def test_tfr_classify_reports_wigner_as_failed_clauses(runner, files):
    r = runner.invoke(main, ["tfr", "classify", "--tfr", files["wigner.json"]])
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    assert rep["spectrogram"] == {"spectrogram": False, "clauses": {"a13_invertible": False},
                                  "window_f": None, "window_g": None}
    # a21_consistency needs an imaginary definite A13: not tested, not reported
    assert rep["pure_spectrogram"]["clauses"] == {"re_a11_half": True, "a13_imaginary": False}


def test_tfr_classify_of_huge_entries_fails_the_pattern(runner, tmp_path):
    # every norm of this matrix overflows; inf <= tol * inf passed the block
    # pattern and the symbol signature
    path = tmp_path / "huge.json"
    path.write_text(F.dumps_json({"d": 1, "A": F.dump_matrix(np.full((4, 4), 1e300), 1)}))
    r = runner.invoke(main, ["tfr", "classify", "--tfr", str(path)])
    assert r.exit_code == 0 and r.exception is None, r.output
    assert json.loads(r.output) == {"covariant": False, "clauses": {
        "blocks_match_pattern": False, "a13_symmetric": True, "a21_symmetric": True}}


@pytest.mark.parametrize("command", [["classify"], ["polar"],
                                     ["gaussian", "apply", "--state", "state.json"]])
def test_matrix_dimension_disagreeing_with_its_shape_exits_2(runner, files, tmp_path, command):
    path = tmp_path / "d5.json"
    path.write_text(F.dumps_json(F.dump_matrix(word_to_matrix([fourier(1)]), 5)))
    args = [files[a] if a in files else a for a in command] + ["--matrix", str(path)]
    r = runner.invoke(main, args)
    _exits_cleanly(r, 2)
    assert r.stderr == "format error: matrix of dimension d = 5 cannot be 2 x 2\n"


def test_evolve_example_csv(runner):
    r = runner.invoke(main, ["evolve", "--example", "heat", "--alpha", "1",
                             "--beta", "1", "--t-max", "0.5", "--t-steps", "2",
                             "--grid-n", "64"])
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert lines[0].startswith("t,im_frobenius,min_eig,polar_residual,bound_u")
    assert len(lines) == 3
    assert "np.float64" not in r.output


def test_evolve_example_json(runner):
    r = runner.invoke(main, ["evolve", "--example", "harmonic", "--d1", "1",
                             "--d2", "1", "--t-max", "0.4", "--t-steps", "2",
                             "--format", "json", "--grid-n", "64"])
    assert r.exit_code == 0
    rows = json.loads(r.output)
    assert len(rows) == 2
    assert np.isnan(rows[0]["bound_z"])
    assert abs(rows[0]["bound_u"] - 2.0) < 1e-8


def test_evolve_hermite_defaults_record_nan_cells(runner):
    # a row whose polar split fails gets NaN in the polar and bound cells,
    # while the exact L^2 column stays finite
    r = runner.invoke(main, ["evolve", "--example", "hermite", "--format", "json"])
    assert r.exit_code == 0
    rows = json.loads(r.output)
    assert len(rows) == 20
    assert all(np.isfinite(row["l2_ratio"]) for row in rows)


def test_evolve_hermite_defaults_bounds_finite(runner):
    # the structured polar split holds up to t = 1.6 (cond S about 5e8);
    # past that the realness gate may reject the real factor
    r = runner.invoke(main, ["evolve", "--example", "hermite", "--format", "json"])
    assert r.exit_code == 0
    rows = json.loads(r.output)
    cols = ["polar_residual", "bound_u", "bound_z", "bound_combined"]
    finite = [row for row in rows if all(np.isfinite(row[c]) for c in cols)]
    assert all(row in finite for row in rows if row["t"] <= 1.6 + 1e-12)
    assert len(finite) >= 17
    assert all(row["bound_combined"] >= row["l2_ratio"] for row in finite)


def test_evolve_hermite_defaults_all_rows_finite(runner):
    # the real polar iteration leaves nothing complex to reject, up to
    # cond S about 1e11 at t = 2; its real factor is the rotation exp(2 pi t J)
    r = runner.invoke(main, ["evolve", "--example", "hermite", "--format", "json"])
    assert r.exit_code == 0
    rows = json.loads(r.output)
    assert len(rows) == 20
    assert all(np.isfinite(row[c]) for row in rows for c in EVOLVE_COLUMNS)
    H = hermite_hamiltonian(1.0, 1.0, 1)
    for row in rows:
        U = matrix_polar(propagator_matrix(H, row["t"])).U
        c, s = np.cos(2 * np.pi * row["t"]), np.sin(2 * np.pi * row["t"])
        assert np.linalg.norm(U - np.array([[c, s], [-s, c]])) <= 1e-12


def test_evolve_overflowing_steps_record_nan_rows(runner):
    # the hermite flow leaves the float range before t = 100: each such step
    # is a NaN row, and the sweep goes on
    r = runner.invoke(main, ["evolve", "--example", "hermite", "--t-max", "200",
                             "--t-steps", "2"])
    assert r.exit_code == 0, r.output
    lines = r.output.strip().splitlines()
    assert lines[0] == ",".join(EVOLVE_COLUMNS)
    assert lines[1:] == ["100.0" + ",nan" * 8, "200.0" + ",nan" * 8]


def test_evolve_hamiltonian_file(runner, files):
    r = runner.invoke(main, ["evolve", "--hamiltonian", files["ham.json"],
                             "--t-max", "0.2", "--t-steps", "2", "--grid-n", "64"])
    assert r.exit_code == 0
    assert len(r.output.strip().splitlines()) == 3


def test_evolve_example_xor_hamiltonian(runner, files):
    r = runner.invoke(main, ["evolve", "--example", "heat",
                             "--hamiltonian", files["ham.json"]])
    assert r.exit_code == 2


@pytest.mark.parametrize("args", [
    ["--example", "heat", "--dim", "0"],
    ["--example", "hermite", "--dim", "0"],
    ["--example", "heat", "--dim", "-1"],
    ["--example", "harmonic", "--d1", "0", "--d2", "0"],
    ["--example", "harmonic", "--d1", "-1"],
])
def test_evolve_rejects_dimension_out_of_range(runner, args):
    # an option out of range is a usage error: exit 2, like a format error
    _exits_cleanly(runner.invoke(main, ["evolve", *args]), 2)


def test_out_file_option(runner, files, tmp_path):
    out = str(tmp_path / "rep.json")
    r = runner.invoke(main, ["classify", "--matrix", files["matrix.json"],
                             "--mode", "positivity", "--out", out])
    assert r.exit_code == 0
    rep = json.loads(open(out).read())
    assert "class" in rep


def test_version(runner):
    r = runner.invoke(main, ["--version"])
    assert r.exit_code == 0
    assert "0.1.0" in r.output


def test_module_entry_point_runs_cli(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "metaplectic.cli", "classify",
                           "--matrix", str(tmp_path / "missing.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "cannot read matrix" in proc.stderr


@pytest.mark.parametrize("args", [["--p", "0"], ["--p", "-1"], ["--p", "nan"], ["--q", "0"],
                                  ["--s", "nan"], ["--s", "inf"]])
def test_evolve_rejects_indices_outside_domain(runner, args):
    r = runner.invoke(main, ["evolve", "--example", "heat", *args])
    _exits_cleanly(r, 1)
    assert r.stderr.startswith("validation error:")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("z, tau", [("1,nan", None), ("1,0", "inf"), ("inf,0", None)])
def test_intertwine_rejects_nonfinite_shift(runner, files, z, tau):
    # a NaN shift printed a perfect residual of 0.0 and exited 0
    args = ["gaussian", "intertwine", "--word", files["word.json"],
            "--state", files["state.json"], "--z", z]
    r = runner.invoke(main, args + (["--tau", tau] if tau else []))
    _exits_cleanly(r, 1)
    assert "shift parameters must be finite" in r.stderr


def test_intertwine_overflow_is_numerical_error(runner, files):
    r = runner.invoke(main, ["gaussian", "intertwine", "--word", files["word.json"],
                             "--state", files["state.json"], "--z", "1e200,0"])
    _exits_cleanly(r, 3)


def test_atom_r_past_float_range_exits_3(runner, files, tmp_path):
    # cosh and sinh overflowed with RuntimeWarnings on stderr, then the
    # word failed as "matrix must be finite" and exited 1
    word = tmp_path / "atom.json"
    word.write_text('{"d": 1, "tokens": [{"op": "atom_r", "theta": [800.0]}]}')
    r = runner.invoke(main, ["gaussian", "apply", "--word", str(word),
                             "--state", files["state.json"]])
    _exits_cleanly(r, 3)
    assert r.stderr.startswith("numerical error:") and "atom_r" in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert "Warning" not in r.stderr


@pytest.mark.parametrize("command", [
    ["evolve", "--example", "heat"],
    ["gaussian", "apply", "--format", "csv"],
])
@pytest.mark.parametrize("option", [["--grid-n", "3"], ["--grid-n", "2"], ["--grid-n", "0"],
                                    ["--grid-n", "-4"], ["--grid-n", "7"]])
def test_grid_size_out_of_range_is_usage_error(runner, files, command, option):
    # exited 1, and at zero or below printed a RuntimeWarning first
    if command[0] == "gaussian":
        command = command + ["--word", files["word.json"], "--state", files["state.json"]]
    r = runner.invoke(main, command + option)
    _exits_cleanly(r, 2)
    assert "must be even and at least 4" in r.stderr
    assert "Warning" not in r.stderr


@pytest.mark.parametrize("h", ["0", "-0.5", "nan", "inf"])
def test_grid_spacing_out_of_range_is_usage_error(runner, files, h):
    # --grid-h 0 was silently replaced by the self-dual default
    r = runner.invoke(main, ["gaussian", "apply", "--word", files["word.json"],
                             "--state", files["state.json"], "--format", "csv",
                             "--grid-n", "16", "--grid-h", h])
    _exits_cleanly(r, 2)
    assert "must be positive and finite" in r.stderr


def test_grid_spacing_is_used_as_given(runner, files):
    r = runner.invoke(main, ["gaussian", "apply", "--word", files["word.json"],
                             "--state", files["state.json"], "--format", "csv",
                             "--grid-n", "4", "--grid-h", "0.125"])
    assert r.exit_code == 0, r.output
    assert [float(line.split(",")[1]) for line in r.stdout.splitlines()[1:]] == \
        [-0.25, -0.125, 0.0, 0.125]


@pytest.mark.parametrize("t_max", ["inf", "nan", "-1", "-inf"])
def test_evolve_time_out_of_range_is_usage_error(runner, t_max):
    # inf and nan gave all-NaN rows and exit 0; -1 exited 1 with a message
    # about a decaying state
    r = runner.invoke(main, ["evolve", "--example", "heat", "--t-max", t_max])
    _exits_cleanly(r, 2)
    assert "must be finite and nonnegative" in r.stderr


def test_evolve_extreme_indices_exit_cleanly(runner):
    # an index or weight that drives a bound or the grid norm out of the
    # float range ended in a ZeroDivisionError or OverflowError traceback
    def run(*option):
        return runner.invoke(main, ["evolve", "--example", "hermite", "--t-max", "1",
                                    "--t-steps", "2", "--grid-n", "16", *option])
    for option in (["--p", "1e300"], ["--q", "1e5"]):
        r = run(*option)
        assert r.exit_code == 0, (option, r.output)
        assert all(np.isfinite(float(v)) for line in r.stdout.splitlines()[1:]
                   for v in line.split(","))
    # a bound beyond the float range is a NaN cell of its row
    r = run("--s", "312")
    assert r.exit_code == 0, r.output
    assert [line.split(",")[5] for line in r.stdout.splitlines()[1:]] == ["nan", "nan"]
    # a grid norm of the initial state beyond the float range ends the sweep
    for option in (["--s", "1e5"], ["--p", "1e-300"]):
        r = run(*option)
        _exits_cleanly(r, 3)
        assert "leaves the floating-point range" in r.stderr


def test_evolve_bound_that_underflows_is_nan(runner):
    # bound_z underflowed and printed 0.0, below l2_ratio (0.208, 0.043)
    r = runner.invoke(main, ["evolve", "--example", "hermite", "--t-max", "1", "--t-steps", "2",
                             "--grid-n", "16", "--s", "-1e5"])
    assert r.exit_code == 0, r.output
    rows = [line.split(",") for line in r.stdout.splitlines()]
    col = rows[0].index
    for row in rows[1:]:
        assert row[col("bound_z")] == row[col("bound_combined")] == "nan"
        assert np.isfinite(float(row[col("bound_u")]))
        assert float(row[col("l2_ratio")]) > 0.04


def test_tfr_kernel_of_chirp_type(runner, tmp_path):
    # a real symbol exponent B is neither zero nor decaying: a chirp kernel
    path = tmp_path / "chirp.json"
    path.write_text(F.dumps_json(F.dump_tfrspec(
        build_covariant(np.eye(1) / 2 + 0.1, np.zeros((1, 1)), np.zeros((1, 1))))))
    r = runner.invoke(main, ["tfr", "kernel", "--tfr", str(path)])
    assert r.exit_code == 0, r.output
    ker = json.loads(r.output)
    assert ker["type"] == "chirp"
    d, B = F.load_matrix(ker["B"])
    assert d == 2 and np.abs(B - [[0, -0.1], [-0.1, 0]]).max() <= 1e-15


def test_evolve_without_time_steps_is_a_format_error(runner):
    r = runner.invoke(main, ["evolve", "--example", "heat", "--t-steps", "0"])
    _exits_cleanly(r, 2)
    assert "--t-steps must be at least 1" in r.stderr


def test_intertwine_shift_that_is_not_a_number_is_a_format_error(runner, files):
    r = runner.invoke(main, ["gaussian", "intertwine", "--word", files["word.json"],
                             "--state", files["state.json"], "--z", "1,a"])
    _exits_cleanly(r, 2)
    assert "--z must be a comma-separated list of numbers" in r.stderr
