"""Serialization: JSON object schemas, binary grid container, CSV exports."""
import json
import struct

import numpy as np
import pytest

from metaplectic import formats as F
from metaplectic.errors import FormatError
from metaplectic.evoprop import heat_hamiltonian
from metaplectic.gausscalc import GaussianState, standard_gaussian
from metaplectic.gridlab import GridFn, GridSpec, sample
from metaplectic.sympcore import (atom_p, atom_r, chirp, fourier, multiplier,
                                  rescale, word_to_matrix)
from metaplectic.tfrzoo import build_covariant


def test_dumps_json_deterministic():
    s = F.dumps_json({"b": 1, "a": [1.5, {"z": True, "y": None}]})
    assert s == '{"a":[1.5,{"y":null,"z":true}],"b":1}'


def test_dumps_json_accepts_numpy_scalars():
    s = F.dumps_json({"x": np.float64(0.5), "n": np.int64(3), "f": np.bool_(True)})
    assert s == '{"f":true,"n":3,"x":0.5}'


def test_dumps_json_rejects_arrays():
    with pytest.raises(FormatError):
        F.dumps_json({"x": np.zeros(3)})


def test_complex_round_trip():
    z = 0.3 - 1.7j
    assert F.load_complex(F.dump_complex(z)) == z


@pytest.mark.parametrize("text", ["[NaN, 0]", "[0, Infinity]", "[-Infinity, 1]",
                                  "[1e400, 0]", "[1" + "0" * 400 + ", 0]"])
def test_complex_load_rejects_non_finite(text):
    with pytest.raises(FormatError):
        F.load_complex(json.loads(text))


def test_matrix_round_trip():
    M = np.array([[0.2 + 0.8j, -1.0], [0.5, 0.3 - 0.1j]])
    d, M2 = F.load_matrix(F.dump_matrix(M, 2))
    assert d == 2
    assert np.array_equal(M, M2)


def test_matrix_load_rejects_ragged():
    with pytest.raises(FormatError):
        F.load_matrix({"d": 1, "rows": [[[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})


def test_state_round_trip():
    f = GaussianState(1, 0.7 + 0.2j, [[0.2 + 0.8j]], [0.3 - 0.2j])
    g = F.load_state(F.dump_state(f))
    assert g.c == f.c
    assert np.array_equal(g.Q, f.Q)
    assert np.array_equal(g.b, f.b)


def test_state_round_trip_degenerate_flag():
    f = GaussianState(1, 1.0, [[0.5 + 0j]], [0.0], allow_degenerate=True)
    g = F.load_state(F.dump_state(f))
    assert g.allow_degenerate


def test_sum_round_trip():
    fs = [standard_gaussian(1),
          GaussianState(1, 0.4j, [[1.5j]], [0.2])]
    gs = F.load_sum(F.dump_sum(fs))
    assert len(gs) == 2
    assert gs[1].c == 0.4j


def test_dumps_json_writes_states_and_complex_numbers():
    # reports hold states and complex numbers as the library returns them
    f = GaussianState(1, 0.4j, [[1.5j]], [0.2], allow_degenerate=True)
    report = {"state": f, "sum": [f, standard_gaussian(1)], "kappa": np.complex128(1 - 2j),
              "z": 0.5j, "none": None}
    assert F.dumps_json(report) == F.dumps_json({
        "state": F.dump_state(f), "sum": F.dump_sum([f, standard_gaussian(1)]),
        "kappa": [1.0, -2.0], "z": [0.0, 0.5], "none": None})


def test_state_or_sum_reads_what_dumps_json_writes():
    f = GaussianState(1, 0.4j, [[1.5j]], [0.2])
    one = F.load_state_or_sum(json.loads(F.dumps_json(f)))
    assert isinstance(one, GaussianState) and one.c == f.c
    both = F.load_state_or_sum(json.loads(F.dumps_json([f, f])))
    assert isinstance(both, list) and [g.c for g in both] == [f.c, f.c]
    with pytest.raises(FormatError, match="^state must be a nonempty list of states$"):
        F.load_state_or_sum([], "state")


def test_word_round_trip_all_tokens():
    word = [chirp(np.array([[0.5 + 0.1j]])), fourier(1),
            rescale(np.array([[2.0]]), maslov=3),
            multiplier(np.array([[-0.3j]])),
            atom_r(np.array([0.4])), atom_p(np.array([0.0]))]
    w2 = F.load_word(F.dump_word(word))
    assert [t.op for t in w2] == [t.op for t in word]
    assert w2[2].maslov == 3
    assert np.allclose(word_to_matrix(w2), word_to_matrix(word))


def test_empty_word_does_not_dump():
    with pytest.raises(FormatError, match="empty word"):
        F.dump_word([])


def test_word_load_rejects_unknown_op():
    with pytest.raises(FormatError):
        F.load_word({"d": 1, "tokens": [{"op": "squeeze"}]})


def test_tfrspec_round_trip():
    spec = build_covariant(np.eye(1) / 2, -0.5j * np.eye(1), 0.5j * np.eye(1))
    spec2 = F.load_tfrspec(F.dump_tfrspec(spec))
    assert spec2.d == 1
    assert np.array_equal(spec.A, spec2.A)


def test_hamiltonian_round_trip():
    H = heat_hamiltonian(1.0, 0.5, 2)
    H2 = F.load_hamiltonian(F.dump_hamiltonian(H))
    assert H2.d == 2
    assert np.array_equal(H.Qmat, H2.Qmat)


def test_mpgf_round_trip():
    g = sample(standard_gaussian(1), GridSpec(1, 64, 0.125))
    buf = F.write_mpgf(g)
    assert len(buf) == 18 + 64 * 16
    g2 = F.read_mpgf(buf)
    assert g2.spec == g.spec
    assert np.array_equal(g2.values, g.values)


def test_mpgf_round_trip_2d():
    spec = GridSpec(2, 8, 0.25)
    vals = np.arange(64, dtype=complex).reshape(8, 8) * (1 + 1j)
    buf = F.write_mpgf(GridFn(spec, vals))
    g2 = F.read_mpgf(buf)
    assert g2.spec == spec
    assert np.array_equal(g2.values, vals)


def test_mpgf_rejects_corruption():
    g = sample(standard_gaussian(1), GridSpec(1, 8, 0.25))
    buf = F.write_mpgf(g)
    with pytest.raises(FormatError):
        F.read_mpgf(b"XXXX" + buf[4:])
    with pytest.raises(FormatError):
        F.read_mpgf(buf[:4] + struct.pack("<B", 9) + buf[5:])
    with pytest.raises(FormatError):
        F.read_mpgf(buf[:-8])
    with pytest.raises(FormatError):
        F.read_mpgf(buf[:10])
    with pytest.raises(FormatError):
        F.read_mpgf(buf[:10] + struct.pack("<d", np.inf) + buf[18:])


def test_grid_csv_layout():
    spec = GridSpec(1, 4, 0.5)
    g = GridFn(spec, np.array([1 + 2j, 0, 0.25, -1j]))
    lines = F.grid_csv(g).splitlines()
    assert lines[0] == "index,x,re,im"
    assert lines[1] == "0,-1.0,1.0,2.0"
    assert lines[3] == "2,0.0,0.25,0.0"
    assert len(lines) == 5


def test_grid_csv_rejects_2d():
    spec = GridSpec(2, 4, 0.5)
    with pytest.raises(FormatError):
        F.grid_csv(GridFn(spec, np.zeros((4, 4))))


def test_rows_csv_layout():
    rows = [{"a": 1.5, "b": np.float64(0.1), "c": 2},
            {"a": float("nan"), "b": -1.0, "c": 0}]
    text = F.rows_csv(rows, ["a", "b", "c"])
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1.5,0.1,2"
    assert lines[2] == "nan,-1.0,0"
    assert "np.float64" not in text
