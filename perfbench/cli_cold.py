"""Workload ``cli_cold``: one fresh ``metaplectic`` process per case.

The case list rotates through seven commands, each at a fixed dimension;
a run always executes whole rotations, so every run has the same command
mix.  Inputs are written in the package's JSON layout by the benchmark
itself (``inputs``), and outputs are parsed and checked without the package.
"""

import csv
import io
import json
import os
import struct
import subprocess
import sys
import threading

import numpy as np

import reference as ref
from inputs import (Checks, covariant_matrix, generic_positive, matrix_json,
                    parse_matrix, parse_state, positive_word_ops, state_params,
                    state_json, symplectic_defect, window_family, word_json)

COMMANDS = ["classify", "polar", "gaussian_apply", "gaussian_apply_bin",
            "gaussian_wigner", "tfr_classify", "evolve"]
ROUND = len(COMMANDS)
CASES = 3 * ROUND
CHILDREN = True
CHILD_TIMEOUT_S = 60
POSITIVE = ("Real", "Positive", "StrictlyPositive")
EVOLVE_COLUMNS = ["t", "im_frobenius", "min_eig", "polar_residual", "bound_u",
                  "bound_z", "bound_combined", "l2_ratio", "modnorm_ratio"]
MPGF_HEADER = struct.Struct("<4sBBId")     # magic, version, d, n, h
BIN_N = 256
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _case(rng, workdir, k, cmd):
    tag = f"{k:02d}-{cmd}"
    case = {"cmd": cmd, "workdir": workdir, "out": None}
    if cmd == "classify":
        ops, maslov = positive_word_ops(rng, 1)
        case["S"] = ref.word_matrix(ops, 1)
        case["argv"] = ["classify", "--matrix",
                        _write(workdir, tag + ".json", matrix_json(case["S"], 1))]
    elif cmd == "polar":
        S, R, _theta = generic_positive(rng, 2)
        case.update(S=S, R=R)
        case["argv"] = ["polar", "--matrix", _write(workdir, tag + ".json", matrix_json(S, 2))]
    elif cmd == "gaussian_apply":
        ops, maslov = positive_word_ops(rng, 1)
        case.update(S=ref.word_matrix(ops, 1), state=state_params(rng, 1))
        case["argv"] = ["gaussian", "apply",
                        "--word", _write(workdir, tag + "-word.json", word_json(ops, 1, maslov)),
                        "--state", _write(workdir, tag + "-state.json", state_json(*case["state"]))]
    elif cmd == "gaussian_apply_bin":
        # chirp after a positive rescale: the image has an exact closed form,
        # phase included, ((sqrt e) c, e^2 Q + q, e b)
        q = rng.uniform(-0.4, 0.4) + 1j * rng.uniform(0.0, 0.3)
        e = rng.uniform(0.7, 1.4)
        c, Q, b = state_params(rng, 1)
        case["image"] = (np.sqrt(e) * c, e * e * Q + q, e * b)
        case["out"] = os.path.join(workdir, tag + ".mpgf")
        ops = [("chirp", np.array([[q]])), ("rescale", np.array([[e]]))]
        case["argv"] = ["gaussian", "apply",
                        "--word", _write(workdir, tag + "-word.json", word_json(ops, 1)),
                        "--state", _write(workdir, tag + "-state.json", state_json(c, Q, b)),
                        "--format", "bin", "--grid-n", str(BIN_N), "--out", case["out"]]
    elif cmd == "gaussian_wigner":
        case["state"] = state_params(rng, 1)
        case["pts"] = rng.normal(size=(8, 2)) * 0.6
        case["argv"] = ["gaussian", "wigner",
                        "--state", _write(workdir, tag + ".json", state_json(*case["state"]))]
    elif cmd == "tfr_classify":
        a, Sw = window_family(rng, 1)
        blocks, case["window"] = ref.pure_spectrogram(1, a, Sw)
        spec = {"d": 1, "A": matrix_json(covariant_matrix(*blocks), 1)}
        case["argv"] = ["tfr", "classify", "--tfr", _write(workdir, tag + ".json", spec)]
    else:
        alpha, beta = (float(v) for v in rng.uniform(0.5, 1.5, 2))
        t_max = float(rng.uniform(0.1, 0.25))
        case.update(beta=beta, times=[t_max * (j + 1) / 4 for j in range(4)])
        case["argv"] = ["evolve", "--example", "heat", "--alpha", repr(alpha),
                        "--beta", repr(beta), "--t-max", repr(t_max), "--t-steps", "4"]
    return case


def make_cases(rng, workdir):
    return [_case(rng, workdir, k, COMMANDS[k % ROUND]) for k in range(CASES)]


def run(case, trace_path=None):
    """Run one command to completion; returns its exit code, output and the
    child's own peak resident set (from ``wait4``, so that no other child
    is counted)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    if trace_path:
        env["PERFBENCH_TRACE"] = trace_path
    out_path = os.path.join(case["workdir"], "stdout")
    err_path = os.path.join(case["workdir"], "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "cli_child.py")] + case["argv"],
                                stdout=out, stderr=err, env=env, cwd=case["workdir"])
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return {"code": proc.returncode, "stdout": stdout, "stderr": stderr,
            "rss_kb": usage.ru_maxrss}


def run_traced(case, tracer):
    path = os.path.join(case["workdir"], "spans.json")
    result = run(case, trace_path=path)
    with open(path) as fh:
        spans = json.load(fh)
    os.remove(path)
    tracer.merge(spans)
    return result


def check(case, res):
    ck = Checks()
    ck.holds(f"{case['cmd']} exits 0 (got {res['code']}: {res['stderr'][-300:]!r})",
             res["code"] == 0)
    ck.holds(f"{case['cmd']} writes nothing to stderr", not res["stderr"])
    if case["out"]:
        with open(case["out"], "rb") as fh:
            body = fh.read()
        os.remove(case["out"])
    else:
        body = res["stdout"]
    ck.holds(f"{case['cmd']} output is not empty", bool(body))
    if res["code"] != 0 or not body:
        return ck
    try:
        CHECKS[case["cmd"]](ck, case, body)
    except (ValueError, KeyError, TypeError, IndexError, struct.error) as e:
        ck.holds(f"{case['cmd']} output parses ({e!r})", False)
    return ck


def _check_classify(ck, case, body):
    rep = json.loads(body)
    ck.holds(f"classified {rep['class']}", rep["class"] in POSITIVE)
    mn, scale = ref.certificate_min_eig(case["S"])
    ck.close("certificate eigenvalue", abs(rep["min_eigenvalue"] - mn) / max(1.0, scale), 1e-10)


def _check_polar(ck, case, body):
    rep = json.loads(body)
    U, Z = parse_matrix(rep["U"]), parse_matrix(rep["Z"])
    ck.holds("U is real", not np.any(U.imag))
    ck.close("S = UZ", ref.rel(U @ Z, case["S"]), 1e-9)
    ck.close("U symplectic", symplectic_defect(U.real), 1e-9)
    ck.close("U = R", ref.rel(U, case["R"]), 1e-7)


def _check_gaussian_apply(ck, case, body):
    c, Q, b = parse_state(json.loads(body))
    c0, Q0, b0 = case["state"]
    Qr, br, modr = ref.moebius(case["S"], Q0, b0, c0)
    ck.close("image Q", ref.rel(Q, Qr), 1e-9)
    ck.close("image b", ref.rel(b, br), 1e-9)
    ck.close("image |c|", abs(abs(c) - modr) / modr, 1e-9)


def _check_gaussian_apply_bin(ck, case, body):
    magic, version, d, n, h = MPGF_HEADER.unpack_from(body)
    ck.holds("MPGF header", (magic, version, d, n, h) == (b"MPGF", 1, 1, BIN_N, BIN_N ** -0.5))
    ck.holds("MPGF length", len(body) == MPGF_HEADER.size + 16 * BIN_N)
    vals = np.frombuffer(body, dtype="<c16", offset=MPGF_HEADER.size)
    x = (np.arange(BIN_N) - BIN_N // 2) * BIN_N ** -0.5
    ck.close("MPGF samples", ref.rel(vals, ref.evaluate(*case["image"], x[:, None])), 1e-12)


def _check_gaussian_wigner(ck, case, body):
    c, Q, b = parse_state(json.loads(body))
    pts = case["pts"]
    want = ref.wigner(*case["state"], pts[:, :1], pts[:, 1:])
    ck.close("Wigner closed form", ref.rel(ref.evaluate(c, Q, b, pts), want), 1e-9)


def _check_tfr_classify(ck, case, body):
    rep = json.loads(body)
    ck.holds("covariant", rep["covariant"] is True)
    ck.holds("spectrogram", rep["spectrogram"]["spectrogram"] is True)
    ck.holds("pure spectrogram", rep["pure_spectrogram"]["pure"] is True)
    cw, Qw, _bw = case["window"]
    for key in ("window_f", "window_g"):
        ck.close(key, ref.rel(parse_state(rep["spectrogram"][key])[1], Qw), 1e-9)
    c, Q, _b = parse_state(rep["pure_spectrogram"]["window"])
    ck.close("pure window Q", ref.rel(Q, Qw), 1e-9)
    ck.close("pure window c", abs(c - cw) / abs(cw), 1e-9)


def _check_evolve(ck, case, body):
    rows = list(csv.reader(io.StringIO(body.decode())))
    ck.holds("evolve columns", rows[0] == EVOLVE_COLUMNS)
    ck.holds("evolve rows", len(rows) == 1 + len(case["times"]))
    for cells, t in zip(rows[1:], case["times"]):
        row = dict(zip(rows[0], map(float, cells)))
        ck.holds(f"row at t={t} is finite", all(np.isfinite(v) for v in row.values()))
        ck.close("t", abs(row["t"] - t) / t, 1e-15)
        want = ref.heat_l2_ratio(case["beta"], t)
        ck.close("l2_ratio", abs(row["l2_ratio"] - want) / want, 1e-10)
        ck.close("modnorm_ratio", abs(row["modnorm_ratio"] - want) / want, 1e-6)


CHECKS = {"classify": _check_classify, "polar": _check_polar,
          "gaussian_apply": _check_gaussian_apply,
          "gaussian_apply_bin": _check_gaussian_apply_bin,
          "gaussian_wigner": _check_gaussian_wigner,
          "tfr_classify": _check_tfr_classify, "evolve": _check_evolve}
