"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

Every check is fed a deliberately perturbed result and must fail; a second
seed must pass every check; short runs of every workload must complete and
print the metrics that BENCHMARK.json names.
"""

import os

# as in run.py: one BLAS thread here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _p in (HERE, os.path.join(ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import cli_cold  # noqa: E402
import closed_form  # noqa: E402
import grid_crosscheck  # noqa: E402
import phase_space  # noqa: E402
from metaplectic import evoprop, sympcore  # noqa: E402

SECOND_SEED = 2

# as in run.py: a sampled state that reaches the grid edge aliases, and the
# benchmark counts it as a failed case, so here it is an error too
pytestmark = pytest.mark.filterwarnings("error:state is not negligible")


def _cases(wl, seed, tmp_path):
    return wl.make_cases(np.random.default_rng(seed), str(tmp_path))


def _scale(x):
    return x * (1 + 1e-6)


def _state(s, **kw):
    return dataclasses.replace(s, **kw)


def _failures(wl, case, out):
    return wl.check(case, out).failures


def _assert_fails(wl, case, out, mutate, expected):
    bad = mutate(dict(out))
    failures = _failures(wl, case, bad)
    assert any(f.startswith(expected) for f in failures), (expected, failures)


# ----------------------------------------------------------------------------
# a second seed passes every check
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("wl", [closed_form, grid_crosscheck, phase_space, cli_cold],
                         ids=lambda m: m.__name__)
def test_second_seed_passes(wl, tmp_path):
    for case in _cases(wl, SECOND_SEED, tmp_path):
        assert _failures(wl, case, wl.run(case)) == []


# ----------------------------------------------------------------------------
# perturbed results fail their check
# ----------------------------------------------------------------------------

def _closed_form_mutations():
    def pol(o, **kw):
        o["polar"] = dataclasses.replace(o["polar"], **kw)
        return o

    def term(key, k, **kw):
        def mutate(o):
            o[key] = list(o[key])
            o[key][k] = _state(o[key][k], **{n: f(getattr(o[key][k], n)) for n, f in kw.items()})
            return o
        return mutate

    def window(key):
        def mutate(o):
            rep = dict(o["spectrogram"])
            rep[key] = _state(rep[key], Q=_scale(rep[key].Q))
            o["spectrogram"] = rep
            return o
        return mutate

    def turn_frame(o):
        # U J and J^{-1} Z still multiply to S and U J is still real
        # symplectic, but it is no longer the real factor of the input
        p = o["polar"]
        d = p.U.shape[0] // 2
        Jd = sympcore.omega(d)
        return pol(o, U=p.U @ Jd, Z=np.linalg.inv(Jd) @ p.Z)

    def json_word(o):
        word, sums = o["json"]
        return dict(o, json=(list(reversed(word)), sums))

    def json_sum(o):
        word, sums = o["json"]
        sums = list(sums)
        sums[0] = _state(sums[0], c=np.nextafter(sums[0].c.real, np.inf) + 1j * sums[0].c.imag)
        return dict(o, json=(word, sums))

    return [
        (lambda o: dict(o, W=_scale(o["W"])), "word_to_matrix"),
        (lambda o: dict(o, report=sympcore.PositivityReport("NotPositive", o["report"].min_eigenvalue)),
         "positive word classified"),
        (lambda o: dict(o, report=sympcore.PositivityReport(o["report"].klass, o["report"].min_eigenvalue + 1e-6)),
         "certificate eigenvalue"),
        (lambda o: pol(o, U=o["polar"].U + 0j), "polar U is real"),
        (lambda o: pol(o, Z=_scale(o["polar"].Z)), "polar S = UZ"),
        (lambda o: pol(o, U=_scale(o["polar"].U)), "polar U symplectic"),
        (turn_frame, "polar U = R"),
        (lambda o: dict(o, atomic=(o["atomic"][0], _scale(o["atomic"][1]), o["atomic"][2])), "atomic theta"),
        (lambda o: dict(o, atomic=(o["atomic"][0], o["atomic"][1], o["atomic"][2] + 1e-6)), "atomic delta"),
        (lambda o: dict(o, svd=(o["svd"][0], _scale(o["svd"][1]), o["svd"][2])), "symplectic singular values"),
        (lambda o: dict(o, pairing=(o["pairing"][0], _scale(o["pairing"][1]))), "Weyl pairing"),
        (lambda o: dict(o, bound=1e-3), "combined bound dominates"),
        (term("sum", 0, Q=_scale), "apply_word Q"),
        (term("sum", 1, b=lambda b: b + 1e-6), "apply_word b"),
        (term("sum", 2, c=_scale), "apply_word |c|"),
        (term("single", 0, Q=_scale), "apply_matrix Q"),
        (term("single", 1, b=lambda b: b + 1e-6), "apply_matrix b"),
        (term("single", 2, c=_scale), "apply_matrix |c|"),
        (lambda o: dict(o, norms=[_scale(o["norms"][0])] + o["norms"][1:]), "norm formula"),
        (lambda o: dict(o, inner=_scale(o["inner"])), "inner product"),
        (lambda o: dict(o, wigner=_state(o["wigner"], c=_scale(o["wigner"].c))), "Wigner closed form"),
        (lambda o: dict(o, intertwine=1e-6), "shift intertwining"),
        (lambda o: dict(o, spectrogram=dict(o["spectrogram"], spectrogram=False)), "pure family is a spectrogram"),
        (window("window_f"), "window f"),
        (window("window_g"), "window g"),
        (lambda o: dict(o, tfr=_state(o["tfr"], c=_scale(o["tfr"].c))), "tfr_gaussian spectrogram"),
        (json_word, "JSON word round trip"),
        (json_sum, "JSON sum round trip"),
    ]


def test_closed_form_checks_fail_on_perturbed_results(tmp_path):
    case = _cases(closed_form, SECOND_SEED, tmp_path)[1]      # d = 2
    out = closed_form.run(case)
    assert _failures(closed_form, case, out) == []
    for mutate, expected in _closed_form_mutations():
        _assert_fails(closed_form, case, out, mutate, expected)


def test_grid_crosscheck_checks_fail_on_perturbed_results(tmp_path):
    case = _cases(grid_crosscheck, SECOND_SEED, tmp_path)[0]
    out = grid_crosscheck.run(case)
    wl = grid_crosscheck
    assert _failures(wl, case, out) == []
    coarse = [dataclasses.replace(out[0], values=out[0].values * (1 + 1e-5)), out[1]]
    assert any(f.startswith("n=1024") for f in _failures(wl, case, coarse))
    fine = [out[0], dataclasses.replace(out[1], values=out[1].values * (1 + 1e-9))]
    failures = _failures(wl, case, fine)
    assert failures and all(f.startswith("n=2048 refines") for f in failures)


def test_phase_space_checks_fail_on_perturbed_results(tmp_path, monkeypatch):
    case = _cases(phase_space, SECOND_SEED, tmp_path)[0]
    out = phase_space.run(case)
    wl = phase_space
    assert _failures(wl, case, out) == []

    def grid(key):
        return lambda o: dict(o, **{key: dataclasses.replace(o[key], values=o[key].values * (1 + 1e-5))})

    def row(key, col, value):
        def mutate(o):
            rows = [dict(r) for r in o[key]]
            rows[1][col] = value(rows[1][col])
            return dict(o, **{key: rows})
        return mutate

    mutations = [
        (grid("wigner"), "grid Wigner"),
        (lambda o: dict(o, cone=_scale(o["cone"])), "full-plane cone"),
        (grid("stft"), "grid STFT"),
        (lambda o: dict(o, modnorm=_scale(o["modnorm"])), "modulation norm"),
        (grid("tfr"), "tfr_grid spectrogram"),
        (row("heat", "bound_z", lambda v: float("nan")), "heat row finite"),
        (row("heat", "l2_ratio", _scale), "heat l2_ratio"),
        (row("heat", "modnorm_ratio", lambda v: v * (1 + 1e-5)), "heat modnorm_ratio"),
        (row("hyp", "bound_u", lambda v: float("inf")), "hyperbolic row finite"),
        (row("hyp", "l2_ratio", _scale), "hyperbolic l2_ratio"),
        (lambda o: dict(o, flow=[_scale(S) for S in o["flow"]]), "propagator = closed-form flow"),
    ]
    for mutate, expected in mutations:
        _assert_fails(wl, case, out, mutate, expected)

    real_flow = evoprop.harmonic_flow
    monkeypatch.setattr(evoprop, "harmonic_flow", lambda *a: _scale(real_flow(*a)))
    assert any(f.startswith("propagator = harmonic_flow") for f in _failures(wl, case, out))


def _edit_json(body, edit):
    obj = json.loads(body)
    edit(obj)
    return json.dumps(obj).encode()


def _bump(pair):
    pair[0] += 1e-6


def test_cli_cold_checks_fail_on_perturbed_results(tmp_path):
    cases = {c["cmd"]: c for c in _cases(cli_cold, SECOND_SEED, tmp_path)[:cli_cold.ROUND]}
    results = {}
    for cmd, case in cases.items():
        res = cli_cold.run(case)
        if case["out"]:
            with open(case["out"], "rb") as fh:
                res["file"] = fh.read()
        results[cmd] = res
        assert _failures(cli_cold, case, res) == []

    def fails(cmd, expected, stdout=None, file=None, **res_kw):
        case, res = cases[cmd], dict(results[cmd], **res_kw)
        if stdout is not None:
            res["stdout"] = stdout
        if case["out"]:
            with open(case["out"], "wb") as fh:
                fh.write(results[cmd]["file"] if file is None else file)
        failures = _failures(cli_cold, case, res)
        assert any(f.startswith(expected) for f in failures), (cmd, expected, failures)

    out = {cmd: r["stdout"] for cmd, r in results.items()}
    fails("classify", "classify exits 0", code=1)
    fails("classify", "classify writes nothing to stderr", stderr=b"warning")
    fails("classify", "classify output is not empty", stdout=b"")
    fails("classify", "classify output parses", stdout=b"{\"class\": 1}")
    fails("classify", "classified", stdout=_edit_json(out["classify"], lambda o: o.update({"class": "NotPositive"})))
    fails("classify", "certificate eigenvalue",
          stdout=_edit_json(out["classify"], lambda o: o.update(min_eigenvalue=o["min_eigenvalue"] + 1e-6)))
    fails("polar", "U is real", stdout=_edit_json(out["polar"], lambda o: o["U"]["rows"][0][0].__setitem__(1, 1e-3)))
    fails("polar", "S = UZ", stdout=_edit_json(out["polar"], lambda o: _bump(o["Z"]["rows"][0][0])))
    fails("polar", "U symplectic", stdout=_edit_json(out["polar"], lambda o: _bump(o["U"]["rows"][0][0])))
    fails("gaussian_apply", "image Q", stdout=_edit_json(out["gaussian_apply"], lambda o: _bump(o["Q"]["rows"][0][0])))
    fails("gaussian_apply", "image b", stdout=_edit_json(out["gaussian_apply"], lambda o: o["b"][0].__setitem__(1, o["b"][0][1] + 1e-6)))
    fails("gaussian_apply", "image |c|", stdout=_edit_json(out["gaussian_apply"], lambda o: o.update(c=[2 * v for v in o["c"]])))
    mpgf = results["gaussian_apply_bin"]["file"]
    fails("gaussian_apply_bin", "MPGF header", file=mpgf[:4] + bytes([2]) + mpgf[5:])
    fails("gaussian_apply_bin", "MPGF length", file=mpgf + bytes(16))
    samples = np.frombuffer(mpgf, dtype="<c16", offset=18) * (1 + 1e-9)
    fails("gaussian_apply_bin", "MPGF samples", file=mpgf[:18] + samples.astype("<c16").tobytes())
    fails("gaussian_wigner", "Wigner closed form", stdout=_edit_json(out["gaussian_wigner"], lambda o: _bump(o["c"])))
    fails("tfr_classify", "spectrogram",
          stdout=_edit_json(out["tfr_classify"], lambda o: o["spectrogram"].update(spectrogram=False)))
    fails("tfr_classify", "window_f",
          stdout=_edit_json(out["tfr_classify"], lambda o: _bump(o["spectrogram"]["window_f"]["Q"]["rows"][0][0])))
    fails("tfr_classify", "pure window c",
          stdout=_edit_json(out["tfr_classify"], lambda o: _bump(o["pure_spectrogram"]["window"]["c"])))
    lines = out["evolve"].decode().splitlines()
    cells = lines[2].split(",")
    cells[7] = repr(float(cells[7]) * (1 + 1e-6))
    fails("evolve", "l2_ratio", stdout="\n".join(lines[:2] + [",".join(cells)] + lines[3:]).encode())
    fails("evolve", "evolve rows", stdout="\n".join(lines[:-1]).encode())


# ----------------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------------

def _bench(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_short_run_reports_every_metric(workload):
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[key])
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_span_counts_repeat_exactly():
    counts = []
    for seed in (4, 5):
        proc = _bench("--workload", "phase_space", "--seed", str(seed), "--trace", "1")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1] and counts[0]["gridlab.grid_wigner.calls"] > 0


def test_token_median_is_taken_at_the_finest_grid():
    from spans import Tracer
    tracer = Tracer()
    name = "gridlab.grid_apply_token.rescale_frac"
    tracer.self_times = {f"{name}@1024": [0.03, 0.04], f"{name}@2048": [0.13, 0.14, 0.15]}
    metrics = tracer.metrics()
    assert metrics[f"{name}.calls"][0] == 5
    assert metrics[f"{name}.self_s"][0] == pytest.approx(0.49)
    assert metrics[f"{name}.self_ms_p50"][0] == pytest.approx(140)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "closed_form",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip()
