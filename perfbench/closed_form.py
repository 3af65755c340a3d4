"""Workload ``closed_form``: the structure and closed-form layers, no grids.

Each case runs the same calls at one dimension; the case list cycles
through d = 1, 2, 3.
"""

import json

import numpy as np
from metaplectic import evoprop, formats, gausscalc, sympcore, tfrzoo

import reference as ref
from inputs import (Checks, generic_positive, positive_word_ops, state_params,
                    symplectic_defect, window_family)

ROUND = 3            # one case at each of d = 1, 2, 3
CASES = 240
POSITIVE = ("Real", "Positive", "StrictlyPositive")


def make_cases(rng, workdir):
    makers = {"chirp": sympcore.chirp, "multiplier": sympcore.multiplier,
              "atom_r": sympcore.atom_r, "atom_p": sympcore.atom_p}
    cases = []
    for i in range(CASES):
        d = i % 3 + 1
        ops, maslov = positive_word_ops(rng, d)
        word = []
        for op, p in ops:
            if op == "fourier":
                word.append(sympcore.fourier(d))
            elif op == "rescale":
                word.append(sympcore.rescale(p, maslov=maslov))
            else:
                word.append(makers[op](p))
        params = [state_params(rng, d) for _ in range(3)]
        S, R, theta = generic_positive(rng, d)
        a, Sw = window_family(rng, d)
        blocks, window = ref.pure_spectrogram(d, a, Sw)
        cases.append({
            "d": d, "ops": ops, "word": word, "params": params,
            "states": [gausscalc.GaussianState(d, c, Q, b) for c, Q, b in params],
            "S": S, "R": R, "theta": theta,
            "blocks": blocks, "window": window,
            "z": rng.normal(size=2 * d), "tau": float(rng.normal()),
            "pts": rng.normal(size=(8, 2 * d)) * 0.6,
        })
    return cases


def run(case):
    word, f = case["word"], case["states"]
    out = {}
    out["W"] = sympcore.word_to_matrix(word)
    out["report"] = sympcore.classify_positivity(out["W"])
    out["polar"] = pol = sympcore.matrix_polar(case["S"])
    out["atomic"] = sympcore.atomic_decompose(pol.Z)
    out["svd"] = sympcore.symplectic_svd(pol.U)
    out["bound"] = evoprop.combined_bound(case["S"])
    out["pairing"] = evoprop.weyl_pairing(pol.Z, f[0], f[1])
    out["image"] = gausscalc.apply_matrix(case["S"], f[0])
    out["sum"] = g = gausscalc.apply_word(word, f)
    out["single"] = [gausscalc.apply_matrix(out["W"], t) for t in f]
    out["norms"] = [gausscalc.inner_product(t, t) for t in g]
    out["inner"] = gausscalc.inner_product(f[0], f[1])
    out["wigner"] = gausscalc.wigner_gaussian(f[0])
    out["intertwine"] = gausscalc.check_intertwining(word, case["z"], case["tau"], f)
    spec = tfrzoo.build_covariant(*case["blocks"])
    out["spectrogram"] = tfrzoo.classify_spectrogram(spec)
    out["tfr"] = tfrzoo.tfr_gaussian(spec, f[0])
    text_w = formats.dumps_json(formats.dump_word(word))
    text_s = formats.dumps_json(formats.dump_sum(g))
    out["json"] = (formats.load_word(json.loads(text_w)), formats.load_sum(json.loads(text_s)))
    return out


def _params(state):
    return state.c, state.Q, state.b


def check(case, out):
    ck = Checks()
    d = case["d"]
    ck.close("word_to_matrix", ref.rel(out["W"], ref.word_matrix(case["ops"], d)), 1e-12)

    rep = out["report"]
    ck.holds(f"positive word classified {rep.klass}", rep.klass in POSITIVE)
    mn, scale = ref.certificate_min_eig(out["W"])
    ck.close("certificate eigenvalue", abs(rep.min_eigenvalue - mn) / max(1.0, scale), 1e-10)

    pol = out["polar"]
    ck.holds("polar U is real", np.isrealobj(pol.U))
    ck.close("polar S = UZ", ref.rel(pol.U @ pol.Z, case["S"]), 1e-9)
    ck.close("polar U symplectic", symplectic_defect(np.real(pol.U)), 1e-9)
    ck.close("polar U = R", ref.rel(pol.U, case["R"]), 1e-7)
    _V, theta, delta = out["atomic"]
    ck.close("atomic theta", ref.rel(np.sort(theta)[::-1], case["theta"]), 1e-8)
    ck.close("atomic delta", float(np.max(np.abs(delta))), 1e-8)
    _Wf, sig, _Om = out["svd"]
    sv = np.linalg.svd(np.real(pol.U), compute_uv=False)[:d]
    ck.close("symplectic singular values", ref.rel(sig, sv), 1e-9)

    lhs, rhs = out["pairing"]
    ck.close("Weyl pairing", abs(lhs - rhs) / max(1.0, abs(lhs)), 1e-8)
    c0, Q0, b0 = case["params"][0]
    ratio = np.sqrt(ref.norm2_sq(*_params(out["image"])) / ref.norm2_sq(c0, Q0, b0))
    ck.holds("combined bound dominates the L2 ratio", ratio <= out["bound"] * (1 + 1e-9))

    for k, (gw, gm) in enumerate(zip(out["sum"], out["single"])):
        c, Q, b = case["params"][k]
        Qr, br, modr = ref.moebius(out["W"], Q, b, c)
        ck.close("apply_word Q", ref.rel(gw.Q, Qr), 1e-9)
        ck.close("apply_word b", ref.rel(gw.b, br), 1e-9)
        ck.close("apply_word |c|", abs(abs(gw.c) - modr) / modr, 1e-9)
        ck.close("apply_matrix Q", ref.rel(gm.Q, gw.Q), 1e-9)
        ck.close("apply_matrix b", ref.rel(gm.b, gw.b), 1e-9)
        ck.close("apply_matrix |c|", abs(abs(gm.c) - abs(gw.c)) / abs(gw.c), 1e-9)
        want = ref.norm2_sq(*_params(gw))
        ck.close("norm formula", abs(out["norms"][k] - want) / want, 1e-10)

    f0, f1 = case["params"][0], case["params"][1]
    want = ref.inner(f0, f1)
    ck.close("inner product", abs(out["inner"] - want) / max(abs(want), 1e-300), 1e-10)
    pts = case["pts"]
    Wp = _params(out["wigner"])
    ck.close("Wigner closed form", ref.rel(ref.evaluate(*Wp, pts),
                                           ref.wigner(*f0, pts[:, :d], pts[:, d:])), 1e-9)
    ck.close("shift intertwining", out["intertwine"], 1e-10)

    rep = out["spectrogram"]
    ck.holds("pure family is a spectrogram", bool(rep["spectrogram"]))
    if rep["spectrogram"]:
        Qw = case["window"][1]
        ck.close("window f", ref.rel(rep["window_f"].Q, Qw), 1e-9)
        ck.close("window g", ref.rel(rep["window_g"].Q, Qw), 1e-9)
    spect = np.abs(ref.stft(f0, case["window"], pts[:, :d], pts[:, d:])) ** 2
    ck.close("tfr_gaussian spectrogram", ref.rel(ref.evaluate(*_params(out["tfr"]), pts), spect), 1e-9)

    word2, sum2 = out["json"]
    ck.holds("JSON word round trip", word2 == case["word"])
    ck.holds("JSON sum round trip", all(
        a.c == b.c and np.array_equal(a.Q, b.Q) and np.array_equal(a.b, b.b)
        for a, b in zip(sum2, out["sum"])))
    return ck
