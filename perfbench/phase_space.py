"""Workload ``phase_space``: grid Wigner/STFT transforms, evolution, cones.

Each case works at d = 1 on one self-dual grid: Wigner and short-time
transforms, the modulation norm, a spectrogram through ``tfr_grid``, two
short ``evolve_trajectory`` sweeps (heat and hyperbolic models) and the
full-plane cone profile.  No token rescale runs here.
"""

import numpy as np
from metaplectic import evoprop, gausscalc, gridlab, tfrzoo

import reference as ref
from inputs import Checks, state_params, window_family

ROUND = 1
CASES = 24
N = 512
EVOLVE_N = 256
STEPS = 4


def make_cases(rng, workdir):
    spec = gridlab.GridSpec(1, N, 1 / np.sqrt(N))
    cases = []
    for _ in range(CASES):
        pf, pg = state_params(rng, 1), state_params(rng, 1)
        a, Sw = window_family(rng, 1)
        blocks, window = ref.pure_spectrogram(1, a, Sw)
        alpha, beta = rng.uniform(0.5, 1.5, 2)
        # the heat flow spreads the ground state by about 2 pi alpha t; up to
        # t = 0.25 it stays negligible at the edge (|x| = 8) of the grid
        t_heat = rng.uniform(0.1, 0.25)
        t_hyp = rng.uniform(0.2, 1.0)
        cases.append({
            "f": gausscalc.GaussianState(1, *pf), "g": gausscalc.GaussianState(1, *pg),
            "pf": pf, "pg": pg, "spec": spec,
            "w": gausscalc.GaussianState(1, *window), "window": window,
            "tfr": tfrzoo.build_covariant(*blocks),
            "heat": evoprop.heat_hamiltonian(alpha, beta, 1), "beta": beta,
            "heat_times": [t_heat * (k + 1) / STEPS for k in range(STEPS)],
            "hyp": evoprop.harmonic_hamiltonian(1, 0),
            "hyp_times": [t_hyp * (k + 1) / STEPS for k in range(STEPS)],
            "z0": rng.normal(size=2),
        })
    return cases


def run(case):
    spec = case["spec"]
    f = gridlab.sample(case["f"], spec)
    g = gridlab.sample(case["g"], spec)
    w = gridlab.sample(case["w"], spec)
    Wfg = gridlab.grid_wigner(f, g)
    return {
        "wigner": gridlab.grid_wigner(f),
        "cone": evoprop.cone_profile(Wfg, case["z0"], np.pi),
        "stft": gridlab.grid_stft(f, w),
        "modnorm": gridlab.discrete_modnorm(f, g, p=2.0, q=2.0),
        "tfr": tfrzoo.tfr_grid(case["tfr"], f),
        "heat": evoprop.evolve_trajectory(case["heat"], case["heat_times"], grid_n=EVOLVE_N),
        "hyp": evoprop.evolve_trajectory(case["hyp"], case["hyp_times"], grid_n=EVOLVE_N),
        "flow": [evoprop.propagator_matrix(case["hyp"], t) for t in case["hyp_times"]],
    }


def check(case, out):
    ck = Checks()
    pts = case["spec"].points()[:, 0]
    x, xi = np.meshgrid(pts, pts, indexing="ij")
    x, xi = x[..., None], xi[..., None]
    pf, pg = case["pf"], case["pg"]

    ck.close("grid Wigner", ref.rel(out["wigner"].values, ref.wigner(*pf, x, xi)), 1e-6)
    moyal = ref.norm2_sq(*pf) * ref.norm2_sq(*pg)
    ck.close("full-plane cone = |f|^2 |g|^2", abs(out["cone"] - moyal) / moyal, 1e-8)
    V = ref.stft(pf, case["window"], x, xi)
    ck.close("grid STFT", ref.rel(out["stft"].values, V), 1e-6)
    ck.close("modulation norm = |f| |g|", abs(out["modnorm"] - np.sqrt(moyal)) / np.sqrt(moyal), 1e-8)
    ck.close("tfr_grid spectrogram", ref.rel(out["tfr"].values, np.abs(V) ** 2), 1e-6)

    for row in out["heat"]:
        ck.holds(f"heat row finite at t={row['t']}", all(np.isfinite(v) for v in row.values()))
        want = ref.heat_l2_ratio(case["beta"], row["t"])
        ck.close("heat l2_ratio", abs(row["l2_ratio"] - want) / want, 1e-10)
        ck.close("heat modnorm_ratio", abs(row["modnorm_ratio"] - want) / want, 1e-6)
    for row, S, t in zip(out["hyp"], out["flow"], case["hyp_times"]):
        ck.holds(f"hyperbolic row finite at t={t}", all(np.isfinite(v) for v in row.values()))
        ck.close("hyperbolic l2_ratio", abs(row["l2_ratio"] - np.exp(-t)) / np.exp(-t), 1e-10)
        want = ref.hyperbolic_flow(t)
        ck.close("propagator = closed-form flow", ref.rel(S, want), 1e-10)
        ck.close("propagator = harmonic_flow", ref.rel(S, evoprop.harmonic_flow(1, 0, t)), 1e-10)
    return ck
