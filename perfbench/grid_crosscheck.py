"""Workload ``grid_crosscheck``: the FFT grid route against closed forms.

Each case applies one seven-token positive word at d = 1 to a sampled
state on two self-dual grids and compares both results with the sampled
closed form, as acceptance test A04 does.  Every word carries exactly two
fractional-factor rescales (one ``rescale`` token and the one inside the
``atom_r`` factorization), so every case costs the same.
"""

import numpy as np
from metaplectic import gausscalc, gridlab, sympcore

import reference as ref
from inputs import Checks, frac_factor, state_params

ROUND = 1
CASES = 24
SIZES = (1024, 2048)


def make_cases(rng, workdir):
    specs = [gridlab.GridSpec(1, n, 1 / np.sqrt(n)) for n in SIZES]
    cases = []
    for _ in range(CASES):
        c, Q, b = state_params(rng, 1)
        word = [
            sympcore.chirp([[rng.uniform(-0.4, 0.4) + 1j * rng.uniform(0.0, 0.3)]]),
            sympcore.rescale([[frac_factor(rng)]], maslov=int(rng.integers(4))),
            sympcore.fourier(1),
            sympcore.multiplier([[rng.uniform(-0.4, 0.4) - 1j * rng.uniform(0.0, 0.3)]]),
            sympcore.atom_r([rng.uniform(0.1, 0.7)]),
            sympcore.atom_p([rng.uniform(0.0, 0.6)]),
            sympcore.rescale([[-1.0]], maslov=int(rng.integers(4))),
        ]
        cases.append({"word": word, "state": gausscalc.GaussianState(1, c, Q, b),
                      "specs": specs})
    return cases


def run(case):
    return [gridlab.grid_apply_word(case["word"], gridlab.sample(case["state"], spec))
            for spec in case["specs"]]


def check(case, out):
    ck = Checks()
    g = gausscalc.apply_word(case["word"], case["state"])
    errs = []
    for grid in out:
        want = ref.evaluate(g.c, g.Q, g.b, grid.spec.points())
        errs.append(ref.rel(grid.values, want))
    coarse, fine = errs
    ck.close(f"n={SIZES[0]} against the closed form", coarse, 1e-6)
    ck.close(f"n={SIZES[1]} refines", fine, max(coarse / 4, 1e-10))
    return ck
