"""Per-layer spans recorded from outside the package.

The tracer replaces each public function listed in ``LAYERS`` by a wrapper,
in every ``metaplectic`` module namespace that holds it, so calls between
modules (``evolve_trajectory`` calling ``matrix_polar``, ``sample`` calling
``eval_state``) are seen too.  A span's self time is its duration minus the
time covered by the spans it opened.  Spans are kept in memory and reduced
to ``<module>.<function>[.<variant>].{calls,self_s,self_ms_p50}`` at the end.
``grid_apply_token`` spans are also keyed by grid size (``<name>@<n>``), so
that their median is taken over the calls at the finest size only: a median
over two sizes falls between them and is a time that no call took.
"""

import functools
import importlib
import json
import statistics
import sys
import time

LAYERS = {
    "sympcore": ["word_to_matrix", "classify_positivity", "matrix_polar",
                 "atomic_decompose", "symplectic_svd"],
    "gausscalc": ["apply_word", "apply_matrix", "inner_product", "wigner_gaussian",
                  "check_intertwining", "eval_state"],
    "gridlab": ["sample", "grid_apply_token", "grid_wigner", "grid_stft",
                "discrete_modnorm"],
    "tfrzoo": ["build_covariant", "classify_spectrogram", "tfr_gaussian", "tfr_grid"],
    "evoprop": ["propagator_matrix", "combined_bound", "weyl_pairing",
                "evolve_trajectory", "cone_profile"],
    "formats": ["dumps_json", "load", "write_mpgf", "read_mpgf"],
}

TOKEN_VARIANTS = ["chirp", "fourier", "multiplier", "rescale_int", "rescale_frac",
                  "atom_r", "atom_p"]


def span_names():
    names = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            if fn == "grid_apply_token":
                names += [f"{mod}.{fn}.{v}" for v in TOKEN_VARIANTS]
            else:
                names.append(f"{mod}.{fn}")
    return names


def token_variant(t):
    """Span name suffix of a grid token; a rescale is integer or fractional
    by its own factor, with the rule ``gridlab`` uses to pick its path."""
    if t.op != "rescale":
        return t.op
    E = t.matrix_param().real
    vals = E[E != 0]
    return "rescale_int" if all(abs(v - round(v)) < 1e-12 for v in vals) else "rescale_frac"


class Tracer:
    """Span recorder; records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.self_times = {}
        self._stack = []

    def install(self):
        """Wrap every function of ``LAYERS``."""
        for modname in LAYERS:
            importlib.import_module(f"metaplectic.{modname}")
        pkg = [m for name, m in list(sys.modules.items())
               if name == "metaplectic" or name.startswith("metaplectic.")]
        for modname, fns in LAYERS.items():
            mod = sys.modules[f"metaplectic.{modname}"]
            for fn in fns:
                if fn == "load":
                    targets = [a for a in vars(mod) if a.startswith("load_")]
                else:
                    targets = [fn]
                for attr in targets:
                    self._replace(pkg, getattr(mod, attr), f"metaplectic.{modname}", fn)

    def _replace(self, pkg, orig, modname, fn):
        if fn == "grid_apply_token":
            base = "gridlab.grid_apply_token."
            def name_of(args, kw):
                t = args[0] if args else kw["t"]
                f = args[1] if len(args) > 1 else kw["f"]
                return f"{base}{token_variant(t)}@{f.spec.n}"
        else:
            name = f"{modname.split('.')[-1]}.{fn}"
            name_of = lambda args, kw: name
        wrapped = self._wrap(orig, name_of, merge_nested=(fn == "load"))
        for m in pkg:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapped)

    def _wrap(self, fn, name_of, merge_nested):
        stack, times = self._stack, self.self_times

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs)
            if merge_nested and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                times.setdefault(name, []).append(dur - frame[1])
                if stack:
                    stack[-1][1] += dur
        return wrapper

    def merge(self, other):
        """Add self times recorded elsewhere (a child process's dump)."""
        for name, vals in other.items():
            self.self_times.setdefault(name, []).extend(vals)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.self_times, fh)

    def metrics(self):
        out = {}
        for name in span_names():
            vals = self.self_times.get(name, [])
            by_size = {int(key.rpartition("@")[2]): v for key, v in self.self_times.items()
                       if key.rpartition("@")[0] == name}
            fine = by_size[max(by_size)] if by_size else vals
            vals = vals + [x for v in by_size.values() for x in v]
            out[f"{name}.calls"] = (len(vals), "count")
            out[f"{name}.self_s"] = (float(sum(vals)), "s")
            out[f"{name}.self_ms_p50"] = (statistics.median(fine) * 1e3 if fine else 0.0, "ms")
        return out
