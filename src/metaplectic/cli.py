"""Command line driver.

Every subcommand reads JSON from files (or ``-`` for stdin), writes to
``--out`` (default stdout), and maps failures to stable exit codes:
1 for validation errors (bad mathematical input), 2 for format and usage
errors (malformed files, options out of range such as a ``--grid-n`` that
is odd or below 4, a ``--grid-h`` that is not positive and finite or a
``--t-max`` that is negative or not finite, or impossible output
requests), 3 for numerical errors (degenerate decompositions, branch
failures, overflow).
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click
import numpy as np

from . import __version__
from .errors import FormatError, NumericalError, ValidationError
from . import evoprop, formats, gausscalc, gridlab, sympcore, tfrzoo


def _read_text(path, what="input"):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {what} from '{path}': {e}")


def _read_json(path, what="input"):
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{what} is not valid JSON: {e}")


def _emit(out, payload):
    if isinstance(payload, str):
        payload = payload.encode()
    if out == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        try:
            with open(out, "wb") as fh:
                fh.write(payload)
        except OSError as e:
            raise FormatError(f"cannot write to '{out}': {e}")


def _emit_json(out, obj):
    _emit(out, formats.dumps_json(obj) + "\n")


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FormatError as e:
            click.echo(f"format error: {e}", err=True)
            sys.exit(2)
        except ValidationError as e:
            click.echo(f"validation error: {e}", err=True)
            sys.exit(1)
        except (NumericalError, np.linalg.LinAlgError) as e:
            click.echo(f"numerical error: {e}", err=True)
            sys.exit(3)
    return wrapper


def _checked(test, requirement):
    """Option callback: a value that fails ``test`` is a usage error."""
    def callback(ctx, param, value):
        if value is not None and not test(value):
            raise click.BadParameter(f"{value!r} {requirement}")
        return value
    return callback


def _grid_n_option(text):
    return click.option(
        "--grid-n", type=int, default=256, show_default=True, help=text,
        callback=_checked(lambda n: n >= 4 and n % 2 == 0, "must be even and at least 4"))


def _out_option(fn):
    return click.option("--out", default="-", show_default=True,
                        help="Output file, or '-' for stdout.")(fn)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="metaplectic")
def main():
    """Calculus of complex symplectic words, Gaussian states, covariant
    time-frequency representations, and quadratic flows."""


# ----------------------------------------------------------------------------
# classify / polar
# ----------------------------------------------------------------------------

@main.command()
@click.option("--matrix", "matrix_path", required=True,
              help="Complex symplectic matrix JSON (file or '-').")
@click.option("--mode", type=click.Choice(["positivity", "triangular", "conjugation"]),
              default="positivity", show_default=True,
              help="Eigenvalue certificate, block-triangular clauses, or "
                   "conjugation-symmetric clauses with word synthesis.")
@_out_option
@_guarded
def classify(matrix_path, mode, out):
    """Classify a matrix against the positive symplectic cone."""
    _d, S = formats.load_matrix(_read_json(matrix_path, "matrix"), "matrix", 2)
    if mode == "positivity":
        payload = sympcore.classify_positivity(S).to_dict()
    elif mode == "triangular":
        payload = sympcore.classify_block_triangular(S)
    else:
        payload = sympcore.classify_conjugation_commuting(S)
        if payload.get("word") is not None:
            payload["word"] = formats.dump_word(payload["word"])
    _emit_json(out, payload)


@main.command()
@click.option("--matrix", "matrix_path", required=True,
              help="Positive symplectic matrix JSON (file or '-').")
@_out_option
@_guarded
def polar(matrix_path, out):
    """Split a positive matrix into real and exponential-type factors."""
    d, S = formats.load_matrix(_read_json(matrix_path, "matrix"), "matrix", 2)
    pol = sympcore.matrix_polar(S)
    _emit_json(out, {
        "U": formats.dump_matrix(pol.U, d),
        "Z": formats.dump_matrix(pol.Z, d),
        "residual": pol.residual,
    })


# ----------------------------------------------------------------------------
# gaussian
# ----------------------------------------------------------------------------

@main.group()
def gaussian():
    """Closed-form action on Gaussian states."""


@gaussian.command("apply")
@click.option("--word", "word_path", default=None, help="Token word JSON.")
@click.option("--matrix", "matrix_path", default=None,
              help="Positive symplectic matrix JSON (used when no word is given).")
@click.option("--state", "state_path", required=True,
              help="Gaussian state or sum JSON (file or '-').")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "bin"]),
              default="json", show_default=True)
@_grid_n_option("Samples per axis for csv/bin output.")
@click.option("--grid-h", type=float, default=None,
              callback=_checked(lambda h: 0 < h < math.inf, "must be positive and finite"),
              help="Grid spacing for csv/bin output (default: self-dual 1/sqrt(n)).")
@_out_option
@_guarded
def gaussian_apply(word_path, matrix_path, state_path, fmt, grid_n, grid_h, out):
    """Apply a word (or a positive matrix) to a Gaussian state."""
    f = formats.load_state_or_sum(_read_json(state_path, "state"), "state")
    if (word_path is None) == (matrix_path is None):
        raise FormatError("exactly one of --word and --matrix must be given")
    if word_path is not None:
        word = formats.load_word(_read_json(word_path, "word"))
        g = gausscalc.apply_word(word, f)
    else:
        _d, S = formats.load_matrix(_read_json(matrix_path, "matrix"), "matrix", 2)
        g = gausscalc.apply_matrix(sympcore.require_symplectic(S), f)
    if fmt == "json":
        _emit_json(out, g)
        return
    dim = g[0].d if isinstance(g, list) else g.d
    spec = gridlab.GridSpec(dim, grid_n, 1.0 / np.sqrt(grid_n) if grid_h is None else grid_h)
    gf = gridlab.sample(g, spec)
    _emit(out, formats.grid_csv(gf) if fmt == "csv" else formats.write_mpgf(gf))


@gaussian.command("wigner")
@click.option("--state", "state_path", required=True,
              help="Gaussian state or sum JSON for the first slot.")
@click.option("--state2", "state2_path", default=None,
              help="Optional second slot (cross distribution).")
@_out_option
@_guarded
def gaussian_wigner(state_path, state2_path, out):
    """Phase-space distribution of a Gaussian pair, in closed form."""
    f = formats.load_state_or_sum(_read_json(state_path, "state"), "state")
    g = None
    if state2_path is not None:
        g = formats.load_state_or_sum(_read_json(state2_path, "second state"), "second state")
    _emit_json(out, gausscalc.wigner_gaussian(f, g))


@gaussian.command("intertwine")
@click.option("--word", "word_path", required=True, help="Token word JSON.")
@click.option("--state", "state_path", required=True, help="Gaussian state or sum JSON.")
@click.option("--z", "z_text", required=True,
              help="Phase-space shift, comma-separated (x..., xi...).")
@click.option("--tau", type=float, default=0.0, show_default=True,
              help="Phase parameter of the shift.")
@_out_option
@_guarded
def gaussian_intertwine(word_path, state_path, z_text, tau, out):
    """Residual of the exact shift-intertwining relation for a word."""
    word = formats.load_word(_read_json(word_path, "word"))
    f = formats.load_state_or_sum(_read_json(state_path, "state"), "state")
    try:
        z = np.array([float(v) for v in z_text.split(",")], dtype=float)
    except ValueError:
        raise FormatError("--z must be a comma-separated list of numbers")
    _emit_json(out, gausscalc.check_intertwining(word, z, tau, f))


# ----------------------------------------------------------------------------
# tfr
# ----------------------------------------------------------------------------

@main.group()
def tfr():
    """Covariant time-frequency representations."""


@tfr.command("classify")
@click.option("--tfr", "tfr_path", required=True,
              help="Representation spec JSON (file or '-').")
@_out_option
@_guarded
def tfr_classify(tfr_path, out):
    """Full structural report: covariance, symmetry, spectrogram windows."""
    spec = formats.load_tfrspec(_read_json(tfr_path, "representation spec"))
    covariant, clauses = tfrzoo.is_covariant(spec)
    payload = {"covariant": covariant, "clauses": clauses}
    if covariant:
        payload["conjugation_symmetric"] = tfrzoo.conjugation_symmetric(spec)
        payload["spectrogram"] = tfrzoo.classify_spectrogram(spec)
        payload["pure_spectrogram"] = tfrzoo.classify_pure_spectrogram(spec)
    _emit_json(out, payload)


@tfr.command("kernel")
@click.option("--tfr", "tfr_path", required=True,
              help="Representation spec JSON (file or '-').")
@_out_option
@_guarded
def tfr_kernel(tfr_path, out):
    """Convolution kernel against the Wigner distribution."""
    spec = formats.load_tfrspec(_read_json(tfr_path, "representation spec"))
    ker = tfrzoo.cohen_kernel(spec)
    if ker["type"] == "chirp":
        ker["B"] = formats.dump_matrix(ker["B"], 2 * spec.d)
    _emit_json(out, ker)


@tfr.command("windows")
@click.option("--tfr", "tfr_path", required=True,
              help="Representation spec JSON (file or '-').")
@_out_option
@_guarded
def tfr_windows(tfr_path, out):
    """Window pair of a spectrogram-type representation."""
    spec = formats.load_tfrspec(_read_json(tfr_path, "representation spec"))
    rep = tfrzoo.classify_spectrogram(spec)
    if not rep["spectrogram"]:
        raise ValidationError(f"representation is not a spectrogram: {rep['clauses']}")
    _emit_json(out, {key: rep[key] for key in ("window_f", "window_g", "kappa")})


# ----------------------------------------------------------------------------
# evolve
# ----------------------------------------------------------------------------

@main.command()
@click.option("--example", type=click.Choice(["heat", "hermite", "harmonic"]),
              default=None, help="Built-in model (alternative to --hamiltonian).")
@click.option("--hamiltonian", "ham_path", default=None,
              help="Coefficient matrix JSON (file or '-').")
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--dim", type=click.IntRange(min=1), default=1, show_default=True,
              help="Dimension for heat/hermite models.")
@click.option("--d1", type=click.IntRange(min=0), default=1, show_default=True,
              help="Hyperbolic coordinates of the harmonic model.")
@click.option("--d2", type=click.IntRange(min=0), default=1, show_default=True,
              help="Elliptic coordinates of the harmonic model (d1 + d2 >= 1).")
@click.option("--t-max", type=float, default=2.0, show_default=True,
              callback=_checked(lambda t: 0 <= t < math.inf, "must be finite and nonnegative"))
@click.option("--t-steps", type=int, default=20, show_default=True)
@click.option("--p", type=float, default=2.0, show_default=True)
@click.option("--q", type=float, default=None, help="Defaults to p.")
@click.option("--s", type=float, default=0.0, show_default=True)
@_grid_n_option("Grid size for the discrete modulation-norm column.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="csv", show_default=True)
@_out_option
@_guarded
def evolve(example, ham_path, alpha, beta, dim, d1, d2, t_max, t_steps,
           p, q, s, grid_n, fmt, out):
    """Diagnostics of a quadratic flow along a time grid."""
    if (example is None) == (ham_path is None):
        raise FormatError("exactly one of --example and --hamiltonian must be given")
    if example == "heat":
        H = evoprop.heat_hamiltonian(alpha, beta, dim)
    elif example == "hermite":
        H = evoprop.hermite_hamiltonian(alpha, beta, dim)
    elif example == "harmonic":
        if d1 + d2 < 1:
            raise FormatError("--d1 + --d2 must be at least 1")
        H = evoprop.harmonic_hamiltonian(d1, d2)
    else:
        H = formats.load_hamiltonian(_read_json(ham_path, "Hamiltonian"))
    if t_steps < 1:
        raise FormatError("--t-steps must be at least 1")
    times = [t_max * ((k + 1) / t_steps) for k in range(t_steps)]  # none past t_max: no overflow
    rows = evoprop.evolve_trajectory(H, times, p=p, q=q, s=s, grid_n=grid_n)
    if fmt == "csv":
        _emit(out, formats.rows_csv(rows, evoprop.EVOLVE_COLUMNS))
    else:
        _emit_json(out, rows)


if __name__ == "__main__":
    main()
