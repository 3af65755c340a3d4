"""Source hygiene: every name a module imports is used in that module, every
defaulted ``tol`` parameter is passed by some call, no test asserts a value
that is always true, no module assembles a block matrix with ``np.block``
(``sympcore.from_blocks`` fills one array), only ``gausscalc`` builds a
``GaussianState`` from already validated fields, inside ``gausscalc`` only
its two boundary helpers tell a state from a sum, only ``sympcore`` constructs
a ``Token`` directly, the relative-tolerance rule ``tol * max(1, ||s||)``
is written only inside ``sympcore.negligible``, no ``numpy.fft`` call
passes ``out=`` while the package admits numpy before 2.0, no module
imports scipy: the source never names it, and cold commands and the grid
routes run with every scipy import blocked.  Each module's ``__all__`` is the
one list of its public names: every name in it is defined there, no name is
in two of them, the package namespace holds those of every layer, and
``import metaplectic`` loads neither ``formats`` nor ``cli``; ``cli`` leaves
the writing of states and complex numbers to ``formats.dumps_json``."""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "metaplectic"

# the package root only star-imports the layers
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_flags_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["b (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def scipy_imports(source):
    """Line numbers of the imports of scipy or its submodules in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


def test_checker_flags_scipy_import():
    source = ("import numpy\nimport scipy.linalg as sla\n"
              "def f():\n    from scipy.integrate import quad\n"
              "from .scipy import x\nimport scipyx\n")
    assert scipy_imports(source) == [2, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    # numpy and click are the runtime dependencies; scipy is a test reference
    assert scipy_imports(path.read_text()) == []


def np_block_uses(source):
    """Line numbers of the calls of ``np.block`` or ``numpy.block`` and of
    the imports of ``block`` from numpy in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "block"
                    and isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy")):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name == "block" for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_np_block():
    source = ("import numpy as np\n"
              "a = np.block([[x, y], [z, w]])\n"
              "b = numpy.block([x])\n"
              "from numpy import block, eye\n"
              "c = blocks(S)\n"
              "d = self.block(x)\n"
              "e = np.bmat(x)\n")
    assert np_block_uses(source) == [2, 3, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_np_block(path):
    # np.block costs more than the arithmetic on the small blocks here
    assert np_block_uses(path.read_text()) == []


def trusted_constructor_uses(source):
    """Line numbers of the uses in ``source`` of ``_from_valid``, the
    constructor that skips the validation of ``GaussianState``: calls, and
    references that could be called later."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "_from_valid"
                  or isinstance(node, ast.Name) and node.id == "_from_valid")


def test_checker_flags_trusted_constructor():
    source = ("from metaplectic.gausscalc import GaussianState\n"
              "a = GaussianState._from_valid(1, 1, Q, b, False)\n"
              "b = GaussianState(1, 1, Q, b)\n"
              "c = gausscalc.GaussianState._from_valid(1, 1, Q, b, False)\n"
              "make = GaussianState._from_valid\n"
              "d = _from_valid(1, 1, Q, b, False)\n"
              "e = '_from_valid'\n")
    assert trusted_constructor_uses(source) == [2, 4, 5, 6]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "gausscalc.py"]
                         + sorted((ROOT / "tests").glob("*.py"))
                         + sorted((ROOT / "perfbench").glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_gausscalc_skips_state_validation(path):
    # every state built elsewhere passes the checks of GaussianState
    assert trusted_constructor_uses(path.read_text()) == []


def sum_tests(source, allowed=("_stack", "_unstack")):
    """Line numbers of the calls ``isinstance(x, list)`` (``list`` alone or in
    a tuple of types) in ``source`` outside the functions named ``allowed``."""
    def names_list(node):
        elts = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(isinstance(e, ast.Name) and e.id == "list" for e in elts)

    lines = []

    def scan(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, inside or child.name in allowed)
                continue
            if (not inside and isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2
                    and names_list(child.args[1])):
                lines.append(child.lineno)
            scan(child, inside)
    scan(ast.parse(source), False)
    return sorted(lines)


def test_checker_flags_sum_test():
    source = ("def _stack(f):\n    return f if isinstance(f, list) else [f]\n"
              "def _unstack(s, *like):\n"
              "    return any(isinstance(x, list) for x in like)\n"
              "def apply(f):\n    if isinstance(f, list):\n        pass\n"
              "    return isinstance(f, (tuple, list))\n"
              "x = isinstance(y, list)\n"
              "def g(f):\n    return isinstance(f, dict)\n")
    assert sum_tests(source) == [6, 8, 9]


def test_only_the_boundary_helpers_tell_a_state_from_a_sum():
    # a Gaussian sum is one parameter stack inside gausscalc: _stack makes
    # it from a state or a list, _unstack gives back the same shape
    assert sum_tests((SRC / "gausscalc.py").read_text()) == []


def token_constructions(source):
    """Line numbers of the calls in ``source`` that construct a ``Token``
    directly: ``Token(...)``, ``module.Token(...)``, or a call of a name
    bound to ``Token`` by an import."""
    tree = ast.parse(source)
    names = {"Token"} | {alias.asname for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom)
                         for alias in node.names if alias.name == "Token" and alias.asname}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Name) and node.func.id in names
                       or isinstance(node.func, ast.Attribute) and node.func.attr == "Token"))


def test_checker_flags_token_construction():
    source = ("from metaplectic.sympcore import Token, chirp\n"
              "from metaplectic.sympcore import Token as Tok\n"
              "a = Token('fourier', 1)\n"
              "b = sympcore.Token('chirp', 1, mat=m)\n"
              "c = isinstance(t, Token)\n"
              "d = Tok('fourier', 2)\n"
              "e = chirp(Q)\n"
              "f = metaplectic.sympcore.Token('fourier', 1)\n"
              "g = 'Token(x)'\n")
    assert token_constructions(source) == [3, 4, 6, 8]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "sympcore.py"]
                         + sorted((ROOT / "tests").glob("*.py"))
                         + sorted((ROOT / "perfbench").glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_sympcore_constructs_tokens(path):
    # tokens elsewhere come from the factories, which validate them; the
    # tokens sympcore builds itself are valid by construction
    assert token_constructions(path.read_text()) == []


def unpassed_tol_defaults(sources):
    """Functions with a defaulted ``tol`` parameter that no call in
    ``sources`` passes, by keyword or by position."""
    trees = [ast.parse(s) for s in sources]
    slot = {}  # function name -> positional index of tol (None: keyword only)
    for node in (n for t in trees for n in ast.walk(t)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            first_default = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first_default:], first_default):
                if arg.arg == "tol":
                    slot[node.name] = i
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if arg.arg == "tol" and default is not None:
                    slot[node.name] = None
    passed = set()
    for node in (n for t in trees for n in ast.walk(t)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in slot and (any(k.arg == "tol" for k in node.keywords)
                                 or (slot[name] is not None and len(node.args) > slot[name])):
                passed.add(name)
    return sorted(set(slot) - passed)


def test_checker_flags_unpassed_tol():
    source = ("def a(x, tol=1): pass\n"
              "def b(x, tol=1): pass\n"
              "def c(x, *, tol=1): pass\n"
              "def d(x, tol): pass\n"
              "def e(x, tol=1): pass\n"
              "a(1, 2)\nm.b(1, tol=2)\nc(1, 2)\ne(1)\n")
    assert unpassed_tol_defaults([source]) == ["c", "e"]


def test_every_tol_default_is_passed():
    # a tolerance no caller sets belongs in the comparison, not the signature
    assert unpassed_tol_defaults([p.read_text() for p in SRC.glob("*.py")]) == []


def _is_number(node):
    """A numeric literal, signed, or a product of such literals."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_number(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _is_number(node.left) and _is_number(node.right)
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def _floored(node, names):
    """A ``max(1.0, ...)`` call, a local in ``names`` bound to one, or a
    power of either."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _floored(node.left, names)
    if isinstance(node, ast.Name):
        return node.id in names
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "max"
            and any(_is_number(a) and ast.literal_eval(a) == 1 for a in node.args))


def inline_tolerances(source):
    """Line numbers where a numeric literal multiplies a ``max(1.0, ...)``
    call, or a local bound to one, outside a function named ``negligible``."""
    lines = set()

    def scan(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name == "negligible":
                    continue
                bound = {t.id for n in ast.walk(child) if isinstance(n, ast.Assign)
                         and _floored(n.value, set()) for t in n.targets
                         if isinstance(t, ast.Name)}
                scan(child, bound)
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult):
                if any(_is_number(a) and _floored(b, names)
                       for a, b in ((child.left, child.right), (child.right, child.left))):
                    lines.add(child.lineno)
            scan(child, names)

    scan(ast.parse(source), set())
    return sorted(lines)


def test_checker_flags_inline_tolerance():
    source = ("def f(x, y, tol):\n"
              "    a = 1e-9 * max(1.0, x)\n"
              "    scale = max(1.0, y)\n"
              "    b = y <= 1e-8 * scale\n"
              "    c = -1e-10 * scale ** 2\n"
              "    d = max(1, x) * 1e-12\n"
              "    e = x / max(1.0, y)\n"
              "    g = tol * max(1.0, y)\n"
              "    h = 1e-9 * max(x, y) + 1e-9 * np.maximum(1.0, x)\n"
              "def k(scale):\n"
              "    return 1e-9 * scale\n"
              "def negligible(x, scale, tol):\n"
              "    return x <= 1e-9 * max(1.0, scale)\n")
    assert inline_tolerances(source) == [2, 4, 5, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_relative_tolerance_only_in_negligible(path):
    # a verdict "is x negligible against s" goes through sympcore.negligible
    assert inline_tolerances(path.read_text()) == []


def fft_out_keywords(source):
    """Line numbers of the calls of a ``numpy.fft`` function in ``source``
    that pass an ``out=`` keyword: ``np.fft.f(...)``, ``F.f(...)`` for a
    name ``F`` bound to ``numpy.fft``, or ``f(...)`` for a name imported
    from it."""
    tree = ast.parse(source)
    numpy_names, fft_names, fft_funcs = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.fft":
                    if alias.asname:
                        fft_names.add(alias.asname)
                    else:
                        numpy_names.add("numpy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                if node.module == "numpy" and alias.name == "fft":
                    fft_names.add(alias.asname or "fft")
                elif node.module == "numpy.fft":
                    fft_funcs.add(alias.asname or alias.name)

    def is_fft_module(node):
        if isinstance(node, ast.Name):
            return node.id in fft_names
        return (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names)

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(k.arg == "out" for k in node.keywords):
            f = node.func
            if (isinstance(f, ast.Attribute) and is_fft_module(f.value)
                    or isinstance(f, ast.Name) and f.id in fft_funcs):
                lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_fft_out():
    source = ("import numpy as np\n"
              "from numpy.fft import ifft as inv\n"
              "from numpy import fft as F\n"
              "a = np.fft.fft(x, axis=1, out=y)\n"
              "b = inv(x, out=y)\n"
              "c = F.rfft(x, out=y)\n"
              "d = np.fft.fft(x, axis=1)\n"
              "e = np.multiply(x, y, out=z)\n"
              "g = scipy.fft.fft(x, out=y)\n"
              "h = np.exp(x, out=x)\n")
    assert fft_out_keywords(source) == [4, 5, 6]


def numpy_floor():
    """The lowest numpy version ``pyproject.toml`` admits, as a tuple."""
    text = (ROOT / "pyproject.toml").read_text()
    return tuple(int(x) for x in re.search(r'"numpy>=([0-9.]+)"', text).group(1).split("."))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_fft_out_below_numpy_2(path):
    # numpy.fft functions take out= from numpy 2.0 on; below that the call
    # raises TypeError
    if numpy_floor() < (2, 0):
        assert fft_out_keywords(path.read_text()) == []


def vacuous_asserts(source):
    """Line numbers of the asserts in ``source`` whose test is a
    comprehension, a generator or a non-empty list or tuple literal: a
    generator and a non-empty literal are always true, and a comprehension
    tests only that it is non-empty, not its elements."""
    shapes = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)
            and (isinstance(node.test, shapes)
                 or isinstance(node.test, (ast.List, ast.Tuple)) and node.test.elts)]


def test_checker_flags_vacuous_assert():
    source = ("assert [x > 0 for x in xs]\n"
              "assert all(x > 0 for x in xs)\n"
              "assert (x > 0 for x in xs)\n"
              "assert {k: 1 for k in xs}\n"
              "assert {x for x in xs}\n"
              "assert (a, 'message')\n"
              "assert [a]\n"
              "assert a, 'message'\n"
              "assert []\n"
              "assert [] == xs\n")
    assert vacuous_asserts(source) == [1, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("path", sorted((ROOT / "tests").glob("*.py"))
                         + sorted((ROOT / "perfbench").glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_vacuous_asserts(path):
    assert vacuous_asserts(path.read_text()) == []


# a None entry in sys.modules makes every import of scipy raise ImportError
NO_SCIPY = "import sys\nsys.modules['scipy'] = None\n"


def _run_blocked(script):
    """Run ``script`` in a fresh interpreter with scipy blocked; return its
    exit code and its stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY + script], capture_output=True,
                          text=True, env=env, timeout=120)
    return proc.returncode, proc.stderr


def _cold_run(args):
    """Run the CLI with ``args`` cold, scipy blocked; return its exit code
    and its stderr."""
    return _run_blocked("import metaplectic\n"
                        "from metaplectic.cli import main\n"
                        f"main({args!r}, standalone_mode=False)\n")


STATE = '{"d": 1, "c": [1, 0], "Q": {"d": 1, "rows": [[[0.2, 0.8]]]}, "b": [[0.3, -0.2]]}'
WORD = ('{"d": 1, "tokens": [{"op": "fourier"}, {"op": "atom_r", "theta": [0.5]}, '
        '{"op": "multiplier", "P": {"d": 1, "rows": [[[0.3, -0.4]]]}}, '
        '{"op": "rescale", "E": {"d": 1, "rows": [[[-2, 0]]]}, "maslov": 1}]}')


@pytest.mark.parametrize("command", ["classify", "polar", "gaussian-apply", "gaussian-wigner",
                                     "evolve-heat", "evolve-hermite", "evolve-heat-weighted"])
def test_classify_loads_no_scipy(tmp_path, command):
    # a cold classify, polar split, word action, Wigner transform or flow
    # (numpy expm, eigh normal form, Gauss-Laguerre weight constant) runs
    # with scipy blocked
    matrix = tmp_path / "matrix.json"
    matrix.write_text('{"d": 1, "rows": [[[0, 0], [1, 0]], [[-1, 0], [0.5, 0]]]}')
    state, word = tmp_path / "state.json", tmp_path / "word.json"
    state.write_text(STATE)
    word.write_text(WORD)
    out = tmp_path / "report.json"
    args = {
        "classify": ["classify", "--matrix", str(matrix)],
        "polar": ["polar", "--matrix", str(matrix)],
        "gaussian-apply": ["gaussian", "apply", "--word", str(word), "--state", str(state)],
        "gaussian-wigner": ["gaussian", "wigner", "--state", str(state)],
        "evolve-heat": ["evolve", "--example", "heat"],
        "evolve-hermite": ["evolve", "--example", "hermite"],
        "evolve-heat-weighted": ["evolve", "--example", "heat", "--s", "1"],
    }[command]
    code, err = _cold_run(args + ["--out", str(out)])
    assert code == 0, err
    if command.startswith("evolve"):
        # header and one CSV row per default time step
        assert len(out.read_text().splitlines()) == 21
    else:
        report = json.loads(out.read_text())
        if command == "classify":
            assert report["class"] == "Real"
        elif command == "polar":
            assert report["residual"] <= 1e-12
        else:
            assert report["d"] == (2 if command == "gaussian-wigner" else 1)


def test_grid_transforms_load_no_scipy():
    # the sampled Wigner, short-time and modulation-norm routes, the grid
    # representation, both cone branches and the weight constant are numpy
    script = (
        "import numpy as np\n"
        "from metaplectic import evoprop, gausscalc, gridlab, tfrzoo\n"
        "spec = gridlab.GridSpec(1, 64, 1 / 8.0)\n"
        "f = gridlab.sample(gausscalc.standard_gaussian(1), spec)\n"
        "g = gridlab.sample(gausscalc.GaussianState(1, 1.0, [[0.3 + 1.2j]], [0.2]), spec)\n"
        "W = gridlab.grid_wigner(f, g)\n"
        "gridlab.grid_wigner(f)\n"
        "gridlab.grid_stft(f, g)\n"
        "gridlab.discrete_modnorm(f, g, p=2.0, q=2.0)\n"
        "husimi = tfrzoo.build_covariant(np.eye(1) / 2, -0.5j * np.eye(1), 0.5j * np.eye(1))\n"
        "tfrzoo.tfr_grid(husimi, f, g)\n"
        "evoprop.cone_profile(W, [1.0, 0.0], np.pi)\n"
        "evoprop.cone_profile(W, [1.0, 0.5], np.pi / 4)\n"
        "evoprop.c_weight(1.0, 2)\n"
    )
    code, err = _run_blocked(script)
    assert code == 0, err


def public_names(source):
    """The names in the module-level ``__all__`` of ``source``; an empty
    list when it has none."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def undefined_exports(source):
    """Names in the ``__all__`` of ``source`` that no module-level def,
    class or assignment binds; an imported name is not defined there."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(set(public_names(source)) - defined)


def test_checker_flags_undefined_export():
    source = ("from .core import shared\n"
              "__all__ = ['f', 'C', 'X', 'Y', 'Z', 'shared', 'ghost']\n"
              "def f(): pass\n"
              "class C: pass\n"
              "X = 1\n"
              "Y, Z = 2, 3\n"
              "def g():\n    ghost = 1\n")
    assert undefined_exports(source) == ["ghost", "shared"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined_in_its_module(path):
    assert undefined_exports(path.read_text()) == []


def shared_exports(sources):
    """Names that the ``__all__`` of more than one of ``sources`` lists."""
    lists = [set(public_names(s)) for s in sources]
    return sorted({n for i, a in enumerate(lists) for b in lists[i + 1:] for n in a & b})


def test_checker_flags_shared_export():
    sources = ["__all__ = ['a', 'b']\n", "__all__ = ['b', 'c']\n", "x = 1\n",
               "__all__ = ['c', 'd']\n"]
    assert shared_exports(sources) == ["b", "c"]


def test_no_name_is_exported_twice():
    # a star import would let the later module shadow the name silently
    assert shared_exports([p.read_text() for p in MODULES]) == []


def unexported(sources, namespace):
    """Names in the ``__all__`` of ``sources`` that ``namespace`` lacks."""
    return sorted(n for s in sources for n in public_names(s) if not hasattr(namespace, n))


def test_checker_flags_unexported_name():
    from types import SimpleNamespace
    sources = ["__all__ = ['a', 'b']\n", "__all__ = ['c']\n", "d = 1\n"]
    assert unexported(sources, SimpleNamespace(a=1, c=2, d=3)) == ["b"]


def test_namespace_holds_every_layer_export():
    # formats and cli are imported by name
    import metaplectic
    layers = [p.read_text() for p in MODULES if p.name not in ("formats.py", "cli.py")]
    assert unexported(layers, metaplectic) == []


def test_package_import_loads_the_layers_only():
    code, err = _run_blocked(
        "import metaplectic\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('metaplectic.'))\n"
        "assert loaded == ['metaplectic.' + m for m in ('errors', 'evoprop', 'gausscalc',"
        " 'gridlab', 'sympcore', 'tfrzoo')], loaded\n")
    assert code == 0, err


def state_writer_calls(source, names=("dump_state", "dump_sum", "dump_complex")):
    """Line numbers of the calls in ``source`` of the ``formats`` writers of
    states, sums and complex numbers, as attributes or as imported names."""
    tree = ast.parse(source)
    local = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names if alias.name in names}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Attribute) and node.func.attr in names
                       or isinstance(node.func, ast.Name) and node.func.id in local))


def test_checker_flags_state_writer_call():
    source = ("from .formats import dump_state as ds, dump_matrix\n"
              "a = formats.dump_state(f)\n"
              "b = ds(f)\n"
              "c = formats.dump_matrix(M, 1)\n"
              "d = F.dump_sum([f])\n"
              "e = formats.dump_complex(z)\n"
              "g = formats.dumps_json(f)\n"
              "h = dump_matrix(M, 1)\n")
    assert state_writer_calls(source) == [2, 3, 5, 6]


def test_cli_leaves_states_and_complex_numbers_to_dumps_json():
    assert state_writer_calls((SRC / "cli.py").read_text()) == []
