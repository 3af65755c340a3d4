"""Closed-form Gaussian calculus: evaluation, shifts, operator action."""
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metaplectic.errors import (DecompositionError, MetaplecticError, NumericalError,
                                ValidationError)
from metaplectic.gausscalc import (GaussianState, apply_matrix, apply_token,
                                   apply_word, check_intertwining,
                                   complex_shift, conjugate_state, det_pow,
                                   eval_state, gaussian_integral,
                                   inner_product, norm, shift,
                                   standard_gaussian, wigner_gaussian)
from metaplectic.evoprop import weyl_pairing, weyl_symbol_Z
from metaplectic.sympcore import (Token, atom_matrix, atom_p, atom_r,
                                  atomic_decompose, blocks, chirp,
                                  factor_R_theta, fourier, matrix_polar,
                                  multiplier, random_word, rescale,
                                  token_matrix, word_to_matrix)

from conftest import random_state, rel_values


def test_standard_gaussian_norm():
    # ||exp(-pi x.x)||_2 = 2^{-d/4}
    assert abs(norm(standard_gaussian(1)) - 2.0 ** -0.25) < 1e-14
    assert abs(norm(standard_gaussian(3)) - 2.0 ** -0.75) < 1e-14


def test_huge_chirp_applies_without_overflow():
    # the chirp adds its parameter to Q; a huge finite one must neither
    # overflow the symmetrization nor fail the state's decay check
    big = 1e308 + 1e308j
    g = apply_word([chirp([[big]])], GaussianState(1, 1.0, [[0.2 + 0.8j]], [0.3]))
    assert g.Q[0, 0] == big and g.c == 1.0


def test_gaussian_integral_principal_branch():
    val = gaussian_integral(np.array([[1.0 - 1.0j]]), np.zeros(1))
    assert abs(val - (0.77688698701501865 + 0.32179712645279131j)) < 1e-15


def test_gaussian_integral_matches_quadrature():
    M = np.array([[1.4, 0.3], [0.3, 0.9]]) + 1j * np.array([[0.2, 0.0], [0.0, -0.4]])
    z = np.array([0.1 + 0.2j, -0.3])
    val = gaussian_integral(M, z)
    xs = np.linspace(-9, 9, 1201)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    P = np.stack([X, Y], axis=-1)
    quad = (M[0, 0] * X**2 + 2 * M[0, 1] * X * Y + M[1, 1] * Y**2)
    integrand = np.exp(-np.pi * quad - 2j * np.pi * (z[0] * X + z[1] * Y))
    approx = np.trapezoid(np.trapezoid(integrand, xs, axis=1), xs)
    assert abs(val - approx) < 1e-10 * abs(val)


def test_eval_state_formula():
    f = GaussianState(1, 0.7 + 0.2j, [[0.2 + 0.8j]], [0.3 - 0.2j])
    x = np.array([0.45])
    want = f.c * np.exp(1j * np.pi * (0.2 + 0.8j) * x[0] ** 2
                        + 2j * np.pi * (0.3 - 0.2j) * x[0])
    assert abs(eval_state(f, x) - want) < 1e-15


def test_conjugate_state_values(rng):
    f = random_state(rng, 2)
    x = rng.normal(size=(5, 2))
    assert rel_values(eval_state(conjugate_state(f), x),
                      np.conj(eval_state(f, x))) < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_shift_composition(seed):
    rng = np.random.default_rng(seed)
    f = random_state(rng, 1)
    z1, z2 = rng.normal(size=2), rng.normal(size=2)
    t1, t2 = rng.normal(), rng.normal()
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    lhs = shift(shift(f, z2, t2), z1, t1)
    rhs = shift(f, z1 + z2, t1 + t2 - 0.5 * float(z1 @ J @ z2))
    x = rng.normal(size=(7, 1))
    assert rel_values(eval_state(lhs, x), eval_state(rhs, x)) < 1e-12


def test_complex_shift_extends_real_shift(rng):
    f = random_state(rng, 2)
    z = rng.normal(size=4)
    x = rng.normal(size=(6, 2))
    a = shift(f, z, 0.3)
    b = complex_shift(f, z[:2].astype(complex), z[2:].astype(complex), 0.3)
    assert rel_values(eval_state(a, x), eval_state(b, x)) < 1e-13


def test_fourier_fourth_power_is_parity_sign():
    for d in (1, 2):
        f = random_state(np.random.default_rng(d), d)
        g = apply_word([fourier(d)] * 4, f)
        x = np.random.default_rng(99).normal(size=(6, d))
        assert rel_values(eval_state(g, x),
                          (-1.0) ** d * eval_state(f, x)) < 1e-12


def test_fourier_inverse_word():
    # the inverse transform equals the parity flip followed by the transform,
    # so flip . F . F is the identity operator
    d = 2
    f = random_state(np.random.default_rng(5), d)
    g = apply_word([rescale(-np.eye(d), maslov=d), fourier(d), fourier(d)], f)
    x = np.random.default_rng(6).normal(size=(6, d))
    assert rel_values(eval_state(g, x), eval_state(f, x)) < 1e-12


def test_hermite_semigroup_on_gaussian_family():
    # R_theta maps exp(-pi a x.x) to (cosh t + a sinh t)^{-1/2} exp(-pi b x.x)
    # with b the Moebius image (a + tanh t)/(1 + a tanh t)
    for a, th in ((1.0, 0.7), (0.4, 1.3), (2.5, 0.2)):
        f = GaussianState(1, 1.0, [[1j * a]], [0.0])
        g = apply_token(atom_r([th]), f)
        b = (a + np.tanh(th)) / (1 + a * np.tanh(th))
        amp = (np.cosh(th) + a * np.sinh(th)) ** -0.5
        want = GaussianState(1, amp, [[1j * b]], [0.0])
        x = np.linspace(-1.5, 1.5, 9)[:, None]
        assert rel_values(eval_state(g, x), eval_state(want, x)) < 1e-12


def test_hermite_semigroup_fixes_ground_state():
    th = 0.9
    f = standard_gaussian(1)
    g = apply_token(atom_r([th]), f)
    x = np.linspace(-1, 1, 7)[:, None]
    assert rel_values(eval_state(g, x),
                      np.exp(-th / 2) * eval_state(f, x)) < 1e-13


def _parameter_gap(g, h):
    """Largest relative difference of ``Q``, ``b`` and ``c`` (phase included)."""
    return max(np.linalg.norm(g.Q - h.Q) / max(1.0, np.linalg.norm(h.Q)),
               np.linalg.norm(g.b - h.b) / max(1.0, np.linalg.norm(h.b)),
               abs(g.c - h.c) / max(1.0, abs(h.c)))


def test_atom_r_token_matches_factored_word():
    # the token acts through its matrix; the five-token factorization that
    # the grid route uses is an independent check of it, phase included
    rng = np.random.default_rng(31)
    for k in range(60):
        d = 1 + k % 3
        theta = rng.uniform(0.0, 2.0, d)
        f = random_state(rng, d)
        assert _parameter_gap(apply_token(atom_r(theta), f),
                              apply_word(factor_R_theta(theta), f)) < 1e-12


def test_multiplier_token_matches_fourier_conjugated_chirp():
    # a multiplier is the chirp exp(-i pi P xi.xi) conjugated by the Fourier
    # transform; the phase-correct parity flip turns F F into the identity
    rng = np.random.default_rng(32)
    for k in range(200):
        d = 1 + k % 3
        M, N = rng.normal(size=(d, d)), rng.normal(size=(d, d)) * 0.6
        P = (M + M.T) / 2 - 1j * N @ N.T
        f = random_state(rng, d)
        chain = [rescale(-np.eye(d), maslov=d), fourier(d), chirp(-P), fourier(d)]
        assert _parameter_gap(apply_token(multiplier(P), f),
                              apply_word(chain, f)) < 1e-12


def test_fourier_of_flat_state_raises():
    # the transform of a plane wave is a point mass, outside the Gaussian class
    flat = GaussianState(1, 1.0, [[0.0]], [0.3], allow_degenerate=True)
    with pytest.raises(NumericalError):
        apply_token(fourier(1), flat)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_apply_matrix_matches_word(seed, d):
    rng = np.random.default_rng(seed)
    word = random_word(rng, d, max_len=6)
    f = random_state(rng, d)
    g1 = apply_word(word, f)
    g2 = apply_matrix(word_to_matrix(word), f)
    x = rng.normal(size=(8, d))
    # the token route accumulates each factor's phase while the matrix route
    # takes the principal determinant branch: equal up to one unimodular
    # constant, identical across evaluation points
    v1, v2 = eval_state(g1, x), eval_state(g2, x)
    k = int(np.argmax(np.abs(v2)))
    s = v1[k] / v2[k]
    assert abs(abs(s) - 1.0) < 1e-9
    assert rel_values(v1, s * v2) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_apply_preserves_siegel_domain(seed, d):
    rng = np.random.default_rng(seed)
    word = random_word(rng, d, max_len=6)
    g = apply_word(word, random_state(rng, d))
    w = np.linalg.eigvalsh(np.asarray(g.Q).imag)
    assert w[0] > 0


def test_apply_matrix_rejects_dimension_mismatch(rng):
    with pytest.raises(ValidationError):
        apply_matrix(np.eye(4), random_state(rng, 1))


def test_inner_product_conjugate_symmetry(rng):
    f, g = random_state(rng, 2), random_state(rng, 2)
    assert abs(inner_product(f, g) - np.conj(inner_product(g, f))) < 1e-12


def test_inner_product_matches_quadrature(rng):
    f, g = random_state(rng, 1), random_state(rng, 1)
    xs = np.linspace(-8, 8, 4001)[:, None]
    vals = eval_state(f, xs) * np.conj(eval_state(g, xs))
    assert abs(inner_product(f, g) - np.trapezoid(vals, xs[:, 0])) < 1e-10


def test_wigner_of_ground_state():
    W = wigner_gaussian(standard_gaussian(1))
    assert abs(W.c - np.sqrt(2)) < 1e-13
    assert np.allclose(W.Q, 2j * np.eye(2), atol=1e-13)
    assert np.allclose(W.b, 0, atol=1e-13)


def test_wigner_moyal_identity(rng):
    for _ in range(10):
        d = int(rng.integers(1, 3))
        f, g = random_state(rng, d), random_state(rng, d)
        W = wigner_gaussian(f, g)
        assert abs(norm(W) - norm(f) * norm(g)) < 1e-10 * norm(f) * norm(g)


def test_wigner_diagonal_is_real(rng):
    f = random_state(rng, 1)
    W = wigner_gaussian(f)
    z = rng.normal(size=(9, 2))
    vals = eval_state(W, z)
    assert np.max(np.abs(vals.imag)) < 1e-12 * np.max(np.abs(vals))


def test_short_time_transform_reference_value():
    # V_w f(x, xi) = exp(-i pi x xi) <f, shift(w, (x, xi))> pinned at one point
    phi = standard_gaussian(1)
    x, xi = 0.3, 0.7
    val = np.exp(-1j * np.pi * x * xi) * inner_product(phi, shift(phi, [x, xi]))
    assert abs(val - (0.22466124380554834 - 0.17426512374688566j)) < 1e-15


def test_intertwining_on_sums(rng):
    for _ in range(8):
        d = int(rng.integers(1, 3))
        word = random_word(rng, d, max_len=5)
        f = [random_state(rng, d), random_state(rng, d)]
        z = rng.normal(size=2 * d)
        tau = rng.normal()
        assert check_intertwining(word, z, tau, f) < 1e-10


def test_apply_matrix_is_linear_on_sums():
    # the matrix route realizes one operator: on a Gaussian sum it differs
    # from the word route by a single constant shared by all terms
    rng = np.random.default_rng(7)
    x = np.linspace(-1.2, 1.2, 9)[:, None]
    for _ in range(300):
        word = random_word(rng, 1, max_len=6)
        f = [random_state(rng, 1) for _ in range(3)]
        v1 = eval_state(apply_word(word, f), x)
        v2 = eval_state(apply_matrix(word_to_matrix(word), f), x)
        k = int(np.argmax(np.abs(v2)))
        s = v1[k] / v2[k]
        assert abs(abs(s) - 1.0) < 1e-9
        assert rel_values(v1, s * v2) < 1e-9


def _real_frame_word(rng, d):
    # Fourier, real chirps and multipliers, and rescales of either sign:
    # every token is unitary
    word = []
    for _ in range(int(rng.integers(1, 7))):
        kind = int(rng.integers(4))
        G = rng.normal(size=(d, d))
        if kind == 0:
            word.append(fourier(d))
        elif kind == 1:
            word.append(chirp((G + G.T) / 2))
        elif kind == 2:
            word.append(multiplier((G + G.T) / 2))
        else:
            sign = 1.0 if rng.integers(2) else -1.0
            word.append(rescale(sign * (np.eye(d) + 0.3 * G)))
    return word


def test_apply_matrix_real_frame_preserves_pairing():
    # a real matrix acts unitarily, so <V f, V g> = <f, g> with no sign
    # realignment between the two applications
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(1, 3))
        V = word_to_matrix(_real_frame_word(rng, d)).real
        f, g = random_state(rng, d), random_state(rng, d)
        want = inner_product(f, g)
        got = inner_product(apply_matrix(V, f), apply_matrix(V, g))
        assert abs(got - want) <= 1e-12 * abs(want)


def _per_term_action(S, f):
    """The matrix action of one term, one numpy call per step: the
    per-term formula that the stacked action must reproduce."""
    A, B, C, D = blocks(np.asarray(S, dtype=complex))
    T0 = A + 1j * B
    T = A + B @ f.Q
    try:
        lam = np.linalg.eigvals(np.linalg.solve(T0, T))
    except np.linalg.LinAlgError:
        raise DecompositionError("matrix action is singular on the ground state")
    if np.min(np.abs(lam)) < 1e-10 * max(1.0, float(np.max(np.abs(lam)))):
        raise DecompositionError("matrix action is singular on this state")
    Qp = np.linalg.solve(T.T, (C + D @ f.Q).T).T
    Qp = Qp / 2 + Qp.T / 2
    Bb = B @ f.b
    bp = D @ f.b - Qp @ Bb
    c = f.c * det_pow(T0, -0.5) * np.prod(lam ** -0.5) \
        * np.exp(-1j * np.pi * Bb @ (D @ f.b) + 1j * np.pi * (Qp @ Bb) @ Bb)
    return GaussianState(f.d, c, Qp, bp, f.allow_degenerate)


def _random_sum(rng, d):
    """One to four terms; about a third of them flat or of rank-one decay."""
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        f = random_state(rng, d)
        if rng.integers(3) == 0:
            v = rng.normal(size=(d, 1)) * rng.integers(2)
            f = GaussianState(d, f.c, f.Q.real + 1j * (v @ v.T), f.b, allow_degenerate=True)
        terms.append(f)
    return terms


def test_stacked_action_matches_per_term_formula():
    # Q and b bitwise, c to rounding; both routes see the same terms
    rng = np.random.default_rng(41)
    for k in range(300):
        d = 1 + k % 3
        S = word_to_matrix(random_word(rng, d, max_len=6))
        f = _random_sum(rng, d)
        got = apply_matrix(S, f)
        assert len(got) == len(f)
        for g, t in zip(got, f):
            want = _per_term_action(S, t)
            assert np.array_equal(g.Q, want.Q) and np.array_equal(g.b, want.b)
            assert abs(g.c - want.c) <= 1e-14 * abs(want.c)
            assert g.allow_degenerate == t.allow_degenerate
        single = apply_matrix(S, f[0])
        assert isinstance(single, GaussianState)
        assert np.array_equal(single.Q, got[0].Q) and single.c == got[0].c


def test_singular_middle_term_raises_as_per_term():
    # the Fourier transform of a plane wave is a point mass
    rng = np.random.default_rng(42)
    flat = GaussianState(1, 1.0, [[0.0]], [0.3], allow_degenerate=True)
    f = [random_state(rng, 1), flat, random_state(rng, 1)]
    S = word_to_matrix([fourier(1)])
    with pytest.raises(DecompositionError) as want:
        _per_term_action(S, flat)
    with pytest.raises(DecompositionError) as got:
        apply_matrix(S, f)
    assert str(got.value) == str(want.value) == "matrix action is singular on this state"
    with pytest.raises(DecompositionError, match="^matrix action is singular on this state$"):
        apply_word([fourier(1)], f)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_apply_matrix_rejects_non_finite_matrix(bad):
    # no arithmetic runs on it, so no RuntimeWarning either
    S = np.eye(2, dtype=complex)
    S[0, 1] = bad
    with pytest.raises(ValidationError, match="^matrix must be finite$"):
        apply_matrix(S, standard_gaussian(1))
    with pytest.raises(ValidationError, match="^matrix must be finite$"):
        apply_matrix(S, [standard_gaussian(1)] * 2)


def test_empty_sums():
    word = [fourier(1)]
    assert apply_matrix(np.eye(2), []) == []
    assert apply_word(word, []) == []
    assert apply_token(fourier(1), []) == []
    assert inner_product([], standard_gaussian(1)) == 0
    assert norm([]) == 0.0
    with pytest.raises(ValidationError, match="generator token"):
        apply_token("x", [])
    for call in (lambda: eval_state([], np.zeros(3)),
                 lambda: wigner_gaussian([]),
                 lambda: wigner_gaussian(standard_gaussian(1), []),
                 lambda: check_intertwining(word, np.zeros(2), 0.0, [])):
        with pytest.raises(ValidationError, match="empty Gaussian sum"):
            call()


def test_wigner_rejects_slots_of_two_dimensions():
    with pytest.raises(ValidationError):
        wigner_gaussian(standard_gaussian(1), standard_gaussian(2))


def test_every_entry_rejects_a_sum_of_two_dimensions():
    # these ended in numpy ValueErrors, or returned numbers (a norm of 1.5368)
    mixed = [standard_gaussian(1), standard_gaussian(2)]
    one = standard_gaussian(1)
    calls = {
        "conjugate_state": lambda: conjugate_state(mixed),
        "eval_state": lambda: eval_state(mixed, np.zeros(1)),
        "shift": lambda: shift(mixed, np.zeros(2)),
        "complex_shift": lambda: complex_shift(mixed, [0.0], [0.0]),
        "apply_token": lambda: apply_token(fourier(1), mixed),
        "apply_word": lambda: apply_word([fourier(1)], mixed),
        "apply_word, empty word": lambda: apply_word([], mixed),
        "apply_matrix": lambda: apply_matrix(np.eye(2), mixed),
        "inner_product": lambda: inner_product(mixed, one),
        "inner_product, second slot": lambda: inner_product(one, mixed),
        "inner_product, empty first slot": lambda: inner_product([], mixed),
        "norm": lambda: norm(mixed),
        "wigner_gaussian": lambda: wigner_gaussian(mixed),
        "wigner_gaussian, second slot": lambda: wigner_gaussian(one, mixed),
        "check_intertwining": lambda: check_intertwining([fourier(1)], np.zeros(2), 0.0, mixed),
    }
    for name, call in calls.items():
        with pytest.raises(ValidationError, match="one dimension"):
            call()
    # two single states of two dimensions are two slots, not one sum
    with pytest.raises(ValidationError, match="one dimension"):
        inner_product(one, standard_gaussian(2))


def test_stacked_sum_operations_match_per_term_loops():
    # the per-term loops that the stack replaced, as references: Q and b
    # are equal, amplitudes, values and inner products agree to rounding
    rng = np.random.default_rng(48)
    for k in range(30):
        d = 1 + k % 3
        f = [random_state(rng, d) for _ in range(1 + k % 3)]
        g = [random_state(rng, d) for _ in range(1 + k % 2)]
        zx, zw, tau = rng.normal(size=d), rng.normal(size=d), float(rng.normal())
        for got, t in zip(shift(f, np.r_[zx, zw], tau), f):
            c = t.c * np.exp(2j * np.pi * tau - 1j * np.pi * zx @ zw
                             + 1j * np.pi * (t.Q @ zx) @ zx - 2j * np.pi * t.b @ zx)
            assert np.array_equal(got.Q, t.Q) and np.array_equal(got.b, t.b + zw - t.Q @ zx)
            assert abs(got.c - c) <= 1e-13 * abs(c)
        for got, t in zip(conjugate_state(f), f):
            assert np.array_equal(got.Q, -np.conj(t.Q)) and np.array_equal(got.b, -np.conj(t.b))
            assert got.c == t.c.conjugate()
        pairs = [tf.c * np.conj(tg.c) * gaussian_integral(-1j * (tf.Q - np.conj(tg.Q)),
                                                          tf.b - np.conj(tg.b))
                 for tf in f for tg in g]
        assert abs(inner_product(f, g) - sum(pairs)) <= 1e-14 * sum(map(abs, pairs))
        x = rng.normal(size=(20, d))
        terms = [t.c * np.exp(1j * np.pi * np.einsum("...i,ij,...j->...", x, t.Q, x)
                              + 2j * np.pi * x @ t.b) for t in f]
        assert np.all(np.abs(eval_state(f, x) - sum(terms)) <= 1e-13 * sum(map(np.abs, terms)))


def test_points_of_the_wrong_length_are_validation_errors():
    # a complex shift or an evaluation point of the wrong length ended in a
    # numpy ValueError
    g = standard_gaussian(2)
    for call in (lambda: shift(g, np.zeros(3)), lambda: shift([g, g], np.zeros((2, 2))),
                 lambda: complex_shift(g, [0.0], [0.0, 0.0]),
                 lambda: complex_shift(g, [0.0, 0.0, 0.0], [0.0, 0.0]),
                 lambda: eval_state(g, np.zeros((4, 3)))):
        with pytest.raises(ValidationError):
            call()


def test_gaussian_integral_on_a_stack_of_pairs(rng):
    # one call over a (k, m, d, d) stack equals the per-member calls
    for d in (1, 2, 3):
        f = [random_state(rng, d) for _ in range(3)]
        g = [random_state(rng, d) for _ in range(2)]
        M = np.array([[-1j * (a.Q - np.conj(b.Q)) for b in g] for a in f])
        z = np.array([[a.b - np.conj(b.b) for b in g] for a in f])
        got = gaussian_integral(M, z)
        assert got.shape == (3, 2)
        for i in range(3):
            for j in range(2):
                want = gaussian_integral(M[i, j], z[i, j])
                assert abs(got[i, j] - want) <= 1e-15 * abs(want)


def _eig_root(M):
    """Product of the principal ``-1/2`` powers of the eigenvalues of ``M``."""
    r = mp.mpf(1)
    for e in mp.eig(M)[0]:
        r *= mp.power(e, -0.5)
    return r


def _continued_root(S, Q):
    """``det(A + B Q_s)^{-1/2}`` at 50 digits, continued along
    ``Q_s = iI + s (Q - iI)`` from the per-eigenvalue principal root of
    ``det(A + iB)`` at ``s = 0``.  Each step takes the root nearer to the
    last one and is halved until that choice is unambiguous."""
    d = Q.shape[0]
    A, B = (mp.matrix(X.tolist()) for X in blocks(S)[:2])
    Qm, iI = mp.matrix(Q.tolist()), 1j * mp.eye(d)
    r = _eig_root(A + 1j * B)
    s, h = mp.mpf(0), mp.mpf(1) / 32
    while s < 1:
        t = min(mp.mpf(1), s + h)
        root = 1 / mp.sqrt(mp.det(A + B * (iI + t * (Qm - iI))))
        if abs(root - r) < abs(root + r) / 4:
            s, r = t, root
        elif abs(root + r) < abs(root - r) / 4:
            s, r = t, -root
        else:
            h /= 2
    return r


def test_apply_matrix_branch_matches_continued_root():
    # the amplitude, sign included, against an independent 50-digit
    # continuation of the determinant root; the sample must contain cases
    # where the principal root of det(A + BQ), and the per-eigenvalue one,
    # have the other sign
    rng = np.random.default_rng(10)
    flips = np.zeros(2, dtype=int)
    with mp.workdps(50):
        for k in range(15):
            d = 1 + k % 3
            S = word_to_matrix(random_word(rng, d, max_len=6))
            f = random_state(rng, d)
            A, B, C, D = (mp.matrix(X.tolist()) for X in blocks(S))
            Q, b = mp.matrix(f.Q.tolist()), mp.matrix(f.b.tolist())
            T = A + B * Q
            Qp = (C + D * Q) * mp.inverse(T)
            Bb, Db = B * b, D * b
            quad = -(Bb.T * Db)[0, 0] + (Bb.T * Qp * Bb)[0, 0]
            root = _continued_root(S, f.Q)
            want = complex(f.c * root * mp.exp(1j * mp.pi * quad))
            got = apply_matrix(S, f).c
            assert abs(got - want) <= 1e-12 * abs(want)
            flips += [abs(1 / mp.sqrt(mp.det(T)) + root) < abs(root),
                      abs(_eig_root(T) + root) < abs(root)]
    assert flips.min() >= 1


def _per_token_word(word, f):
    """The token-by-token route: each token is checked when it is reached,
    then acts on every term, and every output term is built and validated
    as a public ``GaussianState``."""
    terms = f if isinstance(f, list) else [f]
    for t in reversed(word):
        if not isinstance(t, Token):
            raise ValidationError("apply_token expects a generator token")
        for g in terms:
            if t.d != g.d:
                raise ValidationError(f"token dimension {t.d} does not match state dimension {g.d}")
        if t.op == "rescale":
            E = t.matrix_param().real
            amp = (1j) ** (t.maslov % 4) * np.sqrt(abs(np.linalg.det(E)))
            terms = [GaussianState(g.d, g.c * amp, E.T @ g.Q @ E, E.T @ g.b, g.allow_degenerate)
                     for g in terms]
        else:
            terms = [_per_term_action(token_matrix(t), g) for g in terms]
    return terms if isinstance(f, list) else terms[0]


def _outcome(call):
    """The result of ``call()``, or the class and message of what it raised."""
    try:
        return call()
    except MetaplecticError as e:
        return type(e), str(e)


def test_carried_stack_matches_per_token_route():
    # words with rescales on sums with flat and rank-one terms mixed in: the
    # same parameters, the phase included, or the same error
    rng = np.random.default_rng(43)
    raised = 0
    for k in range(240):
        d = 1 + k % 3
        word = random_word(rng, d, max_len=6)
        f = _random_sum(rng, d)
        if k % 4 == 0:
            # a plane wave: singular under a Fourier token that reaches it flat
            f.insert(1, GaussianState(d, 1.0, np.zeros((d, d)), rng.normal(size=d),
                                      allow_degenerate=True))
        got = _outcome(lambda: apply_word(word, f))
        want = _outcome(lambda: _per_token_word(word, f))
        if isinstance(want, tuple):
            raised += 1
            assert got == want
            continue
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.linalg.norm(g.Q - w.Q) <= 1e-14 * np.linalg.norm(w.Q)
            assert np.linalg.norm(g.b - w.b) <= 1e-14 * max(np.linalg.norm(w.b), 1e-300)
            # relative 1e-14 in c leaves no room for a sign flip
            assert abs(g.c - w.c) <= 1e-14 * abs(w.c)
            assert g.allow_degenerate == w.allow_degenerate and g.d == w.d
    # the sample must also exercise the error route
    assert 0 < raised < 60


def test_middle_token_that_ends_decay_raises_as_per_token_route():
    # a flat decaying term (|Q| << 1) that a real chirp lifts to size one,
    # where its imaginary part no longer clears the margin
    rng = np.random.default_rng(44)
    thin = GaussianState(1, 1.0, [[1e-3 + 1e-16j]], [0.2])
    f = [random_state(rng, 1), thin, random_state(rng, 1)]
    word = [fourier(1), chirp([[1.0]]), rescale([[1.0]])]
    want = _outcome(lambda: _per_token_word(word, f))
    assert want == (ValidationError, "Im Q must be positive definite (decaying state)")
    assert _outcome(lambda: apply_word(word, f)) == want
    # two terms fail at one token with different messages: the stack names
    # the first term's, as the per-token route does; the second is flat and
    # slightly negative, within its margin until the chirp shrinks it
    flat = GaussianState(1, 1.0, [[-1.0 - 1e-10j]], [0.1], allow_degenerate=True)
    for f, message in (([thin, flat], "Im Q must be positive definite (decaying state)"),
                       ([flat, thin], "Im Q must be positive semidefinite")):
        want = _outcome(lambda: _per_token_word([chirp([[1.0]])], f))
        assert want == (ValidationError, message)
        assert _outcome(lambda: apply_word([chirp([[1.0]])], f)) == want


@pytest.mark.parametrize("word, message", [
    # the non-token is reached before the mismatched token
    ([fourier(2), "x", chirp([[0.5]])], "apply_token expects a generator token"),
    # the mismatched token is reached before the non-token
    (["x", fourier(2), chirp([[0.5]])], "token dimension 2 does not match state dimension 1"),
    # a Fourier token on a flat term fails before the non-token is reached
    (["x", fourier(1)], "matrix action is singular on this state"),
])
def test_word_fails_at_the_per_token_route_token(word, message):
    rng = np.random.default_rng(45)
    flat = GaussianState(1, 1.0, [[0.0]], [0.3], allow_degenerate=True)
    for f in ([random_state(rng, 1), flat], []):
        want = _outcome(lambda: _per_token_word(word, f))
        assert _outcome(lambda: apply_word(word, f)) == want
        if f:
            assert want[1] == message
    # on an empty sum only the token types are checked
    assert apply_word([fourier(2), chirp([[0.5]])], []) == []
    with pytest.raises(ValidationError, match="generator token"):
        apply_word([fourier(1), "x"], [])


def test_intertwining_equals_two_call_form():
    # the check pushes shift(f) + f through one stack; the two separate
    # word applications give the same parameters and the same residual
    rng = np.random.default_rng(46)
    for k in range(40):
        d = 1 + k % 3
        word = random_word(rng, d, max_len=5)
        f = [random_state(rng, d) for _ in range(int(rng.integers(1, 4)))]
        z, tau = rng.normal(size=2 * d), float(rng.normal())
        left = apply_word(word, shift(f, z, tau))
        both = apply_word(word, shift(f, z, tau) + f)
        alone = apply_word(word, f)
        assert len(both) == 2 * len(f)
        for g, h in zip(both, left + alone):
            assert _parameter_gap(g, h) <= 1e-14
        Sz = word_to_matrix(word) @ z
        right = complex_shift(alone, Sz[:d], Sz[d:], tau)
        res = max(max(np.linalg.norm(lt.Q - rt.Q) / max(1.0, np.linalg.norm(lt.Q)),
                      np.linalg.norm(lt.b - rt.b) / max(1.0, np.linalg.norm(lt.b)),
                      abs(lt.c - rt.c) / max(1.0, abs(lt.c)))
                  for lt, rt in zip(left, right))
        ts = np.linspace(-1.5, 1.5, 7)
        pts = np.concatenate([np.outer(ts, v) for v in (np.ones(d), np.eye(d)[0])], axis=0)
        lv, rv = eval_state(left, pts), eval_state(right, pts)
        res = max(res, float(np.max(np.abs(lv - rv)) / max(1.0, float(np.max(np.abs(lv))))))
        # the residual is itself rounding: equal to rounding
        assert abs(check_intertwining(word, z, tau, f) - res) <= 1e-14


def test_weyl_pairing_equals_two_call_form():
    # the frame acts on f and g in two calls of apply_matrix, which fix one
    # determinant root per matrix: the sides are the two-call formula, for
    # states and for sums
    rng = np.random.default_rng(47)
    for k in range(20):
        d = 1 + k % 2
        V = matrix_polar(word_to_matrix(random_word(rng, d, max_len=5))).U.real
        Z = np.linalg.inv(V) @ atom_matrix(rng.uniform(0.2, 1.5, size=d), np.zeros(d)) @ V
        f, g = random_state(rng, d), random_state(rng, d)
        if k % 4 == 3:
            f, g = [f, random_state(rng, d)], [g]
        V, theta, delta = atomic_decompose(Z)
        rhs = inner_product(apply_word([atom_r(theta), atom_p(delta)], apply_matrix(V, f)),
                            apply_matrix(V, g))
        lhs = inner_product(weyl_symbol_Z(Z), wigner_gaussian(g, f))
        assert weyl_pairing(Z, f, g) == (lhs, rhs)


def test_overflowing_matrix_action_is_a_numerical_error():
    # A + BQ overflows on this finite state: no numpy warning (the suite
    # turns RuntimeWarning into an error) and no claim about the ground state
    f = GaussianState(1, 1, [[1e200 + 1e200j]], [0])
    with pytest.raises(NumericalError, match="^matrix action overflows on this state$") as e:
        apply_token(multiplier([[1e200]]), f)
    assert type(e.value) is NumericalError
    with pytest.raises(NumericalError, match="overflows"):
        apply_matrix(token_matrix(multiplier([[1e200]])), [standard_gaussian(1), f])


def test_decay_margin_is_relative_below_size_one():
    # Q' = -1/Q = (-1 + i) / 2e200 is flat but decays
    g = apply_token(fourier(1), GaussianState(1, 1, [[1e200 + 1e200j]], [0]))
    assert abs(g.Q[0, 0] - (-5e-201 + 5e-201j)) <= 1e-15 * 5e-201
    assert GaussianState(1, 1, [[1e-20j]], [0]).Q[0, 0] == 1e-20j
    # Q = 0 does not decay: refused unless allowed to be degenerate
    with pytest.raises(ValidationError, match=r"^Im Q must be positive definite \(decaying state\)$"):
        GaussianState(1, 1, [[0]], [0])
    assert GaussianState(2, 1, np.zeros((2, 2)), [0, 0], allow_degenerate=True).d == 2
    # above size one the margin is relative to Im Q as before: a large real
    # part does not raise the bar for a small imaginary one
    assert GaussianState(1, 1, [[1e12 + 1e-3j]], [0]).Q[0, 0] == 1e12 + 1e-3j
    # |Q_ij| beyond the float range lifts no cap and prints no warning
    assert GaussianState(1, 1, [[1.5e308 + 1.5e308j]], [0]).Q[0, 0].imag == 1.5e308
    with pytest.raises(ValidationError, match="positive definite"):
        GaussianState(2, 1, np.diag([1e-3j, 1e-20j]), [0, 0])


@pytest.mark.parametrize("z, tau", [([1.0, np.nan], 0.0), ([np.inf, 0.0], 0.0),
                                    ([1.0, 0.0], np.inf), ([1.0, 0.0], np.nan)])
def test_shift_rejects_nonfinite_parameters(z, tau):
    # a NaN shift used to report a perfect residual of 0.0
    g = standard_gaussian(1)
    with pytest.raises(ValidationError):
        shift(g, z, tau)
    with pytest.raises(ValidationError):
        complex_shift(g, [z[0]], [z[1]], tau)
    with pytest.raises(ValidationError):
        check_intertwining([fourier(1)], z, tau, g)


@pytest.mark.parametrize("z", [[1e200, 0.0], [0.0, 1e200], [30.0, 0.0], [0.0, 1e308]])
def test_intertwining_residual_that_overflows_is_numerical_error(z):
    # these ended in numpy overflow warnings and a residual of 0.0, or (at
    # [30, 0]) in a raw OverflowError from abs of a huge complex amplitude;
    # the suite turns any RuntimeWarning into a failure
    with pytest.raises(NumericalError):
        check_intertwining([fourier(1)], z, 0.0, standard_gaussian(1))


def test_amplitude_beyond_exp_range_stays_finite():
    # exp(phase) alone is e^804 and overflowed: this returned c = inf - inf i
    # with a RuntimeWarning, where the true amplitude is about 1e49; the
    # b = 16j and b = 15j amplitudes differ by exp(pi (16^2 - 15^2))
    big = GaussianState(1, 1e-300, [[1j]], [16j])
    near = GaussianState(1, 1e-300, [[1j]], [15j])
    out = apply_token(fourier(1), big)
    want = apply_token(fourier(1), near).c * np.exp(31 * np.pi)
    assert abs(out.c - want) <= 1e-12 * abs(want)
    assert 1e48 < abs(out.c) < 1e50
    # in a stack each term takes its own route: the in-range term is unchanged
    both = apply_token(fourier(1), [near, big])
    assert both[0].c == apply_token(fourier(1), near).c and both[1].c == out.c


def test_amplitude_that_overflows_is_numerical_error():
    with pytest.raises(NumericalError, match="amplitude"):
        apply_token(fourier(1), GaussianState(1, 1.0, [[1j]], [16j]))


def test_shift_that_overflows_is_numerical_error():
    with pytest.raises(NumericalError, match="overflows"):
        shift(standard_gaussian(1), [1e308, 1e308], 0.0)
    with pytest.raises(NumericalError, match="overflows"):
        complex_shift(standard_gaussian(1), [1e200j], [0.0])


@pytest.mark.parametrize("Q", [[[1 + 1j, np.inf], [np.inf, 2]], [[1j, np.inf], [-np.inf, 1j]],
                               [[np.nan, 0], [0, 1j]], [[complex(np.inf, np.inf), 0], [0, 1j]]])
@pytest.mark.parametrize("degenerate", [True, False])
def test_state_with_infinite_entry_is_rejected_without_warning(Q, degenerate):
    # sym_part halved its input before its errstate guard, so an inf entry
    # warned "invalid value encountered in divide" instead of being rejected
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            GaussianState(2, 1, Q, [0, 0], allow_degenerate=degenerate)


def test_rescale_past_the_float_range_is_numerical_error():
    # E^T Q E overflowed with a RuntimeWarning, and the state then failed
    # its decay test as a ValidationError
    with pytest.raises(NumericalError, match="rescaled state"):
        apply_word([rescale([[1e160]])], standard_gaussian(1))
    with pytest.raises(NumericalError, match="rescaled state"):
        apply_word([rescale(1e200 * np.eye(2))], GaussianState(2, 1.0, 1j * np.eye(2), [1.0, 0]))


def test_wigner_amplitude_past_the_float_range_is_numerical_error():
    # the product of the two amplitudes overflowed with a RuntimeWarning
    with pytest.raises(NumericalError, match="amplitude"):
        wigner_gaussian(GaussianState(1, 1e160, [[1j]], [0.0]))


@pytest.mark.parametrize("c", [1e160, 1e300, 1e-200])
def test_norm_factors_out_the_amplitude(c):
    # |c|^2 left the float range (norm returned inf with two warnings, or 0
    # for the tiny amplitude) though the norm c 2^(-1/4) is a float
    f = GaussianState(1, c, [[1j]], [0.0])
    assert abs(norm(f) - c * 2.0 ** -0.25) <= 1e-15 * c
    assert abs(norm([f, f]) - 2 * c * 2.0 ** -0.25) <= 1e-15 * c


def test_gaussian_integral_past_the_float_range_is_numerical_error():
    # the exponential ran unguarded: the integral returned inf+nanj after two
    # RuntimeWarnings, and the norm warned three times before it raised.
    # The norm is 2^(-1/4), in range, but c = exp(-121 pi) underflows and
    # its integral overflows: that needs logarithmic amplitudes
    with pytest.raises(NumericalError, match="^Gaussian integral overflows$"):
        gaussian_integral([[2]], [-22j])
    with pytest.raises(NumericalError, match="^Gaussian integral overflows$"):
        norm(shift(standard_gaussian(1), [11, 0]))
    # a stack fails as a whole when one member leaves the range
    with pytest.raises(NumericalError):
        gaussian_integral([[[2]], [[2]]], [[0j], [-22j]])


def test_inner_product_past_the_float_range_is_numerical_error():
    f = GaussianState(1, 1e160, [[1j]], [0.0])
    with pytest.raises(NumericalError, match="inner product"):
        inner_product(f, f)
    # one huge and one tiny slot: the product is in range
    g = GaussianState(1, 1e-160, [[1j]], [0.0])
    assert abs(inner_product(f, g) - 2.0 ** -0.5) <= 1e-15


def test_factored_inner_product_matches_the_plain_sum(rng):
    # sum over pairs of c_f conj(c_g) times the Gaussian integral, unfactored
    for d in (1, 2, 3):
        f = [random_state(rng, d) for _ in range(3)]
        g = [random_state(rng, d) for _ in range(2)]
        want = sum(a.c * np.conj(b.c) * gaussian_integral(-1j * (a.Q - np.conj(b.Q)),
                                                          a.b - np.conj(b.b))
                   for a in f for b in g)
        assert abs(inner_product(f, g) - want) <= 1e-14 * abs(want)
        assert inner_product(f, []) == 0 and norm([]) == 0.0
