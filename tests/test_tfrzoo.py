"""Covariant quadratic representations: classification, kernels, windows."""
import numpy as np
import pytest

from metaplectic.errors import (ModelError, UnsupportedSingularBlock,
                                ValidationError)
from metaplectic.gausscalc import (GaussianState, apply_word, eval_state,
                                   inner_product, norm, shift,
                                   standard_gaussian, wigner_gaussian)
from metaplectic.gridlab import GridSpec, grid_stft, grid_wigner, sample
from metaplectic.sympcore import (chirp, fourier, is_symplectic, multiplier,
                                  rescale)
from metaplectic.tfrzoo import (SplitWord, TFRSpec, build_covariant,
                                classify_pure_spectrogram,
                                classify_spectrogram, cohen_kernel,
                                conjugation_symmetric, is_covariant,
                                split_to_word, symbol_exponent, tfr_gaussian,
                                tfr_grid, wigner_operator)

from conftest import random_state, rel_l2, rel_values

I1 = np.eye(1)


def wigner_spec():
    return build_covariant(I1 / 2, np.zeros((1, 1)), np.zeros((1, 1)))


def husimi_spec():
    return build_covariant(I1 / 2, -1j * I1 / 2, 1j * I1 / 2)


def skew_spec():
    # genuinely complex spectrogram example with non-real windows
    A11 = np.array([[0.4 + 0.1j]])
    A13 = np.array([[0.3 - 0.6j]])
    A21 = -(A11.T @ np.linalg.inv(A13) @ (A11 - I1))
    return build_covariant(A11, A13, A21)


def test_build_covariant_structure():
    spec = husimi_spec()
    assert spec.A.shape == (4, 4)
    assert is_symplectic(spec.A)
    ok, clauses = is_covariant(spec)
    assert ok and all(clauses.values())


def test_build_covariant_rejects_asymmetric():
    with pytest.raises(ValidationError):
        build_covariant(I1 / 2, np.array([[0.0, 1.0], [0.0, 0.0]]),
                        np.zeros((2, 2)))


def test_build_covariant_rejects_a_matrix_that_fails_the_symplectic_test():
    # the pattern is symplectic by construction, but an entry of 1e200
    # overflows the test; it stays a validation error, not a failed
    # positivity test
    with pytest.raises(ValidationError, match="^covariant representation matrix is not "
                                              "symplectic within tolerance 1e-10$"):
        build_covariant(1e200 * I1, np.zeros((1, 1)), np.zeros((1, 1)))


def test_build_covariant_rejects_bad_signature():
    # Im B must be negative semidefinite; A13 = +i/2 flips it
    with pytest.raises(ValidationError):
        build_covariant(I1 / 2, 1j * I1 / 2, -1j * I1 / 2)


def test_is_covariant_rejects_off_pattern():
    spec = wigner_spec()
    M = spec.A.copy()
    M[2, 0] = 0.1
    bad = TFRSpec(1, M)
    ok, clauses = is_covariant(bad)
    assert not ok
    assert not clauses["blocks_match_pattern"]


def test_symbol_exponent_husimi():
    B = symbol_exponent(husimi_spec())
    assert abs(np.linalg.det(B) + 0.25) < 1e-14
    assert np.allclose(np.linalg.inv(B), 2j * np.eye(2), atol=1e-13)


def test_cohen_kernel_types():
    assert cohen_kernel(wigner_spec())["type"] == "delta"
    ker = cohen_kernel(husimi_spec())
    assert ker["type"] == "gaussian"
    st = ker["state"]
    assert abs(st.c - 2.0) < 1e-13
    assert np.allclose(st.Q, 2j * np.eye(2), atol=1e-13)
    # boundary signature: real nonzero symbol exponent is a pure chirp kernel
    ch = cohen_kernel(build_covariant(I1 / 2, 0.5 * I1, np.zeros((1, 1))))
    assert ch["type"] == "chirp"


def test_wigner_spec_reproduces_wigner(rng):
    f, g = random_state(rng, 1), random_state(rng, 1)
    T = tfr_gaussian(wigner_spec(), f, g)
    W = wigner_gaussian(f, g)
    z = rng.normal(size=(8, 2))
    assert rel_values(eval_state(T, z), eval_state(W, z)) < 1e-12


def test_husimi_of_ground_state():
    T = tfr_gaussian(husimi_spec(), standard_gaussian(1))
    assert abs(T.c - 2.0 ** -0.5) < 1e-13
    assert np.allclose(T.Q, 1j * np.eye(2), atol=1e-12)


def test_husimi_is_positive_smoothing(rng):
    f = random_state(rng, 1)
    T = tfr_gaussian(husimi_spec(), f)
    z = rng.normal(size=(9, 2))
    vals = eval_state(T, z)
    assert np.max(np.abs(vals.imag)) < 1e-12 * np.max(np.abs(vals))
    assert np.min(vals.real) > 0


def test_tfr_grid_matches_gaussian_route(rng):
    spec = GridSpec(1, 512, 1 / np.sqrt(512))
    f, g = random_state(rng, 1), random_state(rng, 1)
    for rep in (husimi_spec(), skew_spec()):
        T = tfr_grid(rep, sample(f, spec), sample(g, spec))
        assert rel_l2(T, tfr_gaussian(rep, f, g)) < 1e-8


def test_tfr_grid_without_symbol_is_grid_wigner(rng):
    spec = GridSpec(1, 64, 1 / 8.0)
    f, g = sample(random_state(rng, 1), spec), sample(random_state(rng, 1), spec)
    for other in (g, None):
        assert np.array_equal(tfr_grid(wigner_spec(), f, other).values,
                              grid_wigner(f, other).values)


def test_tfr_grid_rejects_a_symbol_like_multiplier(rng):
    # a representation matrix outside the covariant cone (Im B >= 0), whose
    # symbol the multiplier token rejects: the grid route rejects the spec
    # before it reaches the token, with the covariance error of cohen_kernel
    bad = TFRSpec(1, husimi_spec().A.conj())
    f = sample(random_state(rng, 1), GridSpec(1, 64, 1 / 8.0))
    with pytest.raises(ValidationError):
        multiplier(symbol_exponent(bad))
    with pytest.raises(ValidationError) as kernel:
        cohen_kernel(bad)
    with pytest.raises(ValidationError) as grid:
        tfr_grid(bad, f)
    assert str(grid.value) == str(kernel.value)


def test_both_routes_reject_an_off_pattern_spec(rng):
    # tfr_gaussian and tfr_grid read only the symbol exponent, so they
    # returned results for a matrix off the covariant block pattern
    A = husimi_spec().A.copy()
    A[3, 0] += 0.7
    bad = TFRSpec(1, A)
    assert not is_covariant(bad)[0]
    f = random_state(rng, 1)
    with pytest.raises(ValidationError, match="^not a covariant representation: ") as kernel:
        cohen_kernel(bad)
    with pytest.raises(ValidationError) as closed:
        tfr_gaussian(bad, f)
    with pytest.raises(ValidationError) as grid:
        tfr_grid(bad, sample(f, GridSpec(1, 64, 1 / 8.0)))
    assert str(closed.value) == str(grid.value) == str(kernel.value)


def test_husimi_diagonal_is_spectrogram(rng):
    # the Husimi transform of f is |V_phi f|^2 with unit-norm Gaussian window
    spec = GridSpec(1, 512, 1 / np.sqrt(512))
    f = random_state(rng, 1)
    T = tfr_grid(husimi_spec(), sample(f, spec), sample(f, spec))
    phi = GaussianState(1, 2.0 ** 0.25, [[1j]], [0.0])
    V = grid_stft(sample(f, spec), sample(phi, spec))
    diff = T.values - np.abs(V.values) ** 2
    assert np.linalg.norm(diff) < 1e-8 * np.linalg.norm(np.abs(V.values) ** 2)


def test_classify_spectrogram_husimi():
    rep = classify_spectrogram(husimi_spec())
    assert rep["spectrogram"] and all(rep["clauses"].values())
    assert abs(rep["kappa"] - np.sqrt(2)) < 1e-13
    for w in (rep["window_f"], rep["window_g"]):
        assert abs(abs(w.c) - 2.0 ** 0.25) < 1e-12
        assert np.allclose(w.Q, 1j * I1, atol=1e-12)


def test_classify_spectrogram_skew_windows():
    rep = classify_spectrogram(skew_spec())
    assert rep["spectrogram"] and all(rep["clauses"].values())
    assert abs(rep["kappa"] - (1.1882855966334847 - 0.2805161774893976j)) < 1e-13
    assert np.allclose(rep["window_f"].Q, [[-2.0 / 15 + 0.6j]], atol=1e-12)
    assert np.allclose(rep["window_g"].Q, [[8.0 / 15 + 11.0j / 15]], atol=1e-12)


def test_spectrogram_factorization_identity(rng):
    # the representation of a pair factors through the two windows:
    # T(f,g)(z) = V_{w_f} f(z) conj(V_{w_g} g(z)) pointwise
    rep = classify_spectrogram(skew_spec())
    wf, wg = rep["window_f"], rep["window_g"]
    f, g = random_state(rng, 1), random_state(rng, 1)
    T = tfr_gaussian(skew_spec(), f, g)

    def stft_closed(fst, w, x, xi):
        return np.exp(-1j * np.pi * x * xi) * inner_product(fst, shift(w, [x, xi]))

    for x, xi in ((0.0, 0.0), (0.3, 0.7), (-0.5, 0.2), (1.0, -1.0)):
        lhs = eval_state(T, np.array([x, xi]))
        rhs = stft_closed(f, wf, x, xi) * np.conj(stft_closed(g, wg, x, xi))
        assert abs(lhs - rhs) < 1e-12


def test_classify_spectrogram_rejects_singular_block():
    with pytest.raises(UnsupportedSingularBlock):
        classify_spectrogram(wigner_spec())


def test_classify_pure_spectrogram():
    rep = classify_pure_spectrogram(husimi_spec())
    assert rep["pure"] and all(rep["clauses"].values())
    assert abs(abs(rep["window"].c) - 2.0 ** 0.25) < 1e-12
    rep = classify_pure_spectrogram(skew_spec())
    assert not rep["pure"]
    assert not rep["clauses"]["re_a11_half"]


def test_conjugation_symmetric_flags():
    assert conjugation_symmetric(wigner_spec())
    assert conjugation_symmetric(husimi_spec())
    assert not conjugation_symmetric(skew_spec())
    ok, detail = conjugation_symmetric(husimi_spec(), detail=True)
    assert ok and detail["column_pattern"] and detail["transition_tilde_fixed"]


@pytest.mark.parametrize("eps", [1e-10, 6e-10, 1e-9, 2e-9])
def test_conjugation_symmetric_near_margin_gives_a_verdict(eps):
    # Husimi with Re A11 moved off 1/2: both defects grow with eps and cross
    # the threshold between 6e-10 and 2e-9
    spec = build_covariant(I1 / 2 + eps, -1j * I1 / 2, 1j * I1 / 2)
    ok, detail = conjugation_symmetric(spec, detail=True)
    assert set(detail) == {"column_pattern", "transition_tilde_fixed"}
    assert ok == detail["column_pattern"]
    if eps < 1e-9:
        assert ok
    if eps > 1e-9:
        assert not ok


def test_split_word_validation():
    with pytest.raises(ValidationError):
        wigner_operator(SplitWord(u1=[], theta=np.array([0.5]),
                                  delta=np.array([0.5]), u2=[]))
    with pytest.raises(ValidationError):
        wigner_operator(SplitWord(u1=[chirp(1j * I1)], theta=np.array([0.5]),
                                  delta=np.zeros(1), u2=[]))


def test_wigner_operator_matches_conjugated_pair(rng):
    f, g = random_state(rng, 1), random_state(rng, 1)
    for k in range(3):
        u1 = [chirp(np.array([[rng.normal()]])),
              rescale(np.array([[np.exp(0.3 * rng.normal())]]))]
        u2 = [fourier(1)] if k % 2 else []
        th, de = np.zeros(1), np.zeros(1)
        (th if k % 2 else de)[0] = 0.5 + 0.3 * rng.random()
        split = SplitWord(u1=u1, theta=th, delta=de, u2=u2)
        word = split_to_word(split)
        K = wigner_operator(split)
        lhs = apply_word(K, wigner_gaussian(f, g))
        rhs = wigner_gaussian(apply_word(word, f), apply_word(word, g))
        z = rng.normal(size=(8, 2))
        lv, rv = eval_state(lhs, z), eval_state(rhs, z)
        j = int(np.argmax(np.abs(rv)))
        s = lv[j] / rv[j]
        assert abs(abs(s) - 1.0) < 1e-10
        assert rel_values(lv, s * rv) < 1e-10


def test_wigner_operator_real_word_is_point_transform(rng):
    # a real-parameter word gives the classical substitution on phase space:
    # identity holds exactly, not only projectively
    split = SplitWord(u1=[rescale(np.array([[2.0]]))], theta=np.zeros(1),
                      delta=np.zeros(1), u2=[rescale(np.array([[1.5]]))])
    word = split_to_word(split)
    K = wigner_operator(split)
    f, g = random_state(rng, 1), random_state(rng, 1)
    lhs = apply_word(K, wigner_gaussian(f, g))
    rhs = wigner_gaussian(apply_word(word, f), apply_word(word, g))
    z = rng.normal(size=(8, 2))
    lv, rv = eval_state(lhs, z), eval_state(rhs, z)
    assert min(rel_values(lv, rv), rel_values(lv, -rv)) < 1e-11
