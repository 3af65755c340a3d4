"""Structure of complex symplectic matrices, generator words, decompositions."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metaplectic.errors import (DecompositionError, NotConjugationSymmetric,
                                NotTriangular, NumericalError, ValidationError)
from metaplectic.sympcore import (atom_matrix, atom_p, atom_r, atomic_decompose,
                                  blocks, chirp, classify_block_triangular,
                                  classify_conjugation_commuting,
                                  classify_positivity, factor_R_theta,
                                  fourier, from_blocks, inverse_symplectic,
                                  is_symplectic, matrix_polar, multiplier,
                                  negligible, omega, positivity_matrix,
                                  random_word, rescale, require_symplectic,
                                  scaled_norms,
                                  schur_psd_test, semidefinite, sharp, sym_part,
                                  symplectic_svd, tensor_interleave, tilde,
                                  tilde_word, token_matrix, word_to_matrix)


def rand_word_matrix(seed, d=2, max_len=6):
    rng = np.random.default_rng(seed)
    return word_to_matrix(random_word(rng, d, max_len=max_len))


# ---------------------------------------------------------------- basic form

def test_omega_antisymmetric():
    for d in (1, 2, 3):
        J = omega(d)
        assert np.array_equal(J.T, -J)
        assert np.allclose(J @ J, -np.eye(2 * d))


def test_blocks_round_trip(rng):
    S = rand_word_matrix(3, d=2)
    A, B, C, D = blocks(S)
    assert np.array_equal(from_blocks(A, B, C, D), S)


def test_is_symplectic_rejects_overflow():
    # det = 1e308, but S^T J S and ||S||^2 overflow
    assert not is_symplectic(np.array([[1e308, 1e308], [0.0, 1.0]]))


def test_require_symplectic_rejects():
    with pytest.raises(ValidationError):
        require_symplectic(2.0 * np.eye(2))
    with pytest.raises(ValidationError):
        require_symplectic(np.eye(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_words_are_symplectic_det_one(seed, d):
    S = rand_word_matrix(seed, d=d)
    assert is_symplectic(S)
    assert abs(np.linalg.det(S) - 1.0) < 1e-8


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tilde_is_involution(seed):
    S = rand_word_matrix(seed)
    assert np.allclose(tilde(tilde(S)), S)
    assert is_symplectic(tilde(S))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_sharp_antihomomorphism(seed1, seed2):
    S1 = rand_word_matrix(seed1)
    S2 = rand_word_matrix(seed2)
    assert np.allclose(sharp(S1 @ S2), sharp(S2) @ sharp(S1))


def test_sharp_fixes_words_elementwise():
    # sharp inverts each generator's parameter sign pattern; on the real
    # group it coincides with the symplectic inverse transpose story, so
    # sharp(S) stays symplectic and sharp is an involution
    S = rand_word_matrix(11, d=1)
    assert is_symplectic(sharp(S))
    assert np.allclose(sharp(sharp(S)), S)


def test_inverse_symplectic_matches_inv():
    S = rand_word_matrix(5, d=3)
    assert np.allclose(inverse_symplectic(S), np.linalg.inv(S), atol=1e-9)


def test_tensor_interleave_block_structure():
    S1 = rand_word_matrix(7, d=1)
    S2 = rand_word_matrix(8, d=2)
    T = tensor_interleave(S1, S2)
    assert T.shape == (6, 6)
    assert is_symplectic(T)
    # the d=1 factor occupies slot 0 of the x and xi coordinates
    A, B, C, D = blocks(T)
    a1, b1, c1, d1 = blocks(S1)
    assert np.allclose(A[0, 0], a1[0, 0])
    assert np.allclose(B[0, 0], b1[0, 0])


def test_tensor_interleave_is_permuted_direct_sum():
    # the joint stacked coordinates (x1, x2, xi1, xi2) permute the
    # coordinates (x1, xi1, x2, xi2) on which the sum is block diagonal
    from scipy.linalg import block_diag

    S1, S2 = rand_word_matrix(3, d=2), rand_word_matrix(4, d=1)
    perm = [0, 1, 4, 2, 3, 5]  # joint slot -> slot in (x1, xi1, x2, xi2)
    want = block_diag(S1, S2)[np.ix_(perm, perm)]
    assert np.array_equal(tensor_interleave(S1, S2), want)


# ------------------------------------------------------------------- tokens

def test_token_matrices_symplectic():
    rng = np.random.default_rng(0)
    Qs = rng.normal(size=(2, 2))
    Q = (Qs + Qs.T) / 2 + 1j * np.eye(2)
    toks = [fourier(2), chirp(Q), rescale(np.diag([2.0, 0.5]), maslov=1),
            multiplier(-1j * np.eye(2)), atom_r([0.3, 0.0]), atom_p([0.0, 0.7])]
    for t in toks:
        assert is_symplectic(token_matrix(t)), t.op


def test_huge_finite_parameters_symmetrize_without_overflow():
    # runs under the suite's error::RuntimeWarning filter: neither the
    # defect norms nor the symmetrization may overflow
    big = 1e308 + 1e308j
    assert token_matrix(chirp([[big]]))[1, 0] == big
    M = np.array([[1e308, 1.7e308], [1.7e308, -1e308]])
    assert np.array_equal(sym_part(M, "M"), M)
    with pytest.raises(ValidationError, match="not symmetric"):
        sym_part(np.array([[1e308, 1.7e308], [-1.7e308, 1e308]]), "M")
    with pytest.raises(ValidationError, match="imaginary part"):
        chirp([[1e308 - 1e308j]])


def test_stacked_sym_part_and_semidefinite_judge_each_member():
    # a stack passes only if every member passes alone; a nan member (which
    # passes alone) must not mask an asymmetric one after it
    rng = np.random.default_rng(5)
    good = [(lambda G: (G + G.T) / 2)(rng.normal(size=(2, 2))) for _ in range(2)]
    nan = np.array([[np.nan, 1.0], [1.0, 0.0]])
    skew = np.array([[1.0, 2.0], [-2.0, 1.0]])
    stack = np.array([good[0], nan, skew, good[1]])
    with pytest.raises(ValidationError) as alone:
        sym_part(skew, "M")
    with pytest.raises(ValidationError) as stacked:
        sym_part(stack, "M")
    assert str(stacked.value) == str(alone.value)
    out = sym_part(np.array(good), "M")
    assert all(np.array_equal(o, sym_part(g, "M")) for o, g in zip(out, good))
    pd = [np.eye(2), np.diag([1.0, 1e-3])]
    assert semidefinite(np.array(pd), 1e-14, definite=True)
    assert not semidefinite(np.array(pd + [np.diag([1.0, -1e-3])]), 1e-14)
    # the size of the object H came from caps the margin: relative below one
    tiny = np.diag([1e-20, 1e-30])
    assert semidefinite(tiny, 1e-14, definite=True) is False
    assert semidefinite(tiny, 1e-14, definite=True, size=1e-20) is True
    assert semidefinite(tiny, 1e-9, definite=True, size=1e-20) is False
    assert semidefinite(np.array([tiny, 2 * np.eye(2)]), 1e-14, definite=True,
                        size=np.array([1e-20, 2.0]))
    # above size one the margin is relative to H, whatever the size
    assert semidefinite(np.diag([1e3, 1e-10]), 1e-14, definite=True, size=1e12)


def test_chirp_requires_symmetric():
    with pytest.raises(ValidationError):
        chirp(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rescale_requires_invertible():
    with pytest.raises(ValidationError):
        rescale(np.zeros((1, 1)))


def test_rescale_of_huge_factor_is_quiet():
    # the Frobenius norm of a 1e300 block overflows; the verdict needs no warning
    tok = rescale(np.array([[1e300]]))
    assert tok.mat == ((1e300,),)


def test_rescale_of_huge_complex_factor_is_not_real():
    # both Frobenius norms of these blocks overflow to inf unless scaled
    for E in ([[1e300 + 1e300j]], [[1e300j]]):
        with pytest.raises(ValidationError, match="must be real"):
            rescale(np.array(E))


def test_atoms_require_nonnegative():
    with pytest.raises(ValidationError):
        atom_r([-0.1])
    with pytest.raises(ValidationError):
        atom_p([-0.5])


@pytest.mark.parametrize("make", [
    lambda: atom_r([np.nan]), lambda: atom_p([np.inf]), lambda: atom_r([]),
    lambda: atom_p([[0.5]]), lambda: rescale([[np.nan]]), lambda: rescale([[1.0, 2.0]]),
    lambda: chirp([[np.inf]]), lambda: multiplier(np.zeros((0, 0))),
], ids=["atom_r-nan", "atom_p-inf", "atom_r-empty", "atom_p-nested", "rescale-nan",
        "rescale-rectangular", "chirp-inf", "multiplier-empty"])
def test_token_factories_reject_nonfinite_and_empty(make):
    with pytest.raises(ValidationError):
        make()


def test_word_order_first_token_acts_last():
    Q = np.array([[0.7]])
    E = np.array([[2.0]])
    S = word_to_matrix([chirp(Q), rescale(E)])
    assert np.allclose(S, token_matrix(chirp(Q)) @ token_matrix(rescale(E)))


def test_fourier_matrix_is_rotation():
    J = omega(2)
    F = token_matrix(fourier(2))
    assert np.allclose(F, J.T) or np.allclose(F, J)
    assert np.allclose(np.linalg.matrix_power(F, 4), np.eye(4))


def test_atom_matrix_matches_factorization():
    theta = np.array([0.8])
    direct = atom_matrix(theta, np.zeros(1))
    word = factor_R_theta(theta)
    assert np.allclose(word_to_matrix(word), direct, atol=1e-12)


def _factory_word(theta):
    """The rotation-atom factorization built by the public factories, which
    validate every token: the reference for the direct construction."""
    th = atom_r(theta).vector_param()
    d = th.size
    T = 1j * np.diag(np.tanh(th))
    with np.errstate(over="ignore"):
        E = -np.diag(1.0 / np.cosh(th))
    return [chirp(T), rescale(E, maslov=d), fourier(d), chirp(T), fourier(d)]


def _outcome(make, theta):
    try:
        return make(theta)
    except ValidationError as e:
        return type(e), str(e)


def test_factor_R_theta_is_the_factory_word():
    # the tokens are built directly; the word, and every rejection, must be
    # the factories' own.  1/cosh theta crosses the rescale verdict 1e-10
    # near theta = 23.72, cosh overflows past 710.5, and a subnormal tanh is
    # rounded by the chirp factory's symmetrization
    rng = np.random.default_rng(19)
    thetas = [[0.0], [0.0, 0.0, 0.0], [800.0], [0.3, 800.0], [5e-324], [3e-308, 0.4],
              [-1e-13], [-0.1], [np.nan], [np.inf], [], [[0.2]]]
    thetas += [[t] for t in np.linspace(23.70, 23.74, 21)]
    for _ in range(300):
        d = int(rng.integers(1, 4))
        thetas.append(rng.uniform(-0.2, 1.0, d) * 10.0 ** rng.uniform(-3, 3, d))
    verdicts = set()
    for theta in thetas:
        got, want = _outcome(factor_R_theta, theta), _outcome(_factory_word, theta)
        assert got == want, theta
        verdicts.add(want[1] if isinstance(want, tuple) else "word")
    assert {"word", "rescale matrix must be invertible",
            "atom_r parameters must be nonnegative"} <= verdicts


def test_atom_r_matrix_past_float_range_is_numerical_error():
    # cosh and sinh overflowed with RuntimeWarnings and the matrix failed
    # later as "matrix must be finite"
    assert np.all(np.isfinite(token_matrix(atom_r([710.0, 0.5]))))
    for theta in ([800.0], [0.5, 711.0]):
        with pytest.raises(NumericalError, match="atom_r"):
            token_matrix(atom_r(theta))
        with pytest.raises(NumericalError, match="atom_r"):
            word_to_matrix([fourier(len(theta)), atom_r(theta)])


def test_word_matrix_past_float_range_is_numerical_error():
    # each token's matrix is finite, their product is not; the product
    # raised overflow and invalid RuntimeWarnings before the caller failed
    assert np.all(np.isfinite(token_matrix(atom_r([700.0]))))
    with pytest.raises(NumericalError, match="^word matrix leaves the floating-point range$"):
        word_to_matrix([atom_r([700.0]), atom_r([700.0])])


def test_atom_matrix_disjoint_atoms_commute():
    th = np.array([0.5, 0.0])
    de = np.array([0.0, 1.2])
    S1 = word_to_matrix([atom_r(th), atom_p(de)])
    S2 = word_to_matrix([atom_p(de), atom_r(th)])
    assert np.allclose(S1, S2)
    assert np.allclose(S1, atom_matrix(th, de))


def test_tilde_word_reverses_conjugation():
    rng = np.random.default_rng(21)
    word = random_word(rng, 1, max_len=5)
    St = word_to_matrix(tilde_word(word))
    assert np.allclose(St, tilde(word_to_matrix(word)), atol=1e-10)


# --------------------------------------------------------------- positivity

def test_identity_classifies_real():
    rep = classify_positivity(np.eye(4))
    assert rep.klass == "Real"
    assert rep.positive
    assert rep.min_eigenvalue is not None


def test_strict_contraction_classifies_strictly_positive():
    rep = classify_positivity(token_matrix(chirp(1j * np.eye(1))))
    assert rep.klass in ("StrictlyPositive", "Positive")
    assert rep.positive


def test_wrong_sign_chirp_not_positive():
    # lower shear with the inadmissible sign of the imaginary part
    S = np.array([[1.0, 0.0], [-1.0j, 1.0]])
    rep = classify_positivity(S)
    assert rep.klass == "NotPositive"
    assert not rep.positive


def test_non_symplectic_reported():
    rep = classify_positivity(2.0 * np.eye(2))
    assert rep.klass == "NotSymplectic"
    assert rep.min_eigenvalue is None


def test_positivity_matrix_hermitian():
    S = rand_word_matrix(13, d=2)
    M = positivity_matrix(S)
    assert np.allclose(M, M.conj().T)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_random_words_positive(seed, d):
    rep = classify_positivity(rand_word_matrix(seed, d=d))
    assert rep.klass in ("Positive", "StrictlyPositive", "Real")


def test_schur_psd_test_matches_eigen_classification():
    # positive words and their inverses, which are mostly not positive
    rng = np.random.default_rng(70)
    verdicts = set()
    for _ in range(100):
        S = word_to_matrix(random_word(rng, int(rng.integers(1, 4)), max_len=6))
        for T in (S, inverse_symplectic(S)):
            psd, cert = schur_psd_test(positivity_matrix(T))
            assert cert["agrees"], cert
            assert psd == classify_positivity(T).positive
            verdicts.add(psd)
    assert verdicts == {True, False}


# ------------------------------------------------------------ decompositions

def test_matrix_polar_structure():
    # Z is of exponential type: sharp(Z) = Z, J Im Z >= 0 and a spectrum in
    # the open right half plane.  Its eigenvalues are real in exact
    # arithmetic, but a nearly defective pair splits off the axis by about
    # the square root of the rounding, so Im eig Z is not a test of Z
    rng = np.random.default_rng(31)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        S = word_to_matrix(random_word(rng, d, max_len=6))
        pol = matrix_polar(S)
        Z, nZ = pol.Z, np.linalg.norm(pol.Z)
        assert np.linalg.norm(S - pol.U @ Z) <= 1e-9 * np.linalg.norm(S)
        assert np.linalg.norm(pol.U.imag) <= 1e-9
        assert np.linalg.norm(sharp(Z) - Z) <= 1e-12 * nZ
        P = omega(d) @ Z.imag
        assert np.linalg.eigvalsh((P + P.T) / 2)[0] >= -1e-12 * nZ
        assert np.min(np.linalg.eigvals(Z).real) > 0


def test_matrix_polar_singular_iterate_is_decomposition_error(monkeypatch):
    # a singular real part stops the real iteration with the documented
    # error class, not numpy's LinAlgError
    S = word_to_matrix([chirp([[0.3 + 0.5j]]), fourier(1)])

    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(DecompositionError, match="singular"):
        matrix_polar(S)


def test_atomic_decompose_identity():
    V, theta, delta = atomic_decompose(np.eye(2))
    assert np.allclose(theta, 0) and np.allclose(delta, 0)


def test_atomic_decompose_reconstructs():
    rng = np.random.default_rng(40)
    for _ in range(15):
        d = int(rng.integers(1, 3))
        S = word_to_matrix(random_word(rng, d, max_len=6))
        Z = matrix_polar(S).Z
        V, theta, delta = atomic_decompose(Z)
        rebuilt = np.linalg.inv(V) @ atom_matrix(theta, delta) @ V
        assert np.linalg.norm(rebuilt - Z) <= 1e-7 * max(1.0, np.linalg.norm(Z))
        assert np.all(theta >= -1e-12) and np.all(delta >= -1e-12)
        # each slot carries only one atom type
        assert np.all(np.minimum(theta, delta) <= 1e-8)


def test_atomic_decompose_pure_shear():
    # Z with singular positivity form: a one-parameter Gaussian multiplier
    Z = np.array([[1.0, 0.0], [1.3j, 1.0]])
    V, theta, delta = atomic_decompose(Z)
    rebuilt = np.linalg.inv(V) @ atom_matrix(theta, delta) @ V
    assert np.linalg.norm(rebuilt - Z) <= 1e-9


def test_atomic_decompose_rejects_non_exponential_factor():
    # J Im Z is zero for a real rotation and semidefinite for a positive
    # word with a rotation in front; neither is V^-1 Xi V
    rot = token_matrix(fourier(1)).real
    S = rot @ atom_matrix(np.array([0.5]), np.zeros(1))
    for Z in (rot, S):
        with pytest.raises(DecompositionError):
            atomic_decompose(Z)


def test_symplectic_svd_structure():
    rng = np.random.default_rng(50)
    J = omega(2)
    for _ in range(25):
        S = word_to_matrix(random_word(rng, 2, max_len=6))
        U = matrix_polar(S).U.real
        W, sig, Om = symplectic_svd(U)
        D = np.diag(np.r_[sig, 1.0 / sig])
        assert np.linalg.norm(W @ D @ Om.T - U) <= 1e-8 * max(1.0, np.linalg.norm(U))
        assert np.all(np.diff(sig) <= 1e-12) and np.all(sig >= 1.0 - 1e-12)
        for M in (W, Om):
            assert np.allclose(M.T @ M, np.eye(4), atol=1e-9)
            assert np.allclose(M.T @ J @ M, J, atol=1e-9)



def _orthosymplectic(rng, d):
    # [[X, Y], [-Y, X]] for a unitary X + iY is orthogonal and symplectic
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return from_blocks(q.real, q.imag, -q.imag, q.real)


@pytest.mark.parametrize("d, sigma", [(1, [1.0]), (2, [1.0, 1.0]), (3, [1.0, 1.0, 1.0]),
                                      (2, [2.5, 1.0]), (3, [2.5, 1.0, 1.0])])
def test_symplectic_svd_pairs_an_exact_kernel(d, sigma):
    # singular values exactly 1 leave a kernel of log(U^T U) whose frame
    # comes from pairing J on it
    rng = np.random.default_rng(52)
    J = omega(d)
    for _ in range(10):
        sig = np.array(sigma)
        U = _orthosymplectic(rng, d) @ np.diag(np.r_[sig, 1 / sig]) @ _orthosymplectic(rng, d).T
        W, s, Om = symplectic_svd(U)
        assert np.abs(s - sig).max() <= 1e-12
        assert np.linalg.norm(W @ np.diag(np.r_[s, 1 / s]) @ Om.T - U) <= 1e-12 * np.linalg.norm(U)
        for M in (W, Om):
            assert np.linalg.norm(M.T @ M - np.eye(2 * d)) <= 1e-12
            assert np.linalg.norm(M.T @ J @ M - J) <= 1e-12

# ---------------------------------------------------------------- classifiers

def _random_block_triangular(rng, d, upper):
    A = rng.normal(size=(d, d))
    while abs(np.linalg.det(A)) < 1e-3:
        A = rng.normal(size=(d, d))
    R = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    P = (R + R.T) / 2
    if upper:
        return from_blocks(A, P @ np.linalg.inv(A).T, np.zeros((d, d)),
                           np.linalg.inv(A).T)
    return from_blocks(A, np.zeros((d, d)), P @ A, np.linalg.inv(A).T)


def test_block_triangular_agrees_with_eigen_test():
    rng = np.random.default_rng(60)
    for k in range(1000):
        d = int(rng.integers(1, 4))
        S = _random_block_triangular(rng, d, upper=bool(k % 2))
        rep = classify_block_triangular(S)
        assert rep["agrees"], (k, rep)


def test_block_triangular_rejects_full_matrix():
    with pytest.raises(NotTriangular):
        classify_block_triangular(token_matrix(fourier(1)))


def test_block_triangular_shape_detected():
    rng = np.random.default_rng(61)
    up = classify_block_triangular(_random_block_triangular(rng, 2, True))
    lo = classify_block_triangular(_random_block_triangular(rng, 2, False))
    assert up["shape"] == "upper"
    assert lo["shape"] == "lower"


def test_conjugation_commuting_synthesis():
    word = [chirp(np.array([[0.5j, 0.2j], [0.2j, 0.8j]])),
            rescale(np.diag([2.0, 0.5])),
            multiplier(np.array([[-0.3j, -0.1j], [-0.1j, -0.6j]]))]
    S = word_to_matrix(word)
    rep = classify_conjugation_commuting(S)
    assert rep["conjugation_symmetric"]
    assert rep["positive"]
    assert rep["agrees"]
    assert rep["word"] is not None
    assert rep["synthesis_residual"] <= 1e-10


def test_conjugation_commuting_rejects_asymmetric():
    with pytest.raises(NotConjugationSymmetric):
        classify_conjugation_commuting(token_matrix(chirp((1 + 1j) * np.eye(1))))


def test_conjugation_commuting_flags_wrong_signature():
    # imaginary upper block with the inadmissible sign: still conjugation
    # symmetric, but not positive, and the eigen route must agree
    A = np.eye(1)
    S = from_blocks(A, np.array([[0.7j]]), np.zeros((1, 1)), A)
    rep = classify_conjugation_commuting(S)
    assert rep["conjugation_symmetric"]
    assert not rep["positive"]
    assert rep["agrees"]
    assert rep["word"] is None


def test_negligible_is_one_floored_relative_rule():
    # the Frobenius norm of an array, the modulus of a number; the scale is
    # floored at one, and the bar itself counts as negligible
    assert negligible(np.array([[3e-9, 4e-9]]), np.array([[60.0], [80.0]]), 5.01e-11)
    assert not negligible(np.array([[3e-9, 4e-9]]), np.array([[60.0], [80.0]]), 4.99e-11)
    assert negligible(-5e-10, 0.25, 5e-10) and not negligible(-5e-10, 0.25, 4e-10)
    assert negligible(3e-7 + 4e-7j, np.array([2.0]), 2.5e-7)
    assert not negligible(float("nan"), 1.0, 1.0)
    assert not negligible(np.array([1.0, np.nan]), 1e300, 1.0)
    assert negligible(1e300, float("inf"), 1e-9)


def test_negligible_decides_on_norms_that_overflow():
    # every entry is finite but the squared norms overflow: inf <= tol * inf
    # passed anything, with an overflow RuntimeWarning
    A = np.full((4, 4), 1e300)
    assert not negligible(A / 2, A, 1e-9)
    assert negligible(A * 1e-10, A, 1e-9) and not negligible(A * 1e-8, A, 1e-9)
    assert not negligible(np.array([1e300, 1e300]), 1.0, 1e-9)
    assert negligible(np.array([1e-300]), np.array([1e300, 1e300]), 1e-9)
    assert not negligible(np.array([np.nan, 1e300, 1e300]), A, 1.0)
    # the power of two is exact: the scaled norms keep their ratios
    one, (small, big) = scaled_norms(A * 0.25, A)
    assert small == big / 4 and one == 2.0 ** -997
    assert scaled_norms(np.ones(4), 3.0) == (1.0, [2.0, 3.0])


def test_block_triangular_notes_a_complex_invertible_diagonal_block():
    # A = (1 + i/2) is invertible but not real: not positive, and the report
    # says that realness alone failed
    A = np.array([[1 + 0.5j]])
    S = from_blocks(A, np.zeros((1, 1)), 0.3j * A, 1 / A)
    rep = classify_block_triangular(S)
    assert rep["conditions"] == {"diagonal_block_real": False,
                                 "diagonal_block_invertible": True,
                                 "offdiagonal_signature": True}
    assert not rep["positive"] and rep["agrees"]
    assert "real" in rep["note"]


@pytest.mark.parametrize("classify, word", [
    (classify_block_triangular, [rescale(np.array([[2.0]])), multiplier(np.array([[-0.4j]]))]),
    (classify_conjugation_commuting, [chirp(np.array([[0.3j]])), multiplier(np.array([[-0.2j]]))])])
def test_structural_classifiers_test_symplecticity_once(classify, word, monkeypatch):
    import metaplectic.sympcore as sc

    calls = []

    def counted(S):
        calls.append(1)
        return is_symplectic(S)

    monkeypatch.setattr(sc, "is_symplectic", counted)
    assert classify(word_to_matrix(word))["agrees"]
    assert len(calls) == 1
    # a matrix that is neither symplectic nor of the shape fails as not
    # symplectic, before the shape test
    bad = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValidationError) as err:
        classify(bad)
    assert type(err.value) is ValidationError
    assert str(err.value) == "matrix is not symplectic within tolerance 1e-10"
