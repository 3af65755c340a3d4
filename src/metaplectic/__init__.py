"""Calculus of positive complex symplectic matrices and their operators.

The package is organized in layers: validated matrix structure and token
words (:mod:`~metaplectic.sympcore`), the exact action on Gaussian states
(:mod:`~metaplectic.gausscalc`), sampled cross-validation on centered grids
(:mod:`~metaplectic.gridlab`), covariant time-frequency representations
(:mod:`~metaplectic.tfrzoo`), flows of complex quadratic Hamiltonians with
norm bounds (:mod:`~metaplectic.evoprop`), serialization
(:mod:`~metaplectic.formats`) and the command line driver
(:mod:`~metaplectic.cli`).
"""

__version__ = "0.1.0"

from .errors import (
    MetaplecticError,
    ValidationError,
    NotTriangular,
    NotConjugationSymmetric,
    FormatError,
    NumericalError,
    DecompositionError,
    UnsupportedDegenerate,
    UnsupportedRescale,
    UnsupportedShape,
    UnsupportedSingularBlock,
    ModelError,
)
from .sympcore import (
    omega,
    blocks,
    from_blocks,
    is_symplectic,
    require_symplectic,
    positivity_matrix,
    PositivityReport,
    classify_positivity,
    schur_psd_test,
    inverse_symplectic,
    sharp,
    tilde,
    tensor_interleave,
    Token,
    fourier,
    chirp,
    rescale,
    multiplier,
    atom_r,
    atom_p,
    token_matrix,
    word_to_matrix,
    tilde_word,
    atom_matrix,
    factor_R_theta,
    PolarDecomposition,
    matrix_polar,
    atomic_decompose,
    symplectic_svd,
    classify_block_triangular,
    classify_conjugation_commuting,
    random_word,
)
from .gausscalc import (
    GaussianState,
    standard_gaussian,
    conjugate_state,
    eval_state,
    gaussian_integral,
    shift,
    complex_shift,
    apply_token,
    apply_word,
    apply_matrix,
    inner_product,
    norm,
    wigner_gaussian,
    check_intertwining,
)
from .gridlab import (
    GridSpec,
    GridFn,
    norm2,
    sample,
    grid_fourier,
    grid_fourier_inverse,
    grid_apply_token,
    grid_apply_word,
    grid_wigner,
    grid_wigner_multiplier,
    grid_stft,
    discrete_modnorm,
    contraction_check,
)
from .tfrzoo import (
    TFRSpec,
    build_covariant,
    is_covariant,
    symbol_exponent,
    cohen_kernel,
    tfr_gaussian,
    tfr_grid,
    classify_spectrogram,
    classify_pure_spectrogram,
    conjugation_symmetric,
    SplitWord,
    split_to_word,
    wigner_operator,
)
from .evoprop import (
    QuadraticHamiltonian,
    hamilton_map,
    propagator_matrix,
    polar_in_time,
    weyl_symbol_Z,
    weyl_pairing,
    c_weight,
    mod_norm_bound_U,
    mod_norm_bound_Z,
    combined_bound,
    heat_hamiltonian,
    hermite_hamiltonian,
    harmonic_hamiltonian,
    harmonic_flow,
    evolve_trajectory,
    cone_profile,
)
