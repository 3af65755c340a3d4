"""Exception taxonomy.

Three failure families, mapped to CLI exit codes:

* ``ValidationError`` (exit 1): the input violates a documented precondition
  (not symplectic, wrong shape, parameter outside the admissible domain).
* ``FormatError`` (exit 2): a file or byte stream cannot be parsed or written.
* ``NumericalError`` (exit 3): the input was admissible but a computation
  could not be completed reliably (failed factorization, unsupported
  degenerate configuration, a result beyond the floating-point range, model
  inconsistency detected by a cross-check).  A structure that simply does
  not apply, such as a representation that is not a spectrogram, is a
  failed clause in a report, not an exception.
"""


class MetaplecticError(Exception):
    """Base class for all package-specific exceptions."""


class ValidationError(MetaplecticError):
    """An input violates a documented precondition."""


class NotTriangular(ValidationError):
    """Neither off-diagonal block of the matrix vanishes."""


class NotConjugationSymmetric(ValidationError):
    """The matrix is not fixed by the conjugation symmetry ``S -> tilde(S)``."""


class FormatError(MetaplecticError):
    """A file, stream, or serialized object cannot be read or written."""


class NumericalError(MetaplecticError):
    """A computation on admissible input could not be completed reliably."""


class DecompositionError(NumericalError):
    """A matrix factorization failed or failed its residual check."""


class UnsupportedDegenerate(NumericalError):
    """Degenerate configuration outside the supported closed forms."""


class UnsupportedRescale(NumericalError):
    """Grid rescaling with parameters the sampled representation cannot honor."""


class UnsupportedShape(NumericalError):
    """Matrix shape/structure outside the scope of the requested estimate."""


class ModelError(NumericalError):
    """A quantity violates a structural identity it is guaranteed to satisfy."""
