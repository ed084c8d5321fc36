"""Exception types raised across the library.

The benchmark harness treats any :class:`KernelBenchError` raised while
evaluating a (graph, family, parameter) cell as a recorded error marker
(score -1), while configuration and dataset errors abort the run.
"""


class KernelBenchError(Exception):
    """Base class for all library errors."""


# -- graph construction ------------------------------------------------------

class AsymmetricInput(KernelBenchError):
    """Input matrix is not symmetric within tolerance."""


class NegativeWeight(KernelBenchError):
    """Adjacency matrix contains a negative or non-finite entry."""


class NonzeroDiagonal(KernelBenchError):
    """Adjacency matrix has a self-loop (nonzero diagonal entry)."""


class LabelOutOfRange(KernelBenchError):
    """Node labels are not exactly the set {0, ..., m-1}."""


class Disconnected(KernelBenchError):
    """A graph is not connected, or a Laplacian's zero mode is not single."""


# -- linear algebra ----------------------------------------------------------

class NotConverged(KernelBenchError):
    """Eigendecomposition failed to converge."""


class Singular(KernelBenchError):
    """Linear system is singular or too ill-conditioned to solve."""


class NumericalOverflow(KernelBenchError):
    """Requested matrix function exceeds the floating-point range."""


# -- measure families --------------------------------------------------------

class ParameterOutOfRange(KernelBenchError):
    """Family parameter outside its admissible domain."""


class NonPositiveEntry(KernelBenchError):
    """Elementwise logarithm (or division) hit an entry <= 0."""


class NegativeDistance(KernelBenchError):
    """Distance has a non-finite entry or one below the clamping tolerance."""


# -- clustering and evaluation -----------------------------------------------

class InvalidK(KernelBenchError):
    """Requested cluster count outside 1..N."""


class MalformedDistance(KernelBenchError):
    """Ward's squared-distance input fails its shape, finite, symmetry,
    diagonal or sign check, or a distance family's D∘D overflows."""


class LengthMismatch(KernelBenchError):
    """Partitions being compared have different node counts."""


class DegenerateLabels(KernelBenchError):
    """Labeling has no intra-class or no inter-class node pair."""


class CannotConnect(KernelBenchError):
    """Random graph generation failed to produce a connected sample."""


# -- datasets and configuration ----------------------------------------------

class ParseError(KernelBenchError):
    """Dataset file is malformed or does not match its descriptor."""


class NotFound(KernelBenchError):
    """Lookup of a named family or dataset failed."""


class ConfigInvalid(KernelBenchError):
    """Experiment configuration failed validation."""


class DatasetMissing(KernelBenchError):
    """Dataset file is absent from the data root."""
