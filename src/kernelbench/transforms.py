"""Kernel/distance duality transforms.

d(x, y) = p(x,x) + p(y,y) - p(x,y) - p(y,x) turns a proximity into a
distance (the squared feature-space distance when the kernel is PSD); the
double-centering K = -1/2 H D^(2) H recovers an inner-product matrix from a
distance matrix.  Ward reads every family as squared distances: the induced
distance for kernels, D∘D for distance families (the two agree through the
double-centering, which acceptance criterion A6 checks).
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedDistance
from .families import DistanceMatrix, ProximityMatrix, distance_matrix


def proximity_to_distance(kernel: ProximityMatrix) -> DistanceMatrix:
    """Induced distance d_ij = K_ii + K_jj - 2 K_ij.

    Non-finite entries, or entries below ``NEG_TOL`` (the kernel is too far
    from PSD for the transform), raise :class:`NegativeDistance`; tiny float
    negatives are clamped to 0.
    """
    m = kernel.matrix
    diag = np.diagonal(m)
    d = diag[:, None] + diag[None, :] - 2.0 * m
    np.fill_diagonal(d, 0.0)
    return distance_matrix(d, kernel.family, kernel.parameter)


def distance_to_kernel(dist: DistanceMatrix) -> ProximityMatrix:
    """Double-centering K = -1/2 H D^(2) H with H = I - ee^T/N.

    The result may be indefinite; that is legal and left as-is.  Row sums
    are 0 by construction.
    """
    s = dist.matrix ** 2
    row_mean = s.mean(axis=1)
    k = -0.5 * (s - row_mean[:, None] - row_mean[None, :] + s.mean())
    return ProximityMatrix((k + k.T) / 2.0, dist.family, dist.parameter)


def reject_distance(measure: ProximityMatrix | DistanceMatrix) -> DistanceMatrix:
    """Distance used by reject curves: induced for kernels, as-is for distances."""
    if isinstance(measure, DistanceMatrix):
        return measure
    return proximity_to_distance(measure)


def clustering_sqdist(measure: ProximityMatrix | DistanceMatrix) -> np.ndarray:
    """Squared distances feeding Ward clustering.

    Proximity families: the induced distance, read as a squared Euclidean
    distance.  Distance families: the elementwise square D∘D, which raises
    :class:`MalformedDistance` if it overflows.  Either way the result is
    finite, nonnegative and exactly symmetric with a zero diagonal, what
    Ward takes without a further check.
    """
    if isinstance(measure, DistanceMatrix):
        try:
            with np.errstate(over="raise"):
                return measure.matrix * measure.matrix
        except FloatingPointError:
            raise MalformedDistance(f"{measure.family} squared distance overflows") from None
    return proximity_to_distance(measure).matrix
