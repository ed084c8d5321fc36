"""The 13 measure families and the matrix types they produce.

A family maps a graph and a normalized parameter p in [0, 1] to either a
node proximity matrix (kernel) or a node distance matrix; which one is the
type of the matrix it returns.  The registry holds how each family rescales
p to its native parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeDistance, NotFound

# Distances down to this value are float noise and clamp to 0; below it
# they raise NegativeDistance.
NEG_TOL = -1e-10

# Scaling rules from normalized p to the native parameter:
#   spectral: t = p * (1 - eps) / rho(A), the admissible walk interval
#   ratio:    t = p / (1 - p), inverse of t / (t + 1)
#   identity: the parameter is used as-is (convex combination weight)
SPECTRAL = "spectral"
RATIO = "ratio"
IDENTITY = "identity"

# Each family and its scaling rule, in the paper's order.
FAMILIES: dict[str, str] = {
    "pWalk": SPECTRAL,
    "Walk": SPECTRAL,
    "For": RATIO,
    "logFor": RATIO,
    "Comm": RATIO,
    "logComm": RATIO,
    "Heat": RATIO,
    "logHeat": RATIO,
    "SCT": RATIO,
    "SCCT": RATIO,
    "RSP": RATIO,
    "FE": RATIO,
    "SP-CT": IDENTITY,
}

FAMILY_NAMES = tuple(FAMILIES)


def family(name: str) -> str:
    """The scaling rule of family ``name``; an unknown name raises NotFound."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise NotFound(f"unknown measure family: {name!r}") from None


@dataclass(frozen=True, eq=False)
class ProximityMatrix:
    """Symmetric node-similarity matrix produced by a proximity family."""

    matrix: np.ndarray
    family: str
    parameter: float | None = None


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric zero-diagonal nonnegative node-distance matrix."""

    matrix: np.ndarray
    family: str
    parameter: float | None = None


def distance_matrix(matrix: np.ndarray, family: str, parameter: float | None = None) -> DistanceMatrix:
    """Wrap a distance matrix built symmetric with a zero diagonal.

    A non-finite entry, or one below ``NEG_TOL``, raises
    :class:`NegativeDistance`; entries in [NEG_TOL, 0) are clamped to 0.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise NegativeDistance(f"{family} distance is not finite")
    low = m.min() if m.size else 0.0
    if low < NEG_TOL:
        i, j = np.unravel_index(int(np.argmin(m)), m.shape)
        raise NegativeDistance(f"{family} distance ({i},{j}) = {low:g} below {NEG_TOL:g}")
    m = np.clip(m, 0.0, None)
    m.setflags(write=False)
    return DistanceMatrix(m, family, parameter)
