"""Kernel and distance constructions for the 13 measure families.

Plain kernels: random-walk resolvent (I - tA)^-1, regularized Laplacian
(I + tL)^-1, communicability exp(tA), heat exp(-tL), each one row of a
table of f(t lambda) over an eigensystem.  Each logarithmic variant is the
elementwise ln of one of them, taken in one step (``log_kernel``) that
checks every entry is positive.  Commute-time and corrected commute-time
kernels feed an elementwise sigmoid (SCT, SCCT).  Randomized-shortest-path
and free-energy dissimilarities share one solver pipeline, and SP-CT blends
shortest-path with resistance distances.

:class:`FamilyEvaluator` caches the per-graph spectral work (eigensystems,
pseudoinverse, shortest paths) so sweeping a parameter grid only pays for
the per-parameter recombination.  Its ``matrix(name, p)`` is the one way to
build a family's matrix: ``raw_parameter`` checks the normalized parameter
and maps it to the native one, a float, so the constructions take a native
parameter already in range.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import NonPositiveEntry, NumericalOverflow, ParameterOutOfRange
from .families import (
    RATIO,
    SPECTRAL,
    DistanceMatrix,
    ProximityMatrix,
    distance_matrix,
    family,
)
from .graph import Graph, edge_cost_matrix, laplacian, shortest_path_matrix
from .spectral import SymmetricEigen, pinv_from_eigen, solve_linear, spectral_apply, sym_eigen
from .transforms import proximity_to_distance

# Walk kernels stay this fraction inside the open interval (0, 1/rho).
WALK_MARGIN = 1e-4

# exp(x) overflows float64 just above x = 709.
EXP_MAX = 700.0

# Plain spectral kernels: the eigensystem each reads and f(x), x = t*lambda,
# assembled as Q f(t Lambda) Q^T.
_KERNELS = {
    "pWalk": ("adjacency_eigen", lambda x: 1.0 / (1.0 - x)),
    "For": ("laplacian_eigen", lambda x: 1.0 / (1.0 + x)),
    "Comm": ("adjacency_eigen", np.exp),
    "Heat": ("laplacian_eigen", lambda x: np.exp(-x)),
}

# Each logarithmic family is the elementwise ln of one plain kernel.
_LOG_OF = {"Walk": "pWalk", "logFor": "For", "logComm": "Comm", "logHeat": "Heat"}


def log_kernel(kernel: ProximityMatrix) -> ProximityMatrix:
    """Elementwise natural log of a strictly positive kernel."""
    m = kernel.matrix
    low = m.min() if m.size else 1.0
    if low <= 0.0:
        i, j = np.unravel_index(int(np.argmin(m)), m.shape)
        raise NonPositiveEntry(f"{kernel.family} entry ({i},{j}) = {low:g} is not positive")
    name = next((log for log, plain in _LOG_OF.items() if plain == kernel.family),
                f"log{kernel.family}")
    return ProximityMatrix(np.log(m), name, kernel.parameter)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, from one exp
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class FamilyEvaluator:
    """Evaluates measure families on one graph, caching shared spectral state.

    Parameters
    ----------
    g : Graph
        Graph to evaluate on; ``build_graph`` made it connected with two
        nodes or more, so no degree is 0.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self._kept = None

    # -- cached per-graph state ------------------------------------------

    @cached_property
    def degrees(self) -> np.ndarray:
        return self.graph.adjacency.sum(axis=1)

    @cached_property
    def adjacency_eigen(self) -> SymmetricEigen:
        return sym_eigen(self.graph.adjacency)

    @cached_property
    def laplacian_eigen(self) -> SymmetricEigen:
        return sym_eigen(laplacian(self.graph))

    @cached_property
    def spectral_radius(self) -> float:
        values = self.adjacency_eigen.values
        return float(max(abs(values[0]), abs(values[-1])))

    @cached_property
    def lap_pinv(self) -> np.ndarray:
        return pinv_from_eigen(self.laplacian_eigen)

    @cached_property
    def ct_sigma(self) -> float:
        # positive: L+ has zero row sums and a positive diagonal, so it is
        # never constant
        return float(self.lap_pinv.std())

    @cached_property
    def cct_base(self) -> np.ndarray:
        a = self.graph.adjacency
        d = self.degrees
        volume = float(d.sum())
        inv_sqrt = 1.0 / np.sqrt(d)
        m = (a - np.outer(d, d) / volume) * np.outer(inv_sqrt, inv_sqrt)
        core = m @ solve_linear(np.eye(len(d)) - m, m)
        scaled = core * np.outer(inv_sqrt, inv_sqrt)
        row_mean = scaled.mean(axis=1)
        centered = scaled - row_mean[:, None] - row_mean[None, :] + scaled.mean()
        return (centered + centered.T) / 2.0

    @cached_property
    def cct_sigma(self) -> float:
        # positive: the base is double-centred, so constant only where it is
        # 0, which needs A = dd^T/vol; A's zero diagonal rules that out
        return float(self.cct_base.std())

    @cached_property
    def sp_matrix(self) -> np.ndarray:
        return shortest_path_matrix(self.graph).matrix

    @cached_property
    def resistance_matrix(self) -> np.ndarray:
        # effective resistance: the distance the commute-time kernel L+ induces
        return proximity_to_distance(ProximityMatrix(self.lap_pinv, "CT")).matrix

    @cached_property
    def edge_costs(self) -> np.ndarray:
        # edge_cost_matrix with 0 instead of inf off the edge support
        # (never read there), so costs * w stays finite.
        return np.where(self.graph.adjacency > 0.0, edge_cost_matrix(self.graph), 0.0)

    # -- family dispatch ---------------------------------------------------

    def raw_parameter(self, name: str, p: float) -> float:
        """Map a normalized parameter p in [0, 1] to the family's native float."""
        scaling = family(name)
        if not (0.0 <= p <= 1.0):
            raise ParameterOutOfRange(f"normalized parameter must be in [0, 1], got {p!r}")
        if scaling == SPECTRAL:
            if p == 0.0:
                raise ParameterOutOfRange(f"{name}: p = 0 leaves the open interval (0, 1/rho)")
            return float(p * (1.0 - WALK_MARGIN) / self.spectral_radius)
        if scaling == RATIO:
            if p == 0.0 or p == 1.0:
                raise ParameterOutOfRange(f"{name}: p on the open interval (0, 1) only")
            return float(p / (1.0 - p))
        return float(p)

    def matrix(self, name: str, p: float) -> ProximityMatrix | DistanceMatrix:
        """Evaluate family ``name`` at normalized parameter ``p``.

        A plain spectral kernel comes back read-only and kept (``_keep``)
        for its log family at the same native parameter.
        """
        t = self.raw_parameter(name, p)
        plain = _LOG_OF.get(name, name)
        if plain in _KERNELS:
            source, f = _KERNELS[plain]
            eigen = getattr(self, source)
            x = t * eigen.values
            top = float(x[-1])
            if name == "Comm" and top > EXP_MAX:
                raise NumericalOverflow(f"exp({top:g}) exceeds float64 range")
            if name == "logComm":
                # ln exp(tA) in a shifted domain so large t cannot overflow:
                # exp(tA) = e^top * Q exp(t Lambda - top) Q^T, top = t lambda_max
                kernel = ProximityMatrix(spectral_apply(eigen, f(x - top)), plain, t)
            else:
                # cells run parameter-major, so a log family's cell often
                # follows its plain kernel's at the same t
                kernel = self._keep((plain, t), lambda: ProximityMatrix(
                    spectral_apply(eigen, f(x)), plain, t))
            if name == plain:
                return kernel
            logged = log_kernel(kernel)
            if name == "logComm":
                return ProximityMatrix(logged.matrix + top, name, t)
            return logged
        if name == "SCT":
            return ProximityMatrix(_stable_sigmoid(t * self.lap_pinv / self.ct_sigma), name, t)
        if name == "SCCT":
            return ProximityMatrix(_stable_sigmoid(t * self.cct_base / self.cct_sigma), name, t)
        if name in ("RSP", "FE"):
            return self._rsp_fe(t, name)
        # SP-CT: raw_parameter has refused every name outside the 13 families
        blend = (1.0 - t) * self.sp_matrix + t * self.resistance_matrix
        return distance_matrix(blend, "SP-CT", t)

    def _keep(self, key, build):
        """The value kept under ``key``, else ``build()``'s, made read-only.

        Keys are (name, native parameter) tuples; the next call takes the
        one kept value if its key is the same, so a plain kernel and its log
        family at one t, or RSP and FE at one beta, build it once.
        """
        kept, self._kept = self._kept, None
        if kept is not None and kept[0] == key:
            return kept[1]
        value = build()
        for array in value if isinstance(value, tuple) else (value.matrix,):
            array.flags.writeable = False
        self._kept = (key, value)
        return value

    def _fundamental(self, beta: float, variant: str) -> tuple[np.ndarray, np.ndarray]:
        """The reference walk's weights W at ``beta`` and Z = (I - W)^-1."""
        w = self.graph.adjacency / self.degrees[:, None] * np.exp(-beta * self.edge_costs)
        eye = np.eye(w.shape[0])
        z = solve_linear(eye - w, eye)
        low = z.min()
        if low <= 0.0:
            raise NonPositiveEntry(
                f"{variant}: fundamental matrix entry {low:g} is not positive "
                "(beta too small or too large for this graph)"
            )
        return w, z

    def _rsp_fe(self, beta: float, variant: str) -> DistanceMatrix:
        w, z = self._keep(("RSP/FE", beta), lambda: self._fundamental(beta, variant))
        costs = self.edge_costs
        if variant == "RSP":
            s = (z @ (costs * w) @ z) / z
            cbar = s - np.diagonal(s)[None, :]
            delta = (cbar + cbar.T) / 2.0
        else:
            zh = z / np.diagonal(z)[None, :]
            phi = -np.log(zh) / beta
            delta = (phi + phi.T) / 2.0
        np.fill_diagonal(delta, 0.0)
        return distance_matrix(delta, variant, beta)
