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
and maps it to the native one, so the constructions take a native
parameter already in range.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    DegenerateKernel,
    Disconnected,
    NonPositiveEntry,
    NumericalOverflow,
    ParameterOutOfRange,
    ZeroDegree,
)
from .families import (
    RATIO,
    SPECTRAL,
    DistanceMatrix,
    ProximityMatrix,
    distance_matrix,
    family,
)
from .graph import Graph, edge_cost_matrix, is_connected, laplacian, shortest_path_matrix
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


def _sigmoid_kernel(base: np.ndarray, sigma: float, t: float, name: str) -> ProximityMatrix:
    if not (sigma > 0.0):
        raise DegenerateKernel(f"{name}: base kernel is constant (sigma = {sigma:g})")
    return ProximityMatrix(_stable_sigmoid(t * base / sigma), name, t)


class FamilyEvaluator:
    """Evaluates measure families on one graph, caching shared spectral state.

    Parameters
    ----------
    g : Graph
        Connected graph to evaluate on.
    """

    def __init__(self, g: Graph):
        if not is_connected(g):
            raise Disconnected("measure families need a connected graph")
        self.graph = g
        self._fundamental_at = None
        self._kernel_at = None

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
        return float(max(abs(values[0]), abs(values[-1]))) if values.size else 0.0

    @cached_property
    def lap_pinv(self) -> np.ndarray:
        return pinv_from_eigen(self.laplacian_eigen)

    @cached_property
    def ct_sigma(self) -> float:
        return float(self.lap_pinv.std())

    @cached_property
    def cct_base(self) -> np.ndarray:
        a = self.graph.adjacency
        d = self.degrees
        if np.any(d <= 0.0):
            raise ZeroDegree("corrected commute time needs all degrees positive")
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
        """Map a normalized parameter p in [0, 1] to the family's native one."""
        scaling = family(name)
        if not (0.0 <= p <= 1.0) or not np.isfinite(p):
            raise ParameterOutOfRange(f"normalized parameter must be in [0, 1], got {p!r}")
        if scaling == SPECTRAL:
            if p == 0.0:
                raise ParameterOutOfRange(f"{name}: p = 0 leaves the open interval (0, 1/rho)")
            rho = self.spectral_radius
            return p * (1.0 - WALK_MARGIN) / rho if rho > 0.0 else p
        if scaling == RATIO:
            if p == 0.0 or p == 1.0:
                raise ParameterOutOfRange(f"{name}: p on the open interval (0, 1) only")
            return p / (1.0 - p)
        return p

    def matrix(self, name: str, p: float) -> ProximityMatrix | DistanceMatrix:
        """Evaluate family ``name`` at normalized parameter ``p``.

        A plain spectral kernel comes back read-only: the evaluator keeps
        the last one until the next call, which reuses it for the kernel's
        log family at the same native parameter.
        """
        t = self.raw_parameter(name, p)
        plain = _LOG_OF.get(name, name)
        if plain in _KERNELS:
            kept, self._kernel_at = self._kernel_at, None
            source, f = _KERNELS[plain]
            eigen = getattr(self, source)
            x = t * eigen.values
            top = float(x[-1]) if x.size else 0.0
            if name == "Comm" and top > EXP_MAX:
                raise NumericalOverflow(f"exp({top:g}) exceeds float64 range")
            if name == "logComm":
                # ln exp(tA) in a shifted domain so large t cannot overflow:
                # exp(tA) = e^top * Q exp(t Lambda - top) Q^T, top = t lambda_max
                kernel = ProximityMatrix(spectral_apply(eigen, f(x - top)), plain, t)
            elif kept is not None and kept.family == plain and kept.parameter == t:
                kernel = kept
            else:
                # cells run parameter-major, so a log family's cell often
                # follows its plain kernel's at the same t
                kernel = ProximityMatrix(spectral_apply(eigen, f(x)), plain, t)
                kernel.matrix.flags.writeable = False
                self._kernel_at = kernel
            if name == plain:
                return kernel
            logged = log_kernel(kernel)
            if name == "logComm":
                return ProximityMatrix(logged.matrix + top, name, t)
            return logged
        if name == "SCT":
            return _sigmoid_kernel(self.lap_pinv, self.ct_sigma, t, "SCT")
        if name == "SCCT":
            return _sigmoid_kernel(self.cct_base, self.cct_sigma, t, "SCCT")
        if name in ("RSP", "FE"):
            return self._rsp_fe(t, name)
        if name == "SP-CT":
            blend = (1.0 - p) * self.sp_matrix + p * self.resistance_matrix
            return distance_matrix(blend, "SP-CT", p)
        raise AssertionError(f"unhandled family {name}")  # pragma: no cover

    def _fundamental(self, beta: float, variant: str) -> tuple[np.ndarray, np.ndarray]:
        """The reference walk's weights W at ``beta`` and Z = (I - W)^-1.

        A pair that passed the solve's residual check and the positivity
        check is kept until the next call, which takes it if its beta is the
        same: RSP and FE at one beta solve once, and no Z outlives its use.
        """
        kept, self._fundamental_at = self._fundamental_at, None
        if kept is not None and kept[0] == beta:
            return kept[1:]
        a = self.graph.adjacency
        n = a.shape[0]
        w = a / self.degrees[:, None] * np.exp(-beta * self.edge_costs)
        w[a == 0.0] = 0.0
        z = solve_linear(np.eye(n) - w, np.eye(n))
        low = z.min() if z.size else 1.0
        if low <= 0.0:
            raise NonPositiveEntry(
                f"{variant}: fundamental matrix entry {low:g} is not positive "
                "(beta too small or too large for this graph)"
            )
        w.flags.writeable = z.flags.writeable = False
        self._fundamental_at = (beta, w, z)
        return w, z

    def _rsp_fe(self, beta: float, variant: str) -> DistanceMatrix:
        if np.any(self.degrees <= 0.0):
            raise ZeroDegree(f"{variant} needs all degrees positive")
        w, z = self._fundamental(beta, variant)
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
