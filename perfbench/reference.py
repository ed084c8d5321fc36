"""Reference computations for the benchmark's output checks.

Nothing here imports kernelbench.  Each reference is rebuilt from numpy and
scipy primitives and from the definitions the README and the papers give:

* kernels: ``np.linalg.solve`` for pWalk and For, ``scipy.linalg.expm`` for
  Comm and Heat, an elementwise log for the log families, a pseudoinverse
  for SCT, SCCT and SP-CT, the Kivimäki–Shimbo–Saerens formulas for RSP and
  FE, and ``scipy.sparse.csgraph.shortest_path`` for SP;
* Ward: a greedy Lance–Williams loop that reports relative near-ties;
* ARI from a contingency table, reject-curve AUC as a Mann–Whitney statistic.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla
from scipy.sparse.csgraph import shortest_path
from scipy.stats import rankdata

WALK_MARGIN = 1e-4  # README: t = p (1 - 1e-4) / rho(A) for the walk families

# Normwise relative tolerance for a kernel or distance against its reference.
# A kernel off by a relative 1e-6 must fail; eigen-path rounding must pass.
KERNEL_RTOL = 1e-8
SQDIST_RTOL = 1e-9

# A Ward step is a near-tie when a second pair's cost lies within
# TIE_RTOL of the best cost, or within TIE_ATOL of the input's largest entry.
TIE_RTOL = 1e-9
TIE_ATOL = 1e-11

LOG_FAMILIES = {"Walk": "pWalk", "logFor": "For", "logComm": "Comm", "logHeat": "Heat"}
DISTANCE_FAMILIES = ("RSP", "FE", "SP-CT")

# Outcomes the families' definitions allow: exp(tA) beyond float64, and the
# sigmoid kernels, which are not positive semidefinite.
ALLOWED_MARKERS = {("Comm", "NumericalOverflow"), ("SCT", "NegativeDistance"),
                   ("SCCT", "NegativeDistance")}
# F2: these kernels are entrywise positive on a connected graph.
F2_MARKERS = {(name, "NonPositiveEntry") for name in LOG_FAMILIES}
# F3: exp(tA) is positive definite, so its induced distance is nonnegative.
F3_MARKERS = {("Comm", "NegativeDistance")}
# Also ruled out by exact arithmetic: the RSP/FE fundamental matrix (I - W)^-1
# inverts an M-matrix, so it is entrywise positive on a connected graph.
RULED_OUT_MARKERS = {("RSP", "NonPositiveEntry"), ("FE", "NonPositiveEntry")}
EXP_LIMIT = 690.0  # exp overflows float64 just above 709


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class GraphReference:
    """Per-graph reference state; ``kernel`` evaluates one family at p."""

    def __init__(self, adjacency):
        a = np.array(adjacency, dtype=np.float64)
        self.a = a
        self.n = a.shape[0]
        self.deg = a.sum(axis=1)
        self.lap = np.diag(self.deg) - a
        ev = sla.eigvalsh(a)
        self.rho = float(max(abs(ev[0]), abs(ev[-1])))
        self.lam_max = float(ev[-1])
        self._cache = {}

    def _once(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def lap_pinv(self):
        return self._once("pinv", lambda: np.linalg.pinv(self.lap, hermitian=True))

    @property
    def cct(self):
        # Corrected commute-time kernel (von Luxburg, Radl & Hein):
        # H D^-1/2 M (I - M)^-1 M D^-1/2 H, M = D^-1/2 (A - d d^T / vol) D^-1/2.
        def build():
            d = self.deg
            s = 1.0 / np.sqrt(d)
            m = s[:, None] * (self.a - np.outer(d, d) / d.sum()) * s[None, :]
            core = m @ np.linalg.solve(np.eye(self.n) - m, m)
            k = s[:, None] * core * s[None, :]
            h = np.eye(self.n) - 1.0 / self.n
            k = h @ k @ h
            return (k + k.T) / 2.0
        return self._once("cct", build)

    @property
    def costs(self):
        a = self.a
        return np.where(a > 0, 1.0 / np.where(a > 0, a, 1.0), 0.0)

    @property
    def sp(self):
        def build():
            a = self.a
            if np.all((a == 0) | (a == 1)):
                return shortest_path(a, unweighted=True, directed=False)
            return shortest_path(np.where(a > 0, self.costs, 0.0), directed=False)
        return self._once("sp", build)

    @property
    def resistance(self):
        def build():
            lp = self.lap_pinv
            dg = np.diagonal(lp)
            r = dg[:, None] + dg[None, :] - 2.0 * lp
            np.fill_diagonal(r, 0.0)
            return np.clip((r + r.T) / 2.0, 0.0, None)
        return self._once("resistance", build)

    def parameter(self, family, p):
        if family in ("pWalk", "Walk"):
            return p * (1.0 - WALK_MARGIN) / self.rho
        if family == "SP-CT":
            return p
        return p / (1.0 - p)

    def _kss(self, beta, variant):
        # Kivimäki, Shimbo & Saerens (Physica A, 2014): W = P_ref o exp(-beta C),
        # Z = (I - W)^-1; RSP from the expected cost, FE = -ln(Z_ij / Z_jj) / beta.
        a, n = self.a, self.n
        w = (a / self.deg[:, None]) * np.exp(-beta * self.costs)
        w[a == 0] = 0.0
        z = np.linalg.solve(np.eye(n) - w, np.eye(n))
        if variant == "RSP":
            s = (z @ (self.costs * w) @ z) / z
            c = s - np.diagonal(s)[None, :]
        else:
            c = -np.log(z / np.diagonal(z)[None, :]) / beta
        out = (c + c.T) / 2.0
        np.fill_diagonal(out, 0.0)
        return out

    def kernel(self, family, p):
        """Reference matrix: the kernel, its elementwise log, or the distance."""
        t = self.parameter(family, p)
        eye = np.eye(self.n)
        base = LOG_FAMILIES.get(family, family)
        if base == "pWalk":
            k = np.linalg.solve(eye - t * self.a, eye)
        elif base == "For":
            k = np.linalg.solve(eye + t * self.lap, eye)
        elif family == "Comm":
            k = sla.expm(t * self.a)
        elif family == "logComm":
            shift = t * self.lam_max  # exp(tA) = e^shift exp(tA - shift I)
            with np.errstate(divide="ignore"):
                return np.log(sla.expm(t * self.a - shift * eye)) + shift
        elif base == "Heat":
            k = sla.expm(-t * self.lap)
        elif family == "SCT":
            k = _sigmoid(t * self.lap_pinv / self.lap_pinv.std())
        elif family == "SCCT":
            k = _sigmoid(t * self.cct / self.cct.std())
        elif family in ("RSP", "FE"):
            return self._kss(t, family)
        elif family == "SP-CT":
            return (1.0 - p) * self.sp + p * self.resistance
        else:
            raise ValueError(f"no reference for family {family!r}")
        if family in LOG_FAMILIES:
            with np.errstate(divide="ignore"):
                return np.log(k)
        return k

    def overflows(self, family, p):
        """True when exp(tA) leaves the float64 range (Comm's allowed error)."""
        return self.parameter(family, p) * self.lam_max > EXP_LIMIT


def kernel_error(family, program, reference):
    """Normwise relative error of a family matrix against its reference.

    Log families are compared after exponentiation with a common shift, so
    the check asks for the kernel's normwise accuracy, not for relative
    accuracy of entries far below the kernel's largest one.
    """
    program = np.asarray(program, dtype=np.float64)
    if family in LOG_FAMILIES:
        top = float(np.max(reference))
        return float(np.max(np.abs(np.exp(program - top) - np.exp(reference - top))))
    scale = float(np.max(np.abs(reference)))
    return float(np.max(np.abs(program - reference))) / scale


def sqdist_of(family, matrix):
    """Ward input: induced distance of a kernel, squared entries of a distance."""
    m = np.asarray(matrix, dtype=np.float64)
    if family in DISTANCE_FAMILIES:
        return m * m
    dg = np.diagonal(m)
    d = dg[:, None] + dg[None, :] - 2.0 * m
    np.fill_diagonal(d, 0.0)
    return d


def sqdist_error(family, program_matrix, program_sqdist):
    ref = sqdist_of(family, program_matrix)
    scale = max(float(np.max(np.abs(program_matrix))) ** (2 if family in DISTANCE_FAMILIES else 1),
                float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(np.clip(ref, 0.0, None) - program_sqdist))) / scale


def rescale_exponent(sqdist):
    """s such that the largest entry of sqdist * 2**s lies in [1, 2)."""
    top = float(np.max(sqdist))
    if not top > 0.0:
        return 0
    return -int(np.floor(np.log2(top)))


def canonical(labels):
    """Relabel clusters 0, 1, ... in order of first appearance."""
    labels = np.asarray(labels)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(np.argsort(first))
    return order[inverse]


def ward_cut(sqdist, k):
    """Greedy Lance–Williams Ward cut at k clusters.

    Returns (labels, tied): ``tied`` is True when some step before the cut
    had a second pair within the near-tie window, and then ``labels`` is
    None because the cut depends on the tie rule.
    """
    w = np.array(sqdist, dtype=np.float64) / 2.0
    n = w.shape[0]
    atol = TIE_ATOL * float(np.max(w)) * 2.0
    np.fill_diagonal(w, np.inf)
    sizes = np.ones(n)
    owner = np.arange(n)
    alive = np.ones(n, dtype=bool)
    for _ in range(n - k):
        flat = int(np.argmin(w))
        a, b = divmod(flat, n)
        a, b = min(a, b), max(a, b)
        best = w[a, b]
        if np.count_nonzero(w <= best + TIE_RTOL * best + atol) > 2:
            return None, True
        others = alive.copy()
        others[[a, b]] = False
        nk = sizes[others]
        na, nb = sizes[a], sizes[b]
        upd = ((na + nk) * w[a, others] + (nb + nk) * w[b, others] - nk * best) / (na + nb + nk)
        w[a, others] = upd
        w[others, a] = upd
        w[b, :] = np.inf
        w[:, b] = np.inf
        alive[b] = False
        sizes[a] = na + nb
        owner[owner == b] = a
    return canonical(owner), False


def ari(a, b):
    """Adjusted Rand index from the contingency table (Hubert & Arabie)."""
    _, x = np.unique(np.asarray(a), return_inverse=True)
    _, y = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((x.max() + 1, y.max() + 1), dtype=np.int64)
    np.add.at(table, (x, y), 1)

    def pairs(v):
        v = v.astype(np.int64)
        return int((v * (v - 1) // 2).sum())

    n = x.shape[0]
    total = n * (n - 1) // 2
    cells, rows, cols = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / total
    top = (rows + cols) / 2.0
    if top == expected:
        return 1.0
    return (cells - expected) / (top - expected)


def auc_mann_whitney(dist, labels):
    """P(intra < inter) + P(intra = inter)/2 from the Mann–Whitney rank sum."""
    labels = np.asarray(labels)
    iu, ju = np.triu_indices(labels.shape[0], 1)
    values = np.asarray(dist)[iu, ju]
    inter = labels[iu] != labels[ju]
    ranks = rankdata(values)
    n_inter = int(inter.sum())
    n_intra = values.shape[0] - n_inter
    u = ranks[inter].sum() - n_inter * (n_inter + 1) / 2.0
    return float(u / (n_inter * n_intra))


def classify(family, marker):
    """'allowed', 'F2', 'F3', 'ruled_out' or 'unexplained' for an error cell."""
    key = (family, marker)
    if key in ALLOWED_MARKERS:
        return "allowed"
    if key in F2_MARKERS:
        return "F2"
    if key in F3_MARKERS:
        return "F3"
    if key in RULED_OUT_MARKERS:
        return "ruled_out"
    return "unexplained"
