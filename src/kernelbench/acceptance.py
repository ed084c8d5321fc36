"""Executable acceptance criteria (A1-A7) with independent oracles.

Each criterion returns a :class:`CriterionResult`; ``kernelbench verify``
prints one PASS/FAIL/SKIP line per criterion and the pytest suite asserts
them.  The oracles here are deliberately written from scratch (pair
counting, brute-force merges, truncated series) so they stay independent of
the code paths they check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .clustering import adjusted_rand_index, ward_cuts
from .config import check_count
from .datasets import load_dataset
from .errors import DatasetMissing, KernelBenchError
from .evaluation import (
    Statistic,
    best_of_grid,
    copeland_scores,
    family_statistics,
    parameter_grid,
    reject_curve,
    sweep_graphs,
    sweep_task,
)
from .families import FAMILY_NAMES, DistanceMatrix, distance_matrix
from .generators import generate, uniform_spec
from .graph import build_graph, shortest_path_matrix
from .measures import FamilyEvaluator
from .transforms import distance_to_kernel, proximity_to_distance

DEFAULT_SEED = 20240501

SUITES = {
    "montecarlo": ("A1", "A2", "A3"),
    "datasets": ("A4",),
    "properties": ("A5", "A6", "A7"),
}


@dataclass
class CriterionResult:
    name: str
    passed: bool | None  # None means skipped
    details: str

    @property
    def status(self) -> str:
        if self.passed is None:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


def _p3():
    return build_graph(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def ari_pair_oracle(a, b) -> float:
    """Adjusted Rand index by explicit enumeration of all node pairs."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    together_both = together_a = together_b = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            together_a += sa
            together_b += sb
            together_both += sa and sb
    if total == 0:
        return 1.0
    expected = together_a * together_b / total
    maximum = (together_a + together_b) / 2.0
    if maximum == expected:
        return 1.0
    return (together_both - expected) / (maximum - expected)


def ward_merge_oracle(sqdist: np.ndarray):
    """Brute-force Ward: recompute every pairwise merge cost each step.

    Cluster cost uses the squared-Euclidean identity
    ESS(C) = sum_{i<j in C} d2_ij / |C|; the merge cost is
    ESS(A u B) - ESS(A) - ESS(B).  Tie-breaking matches the production
    rule: clusters ordered by smallest member, first pair within 1e-12 of
    the minimum merges.  Returns (costs, partitions_by_k).
    """
    n = sqdist.shape[0]

    def ess(cluster):
        total = 0.0
        for x, y in itertools.combinations(cluster, 2):
            total += sqdist[x, y]
        return total / len(cluster)

    clusters = [[i] for i in range(n)]
    partitions = {n: [list(c) for c in clusters]}
    costs = []
    while len(clusters) > 1:
        pair_costs = {}
        best = np.inf
        for ai in range(len(clusters)):
            for bi in range(ai + 1, len(clusters)):
                cost = ess(clusters[ai] + clusters[bi]) - ess(clusters[ai]) - ess(clusters[bi])
                pair_costs[(ai, bi)] = cost
                if cost < best:
                    best = cost
        pick = next(
            (ai, bi)
            for ai in range(len(clusters))
            for bi in range(ai + 1, len(clusters))
            if pair_costs[(ai, bi)] <= best + 1e-12
        )
        ai, bi = pick
        costs.append(pair_costs[pick])
        clusters[ai] = sorted(clusters[ai] + clusters[bi])
        del clusters[bi]
        partitions[len(clusters)] = [list(c) for c in clusters]
    return costs, partitions


def _partition_labels(cluster_list, n):
    labels = np.empty(n, dtype=np.int64)
    for idx, members in enumerate(cluster_list):
        for node in members:
            labels[node] = idx
    return labels


def auc_mannwhitney_oracle(dist: np.ndarray, labels: np.ndarray) -> float:
    """P(intra < inter) + P(intra = inter)/2 by full pair enumeration."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    intra, inter = [], []
    for i in range(n):
        for j in range(i + 1, n):
            (intra if labels[i] == labels[j] else inter).append(dist[i, j])
    score = 0.0
    for a in intra:
        for b in inter:
            if a < b:
                score += 1.0
            elif a == b:
                score += 0.5
    return score / (len(intra) * len(inter))


def neumann_series(adjacency: np.ndarray, t: float, terms: int = 200) -> np.ndarray:
    out = np.eye(adjacency.shape[0])
    power = np.eye(adjacency.shape[0])
    for _ in range(terms):
        power = t * (power @ adjacency)
        out += power
    return out


def taylor_exp(m: np.ndarray, terms: int = 30) -> np.ndarray:
    out = np.eye(m.shape[0])
    power = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        power = power @ m / k
        out += power
    return out


def grounded_resistance(adjacency: np.ndarray) -> np.ndarray:
    """Effective resistances R_ij = G_ii + G_jj - 2 G_ij of a connected graph,
    G the inverse of its Laplacian grounded at node 0 (row and column 0 are
    dropped, then put back as zeros)."""
    a = np.asarray(adjacency, dtype=np.float64)
    g = np.zeros(a.shape)
    g[1:, 1:] = np.linalg.inv((np.diag(a.sum(axis=1)) - a)[1:, 1:])
    diag = np.diagonal(g)
    return diag[:, None] + diag[None, :] - 2.0 * g


def fe_limit_offset(adjacency: np.ndarray) -> np.ndarray:
    """Low-temperature offset c of the free-energy distance, by hop layers.

    On an unweighted graph FE - SP -> c / beta as beta -> inf, with
    c_ij = -(ln N_ij + ln N_ji) / 2 and N_ij the probability mass, under the
    reference walk P = D^-1 A, of the shortest i -> j walks.  N is summed
    breadth-first, one hop layer at a time from each source, over the
    shortest-walk DAG; no linear solve is involved.  Shortest walks never
    revisit their start, so N <= 1 and c >= 0.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ValueError("hop layers need an unweighted graph")
    n = a.shape[0]
    p_ref = a / a.sum(axis=1)[:, None]
    mass = np.zeros((n, n))
    for source in range(n):
        mass[source, source] = 1.0
        reached = {source}
        layer = [source]
        while layer:
            following: dict[int, float] = {}
            for u in layer:
                for v in np.flatnonzero(a[u]):
                    if v not in reached:
                        following[v] = following.get(v, 0.0) + mass[source, u] * p_ref[u, v]
            for v, m in following.items():
                mass[source, v] = m
            reached.update(following)
            layer = list(following)
    log_mass = np.log(mass)
    return -(log_mass + log_mass.T) / 2.0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_a1(seed: int, workers: int) -> CriterionResult:
    """Best-of-grid mean ARI of logComm near 0.9466 and highest of all 13."""
    spec = uniform_spec(100, 2, 0.3, 0.1, seed=seed)
    sweeps = sweep_task(spec, FAMILY_NAMES, parameter_grid(50), 50, workers=workers)
    best = {name: best_of_grid(sweeps[name])[1] for name in FAMILY_NAMES}
    target = 0.9466
    leader = max(best, key=best.get)
    ok = abs(best["logComm"] - target) <= 0.06 and leader == "logComm"
    details = (
        f"logComm best mean ARI {best['logComm']:.4f} (target {target} +- 0.06), "
        f"grid leader {leader} ({best[leader]:.4f})"
    )
    return CriterionResult("A1", ok, details)


def criterion_a2(seed: int, workers: int) -> CriterionResult:
    """Log measures beat plain ones by >= 0.05 on the sparse two-class task."""
    spec = uniform_spec(100, 2, 0.2, 0.05, seed=seed + 10)
    names = ("For", "logFor", "Heat", "logHeat")
    sweeps = sweep_task(spec, names, parameter_grid(50), 50, workers=workers)
    best = {name: best_of_grid(sweeps[name])[1] for name in names}
    gap_for = best["logFor"] - best["For"]
    gap_heat = best["logHeat"] - best["Heat"]
    ok = gap_for >= 0.05 and gap_heat >= 0.05
    details = (
        f"logFor {best['logFor']:.4f} vs For {best['For']:.4f} (gap {gap_for:.4f}), "
        f"logHeat {best['logHeat']:.4f} vs Heat {best['Heat']:.4f} (gap {gap_heat:.4f})"
    )
    return CriterionResult("A2", ok, details)


def criterion_a3(seed: int, workers: int) -> CriterionResult:
    """Tournament: {logComm, SCCT} top two totals, For last."""
    tasks = [
        uniform_spec(100, 2, 0.3, 0.1, seed=seed + 20),
        uniform_spec(100, 2, 0.3, 0.15, seed=seed + 21),
    ]
    grid = parameter_grid(50)
    totals = sum(
        copeland_scores(family_statistics(sweep_task(spec, FAMILY_NAMES, grid, 20, workers=workers),
                                          FAMILY_NAMES, Statistic.parse("max")))
        for spec in tasks
    )
    order = np.argsort(-totals, kind="stable")
    ranked = [FAMILY_NAMES[i] for i in order]
    ok = set(ranked[:2]) == {"logComm", "SCCT"} and ranked[-1] == "For"
    details = "totals: " + ", ".join(f"{FAMILY_NAMES[i]}={int(totals[i])}" for i in order)
    return CriterionResult("A3", ok, details)


def criterion_a4(seed: int, workers: int) -> CriterionResult:
    """Every family except For reaches ARI 1.0 somewhere on the Zachary grid."""
    try:
        g = load_dataset("zachary")
    except DatasetMissing as exc:
        return CriterionResult("A4", None, f"dataset missing ({exc})")
    sweeps = sweep_graphs([g], FAMILY_NAMES, parameter_grid(55))
    reached = {name: bool((sweeps[name].ari >= 1.0 - 1e-12).any()) for name in FAMILY_NAMES}
    failures = [name for name, hit in reached.items() if not hit and name != "For"]
    ok = len(failures) <= 1
    if failures:
        details = f"families not reaching ARI 1.0 (excluding For): {failures}"
    else:
        details = "all families except For reach ARI 1.0" + (
            "" if not reached["For"] else "; For unexpectedly reaches 1.0 too"
        )
    return CriterionResult("A4", ok, details)


def criterion_a5(seed: int, workers: int) -> CriterionResult:
    """Oracle equivalence suite (exact/tolerance bounds as stated)."""
    rng = np.random.default_rng(seed)
    checks: list[str] = []

    # adjusted Rand index vs pair-counting oracle, exact to 1e-12
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        a = rng.integers(0, rng.integers(1, 5), size=n)
        b = rng.integers(0, rng.integers(1, 5), size=n)
        worst = max(worst, abs(adjusted_rand_index(a, b) - ari_pair_oracle(a, b)))
    if worst > 1e-12:
        checks.append(f"ARI oracle mismatch {worst:g}")

    # ward_cuts, the body the cells run, vs brute-force merge oracle: the
    # same merge costs and identical partitions at every k
    for trial in range(100):
        n = int(rng.integers(3, 9))
        points = rng.normal(size=(n, int(rng.integers(1, 4))))
        sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
        costs, partitions = ward_merge_oracle(sq)
        merges = np.empty((1, n - 1, 4))
        ward_cuts(sq[None].copy(), 1, merges)
        scale = max(1.0, float(np.abs(sq).max()))
        if np.abs(merges[0, :, 2] - np.asarray(costs)).max() > 1e-9 * scale:
            checks.append(f"ward merge costs diverge (trial {trial})")
            break
        for k in range(1, n + 1):
            mine = ward_cuts(sq[None].copy(), k)[0]
            oracle = _partition_labels(partitions[k], n)
            if adjusted_rand_index(mine, oracle) < 1.0:
                checks.append(f"ward partition differs at n={n}, k={k}")
                break
        else:
            continue
        break

    # reject-curve AUC vs Mann-Whitney oracle to 1e-12
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(4, 21))
        labels = rng.integers(0, 2, size=n)
        if len(np.unique(labels)) < 2:
            labels[0] = 0
            labels[1] = 1
        d = rng.integers(0, 6, size=(n, n)).astype(float)  # heavy ties on purpose
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        curve = reject_curve(d, labels)
        worst = max(worst, abs(curve.auc - auc_mannwhitney_oracle(d, labels)))
    if worst > 1e-12:
        checks.append(f"AUC oracle mismatch {worst:g}")

    # pWalk kernel vs truncated walk-weight series
    spec = uniform_spec(8, 2, 0.9, 0.5, seed=seed + 5)
    g8 = generate(spec, 0)
    ev = FamilyEvaluator(g8)
    series = neumann_series(g8.adjacency, ev.raw_parameter("pWalk", 0.3), 200)
    if np.abs(ev.matrix("pWalk", 0.3).matrix - series).max() > 1e-8:
        checks.append("pWalk vs walk series mismatch")

    # communicability exp(tA) vs truncated Taylor series
    taylor = taylor_exp(ev.raw_parameter("Comm", 0.2) * g8.adjacency)
    if np.abs(ev.matrix("Comm", 0.2).matrix - taylor).max() > 1e-8:
        checks.append("Comm vs Taylor mismatch")

    # resistance against series/parallel hand values
    r3 = FamilyEvaluator(build_graph(1.0 - np.eye(3))).resistance_matrix
    if abs(r3[0, 1] - 2.0 / 3.0) > 1e-10:
        checks.append(f"K3 resistance {r3[0, 1]} != 2/3")
    rp3 = FamilyEvaluator(_p3()).resistance_matrix
    if abs(rp3[0, 2] - 2.0) > 1e-10:
        checks.append(f"P3 end resistance {rp3[0, 2]} != 2")

    ok = not checks
    return CriterionResult("A5", ok, "; ".join(checks) if checks else "all oracles agree")


def criterion_a6(seed: int, workers: int) -> CriterionResult:
    """Invariant suite: symmetry, row sums, dualities, determinism."""
    checks: list[str] = []
    spec = uniform_spec(60, 2, 0.3, 0.1, seed=seed + 30)
    g = generate(spec, 0)
    ev = FamilyEvaluator(g)

    # kernel symmetry plus distance-kind invariants for every family
    for name in FAMILY_NAMES:
        for p in (0.3, 0.7):
            m = ev.matrix(name, p)
            if np.abs(m.matrix - m.matrix.T).max() > 1e-8:
                checks.append(f"{name} asymmetric at p={p}")
            if isinstance(m, DistanceMatrix):
                if np.abs(np.diagonal(m.matrix)).max() > 1e-8 or m.matrix.min() < 0:
                    checks.append(f"{name} distance invariants broken at p={p}")

    # Heat and For rows sum to 1 (t = p/(1-p) from 1/9 to 5)
    for p in (0.1, 0.5, 5.0 / 6.0):
        for name in ("For", "Heat"):
            if np.abs(ev.matrix(name, p).matrix.sum(axis=1) - 1.0).max() > 1e-8:
                checks.append(f"{name} row sums differ from 1 at p={p:g}")

    # commute-time duality: the distance L+ induces is the effective resistance
    if np.abs(ev.resistance_matrix - grounded_resistance(g.adjacency)).max() > 1e-10:
        checks.append("CT-induced distance != resistance distance")

    # cutpoint additivity of the logFor-induced distance on a path
    ev3 = FamilyEvaluator(_p3())
    for t in np.geomspace(0.05, 20.0, 10):
        d = proximity_to_distance(ev3.matrix("logFor", float(t / (1.0 + t)))).matrix
        if abs(d[0, 1] + d[1, 2] - d[0, 2]) > 1e-8:
            checks.append(f"logFor cutpoint additivity fails at t={t:g}")

    # double-centering roundtrip on genuine Euclidean distances: it gives
    # back D∘D, the Ward input clustering_sqdist takes for distance families
    rng = np.random.default_rng(seed + 31)
    pts = rng.normal(size=(12, 3))
    delta = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    kernel = distance_to_kernel(distance_matrix(delta, "euclidean"))
    back = proximity_to_distance(kernel).matrix
    if np.abs(back - delta ** 2).max() > 1e-8:
        checks.append("double-centering roundtrip misses squared distances")
    if np.abs(kernel.matrix.sum(axis=1)).max() > 1e-8:
        checks.append("double-centering rows do not sum to 0")

    # Copeland zero-sum on random statistic tables (exact integers)
    for _ in range(20):
        stats = rng.integers(0, 4, size=(5, 6)) / 3.0
        if copeland_scores(stats).sum() != 0:
            checks.append("Copeland scores not zero-sum")
            break

    # identical sweeps for any worker count: every ARI and error cell
    spec = uniform_spec(30, 2, 0.5, 0.15, seed=seed + 32)
    fams = ("logComm", "SCCT", "For", "SP-CT", "RSP")
    grid = parameter_grid(6)
    serial = sweep_task(spec, fams, grid, 4, workers=1)
    pooled = sweep_task(spec, fams, grid, 4, workers=2)
    if any(not np.array_equal(serial[name].ari, pooled[name].ari)
           or serial[name].errors != pooled[name].errors for name in fams):
        checks.append("sweep differs across worker counts")

    ok = not checks
    return CriterionResult("A6", ok, "; ".join(checks) if checks else "all invariants hold")


def criterion_a7(seed: int, workers: int) -> CriterionResult:
    """RSP/FE approach shortest-path distances at low temperature and
    never drop below them on the grid.

    At beta = 20, RSP must be within 1e-2 of SP.  FE converges at rate
    1/beta, FE - SP -> c/beta with c >= 0 from :func:`fe_limit_offset`, so
    FE at beta = 20 must be within 1e-2 of SP + c/beta.  Both are taken as
    the cells take them, at the normalized p = 20/21 (beta = p / (1 - p)).
    """
    p_low = 20.0 / 21.0
    checks: list[str] = []
    gaps: list[str] = []
    graphs = [_p3(), generate(uniform_spec(10, 2, 0.6, 0.3, seed=seed + 40), 0)]
    for tag, g in zip(("P3", "n10"), graphs):
        ev = FamilyEvaluator(g)
        beta = ev.raw_parameter("FE", p_low)
        sp = shortest_path_matrix(g).matrix
        offset = fe_limit_offset(g.adjacency)
        if offset.min() < -1e-12:
            checks.append(f"FE limit offset {offset.min():.2e} is negative on {tag}")
        rsp_gap = np.abs(ev.matrix("RSP", p_low).matrix - sp).max()
        if rsp_gap > 1e-2:
            checks.append(f"RSP at beta={beta:g} off by {rsp_gap:.2e} on {tag}")
        fe = ev.matrix("FE", p_low).matrix
        fe_gap = np.abs(fe - sp).max()
        residual = np.abs(fe - (sp + offset / beta)).max()
        if residual > 1e-2:
            checks.append(f"FE at beta={beta:g} off SP + c/beta by {residual:.2e} on {tag}")
        gaps.append(f"{tag}: RSP-SP {rsp_gap:.1e}, FE-SP {fe_gap:.2e} "
                    f"vs c_max/beta {offset.max() / beta:.2e}, "
                    f"FE-(SP+c/beta) {residual:.1e}")
        for variant in ("RSP", "FE"):
            for p in parameter_grid(50):
                delta = ev.matrix(variant, float(p)).matrix
                if (delta - sp).min() < -1e-8:
                    grid_beta = ev.raw_parameter(variant, float(p))
                    checks.append(f"{variant} below shortest path at beta={grid_beta:.3g} on {tag}")
                    break
    ok = not checks
    verdict = "; ".join(checks) if checks else "RSP/FE converge to and stay above shortest paths"
    return CriterionResult("A7", ok, verdict + " (" + "; ".join(gaps) + ")")


CRITERIA = {
    "A1": criterion_a1,
    "A2": criterion_a2,
    "A3": criterion_a3,
    "A4": criterion_a4,
    "A5": criterion_a5,
    "A6": criterion_a6,
    "A7": criterion_a7,
}


def select_criteria(only=None) -> list[str]:
    if not only:
        return list(CRITERIA)
    selected: list[str] = []
    for token in only:
        token = token.strip()
        if token.lower() in SUITES:
            selected.extend(SUITES[token.lower()])
        elif token.upper() in CRITERIA:
            selected.append(token.upper())
        else:
            raise KernelBenchError(
                f"unknown criterion or suite {token!r}; "
                f"use A1..A7 or one of {sorted(SUITES)}"
            )
    # preserve canonical order, drop duplicates
    return [name for name in CRITERIA if name in set(selected)]


def run_acceptance(only=None, seed: int = DEFAULT_SEED, workers: int = 1,
                   log=None) -> list[CriterionResult]:
    """Run the selected criteria, printing one status line per criterion.
    ``seed`` and ``workers`` are checked as a config's are, before any
    criterion runs."""
    seed, workers = check_count("seed", seed), check_count("workers", workers)
    results = []
    for name in select_criteria(only):
        try:
            result = CRITERIA[name](seed=seed, workers=workers)
        except KernelBenchError as exc:
            result = CriterionResult(name, False, f"aborted: {exc}")
        results.append(result)
        if log is not None:
            log(f"[{result.status}] {result.name}: {result.details}")
    return results
