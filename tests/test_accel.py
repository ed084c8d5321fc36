"""Ward's deterministic tie rule, and the batched Ward body ``clustering.ward_cuts``
against a full-triangle reference loop."""

import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kernelbench import build_graph, clustering, cut_dendrogram, shortest_path_matrix, ward_linkage
from kernelbench.clustering import TIE_TOL, Dendrogram, _checked_sqdist, ward_cuts
from kernelbench.measures import FamilyEvaluator
from kernelbench.transforms import clustering_sqdist


def reference_ward_merges(sqdist: np.ndarray) -> np.ndarray:
    """The full-triangle Ward loop: every step reads all n(n-1)/2 pairs.

    Same tie rule and Lance-Williams arithmetic as ``ward_cuts``,
    which must reproduce its merge rows bit for bit.
    """
    d = np.ascontiguousarray(sqdist, dtype=np.float64)
    n = d.shape[0]
    if n < 2:
        return np.empty((0, 4), dtype=np.float64)
    w = d / 2.0
    np.fill_diagonal(w, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    iu, ju = np.triu_indices(n, 1)
    out = np.empty((n - 1, 4), dtype=np.float64)
    for step in range(n - 1):
        vals = w[iu, ju]
        best = vals.min()
        pick = int(np.argmax(vals <= best + TIE_TOL))
        a = int(iu[pick])
        b = int(ju[pick])
        cost = w[a, b]
        na = sizes[a]
        nb = sizes[b]
        ns = na + nb
        mask = alive.copy()
        mask[a] = False
        mask[b] = False
        nk = sizes[mask]
        upd = ((na + nk) * w[a, mask] + (nb + nk) * w[b, mask] - nk * cost) / (ns + nk)
        w[a, mask] = upd
        w[mask, a] = upd
        w[b, :] = np.inf
        w[:, b] = np.inf
        alive[b] = False
        sizes[a] = ns
        out[step, 0] = ids[a]
        out[step, 1] = ids[b]
        out[step, 2] = cost
        out[step, 3] = ns
        ids[a] = n + step
    return out


class TestTieBreaking:
    def test_unit_square_first_merge(self):
        # four corners of a unit square: all four side pairs tie at cost 1/2;
        # the smallest slot pair (0, 1) must merge first
        pts = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]])
        sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        merges = ward_linkage(sq.copy()).merges
        assert (merges[0, 0], merges[0, 1]) == (0.0, 1.0)

    def test_identical_points_merge_in_slot_order(self):
        sq = np.zeros((4, 4))
        merges = ward_linkage(sq.copy()).merges
        assert [tuple(row[:2]) for row in merges] == [(0.0, 1.0), (4.0, 2.0), (5.0, 3.0)]


def _points_sqdist(points):
    return ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)


def _inputs(kind, count, n, rng):
    """``count`` checked Ward inputs of one kind: tie-heavy integer grids,
    all zeros, or random points."""
    out = []
    for _ in range(count):
        if kind == "grid":
            points = rng.integers(0, 3, size=(n, 2)).astype(float)
        elif kind == "zeros":
            points = np.zeros((n, 1))
        else:
            points = rng.normal(size=(n, 3))
        out.append(_checked_sqdist(_points_sqdist(points)))
    return out


class TestBatchedWard:
    @pytest.mark.parametrize("kind", ["grid", "zeros", "random"])
    @pytest.mark.parametrize("n", [2, 7, 23])
    def test_merge_rows_match_reference(self, kind, n, rng):
        for sq in _inputs(kind, 5, n, rng):
            expected = reference_ward_merges(sq)
            got = ward_linkage(sq).merges
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("kind", ["grid", "zeros", "random"])
    @pytest.mark.parametrize("size", [1, 3, 11])
    def test_cuts_match_reference(self, kind, size, rng):
        # 11 inputs cut in stacks of 1, of 3 (which does not divide 11) and
        # of all 11 at once
        n = 19
        inputs = _inputs(kind, 11, n, rng)
        trees = [Dendrogram(reference_ward_merges(sq), n) for sq in inputs]
        for k in (1, 2, 4, n - 1, n):
            expected = [cut_dendrogram(tree, k).labels for tree in trees]
            got = []
            for start in range(0, len(inputs), size):
                got.extend(ward_cuts(np.stack(inputs[start:start + size]), k))
            assert all(np.array_equal(x, y) for x, y in zip(got, expected))

    def test_merge_that_lowers_a_rows_least(self):
        # Row 3's least is 1/2, at columns 0 and 1.  Merging (0, 1) puts
        # 1/2 - 2e-13/3 at column 0, below that least, so row 3's cached
        # least must drop although the merge rescans only rows 0 and 2.
        base = np.array([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 2], [1, 1, 2, 0]])
        noise = np.array([[0, 1, 2, 0], [1, 0, -1, 0], [2, -1, 0, 0], [0, 0, 0, 0]])
        sq = base + noise * 4e-13
        assert np.array_equal(ward_linkage(sq).merges, reference_ward_merges(sq))

    def test_full_stack_merge_rows(self, rng):
        n = 15
        inputs = _inputs("grid", 6, n, rng) + _inputs("random", 6, n, rng)
        merges = np.empty((len(inputs), n - 1, 4))
        ward_cuts(np.stack(inputs), 1, merges)
        for sq, rows in zip(inputs, merges):
            assert np.array_equal(rows, reference_ward_merges(sq))

    def test_rejects_a_strided_stack(self):
        with pytest.raises(ValueError):
            ward_cuts(np.zeros((2, 4, 4))[:, ::2, ::2], 1)

    @pytest.mark.parametrize("scale", [2.0 ** -1040, 2.0 ** 1000], ids=["subnormal", "large"])
    def test_scaled_inputs_match_reference_bit_for_bit(self, scale, rng):
        # Subnormal entries, and entries whose Lance-Williams products come
        # near the float range: with no fused multiply-add, no fast-math and
        # no flush to zero, the C body rounds every operation as the
        # reference loop's numpy does.
        for group in (_inputs("random", 6, 17, rng), _tie_heavy_inputs(rng)):
            inputs = [sq * scale for sq in group]
            positive = np.concatenate([sq[sq > 0] for sq in inputs])
            if scale < 1:
                assert positive.max() < np.finfo(np.float64).tiny
            n = inputs[0].shape[0]
            expected = [reference_ward_merges(sq) for sq in inputs]
            merges = np.empty((len(inputs), n - 1, 4))
            ward_cuts(np.stack(inputs), 1, merges)
            assert all(np.array_equal(rows, ref) for rows, ref in zip(merges, expected))
            for k in (2, 5):
                cuts = ward_cuts(np.stack(inputs), k)
                assert all(np.array_equal(cut, cut_dendrogram(Dendrogram(ref, n), k).labels)
                           for cut, ref in zip(cuts, expected))

    def test_rejects_arrays_the_c_body_cannot_take(self):
        # checked before any pointer reaches the C body
        read_only = np.zeros((2, 4, 4))
        read_only.flags.writeable = False
        for stack in (np.zeros((2, 4, 3)), np.zeros((4, 4)), read_only):
            with pytest.raises(ValueError, match="ward_cuts needs"):
                ward_cuts(stack, 1)
        for merges in (np.empty((2, 2, 4)), np.empty((1, 3, 4)),
                       np.empty((2, 3, 4), dtype=np.float32), np.empty((2, 4, 3)).transpose(0, 2, 1)):
            with pytest.raises(ValueError, match="merges must be"):
                ward_cuts(np.zeros((2, 4, 4)), 1, merges)


def _ring_of_cliques(cliques, size):
    """``cliques`` cliques of ``size`` nodes; the last node of each is joined
    to the first node of the next."""
    n = cliques * size
    a = np.zeros((n, n))
    for c in range(cliques):
        block = slice(c * size, (c + 1) * size)
        a[block, block] = 1.0
        last, first = (c + 1) * size - 1, (c + 1) * size % n
        a[last, first] = a[first, last] = 1.0
    np.fill_diagonal(a, 0.0)
    return build_graph(a)


def _tie_heavy_inputs(rng):
    """Identical points, and induced distances on a ring of 8 cliques of 6:
    squared hop counts (as is and with the nodes shuffled) and For at p = 0.5."""
    g = _ring_of_cliques(8, 6)
    hops = shortest_path_matrix(g).matrix ** 2
    shuffle = rng.permutation(g.n)
    return [np.zeros((g.n, g.n)), _checked_sqdist(hops),
            _checked_sqdist(hops[np.ix_(shuffle, shuffle)]),
            clustering_sqdist(FamilyEvaluator(g).matrix("For", 0.5))]


def _live_slots(merges, n, steps):
    """Each cluster's smallest node after ``steps`` merges: the live slots."""
    labels = cut_dendrogram(Dendrogram(merges, n), n - steps).labels
    return tuple(np.unique(labels, return_index=True)[1])


class TestCompaction:
    @pytest.mark.parametrize("k", [1, 8])
    def test_tie_heavy_merge_rows(self, k, rng):
        # 48 slots: the stack is compacted at 24 and 12 live slots, and at 6
        # and 3 too when k = 1
        inputs = _tie_heavy_inputs(rng)
        n = inputs[0].shape[0]
        expected = [reference_ward_merges(sq) for sq in inputs]
        # the matrices lose different slots before the first compaction
        assert len({_live_slots(rows, n, n // 2) for rows in expected}) == len(inputs)
        merges = np.empty((len(inputs), n - k, 4))
        labels = ward_cuts(np.stack(inputs), k, merges)
        for rows, ref, cut in zip(merges, expected, labels):
            assert np.array_equal(rows, ref[:n - k])
            assert np.array_equal(cut, cut_dendrogram(Dendrogram(ref, n), k).labels)

    def test_peak_memory_stays_below_the_stack(self, rng):
        # Temporaries stay well under the stack itself: no full-stack copy,
        # and a compaction copies at most a quarter of it.
        stack = np.stack(_inputs("random", 6, 160, rng))
        tracemalloc.start()
        try:
            ward_cuts(stack, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * stack.nbytes


class TestBuild:
    """``clustering`` builds ``_ward.c`` at import, once per source version."""

    def test_a_second_import_loads_the_cached_library(self):
        library = clustering._built_library()
        assert library.parent == Path(clustering.__file__).with_name("__pycache__")
        before = library.stat()
        src = Path(clustering.__file__).parents[1]
        subprocess.run([sys.executable, "-c", "import kernelbench.clustering"], check=True,
                       timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
        after = library.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert not list(library.parent.glob(library.name + ".*.tmp"))

    @pytest.mark.parametrize("fault", ["no compiler", "a source cc refuses"])
    def test_a_failed_build_is_an_import_error(self, fault, tmp_path):
        package = tmp_path / "kernelbench"
        shutil.copytree(Path(clustering.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        if fault == "no compiler":
            (tmp_path / "bin").mkdir()
            env["PATH"] = str(tmp_path / "bin")
            reason = "No such file or directory: 'cc'"
        else:
            with open(package / "_ward.c", "a") as source:
                source.write("#error not this version\n")
            reason = "#error not this version"
        done = subprocess.run([sys.executable, "-c", "import kernelbench"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode != 0
        assert ("ImportError: cannot build Ward's step loop: "
                "cc -O2 -ffp-contract=off -fPIC -shared -o ") in done.stderr
        assert reason in done.stderr
        assert not list((package / "__pycache__").glob("_ward-*"))
