import importlib.util
from pathlib import Path

import numpy as np
import pytest

from kernelbench import build_graph, evaluation, generate, uniform_spec
from kernelbench.errors import NumericalOverflow
from kernelbench.measures import FamilyEvaluator


@pytest.fixture(autouse=True)
def no_kept_pool():
    """Every test starts without a kept process pool and leaves none behind,
    so no test runs on workers forked for, or under the patches of, another."""
    yield
    evaluation.shutdown_pool()


@pytest.fixture
def p3():
    return build_graph(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))


@pytest.fixture
def k2():
    return build_graph(np.array([[0, 1], [1, 0.0]]))


@pytest.fixture
def k3():
    return build_graph(1.0 - np.eye(3))


@pytest.fixture
def k5():
    return build_graph(1.0 - np.eye(5))


@pytest.fixture
def c4():
    a = np.zeros((4, 4))
    for i in range(4):
        a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = 1.0
    return build_graph(a)


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)


@pytest.fixture
def comm_fails(monkeypatch):
    """Comm raises NumericalOverflow on every cell.  The patch holds in this
    process only, so a protocol run under it must be serial."""
    real = FamilyEvaluator.matrix

    def matrix(evaluator, name, p):
        if name == "Comm":
            raise NumericalOverflow("Comm made to fail")
        return real(evaluator, name, p)

    monkeypatch.setattr(FamilyEvaluator, "matrix", matrix)


def random_connected_graph(rng, n, p=0.4, weighted=False, classes=None):
    """Rejection-sample a connected graph; optionally weighted and labeled."""
    from kernelbench import is_connected

    while True:
        a = np.zeros((n, n))
        iu, ju = np.triu_indices(n, 1)
        edges = rng.random(iu.shape[0]) < p
        if weighted:
            weights = rng.uniform(0.5, 3.0, size=iu.shape[0])
        else:
            weights = np.ones(iu.shape[0])
        a[iu[edges], ju[edges]] = weights[edges]
        a[ju[edges], iu[edges]] = weights[edges]
        labels = None
        if classes is not None:
            labels = np.sort(rng.integers(0, classes, size=n))
            labels[: classes] = np.arange(classes)  # every class occurs
            labels = np.sort(labels)
        g = build_graph(a, labels)
        if is_connected(g):
            return g


@pytest.fixture
def connected_graph_factory(rng):
    def factory(n, p=0.4, weighted=False, classes=None):
        return random_connected_graph(rng, n, p, weighted, classes)

    return factory


@pytest.fixture
def sbm_graph():
    return generate(uniform_spec(40, 2, 0.7, 0.1, seed=99), 0)


def fetch_datasets():
    """``scripts/fetch_datasets.py``, imported by path."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "fetch_datasets.py"
    spec = importlib.util.spec_from_file_location("fetch_datasets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def zachary_root(tmp_path_factory):
    """A data directory holding zachary.gml as users make it: the fetch
    script's offline mode, which synthesizes it from networkx."""
    pytest.importorskip("networkx")
    root = tmp_path_factory.mktemp("data")
    assert fetch_datasets().main(["--root", str(root), "--skip-download"]) == 0
    return root
