"""Loading labeled benchmark graphs from GML and edge-list files.

The format follows the file's suffix:

* ``.gml``, a GML subset: ``node [ id <int> label "..." value <class> ]`` and
  ``edge [ source <int> target <int> weight <float> ]``.  The ``value``
  attribute carries the ground-truth class.
* any other suffix, an edge list: whitespace-separated integer pairs
  with an optional third weight column, plus a label sidecar file (same
  path, ``.labels`` extension) holding one class per line in node order.

Node ids are remapped to 0..N-1 in declaration order for GML and
first-appearance order for edge lists.  Data files are not vendored;
``scripts/fetch_datasets.py`` documents where to get them and checks
hashes.  Registered datasets are read from the directory named by the
``KERNELBENCH_DATA`` environment variable (default ``./data``).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetMissing, Disconnected, MissingLabels, NotFound, ParseError
from .graph import Graph, build_graph, is_connected

DATA_ENV = "KERNELBENCH_DATA"


@dataclass(frozen=True)
class DatasetDescriptor:
    name: str
    nodes: int
    classes: int
    filename: str  # ".gml" is read as GML, anything else as an edge list


_REGISTRY = (
    DatasetDescriptor("football", 115, 12, "football.gml"),
    DatasetDescriptor("polbooks", 105, 3, "polbooks.gml"),
    DatasetDescriptor("zachary", 34, 2, "zachary.gml"),
    DatasetDescriptor("news_2cl_1", 400, 2, "news_2cl_1.edges"),
    DatasetDescriptor("news_2cl_2", 400, 2, "news_2cl_2.edges"),
    DatasetDescriptor("news_2cl_3", 400, 2, "news_2cl_3.edges"),
    DatasetDescriptor("news_3cl_1", 600, 3, "news_3cl_1.edges"),
    DatasetDescriptor("news_3cl_2", 600, 3, "news_3cl_2.edges"),
    DatasetDescriptor("news_3cl_3", 600, 3, "news_3cl_3.edges"),
)


def registry() -> list[DatasetDescriptor]:
    """Descriptors of the nine benchmark datasets (files user-supplied)."""
    return list(_REGISTRY)


def dataset_descriptor(name: str) -> DatasetDescriptor:
    for d in _REGISTRY:
        if d.name == name.lower():
            return d
    raise NotFound(f"unknown dataset {name!r}")


# -- GML ----------------------------------------------------------------------

_GML_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]]+')


def _gml_scalar(token: str):
    if token.startswith('"') and token.endswith('"'):
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _gml_block(tokens: list[str], pos: int, nested: bool = False):
    items: list[tuple[str, object]] = []
    while pos < len(tokens):
        tok = tokens[pos]
        if tok == "]":
            if not nested:
                raise ParseError(f"GML: unexpected ']' at token {pos}")
            return items, pos + 1
        if tok == "[":
            raise ParseError(f"GML: unexpected '[' at token {pos}")
        pos += 1
        if pos >= len(tokens):
            raise ParseError(f"GML: key {tok!r} has no value")
        if tokens[pos] == "[":
            sub, pos = _gml_block(tokens, pos + 1, nested=True)
            items.append((tok, sub))
        else:
            items.append((tok, _gml_scalar(tokens[pos])))
            pos += 1
    if nested:
        raise ParseError("GML: unterminated '[' block")
    return items, pos


def _first(items, key, default=None):
    for k, v in items:
        if k == key:
            return v
    return default


def _load_gml(path: Path) -> Graph:
    tokens = _GML_TOKEN.findall(path.read_text())
    items, _ = _gml_block(tokens, 0)
    graph_items = _first(items, "graph")
    if graph_items is None:
        raise ParseError(f"{path.name}: no 'graph [...]' section")

    node_index: dict[int, int] = {}
    raw_labels: list[object] = []
    for key, value in graph_items:
        if key != "node":
            continue
        node_id = _first(value, "id")
        if node_id is None:
            raise ParseError(f"{path.name}: node without id")
        if node_id in node_index:
            raise ParseError(f"{path.name}: duplicate node id {node_id}")
        node_index[node_id] = len(node_index)
        raw_labels.append(_first(value, "value"))

    n = len(node_index)
    if n == 0:
        raise ParseError(f"{path.name}: no nodes")
    if any(v is None for v in raw_labels):
        missing = sum(1 for v in raw_labels if v is None)
        raise MissingLabels(f"{path.name}: {missing} nodes have no 'value' attribute")

    adjacency = np.zeros((n, n), dtype=np.float64)
    for key, value in graph_items:
        if key != "edge":
            continue
        source = _first(value, "source")
        target = _first(value, "target")
        weight = _first(value, "weight", 1.0)
        if source not in node_index or target not in node_index:
            raise ParseError(f"{path.name}: edge ({source},{target}) references unknown node")
        i, j = node_index[source], node_index[target]
        if i == j:
            raise ParseError(f"{path.name}: self-loop on node {source}")
        try:
            adjacency[i, j] = adjacency[j, i] = float(weight)
        except (TypeError, ValueError):
            raise ParseError(
                f"{path.name}: edge ({source},{target}) has non-numeric weight {weight!r}"
            ) from None

    return build_graph(adjacency, _index_labels(raw_labels))


def _index_labels(raw: list[object]) -> np.ndarray:
    seen: dict[object, int] = {}
    out = np.empty(len(raw), dtype=np.int64)
    for i, value in enumerate(raw):
        if value not in seen:
            seen[value] = len(seen)
        out[i] = seen[value]
    return out


# -- edge list ----------------------------------------------------------------

def _load_edgelist(path: Path) -> Graph:
    labels_path = path.with_suffix(".labels")
    if not labels_path.exists():
        raise MissingLabels(f"label sidecar {labels_path.name} not found next to {path.name}")

    node_index: dict[int, int] = {}
    edges: list[tuple[int, int, float]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"{path.name}:{lineno}: expected 'u v [w]', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ParseError(f"{path.name}:{lineno}: {exc}") from None
        for node in (u, v):
            if node not in node_index:
                node_index[node] = len(node_index)
        edges.append((node_index[u], node_index[v], w))

    n = len(node_index)
    if n == 0:
        raise ParseError(f"{path.name}: no edges")
    adjacency = np.zeros((n, n), dtype=np.float64)
    for i, j, w in edges:
        if i == j:
            raise ParseError(f"{path.name}: self-loop on node {i}")
        adjacency[i, j] = adjacency[j, i] = w

    raw = []
    for lineno, line in enumerate(labels_path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw.append(int(line))
        except ValueError:
            raise ParseError(f"{labels_path.name}:{lineno}: labels must be integers") from None
    if len(raw) != n:
        raise ParseError(f"{labels_path.name}: {len(raw)} labels for {n} nodes")
    return build_graph(adjacency, _index_labels(raw))


# -- public api ----------------------------------------------------------------

def load_graph(path: str | Path) -> Graph:
    """Load a labeled graph from a GML file (``.gml``) or an edge-list file
    (any other suffix) with its label sidecar.

    The graph must be connected; the benchmark protocols assume it.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetMissing(f"no such file: {path}")
    g = _load_gml(path) if path.suffix.lower() == ".gml" else _load_edgelist(path)
    if not is_connected(g):
        raise Disconnected(f"{path.name}: graph is not connected")
    return g


def load_dataset(name: str) -> Graph:
    """Load a registered dataset from ``$KERNELBENCH_DATA`` and check its
    node/class counts."""
    desc = dataset_descriptor(name)
    path = Path(os.environ.get(DATA_ENV, "data")) / desc.filename
    if not path.exists():
        raise DatasetMissing(
            f"dataset {desc.name!r} missing: {path} (run scripts/fetch_datasets.py)"
        )
    g = load_graph(path)
    if g.n != desc.nodes:
        raise ParseError(f"{desc.name}: {g.n} nodes, descriptor expects {desc.nodes}")
    if g.num_classes != desc.classes:
        raise ParseError(
            f"{desc.name}: {g.num_classes} classes, descriptor expects {desc.classes}"
        )
    return g
