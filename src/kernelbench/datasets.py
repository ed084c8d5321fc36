"""Loading labeled benchmark graphs from GML and edge-list files.

The format follows the file's suffix:

* ``.gml``, a GML subset: ``node [ id <int> label "..." value <class> ]`` and
  ``edge [ source <int> target <int> weight <float> ]``.  The ``value``
  attribute carries the ground-truth class.
* any other suffix, an edge list: whitespace-separated integer pairs
  with an optional third weight column, plus a label sidecar file (same
  path, ``.labels`` extension) holding one class per line in node order.

Node ids are remapped to 0..N-1 in declaration order for GML and
first-appearance order for edge lists.  One function, ``_adjacency``,
checks both formats' edges, and a pair listed twice must carry one
weight.  An existing file that ``build_graph`` refuses is a ParseError
naming the file, whatever is wrong with it.  Data files are not vendored;
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

from .errors import DatasetMissing, KernelBenchError, NotFound, ParseError
from .graph import Graph, build_graph

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


def read_text(path: Path, what: str, error: type[KernelBenchError]) -> str:
    """The UTF-8 text of file ``path``; a file that cannot be read or is not
    UTF-8 raises ``error``, naming ``what`` the file is and its path."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8: {exc.reason} at byte {exc.start}") from None


# -- GML ----------------------------------------------------------------------

_GML_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]]+')


def _gml_scalar(token: str):
    if token.startswith('"') and token.endswith('"'):
        return token[1:-1]
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            pass
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


def _scalar(items, key: str, where: str):
    """The first value under ``key``, which must not be a [...] block."""
    value = _first(items, key)
    if isinstance(value, list):
        raise ParseError(f"{where}: '{key}' must be a single value, got a [...] block")
    return value


def _blocks(items, key: str, where: str) -> list:
    """Every value under ``key``, each of which must be a [...] block."""
    values = [value for k, value in items if k == key]
    for value in values:
        if not isinstance(value, list):
            raise ParseError(f"{where}: '{key}' must be a [...] block, got {value!r}")
    return values


def _load_gml(path: Path) -> Graph:
    tokens = _GML_TOKEN.findall(read_text(path, "GML file", ParseError))
    items, _ = _gml_block(tokens, 0)
    graphs = _blocks(items, "graph", path.name)
    if not graphs:
        raise ParseError(f"{path.name}: no 'graph [...]' section")

    node_index: dict[int, int] = {}
    raw_labels: list[object] = []
    for node in _blocks(graphs[0], "node", path.name):
        node_id = _scalar(node, "id", path.name)
        if node_id is None:
            raise ParseError(f"{path.name}: node without id")
        if node_id in node_index:
            raise ParseError(f"{path.name}: duplicate node id {node_id}")
        node_index[node_id] = len(node_index)
        raw_labels.append(_scalar(node, "value", path.name))
    # _adjacency checks each weight
    edges = [(_scalar(e, "source", path.name), _scalar(e, "target", path.name),
              _first(e, "weight", 1.0), path.name)
             for e in _blocks(graphs[0], "edge", path.name)]

    if None in raw_labels:
        raise ParseError(f"{path.name}: {raw_labels.count(None)} nodes have no 'value' attribute")
    return _labeled(_adjacency(node_index, edges), raw_labels, path.name)


# -- edge list ----------------------------------------------------------------

def _load_edgelist(path: Path) -> Graph:
    labels_path = path.with_suffix(".labels")
    if not labels_path.exists():
        raise ParseError(f"label sidecar {labels_path.name} not found next to {path.name}")

    node_index: dict[int, int] = {}
    edges = []
    for lineno, line in enumerate(read_text(path, "edge list", ParseError).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"{path.name}:{lineno}: expected 'u v [w]', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path.name}:{lineno}: {exc}") from None
        for node in (u, v):
            node_index.setdefault(node, len(node_index))
        edges.append((u, v, parts[2] if len(parts) == 3 else 1.0, f"{path.name}:{lineno}"))
    if not node_index:
        raise ParseError(f"{path.name}: no edges")
    # before the sidecar, so a bad edge is not reported as a label count
    adjacency = _adjacency(node_index, edges)

    raw = []
    lines = read_text(labels_path, "label sidecar", ParseError).splitlines()
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                raw.append(int(line))
            except ValueError:
                raise ParseError(f"{labels_path.name}:{lineno}: labels must be integers") from None
    if len(raw) != len(node_index):
        raise ParseError(f"{labels_path.name}: {len(raw)} labels for {len(node_index)} nodes")
    return _labeled(adjacency, raw, path.name)


def _adjacency(node_index: dict, edges: list) -> np.ndarray:
    """The weighted adjacency of edges ``(u, v, weight, where)``, each checked."""
    adjacency = np.zeros((len(node_index),) * 2)
    for u, v, weight, where in edges:
        try:
            i, j = node_index[u], node_index[v]
        except KeyError:
            raise ParseError(f"{where}: edge ({u},{v}) references unknown node") from None
        if i == j:
            raise ParseError(f"{where}: self-loop on node {u}")
        try:
            w = float(weight)
        except (TypeError, ValueError):
            raise ParseError(f"{where}: edge ({u},{v}) has non-numeric weight {weight!r}") from None
        if adjacency.item(i, j) not in (0.0, w):
            raise ParseError(f"{where}: edge ({u},{v}) has weight {w!r}, but its pair was "
                             f"listed before with weight {adjacency.item(i, j)!r}")
        adjacency[i, j] = adjacency[j, i] = w
    return adjacency


def _labeled(adjacency: np.ndarray, raw_labels: list, filename: str) -> Graph:
    """The graph of ``adjacency``; classes numbered by first appearance.  A
    graph ``build_graph`` refuses is a ParseError naming ``filename``."""
    classes: dict = {}
    try:
        return build_graph(adjacency, [classes.setdefault(c, len(classes)) for c in raw_labels])
    except KernelBenchError as exc:
        raise ParseError(f"{filename}: {exc}") from None


# -- public api ----------------------------------------------------------------

def load_graph(path: str | Path) -> Graph:
    """Load a labeled graph from a GML file (``.gml``) or an edge-list file
    (any other suffix) with its label sidecar.

    An existing file that does not make a connected, labeled graph of two
    nodes or more raises ParseError, naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetMissing(f"no such file: {path}")
    return _load_gml(path) if path.suffix.lower() == ".gml" else _load_edgelist(path)


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
