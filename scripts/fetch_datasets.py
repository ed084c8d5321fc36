#!/usr/bin/env python3
"""Fetch the benchmark datasets into a data root (default: $KERNELBENCH_DATA or ./data).

The data files are not part of this repository.  This script documents their
provenance, downloads what has a stable public source, and records/verifies
sha256 checksums in <root>/CHECKSUMS.sha256 (recorded on first fetch, verified
on every later run, since the upstream sites publish no hashes).

 * football.gml, polbooks.gml - M. Newman's network data collection
   (http://www-personal.umich.edu/~mejn/netdata/), zip archives containing the
   GML file.  Both carry a per-node `value` attribute used as the class label.
 * zachary.gml - synthesized locally from networkx's bundled copy of the
   karate club graph.  The `value` attribute encodes the faction split from
   the original study's network model (actor 9, node id 8 here, sides with
   the officers), which is the labeling under which near-perfect clustering
   is attainable; networkx's `club` attribute records the post-split club
   membership instead, which differs on that single node.
 * news_2cl_*.edges / news_3cl_*.edges (+ .labels sidecars) - weighted
   similarity graphs over 20-Newsgroups subsets (400 or 600 documents).
   There is no stable public mirror; produce or obtain them separately and
   drop them into the data root.  The loader checks node/class counts.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
import urllib.request
import zipfile
from pathlib import Path

NEWMAN = "http://www-personal.umich.edu/~mejn/netdata"
DOWNLOADS = {
    "football.gml": f"{NEWMAN}/football.zip",
    "polbooks.gml": f"{NEWMAN}/polbooks.zip",
}
NEWS_FILES = [
    f"news_{kind}_{i}.{ext}"
    for kind in ("2cl", "3cl")
    for i in (1, 2, 3)
    for ext in ("edges", "labels")
]


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_checksums(path: Path) -> dict[str, str]:
    if not path.exists():
        return {}
    out = {}
    for line in path.read_text().splitlines():
        if line.strip():
            digest, name = line.split(None, 1)
            out[name.strip()] = digest
    return out


def save_checksums(path: Path, sums: dict[str, str]) -> None:
    lines = [f"{digest}  {name}" for name, digest in sorted(sums.items())]
    path.write_text("\n".join(lines) + "\n")


def check_or_record(path: Path, sums: dict[str, str]) -> bool:
    digest = sha256_of(path)
    known = sums.get(path.name)
    if known is None:
        sums[path.name] = digest
        print(f"  recorded sha256 {digest[:16]}... for {path.name}")
        return True
    if known != digest:
        print(f"  CHECKSUM MISMATCH for {path.name}: recorded {known[:16]}..., "
              f"got {digest[:16]}...", file=sys.stderr)
        return False
    print(f"  checksum ok for {path.name}")
    return True


def fetch_newman(name: str, url: str, root: Path) -> bool:
    target = root / name
    if target.exists():
        print(f"{name}: already present")
        return True
    print(f"{name}: downloading {url}")
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            payload = response.read()
    except OSError as exc:
        print(f"  download failed: {exc}", file=sys.stderr)
        return False
    with zipfile.ZipFile(io.BytesIO(payload)) as archive:
        member = next(m for m in archive.namelist() if m.endswith(".gml"))
        target.write_bytes(archive.read(member))
    print(f"  wrote {target}")
    return True


def write_zachary(root: Path) -> bool:
    target = root / "zachary.gml"
    if target.exists():
        print("zachary.gml: already present")
        return True
    try:
        import networkx as nx
    except ImportError:
        print("zachary.gml: networkx not installed; cannot synthesize", file=sys.stderr)
        return False
    graph = nx.karate_club_graph()
    # Faction-model split: post-split club membership, with actor 9 (node 8)
    # assigned to the officers' faction.
    labels = {
        i: (0 if graph.nodes[i]["club"] == "Mr. Hi" else 1) for i in graph.nodes
    }
    labels[8] = 1
    lines = ["graph [", "  directed 0"]
    for i in sorted(graph.nodes):
        lines += ["  node [", f"    id {i}", f'    label "{i}"',
                  f"    value {labels[i]}", "  ]"]
    for u, v in sorted(graph.edges):
        lines += ["  edge [", f"    source {u}", f"    target {v}", "  ]"]
    lines.append("]")
    target.write_text("\n".join(lines) + "\n")
    print(f"zachary.gml: synthesized from networkx ({graph.number_of_nodes()} nodes)")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=os.environ.get("KERNELBENCH_DATA", "data"),
                        help="data directory (default: $KERNELBENCH_DATA or ./data)")
    parser.add_argument("--skip-download", action="store_true",
                        help="fetch nothing over the network: still synthesize "
                             "zachary.gml locally, then verify/record checksums")
    args = parser.parse_args(argv)

    root = Path(args.root)
    root.mkdir(parents=True, exist_ok=True)
    sums_path = root / "CHECKSUMS.sha256"
    sums = load_checksums(sums_path)

    ok = True
    if not args.skip_download:
        for name, url in DOWNLOADS.items():
            ok &= fetch_newman(name, url, root)
    ok &= write_zachary(root)

    missing_news = [n for n in NEWS_FILES if not (root / n).exists()]
    if missing_news:
        print(f"newsgroup files not present ({len(missing_news)} missing); "
              "see the module docstring for provenance")

    for path in sorted(root.iterdir()):
        if path.name == sums_path.name or path.is_dir():
            continue
        ok &= check_or_record(path, sums)
    save_checksums(sums_path, sums)
    print(f"checksums written to {sums_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
