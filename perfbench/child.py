"""The measured process: ``child.py setup|measure <plan.json> [<result.json> <seconds>]``.

``setup`` imports kernelbench, parses the config or loads the graph files,
prints ``ready`` and exits; the parent times it from process start.
``measure`` does the same set-up, then runs whole rounds until ``seconds``
have passed, and writes round times, peak memory and the outputs to
``result.json``.  run.py starts it with one BLAS/OpenMP thread and the
checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _csv_digest(plan: dict) -> str:
    h = hashlib.sha256()
    for run in plan["runs"]:
        for path in sorted(Path(run["out"]).glob("*.csv")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv) -> int:
    mode, plan_path = argv[0], Path(argv[1])
    from workloads import run_round, setup

    plan = json.loads(plan_path.read_text())
    state = setup(plan)
    if mode == "setup":
        print("ready", flush=True)
        return 0
    result_path, seconds = Path(argv[2]), float(argv[3])
    walls, digests, first = [], [], None
    while sum(walls) < seconds:
        t0 = time.perf_counter()
        outputs = run_round(plan, state)
        walls.append(time.perf_counter() - t0)
        if len(walls) == 1:
            kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # Untimed: every round must reproduce the first one exactly.
        if plan["protocol"] == "runner":
            digests.append(_csv_digest(plan))
        elif first is None:
            first = outputs
        elif outputs != first:
            digests.append("differs")
    elapsed = sum(walls)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = plan["workers"] if plan["protocol"] == "runner" and plan["workers"] > 1 else 0
    result = {
        "elapsed": elapsed,
        "round_walls": walls,
        "rounds_identical": len(set(digests)) <= 1 and "differs" not in digests,
        # Sum of peaks: this process, plus each pool worker at the largest
        # worker's peak in the first round (getrusage reports only the
        # largest child; workers forked in later rounds inherit a parent
        # that has grown, so their peaks depend on the number of rounds).
        "peak_rss_mb": (own + workers * kids) / 1024.0,
        "peak_rss_own_mb": own / 1024.0,
        "peak_rss_worker_mb": kids / 1024.0,
        "outputs": first,
    }
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
