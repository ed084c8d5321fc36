#!/usr/bin/env python3
"""Benchmark of the kernelbench cell pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
A cell is one (graph, family, parameter) triple; see README.md for the
workloads, the checks and the counting rule for failed cells.
"""

import os

# One BLAS/OpenMP thread in this process and in every process it starts,
# set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The program under test is this checkout's src/, never an installed copy.
sys.path[:0] = [str(SRC), str(HERE)]
try:
    import kernelbench
except ImportError as _exc:
    sys.exit(f"perfbench: cannot import kernelbench from {SRC}: {_exc}")
if Path(kernelbench.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: kernelbench comes from {kernelbench.__file__}, not {SRC}")

import argparse  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

import kernelbench.runner as runner_mod  # noqa: E402
from kernelbench import FamilyEvaluator, generate, load_graph  # noqa: E402
from kernelbench.config import config_from_dict  # noqa: E402
from kernelbench.evaluation import parameter_grid  # noqa: E402

import reference as ref  # noqa: E402
from replay import Checks, NullTracer, Tracer, check_cell, replay_task, tournament  # noqa: E402
from workloads import (  # noqa: E402
    FAMILIES,
    WORKLOADS,
    cells_per_round,
    load_runner_config,
    prepare,
    run_configs,
    save_plan,
    sparse_spec,
    write_gml,
)

SETUP_REPEATS = 9
MARKERS = ("NonPositiveEntry", "NegativeDistance", "NumericalOverflow")
FAILURES = ("F1", "F2", "F3", "ruled_out")  # cell outcomes counted as failed on fixed inputs
SPAN_UNITS = {
    "generators.generate": "ms/graph", "datasets.load": "ms/file",
    "graph.shortest_path": "ms/graph", "spectral.eigen": "ms/graph",
    "measures.precompute": "ms/graph", "transforms.sqdist": "ms/cell",
    "clustering.ward": "ms/cell", "clustering.cut": "ms/cell", "clustering.ari": "ms/cell",
    "evaluation.reject": "ms/graph", "evaluation.reduce": "ms/task", "runner.write": "ms/run",
}
# Layers each protocol runs inside its timed round.  The replay's other
# spans (input generation and the load check for the datasets kind, the
# reject stage the AUC check adds, the CSV rewrite) are reported but left
# out of pool efficiency and self time.
CELL_LAYERS = {"spectral.eigen", "graph.shortest_path", "measures.precompute", "measures.matrix",
               "transforms.sqdist", "clustering.ward", "clustering.cut", "clustering.ari",
               "evaluation.reduce"}
PROTOCOL_LAYERS = {
    "sweep": CELL_LAYERS | {"generators.generate", "runner.write"},
    "reject": CELL_LAYERS | {"generators.generate", "runner.write", "evaluation.reject"},
    "datasets": CELL_LAYERS,
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def fingerprint():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
    sha = "not a git checkout"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        sha = head.read_text().strip()
        if sha.startswith("ref: ") and (ROOT / ".git" / sha[5:]).exists():
            sha = (ROOT / ".git" / sha[5:]).read_text().strip()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "nproc": os.cpu_count(), "git_sha": sha}


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux prctl PR_SET_CHILD_SUBREAPER), so they can be waited for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


@contextmanager
def reaped(proc: subprocess.Popen):
    """On every way out, kill what is left of ``proc``'s session and wait for all of it.

    ``proc`` is started with ``start_new_session=True``, so its process group
    also holds the pool workers it forks; as a subreaper this process adopts
    those that outlive ``proc`` and waits for them too.
    """
    try:
        yield proc
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        while True:
            try:
                os.waitpid(-proc.pid, 0)
            except ChildProcessError:
                break


def time_setup(plan_path: Path) -> list[float]:
    """Seconds from process start to the first cell, one fresh process each."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "setup", str(plan_path)],
                                stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
                                start_new_session=True)
        with reaped(proc):
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.close()
            ok = proc.wait(timeout=120) == 0 and line.strip() == "ready"
        if not ok:
            sys.exit("perfbench: set-up process failed")
    return times


def measure(plan_path: Path, seconds: int) -> dict:
    result = plan_path.parent / "measured.json"
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "measure", str(plan_path),
                             str(result), str(seconds)], env=child_env(), cwd=ROOT,
                            start_new_session=True)
    with reaped(proc):
        if proc.wait(timeout=170) != 0:
            sys.exit("perfbench: measured process failed")
    return json.loads(result.read_text())


# -- checks ---------------------------------------------------------------------

def _fnum(v) -> str:
    return f"{float(v):.10g}"  # how runner writes numbers


def new_census():
    return {"F1": 0, "F2": 0, "F3": 0, "ruled_out": 0, "f1_all": 0, "markers": Counter()}


def classify_errors(errors, fixed, checks, census):
    """Count (family index, grid index, marker) error cells; F2/F3 fail on fixed inputs."""
    for fi, j, marker in errors:
        kind = ref.classify(FAMILIES[fi], marker)
        checks.expect(kind != "unexplained", "error_marker", f"{FAMILIES[fi]} grid {j}: {marker}")
        census["markers"][marker] += 1
        if fixed and kind in ("F2", "F3", "ruled_out"):
            census[kind] += 1


def count_replay(result, fixed, checks, census):
    census["f1_all"] += len(result.f1)
    if fixed:
        census["F1"] += len(result.f1)
    classify_errors([(fi, j, m) for _, fi, j, m in result.errors], fixed, checks, census)


def same_graph(loaded, adjacency, labels, order, checks, what):
    order = np.asarray(order)
    want = np.asarray(adjacency)[np.ix_(order, order)]
    checks.expect(np.array_equal(loaded.adjacency, want) and np.array_equal(
        loaded.labels, ref.canonical(np.asarray(labels)[order])), "loaded_graph", what)


def check_graph(ev, grid, rng, workload, expected, checks):
    """Reference checks on a seeded sample of one graph's cells."""
    gref = ref.GraphReference(ev.graph.adjacency)
    cells = [(fi, int(j)) for fi in range(len(FAMILIES))
             for j in rng.choice(len(grid), size=min(workload.kernel_samples, len(grid)), replace=False)]
    ward = {cells[i] for i in rng.choice(len(cells), size=min(workload.ward_samples, len(cells)),
                                         replace=False)}
    for fi, j in cells:
        check_cell(ev, gref, fi, j, float(grid[j]), expected(fi, j) if expected else None,
                   (fi, j) in ward, checks)


def read_csv(path: Path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


def output_properties(kind, out, grid, checks):
    """Properties of runner outputs that hold whatever the numbers are."""
    best = {row["family"]: row for row in read_csv(out / "best_params.csv")}
    checks.expect(sorted(best) == sorted(FAMILIES), "outputs", "best_params.csv families")
    if kind == "sweep":
        rows = read_csv(out / "sweep.csv")
        for name in FAMILIES:
            mean = np.array([np.mean([float(r["ari"]) for r in rows
                                      if r["family"] == name and r["param"] == _fnum(p)]) for p in grid])
            j = int(np.argmax(mean))  # ties take the smaller parameter
            checks.expect(best[name]["param"] == _fnum(grid[j])
                          and abs(float(best[name]["ari"]) - mean[j]) <= 1e-9, "best_params", name)
        return
    rows = read_csv(out / "reject.csv")
    for name in FAMILIES:
        x = np.array([float(r["x"]) for r in rows if r["family"] == name])
        y = np.array([float(r["y_mean"]) for r in rows if r["family"] == name])
        ok = (x[0] == 0.0 and x[-1] == 1.0 and np.all(np.diff(y) >= -1e-9) and y.min() >= 0.0
              and y[-1] == 1.0 and abs(np.trapezoid(y, x) - float(best[name]["auc"])) <= 1e-8)
        checks.expect(ok, "reject_curve", name)


def runner_checks(plan, workload, tracer, checks, census, trace, pool):
    """Checks of the runner workloads; the fixed run (every run when tracing) is replayed."""
    cfg = load_runner_config(plan)
    grid = parameter_grid(cfg.grid_size)
    column = {_fnum(p): j for j, p in enumerate(grid)}
    for ti, (tag, c) in enumerate(run_configs(plan, cfg)):
        out = Path(c.out)
        fixed = tag == "fixed"
        replay_this = fixed or trace
        reported = {}  # (task, family index, grid index, graph index) -> (ARI text, marker)
        if c.kind == "sweep":
            for row in read_csv(out / "sweep.csv"):
                key = (row["task"], FAMILIES.index(row["family"]), column[row["param"]],
                       int(row["graph_index"]))
                reported[key] = (row["ari"], row["error"])
            if not replay_this:
                classify_errors([(fi, j, m) for (_, fi, j, _), (_, m) in reported.items() if m],
                                False, checks, census)
        replayed = []
        for spec in c.tasks:
            graphs = []
            for i in range(c.graphs_per_task):
                with tracer.span("generators.generate"):
                    graphs.append(generate(spec, i))
                path = OUT / plan["workload"] / f"roundtrip-{tag}-{i}.gml"
                write_gml(path, graphs[i].adjacency, graphs[i].labels)
                with tracer.span("datasets.load"):
                    loaded = load_graph(path)
                same_graph(loaded, graphs[i].adjacency, graphs[i].labels, range(graphs[i].n),
                           checks, f"{tag} graph {i}")
            evaluators = [FamilyEvaluator(g) for g in graphs]
            if replay_this:
                result = replay_task(graphs, grid, tracer, checks, runner_kind=c.kind, pool=pool)
                replayed.append(result)
                evaluators = result.evaluators
                count_replay(result, fixed, checks, census)
            for gi, ev in enumerate(evaluators):
                expected = None
                if reported:
                    def expected(fi, j, key=(spec.name, gi)):
                        ari, marker = reported[(key[0], fi, j, key[1])]
                        return ari, marker, _fnum
                check_graph(ev, grid, np.random.default_rng([plan["seed"], ti, gi]),
                            workload, expected, checks)
        output_properties(c.kind, out, grid, checks)
        if replayed:
            # runner.run writes the replayed results (its protocol call
            # replaced by the replay); the files must match byte for byte.
            again = OUT / plan["workload"] / f"replay-{tag}"
            results = iter(replayed)
            target, attr = ("sweep_task", "sweeps") if c.kind == "sweep" else ("reject_experiment", "averaged")
            with mock.patch.object(runner_mod, target, lambda *a, **k: getattr(next(results), attr)):
                with tracer.span("runner.write"):
                    runner_mod.run(dataclasses.replace(c, out=str(again)))
            for path in sorted(out.iterdir()):
                if path.name != "manifest.json":
                    twin = again / path.name
                    checks.expect(twin.exists() and twin.read_bytes() == path.read_bytes(),
                                  "replay_reproduces", f"{tag}: {path.name}")


def datasets_checks(plan, workload, measured, tracer, checks, census, trace, pool):
    """Checks of the datasets workloads; fixed graphs (all when tracing) are replayed."""
    grid = parameter_grid(plan["grid"])
    loaded, sweeps = {}, {}
    for idx, f in enumerate(plan["_written"]):
        with tracer.span("datasets.load"):
            g = load_graph(f["path"])
        same_graph(g, f["adjacency"], f["labels"], f["order"], checks, f["name"])
        loaded[f["name"]] = g
        if not f["fixed"]:
            with tracer.span("generators.generate"):
                made = generate(sparse_spec(plan["seed"]), 0)
            checks.expect(np.array_equal(made.adjacency > 0, np.asarray(f["adjacency"]) > 0),
                          "loaded_graph", f"{f['name']} regenerated")
        out = measured["outputs"][idx]
        errors = [tuple(e) for e in out["errors"]]
        replay_this = trace or f["fixed"]
        # A replayed graph's error cells are counted from its replay below.
        classify_errors(errors, False, checks, new_census() if replay_this else census)
        scores = np.array(out["scores"])
        checks.expect(int(scores.sum()) == 0, "copeland_sum", f["name"])
        if f["name"] == "zachary":
            missed = [name for fi, name in enumerate(FAMILIES)
                      if name != "For" and max(out["ari"][fi]) < 1.0 - 1e-12]
            checks.expect(not missed, "a4_zachary", f"families missing ARI 1.0: {missed}")
        ev = FamilyEvaluator(g)
        if replay_this:
            result = replay_task([g], grid, tracer, checks, pool=pool)
            sweeps[f["name"]] = result.sweeps
            ev = result.evaluators[0]
            same = (np.array_equal(tournament(result.sweeps, tracer), scores)
                    and [r.ari[0].tolist() for r in result.sweeps.values()] == out["ari"]
                    and sorted((fi, j, m) for _, fi, j, m in result.errors) == sorted(errors))
            checks.expect(same, "replay_reproduces", f["name"])
            count_replay(result, f["fixed"], checks, census)
        marker = {(fi, j): m for fi, j, m in errors}

        def expected(fi, j, out=out, marker=marker):
            return repr(out["ari"][fi][j]), marker.get((fi, j), ""), repr

        check_graph(ev, grid, np.random.default_rng([plan["seed"], idx]), workload, expected,
                    checks)
    if trace:
        # Time what kind: datasets writes for these results.
        cfg = config_from_dict({"kind": "datasets", "families": list(FAMILIES), "grid": plan["grid"],
                                "tasks": list(loaded), "out": str(OUT / plan["workload"] / "replay-write")})
        by_graph = {id(loaded[name]): result for name, result in sweeps.items()}
        with mock.patch.object(runner_mod, "load_dataset", lambda name, root=None: loaded[name]), \
                mock.patch.object(runner_mod, "sweep_graphs", lambda gs, *a, **k: by_graph[id(gs[0])]):
            with tracer.span("runner.write"):
                runner_mod.run(cfg)


# -- metrics ---------------------------------------------------------------------

def span_cost() -> float:
    """Seconds one empty span costs, to state the tracer's own overhead."""
    probe = Tracer()
    start = time.perf_counter()
    for _ in range(20000):
        with probe.span("x"):
            pass
    return (time.perf_counter() - start) / 20000


def layer_metrics(tracer, kind, workers, round_wall, census):
    totals = tracer.totals()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, unit in SPAN_UNITS.items():
        seconds, count = totals[name]
        put(f"{name}_ms", 1000.0 * seconds / count, unit)
    matrix = [totals[f"measures.matrix.{f}"] for f in FAMILIES]
    put("measures.matrix_ms", 1000.0 * sum(s for s, _ in matrix) / sum(c for _, c in matrix), "ms/cell")
    for f, (seconds, count) in zip(FAMILIES, matrix):
        put(f"measures.matrix_ms.{f}", 1000.0 * seconds / count, "ms/cell")
    put("clustering.scale_variant_cells", census["f1_all"], "count")
    for marker in MARKERS:
        put(f"evaluation.marker_cells.{marker}", census["markers"][marker], "count")
    top = [(name.rsplit(".", 1)[0] if name.startswith("measures.matrix.") else name, end - start)
           for name, start, end, parent in tracer.spans if parent < 0]
    work = sum(seconds for layer, seconds in top if layer in PROTOCOL_LAYERS[kind])
    put("evaluation.pool_efficiency", work / (workers * round_wall), "ratio")
    put("evaluation.self_s", workers * round_wall - work, "s")
    put("trace.overhead_pct", 100.0 * span_cost() * len(tracer.spans) / sum(s for _, s in top), "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.seed < 0:
        sys.exit("perfbench: --seed must be >= 0")
    if workload.workers > (os.cpu_count() or 1):
        sys.exit(f"perfbench: {workload.name} needs {workload.workers} CPUs")
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    plan = prepare(workload, args.seed, out)
    plan_path = out / "plan.json"
    save_plan(plan, plan_path)

    become_subreaper()
    setups = time_setup(plan_path)
    measured = measure(plan_path, args.seconds)
    rounds = len(measured["round_walls"])
    attempted = cells_per_round(plan) * rounds

    checks = Checks()
    checks.expect(measured["rounds_identical"], "rounds_identical", "a round's outputs differ from the first")
    census = new_census()
    tracer = Tracer() if args.trace else NullTracer()
    # Untraced, the replay of the fixed inputs is split over two processes;
    # traced, it runs serially in this one.  Forked workers: a spawn context
    # would also start multiprocessing's resource tracker, which outlives the
    # pool until this process has exited.
    pool = nullcontext() if args.trace else ProcessPoolExecutor(
        min(2, os.cpu_count() or 1), mp_context=multiprocessing.get_context("fork"))
    with pool as executor:
        if workload.protocol == "runner":
            runner_checks(plan, workload, tracer, checks, census, bool(args.trace), executor)
        else:
            datasets_checks(plan, workload, measured, tracer, checks, census, bool(args.trace),
                            executor)
    failed = sum(census[k] for k in FAILURES) * rounds

    if args.trace:
        metrics = layer_metrics(tracer, workload.kind, workload.workers,
                                measured["elapsed"] / rounds, census)
    else:
        metrics = {
            "cells_per_s": {"value": attempted / measured["elapsed"], "unit": "cells/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint(), "round_walls": measured["round_walls"],
        "cells_per_round": cells_per_round(plan), "setup_runs": setups,
        "peak_rss_own_mb": measured["peak_rss_own_mb"],
        "peak_rss_worker_mb": measured["peak_rss_worker_mb"],
        "failed_per_round": {k: census[k] for k in FAILURES},
        "checks": dict(checks.counts), "check_failures": checks.failures,
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print("fingerprint " + json.dumps(record["fingerprint"]))
    print(f"{workload.name}: {attempted} cells attempted, {failed} failed "
          f"(per round {', '.join(f'{k} {census[k]}' for k in FAILURES)}), "
          f"{len(checks.failures)} check failures")
    for failure in checks.failures[:20]:
        print("  check failed: " + failure)
    print(json.dumps({"correct": not checks.failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
