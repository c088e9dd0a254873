"""Benchmark of nbhd: seeded workloads, output checks and per-layer traces.

Usage, from the root of a checkout::

    python3 bench/run.py --workload fuzz|search|session --seed N \\
        --seconds S --trace 0|1 [--record]

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same inputs with the library's calls under spans
and reports the per-layer metrics.  Each run imports the package from
``src/`` of the checkout.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a human-readable report.

Outputs are checked against known answers on every seed.  For the
default seed (20260825) and the held-out seed (4099),
``bench/reference.json`` also holds a digest of every item's output and
the exact work counters; ``--record`` stores the run's digests
(trace 0) or counters (trace 1) there.  ``bench/baseline.json`` holds
the map from layer metrics to end-to-end metrics and the first numbers
measured.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("fuzz", "search", "session")
DEFAULT_SEED = 20260825
SETUP_REPEATS = 21
CLI_SHARE = 1 / 3
CLI_TIMEOUT_S = 60


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def import_workload(name: str):
    if not os.path.isfile(os.path.join(SRC, "nbhd", "__init__.py")):
        fail(f"no package at {SRC}/nbhd; run from a checkout of the repo")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    module = importlib.import_module("wl_" + name)
    origin = os.path.dirname(os.path.abspath(sys.modules["nbhd"].__file__))
    if origin != os.path.join(SRC, "nbhd"):
        fail(f"imported nbhd from {origin}, not from {SRC}")
    return module


def purge() -> None:
    local = {"gen", "layers", *("wl_" + w for w in WORKLOADS)}
    for name in list(sys.modules):
        if name == "nbhd" or name.startswith("nbhd.") or name in local:
            del sys.modules[name]


def setup(workload: str, seed: int, workdir: str):
    """Import the package and build the inputs, several times over, each
    time into a fresh directory under ``workdir`` as a first run would;
    the last repeat's inputs and directory are used.  Returns (module,
    inputs, directory, times)."""
    times = []
    for i in range(SETUP_REPEATS):
        purge()
        gc.collect()
        where = os.path.join(workdir, str(i))
        os.makedirs(where)
        start = perf_counter()
        module = import_workload(workload)
        inputs = module.build(seed, where)
        times.append(perf_counter() - start)
    return module, inputs, where, times


def cli_expected(inputs, workdir: str):
    """What each CLI request prints in-process, which the subprocess
    must reproduce.  Returns (outputs, problems)."""
    from layers import cli_call, in_dir
    outputs, problems = [], []
    with in_dir(workdir):
        for argv, want_code, want_out in inputs.cli:
            got = cli_call(argv)
            if want_code is not None and got != (want_code, want_out):
                problems.append(f"cli {argv}: expected exit {want_code} "
                                f"{want_out!r}, got {got!r:.200}")
            outputs.append(got)
    return outputs, problems


def cli_subprocess(argv, expected, workdir: str):
    """One ``python -m nbhd.cli`` call: (wall seconds, problem or None)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nbhd.cli", *argv],
                          cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    wall = perf_counter() - start
    got = (proc.returncode,
           proc.stdout + (f"[stderr]{proc.stderr}" if proc.stderr else ""))
    if got != expected:
        return wall, (f"cli {argv}: subprocess printed {got!r:.200}, "
                      f"in-process {expected!r:.200}")
    return wall, None


def measure(module, inputs, seconds: float, workdir: str):
    """Untraced passes over the inputs, each followed by CLI subprocess
    calls (the requests in turn) until those have taken ``CLI_SHARE`` of
    the time so far; this spreads both kinds of sample over the whole
    run.  The first pass runs every item; each later one runs every item
    but those in ``inputs.rotated``, of which it runs one in turn.
    Stops once ``seconds`` have elapsed and every CLI request has run.
    Returns (first pass's outputs, item weights, each item's times,
    items whose output changed in a later pass, passes, CLI wall times,
    problems)."""
    expected, problems = cli_expected(inputs, workdir)
    walls = []

    def cli_next():
        k = len(walls) % len(expected)
        wall, problem = cli_subprocess(inputs.cli[k][0], expected[k], workdir)
        walls.append(wall)
        if problem:
            problems.append(problem)

    start = perf_counter()
    first, samples = module.run_pass(inputs)
    weights = [n for n, _ in samples]
    times = [[t] for _, t in samples]
    rotated = getattr(inputs, "rotated", [])
    steady = [i for i in range(len(first)) if i not in rotated]
    changed, passes = 0, 1
    while True:
        while sum(walls) < CLI_SHARE * (perf_counter() - start):
            cli_next()
        if perf_counter() - start >= seconds:
            break
        turn = [rotated[passes % len(rotated)]] if rotated else []
        items = sorted(steady + turn)
        outputs, samples = module.run_pass(inputs, items)
        for i, out, (_, t) in zip(items, outputs, samples):
            times[i].append(t)
            changed += weights[i] if out != first[i] else 0
        passes += 1
    while len(walls) < len(expected):
        cli_next()
    return first, weights, times, changed, passes, walls, problems


def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def save_reference(workload: str, seed: int, key: str, value) -> None:
    ref = load_reference()
    ref.setdefault(workload, {}).setdefault(str(seed), {})[key] = value
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def compare_outputs(first, later, weights) -> int:
    """Items whose output differs between two passes; an output stands
    for as many items as its weight."""
    return sum(w for a, b, w in zip(first, later, weights) if a != b)


def errored(outputs, weights) -> int:
    """Items whose output is an exception."""
    return sum(w for o, w in zip(outputs, weights)
               if isinstance(o, tuple) and o and o[0] == "error")


def run_untraced(module, inputs, args, workdir, seed_ref, units):
    from spans import digest, percentile
    first, weights, times, changed, passes, walls, problems = measure(
        module, inputs, args.seconds, workdir)
    failed = errored(first, weights) + changed
    problems += module.known_answers(inputs, first)
    item_digests = [digest(r) for r in module.record(inputs, first)]
    ref_items = seed_ref.get("items")
    if ref_items is not None:
        bad = [i for i, (a, b) in enumerate(zip(item_digests, ref_items))
               if a != b]
        if bad or len(ref_items) != len(item_digests):
            problems.append(f"output digest differs from the reference at "
                            f"items {bad[:10]}")
            failed += sum(weights[i] for i in bad)
    # Each item's time is its median over the passes, which drops the
    # passes other load on the machine slowed down.  Every workload has
    # at least 100 items, so ten or more lie beyond the 90th percentile.
    item_s = [statistics.median(ts) for ts in times]
    items = sum(weights)
    item_ms = [1000 * t / n for n, t in zip(weights, item_s)]
    metrics = {
        "items_per_s": items / sum(item_s),
        "item_ms_p50": statistics.median(item_ms),
        "item_ms_p90": percentile(item_ms, 0.9),
        "cli_ms_p50": 1000 * statistics.median(walls),
    }
    info = {"passes": passes, "latency_samples": len(item_ms),
            "cli_samples": len(walls), "digest": digest(item_digests),
            "reference": "checked" if ref_items is not None else "none"}
    attempted = sum(w * len(ts) for w, ts in zip(weights, times)) + len(walls)
    failed += len(problems)
    if args.record:
        save_reference(args.workload, args.seed, "items", item_digests)
    return metrics, info, attempted, failed, problems


def run_traced(module, inputs, args, workdir, seed_ref, units):
    """Pairs of an untraced and a traced pass until ``seconds`` have
    elapsed.  The layer metrics come from the first traced pass; the
    tracing overhead compares the median walls of the two kinds."""
    from spans import Tracer, digest
    untraced_walls, traced_walls = [], []
    tracer = None
    failed = 0
    begin = perf_counter()
    while tracer is None or perf_counter() - begin < args.seconds:
        start = perf_counter()
        outputs, samples = module.run_pass(inputs)
        untraced_walls.append(perf_counter() - start)
        weights = [n for n, _ in samples]
        this = Tracer()
        start = perf_counter()
        traced_outputs = module.traced_pass(inputs, this)
        traced_walls.append(perf_counter() - start)
        failed += errored(outputs, weights) + errored(traced_outputs, weights)
        failed += compare_outputs(outputs, traced_outputs, weights)
        if tracer is None:
            tracer, untraced, traced = this, outputs, traced_outputs
        else:
            failed += compare_outputs(untraced, outputs, weights)
    n_items = sum(weights)
    traced_wall = traced_walls[0]
    problems = module.known_answers(inputs, untraced)
    expected, cli_problems = cli_expected(inputs, workdir)
    problems += cli_problems
    walls = []
    for (argv, _, _), want in zip(inputs.cli, expected):
        wall, problem = cli_subprocess(argv, want, workdir)
        walls.append(wall)
        problems += [problem] if problem else []

    layers = tracer.layers()
    values: dict[str, float] = {}
    for name in units:
        base, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s") and name not in tracer.counts:
            calls, self_s = layers.get(base, (0, 0.0))
            values[name] = calls if stat == "calls" else self_s
        elif not name.startswith(("trace.", "cli.subprocess.")) \
                and stat != "filter_ratio":
            values[name] = tracer.counts.get(name, 0)
    cand = tracer.counts.get("search.exhaustive_models.candidates", 0)
    values["search.exhaustive_models.filter_ratio"] = (
        tracer.counts["search.exhaustive_models.whole_yielded"] / cand
        if cand else 0.0)
    values["cli.subprocess.calls"] = len(walls)
    values["cli.subprocess.wall_s"] = sum(walls)
    library_self = sum(self_s for name, (_, self_s) in layers.items()
                       if not name.startswith("bench."))
    untraced_median = statistics.median(untraced_walls)
    traced_median = statistics.median(traced_walls)
    values.update({
        "trace.items_per_s": n_items / traced_median,
        "trace.untraced_items_per_s": n_items / untraced_median,
        "trace.overhead": 1 - untraced_median / traced_median,
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - library_self,
    })
    counters = {name: values[name] for name, unit in units.items()
                if unit == "count"}
    ref_counters = seed_ref.get("counters")
    if ref_counters is not None and ref_counters != counters:
        diff = sorted(k for k in counters if counters[k] != ref_counters.get(k))
        problems.append(f"work counters differ from the reference: {diff}")
    info = {"digest": digest([digest(r) for r in
                              module.record(inputs, traced)]),
            "reference": "checked" if ref_counters is not None else "none",
            "pairs": len(traced_walls),
            "spans": len(tracer.spans),
            "overhead_s": traced_median - untraced_median,
            "self_time_coverage": library_self / traced_wall}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    spans_path = os.path.join(
        ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.jsonl.gz")
    tracer.dump(spans_path)
    info["spans_file"] = os.path.relpath(spans_path, ROOT)
    if args.record:
        save_reference(args.workload, args.seed, "counters", counters)
    attempted = 2 * n_items * len(traced_walls) + len(walls)
    failed += len(problems)
    return values, info, attempted, failed, problems


def main(argv=None) -> int:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run as the seed's reference")
    args = parser.parse_args(argv)
    if "NBHD_MAX_STATES" in os.environ:
        fail("NBHD_MAX_STATES is set; it lowers resource guards and can "
             "change verdicts, so the run would not be comparable")
    sys.path.insert(0, HERE)
    env = environment()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    workdir = os.path.join(tmp_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        module, inputs, where, setup_times = setup(args.workload, args.seed,
                                                   workdir)
        seed_ref = load_reference().get(args.workload, {}).get(
            str(args.seed), {})
        run = run_traced if args.trace else run_untraced
        values, info, attempted, failed, problems = run(
            module, inputs, args, where, seed_ref, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    if not args.trace:
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  python {env['python']}  "
          f"nproc {env['nproc']}  cpu {env['cpu']}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    for name, unit in units.items():
        print(f"  {name:45s} {values[name]:14.6g} {unit}")
    print(f"  error_rate {failed / attempted:.6g} ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
