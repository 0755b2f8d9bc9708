"""The repository benchmark: ``python3 perfbench/run.py``.

    python3 perfbench/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace 0|1]

Without ``--workload`` it runs all four workloads, each in its own fresh
process, and also checks that the codegen sweep's rows equal the worklist
sweep's for the seed.  For each workload it

1. measures set-up: the median wall time of several fresh interpreters,
   from spawn to "imported everything the workload calls" (plus, for
   ``serve``, the median time from spawning ``repro serve`` until its
   endpoint is published);
2. runs the workload (``workloads.py``) in a fresh process, which checks
   every output it produces;
3. prints every metric by name and unit, then, as the last line, one JSON
   object ``{"correct", "attempted", "failed", "metrics"}``.  A run whose
   outputs fail a check reports no metric and exits 1.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` a separate traced run and its per-layer metrics (layers a
workload does not exercise read 0).  ``perfbench/layers.json`` says which
end-to-end metric each per-layer metric should move, and where it should
not.  Every result is appended, with its provenance, to
``perfbench/out/history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from harness import (HostSpeed, median, provenance, quantile,
                     tail_percentile)
from workloads import IMPORTS, WORKLOADS, same_rows

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
DEFAULT_SEED = 1
SETUP_REPS = 7
CHILD_TIMEOUT = 150

#: the name each end-to-end metric has in the per-workload report
OPS_NAME = {"sweep-worklist": "points_per_s", "sweep-codegen": "points_per_s",
            "model-check": "transitions_per_s", "serve": "jobs_per_s"}
OP_NAME = {"sweep-worklist": "point", "sweep-codegen": "point",
           "model-check": "exploration", "serve": "miss"}


def child_env():
    """The program's processes import it from this checkout, with compiled
    bytecode cached as an installed package has it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONSTARTUP", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def check_source():
    """The program must be importable from this checkout's ``src``."""
    init = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no program source at {init}")
    code = ("import repro, sys; "
            "sys.stdout.write(repro.__file__)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         timeout=120)
    if out.returncode != 0 or \
            os.path.realpath(out.stdout) != os.path.realpath(init):
        sys.exit(f"perfbench: repro does not import from {init}: "
                 f"{out.stdout}{out.stderr[-500:]}")


def time_imports(modules):
    """The ``(start, end)`` clock interval from spawning a fresh
    interpreter until it has imported ``modules`` and said so."""
    code = (f"import {', '.join(modules)}\n"
            "import sys\nsys.stdout.write('ready\\n')\nsys.stdout.flush()\n")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    end = time.perf_counter()
    _out, err = proc.communicate(timeout=120)
    if line != "ready\n" or proc.returncode != 0:
        sys.exit(f"perfbench: set-up import failed: {err[-800:]}")
    return start, end


def import_breakdown(modules):
    """``(networkx_s, repro_s)`` of one ``python -X importtime`` import of
    ``modules``: networkx's cumulative time wherever it is pulled in, and
    the rest of the import."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         f"import {', '.join(modules)}"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=120)
    total = networkx = 0
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if not name.startswith("  "):            # top level of this import
            total += int(cumulative)
        if name.strip() == "networkx":
            networkx = int(cumulative)
    return networkx / 1e6, (total - networkx) / 1e6


def run_child(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"result-{os.getpid()}-{workload}.json")
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out", out_path]
    # its own process group, so that a timeout also stops the server a
    # serve workload started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for _ in range(100):        # until the whole group has ended
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        return None, f"workload exceeded {CHILD_TIMEOUT} s"
    try:
        with open(out_path) as fh:
            result = json.load(fh)
        os.unlink(out_path)
    except OSError:
        result = None
    if proc.returncode != 0 or result is None:
        return None, (stderr or stdout)[-2000:]
    return result, None


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure(workload, seed, seconds, trace, bench):
    """One run of one workload: ``(record, rows)``."""
    modules = IMPORTS[workload]
    time_imports(modules)                 # compiles bytecode; not counted
    speed = HostSpeed()
    spans = []
    for _ in range(SETUP_REPS):
        speed.measure()
        spans.append(time_imports(modules))
    speed.measure()
    setup = [speed.calibrated(*span) for span in spans]
    raw_setup = [end - start for start, end in spans]
    breakdown = ([import_breakdown(modules) for _ in range(3)]
                 if trace else [])
    result, error = run_child(workload, seed, seconds, trace)
    if result is None:
        return {"correct": False, "attempted": 1, "failed": 1,
                "failures": [error], "metrics": {}, "report": {}}, None
    attempted = max(1, result["attempted"])
    failed = result["failed"]
    e2e = result["e2e"]
    setup_s = median(setup)
    if workload == "serve":
        setup_s += median(result["server_ready_s"])
    op_ms = [v * 1e3 for v in e2e["op_s"]]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "ops_per_s": e2e["ops_per_s"],
        "op_p50_ms": quantile(op_ms, 0.5),
        "op_p90_ms": quantile(op_ms, 0.9),
    }
    report = {
        "setup_s": (setup_s, "s", f"n={SETUP_REPS}, measured median "
                                  f"{median(raw_setup):.4g} s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", ""),
        "failed_ratio": (failed / attempted, "ratio",
                         f"{failed} of {attempted}"),
        OPS_NAME[workload]: (e2e["ops_per_s"], "1/s",
                             f"{e2e['passes']} complete passes, measured "
                             f"{e2e['raw_ops_per_s']:.4g} 1/s"),
    }
    latencies = [(OP_NAME[workload], op_ms)]
    if "hit_s" in e2e:
        latencies.append(("hit", [v * 1e3 for v in e2e["hit_s"]]))
    for label, samples in latencies:
        tail, tail_value = tail_percentile(samples)
        note = f"n={len(samples)}, highest percentile with 10 beyond: " + (
            f"p{tail} = {tail_value:.4g} ms" if tail else "none")
        report[f"{label}_p50_ms"] = (quantile(samples, 0.5), "ms", note)
        report[f"{label}_p90_ms"] = (quantile(samples, 0.9), "ms", note)
    if trace:
        layers = dict(result["layers"])
        layers["setup.import_networkx_s"] = median([b[0] for b in breakdown])
        layers["setup.import_repro_s"] = median([b[1] for b in breakdown])
        specs = bench["per_layer"]
    else:
        layers = {}
        specs = bench["end_to_end"]
    source = layers if trace else values
    metrics = {spec["name"]: {"value": source.get(spec["name"], 0.0),
                              "unit": spec["unit"]}
               for spec in specs}
    correct = failed == 0
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": result["failures"],
        "metrics": metrics if correct else {},
        "report": report if correct else {},
        "passes": e2e["passes"],
    }
    return record, result.get("rows")


def print_report(workload, seed, record, trace):
    print(f"== {workload}  seed={seed}  trace={int(trace)}  "
          f"correct={record['correct']}  "
          f"failed={record['failed']}/{record['attempted']}")
    for message in record["failures"][:10]:
        print(f"   FAILED: {message}")
    for name, (value, unit, note) in record["report"].items():
        print(f"   {name:<24} {value:>14.6g} {unit:<5} {note}")
    for name, metric in record["metrics"].items():
        print(f"   {name:<32} {metric['value']:>14.6g} {metric['unit']}")


def append_history(entry):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "history.jsonl"), "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Repository benchmark: run workloads, check their "
                    "outputs, print metrics.")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    check_source()
    bench = load_benchmark()
    # One CPU for this process and every process it starts, so that the
    # host-speed calibration runs where the measured work runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seconds = args.seconds if args.seconds is not None \
        else bench["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = {}
    rows = {}
    for workload in workloads:
        record, rows[workload] = measure(workload, args.seed, seconds,
                                         args.trace, bench)
        records[workload] = record
        append_history({"provenance": provenance(ROOT, workload, args.seed),
                        "seconds": seconds, "trace": args.trace, **record})
        print_report(workload, args.seed, record, args.trace)

    if args.workload is None:
        worklist, codegen = rows.get("sweep-worklist"), rows.get(
            "sweep-codegen")
        if worklist and codegen:
            mismatched = sum(1 for a, b in zip(worklist, codegen)
                             if not same_rows(a, b))
            if mismatched or len(worklist) != len(codegen):
                records["sweep-codegen"]["correct"] = False
                records["sweep-codegen"]["failed"] += max(mismatched, 1)
                records["sweep-codegen"]["metrics"] = {}
                print(f"   FAILED: {mismatched} codegen sweep rows differ "
                      "from the worklist rows")
        summary = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{w}:{name}": metric
                        for w, r in records.items()
                        for name, metric in r["metrics"].items()},
        }
    else:
        record = records[args.workload]
        summary = {key: record[key]
                   for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
