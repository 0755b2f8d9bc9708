"""The four workloads of the repository benchmark, run one per fresh process.

``python3 perfbench/workloads.py --workload W --seed N --seconds S
--trace 0|1 --out FILE`` runs one workload in this process and writes its
raw measurements to ``FILE`` as JSON; ``run.py`` starts it, measures
set-up in separate fresh interpreters, and turns the raw measurements
into the metrics it prints.

Every workload is a list of operations run in passes: the first pass
always completes, and further passes start while the ``--seconds`` window
lasts.  An operation's time is the median over its passes, so a burst of
load from outside the process moves one sample, not the result.

* ``sweep-worklist`` / ``sweep-codegen``: one operation per design point
  of the fig1, fig1-accuracy, fig6 and fig7 preset sweeps plus the 12- and
  64-stage deep pipelines, each a one-point ``run_sweep``.  The codegen
  workload empties the generated-module cache before every pass, as a
  fresh ``repro --engine codegen`` process starts with none.
* ``model-check``: the five ``MC_DESIGNS`` compositions and
  ``speculative_mc(n_zbl=2, can_kill_sink=True)``, each explored scalar on
  the worklist engine and again with 32 lanes, then checked for deadlocks
  and, for the speculative ones, leads-to.
* ``serve``: one closed-loop client submits a seeded mix of 200 jobs to a
  ``repro serve`` subprocess started on an empty root: 100 new specs
  (cache misses) and one resubmission of each (checksum-verified hits).

Only public entry points of the program are called.  With ``--trace 1`` the
workload runs one untraced pass, then one pass that records spans around
the calls into each layer, then per-layer probes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time

from harness import HostSpeed, Tracer, median, quantile

WORKLOADS = ("sweep-worklist", "sweep-codegen", "model-check", "serve")

SWEEP_ENGINES = {"sweep-worklist": "worklist", "sweep-codegen": "codegen"}

#: what each workload imports before its first operation: set-up time is
#: the time to import these in a fresh interpreter
IMPORTS = {
    "sweep-worklist": ["repro.perf.sweep", "repro.perf.presets",
                       "repro.perf.report", "repro.perf.throughput",
                       "repro.netlist.patterns", "repro.netlist.varlat",
                       "repro.netlist.resilient", "repro.datapath.alu",
                       "repro.datapath.secded", "repro.sim.engine",
                       "repro.sim.batch"],
    "model-check": ["repro.designs", "repro.netlist.patterns",
                    "repro.verif.explore", "repro.verif.deadlock",
                    "repro.verif.leads_to", "repro.sim.batch"],
    "serve": ["repro.serve"],
}
IMPORTS["sweep-codegen"] = IMPORTS["sweep-worklist"] + ["repro.backend.pysim"]

#: simulated cycles per design point: a quarter of the preset defaults, so
#: that a run measures every point in three or more passes
SWEEP_CYCLES = {"fig1": 400, "fig1-accuracy": 400, "fig6": 200, "fig7": 200,
                "deep-pipeline": 200}

#: families whose simulation rates the traced sweep reports
FAMILIES = ("fig1d", "fig6", "fig7", "pipe12", "pipe64")

#: (states, transitions, deadlocks, leads-to verdicts of fin0 and fin1) of
#: every model-checking design; the explorations are exhaustive, so these
#: hold for every seed and both exploration engines
MC_PINNED = {
    "eb": (97, 514, 0, None),
    "zbl": (49, 282, 0, None),
    "spec-toggle": (257, 2664, 0, [True, True]),
    "spec-nondet": (257, 5328, 0, [False, False]),
    "spec-static": (97, 912, 32, [True, False]),
    "spec-z2-kill": (2977, 49668, 0, [True, True]),
}
MC_LANES = 32
MC_MAX_STATES = 60000

#: serve mix: how many new specs of each kind; each is resubmitted once
SERVE_NEW = (("measure", "fig1d", "ebin", 24), ("measure", "fig6b", "out", 24),
             ("measure", "fig7b", "out", 24))
SERVE_LINT = ("fig1a", "fig1d", "fig6b", "fig7b")
SERVE_VERIFY = ("eb", "zbl", "spec-static", "spec-toggle")
SERVE_SMALL = 14                 # lint jobs, and again verify jobs
#: short measure jobs, so that two passes of the mix fit in one run
SERVE_WARMUP = 25
SERVE_SERVER_READY_REPS = 3
#: misses also run in-process and compared, per untraced pass
SERVE_INPROCESS_CHECKS = 8


# -- inputs from the seed ----------------------------------------------------

def sweep_specs(seed):
    """The five sweeps both sweep workloads run, seeded from ``seed``."""
    from repro.netlist import patterns
    from repro.perf import presets
    from repro.perf.sweep import SweepSpec

    rng = random.Random(seed)
    s = [rng.randrange(1 << 16) for _ in range(5)]
    return [
        presets.fig1_spec(seed=s[0], cycles=SWEEP_CYCLES["fig1"]),
        presets.fig1_accuracy_spec(seed=s[1],
                                   cycles=SWEEP_CYCLES["fig1-accuracy"]),
        presets.fig6_spec(seed=s[2], cycles=SWEEP_CYCLES["fig6"]),
        presets.fig7_spec(seed=s[3], cycles=SWEEP_CYCLES["fig7"]),
        SweepSpec(name="deep-pipeline", factory=patterns.deep_pipeline,
                  grid={"n_stages": (12, 64)}, base={"seed": s[4]},
                  channel="out", cycles=SWEEP_CYCLES["deep-pipeline"]),
    ]


def _family(spec_name, config):
    if config.channel is None:
        return "static"
    if spec_name.startswith("fig1"):
        return "fig1d"
    if spec_name == "deep-pipeline":
        return f"pipe{config.params['n_stages']}"
    return spec_name


def sweep_points(seed):
    """One ``(family, single-point SweepSpec)`` per design point, in sweep
    order.  The point keeps the label and measurement channel it has in
    its sweep."""
    from repro.perf.sweep import SweepSpec

    points = []
    for spec in sweep_specs(seed):
        for config in spec.expand():
            point = dict(config.params, label=config.name,
                         sim_channel=config.channel)
            points.append((_family(spec.name, config), SweepSpec(
                name=spec.name, factory=spec.factory, points=[point],
                cycles=spec.cycles, warmup=spec.warmup)))
    return points


def serve_mix(seed):
    """The serve workload's 200 jobs: ``[(spec, expect_hit)]``.

    The composition is fixed (72 ``measure``, 14 ``lint`` and 14 ``verify``
    new specs, each resubmitted exactly once); the seed draws their order,
    simulated cycles, spec seeds and where each resubmission falls."""
    rng = random.Random(seed)
    fresh = []
    for kind, design, channel, count in SERVE_NEW:
        for _ in range(count):
            fresh.append({"kind": kind, "design": design, "channel": channel,
                          "cycles": rng.randrange(60, 201, 20),
                          "warmup": SERVE_WARMUP})
    for i in range(SERVE_SMALL):
        fresh.append({"kind": "lint", "design": SERVE_LINT[i % len(SERVE_LINT)]})
        fresh.append({"kind": "verify",
                      "design": SERVE_VERIFY[i % len(SERVE_VERIFY)]})
    rng.shuffle(fresh)
    # distinct spec seeds make every new spec a distinct cache key
    for spec, job_seed in zip(fresh, rng.sample(range(1, 1 << 20),
                                                len(fresh))):
        spec["seed"] = job_seed
    mix = []
    pending = []
    queue = list(fresh)
    while queue or pending:
        if pending and (not queue or rng.random() < 0.5):
            mix.append((pending.pop(rng.randrange(len(pending))), True))
        else:
            spec = queue.pop(0)
            mix.append((spec, False))
            pending.append(spec)
    return mix


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


# -- the pass loop -----------------------------------------------------------

def run_passes(ops, seconds, speed, before_pass=None, timer=True):
    """Run ``ops`` (``[(key, fn)]``) in passes until ``seconds`` have
    elapsed; the first pass always completes.  Returns ``(samples, raw,
    outputs, pass_walls)``: per-key calibrated and measured seconds, per-key
    outputs of every pass, and the calibrated time of each complete pass.
    ``speed`` calibrates between operations or, with ``timer``, inside
    them; calibration time is not counted."""
    timed = []
    outputs = {key: [] for key, _ in ops}
    passes = []
    deadline = time.perf_counter() + seconds
    speed.measure()
    if timer:
        speed.start_timer()
    try:
        while not passes or time.perf_counter() < deadline:
            if before_pass is not None:
                before_pass()
            first = len(timed)
            for key, fn in ops:
                if passes and time.perf_counter() >= deadline:
                    break
                if not timer:
                    speed.maybe_measure()
                t0 = time.perf_counter()
                out = fn()
                timed.append((key, t0, time.perf_counter()))
                outputs[key].append(out)
            else:
                passes.append((first, len(timed)))
                continue
            break
    finally:
        if timer:
            speed.stop_timer()
    speed.measure()
    samples = {key: [] for key, _ in ops}
    raw = {key: [] for key, _ in ops}
    calibrated = []
    for key, t0, t1 in timed:
        calibrated.append(speed.calibrated(t0, t1))
        samples[key].append(calibrated[-1])
        raw[key].append(speed.busy(t0, t1))
    walls = [sum(calibrated[first:end]) for first, end in passes]
    return samples, raw, outputs, walls


def e2e_summary(work, samples, raw, walls):
    """Work per second and per-operation latencies from per-operation
    medians over passes; ``work`` is what one pass completes."""
    medians = [median(values) for values in samples.values()]
    raw_medians = [median(values) for values in raw.values()]
    return {"ops_per_s": work / sum(medians),
            "raw_ops_per_s": work / sum(raw_medians),
            "op_s": medians,
            "passes": len(walls)}


# -- sweeps ------------------------------------------------------------------

def _sweep_op(point, engine, failures):
    from repro.perf.sweep import run_sweep

    def op():
        result = run_sweep(point, engine=engine)
        if result.failures:
            failures.append(f"{point.expand()[0].name}: "
                         f"{result.failures[0].error}")
            return None
        return result.rows[0]
    return op


def _traced_sweep_op(point, engine, tracer, counts):
    """The same measurement as ``run_sweep`` of one point, called layer by
    layer through public functions so each call gets its span."""
    from repro.errors import NetlistError
    from repro.perf.mcr import marked_graph_throughput
    from repro.perf.report import attach_throughput, static_report
    from repro.sim.engine import Simulator

    config = point.expand()[0]
    run_span = "pysim.run" if engine == "codegen" else "sim.run"
    construct_span = ("pysim.construct" if engine == "codegen"
                      else "sim.construct")
    family = _family(point.name, config)

    def op():
        with tracer.span("sweep.point"):
            with tracer.span("netlist.build"):
                made = point.factory(**config.params)
            netlist, names = made if isinstance(made, tuple) else (made, {})
            with tracer.span("perf.static"):
                report = static_report(netlist, name=config.name)
            if config.channel is None:
                with tracer.span("perf.mcr"):
                    try:
                        throughput = marked_graph_throughput(netlist)
                        source = "marked-graph"
                    except NetlistError:
                        throughput, source = None, "none"
                attach_throughput(report, throughput, source)
            else:
                channel = (config.channel if config.channel in netlist.channels
                           else names[config.channel])
                with tracer.span("netlist.clone"):
                    working = netlist.clone()
                if engine == "codegen":
                    from repro.backend.pysim import generated_source

                    with tracer.span("pysim.elaborate"):
                        generated_source(working)
                    counts["prelaborated"] += 1
                with tracer.span(construct_span):
                    sim = Simulator(working, check_protocol=True,
                                    engine=engine)
                with tracer.span(run_span) as span:
                    sim.run(point.warmup)
                    base = sim.stats.transfers[channel]
                    sim.run(point.cycles)
                transfers = sim.stats.transfers[channel] - base
                counts["cycles." + family] += point.warmup + point.cycles
                counts["run_s." + family] += span.seconds
                counts["transfers"] += sum(sim.stats.transfers.values())
                counts["mispredicts"] += sum(
                    getattr(node, "mispredicts", 0)
                    for node in working.nodes.values())
                attach_throughput(report, transfers / point.cycles,
                                  "simulation")
        return {
            "index": 0,
            "design": report.name,
            "params": config.params,
            "area": report.area,
            "cycle_time": report.cycle_time,
            "throughput": report.throughput,
            "effective_cycle_time": report.effective_cycle_time,
            "throughput_source": report.throughput_source,
            "engine": engine,
        }
    return op


def _sweep_probes(points, engine, layers):
    """Monitor share and comb() calls per cycle on the first point of each
    simulated family."""
    from repro.sim.engine import Simulator
    from repro.sim.profile import profile_run

    reps = {}
    for family, point in points:
        if family in FAMILIES and family not in reps:
            reps[family] = point
    on_total = off_total = 0.0
    calls = cycles = 0
    for family, point in reps.items():
        config = point.expand()[0]
        made = point.factory(**config.params)
        netlist = made[0] if isinstance(made, tuple) else made
        n_cycles = min(point.warmup + point.cycles, 200)
        timings = {True: [], False: []}
        for rep in range(5):            # first round warms codegen modules
            for check in (True, False):
                sim = Simulator(netlist.clone(), check_protocol=check,
                                engine=engine)
                t0 = time.perf_counter()
                sim.run(n_cycles)
                if rep:
                    timings[check].append(time.perf_counter() - t0)
        on_total += median(timings[True])
        off_total += median(timings[False])
        report = profile_run(netlist.clone(), cycles=n_cycles, engine=engine,
                             check_protocol=True)
        calls += report.total_comb_calls
        cycles += report.cycles
    prefix = "pysim" if engine == "codegen" else "sim"
    layers[prefix + ".comb_calls_per_cycle"] = calls / cycles
    layers["sim.monitor_share"] = 1.0 - off_total / on_total


def run_sweep_workload(name, seed, seconds, trace, result, speed):
    engine = SWEEP_ENGINES[name]
    failures = []
    points = sweep_points(seed)
    keys = [f"{i:02d} {spec.expand()[0].name}"
            for i, (_family_name, spec) in enumerate(points)]
    before_pass = None
    if engine == "codegen":
        from repro.backend import pysim

        before_pass = pysim.clear_module_cache
    ops = [(key, _sweep_op(spec, engine, failures))
           for key, (_f, spec) in zip(keys, points)]
    samples, raw, outputs, walls = run_passes(
        ops, 0 if trace else seconds, speed, before_pass)
    rows = [outputs[key][0] for key in keys]
    for key in keys:
        first = canonical(outputs[key][0])
        if any(canonical(out) != first for out in outputs[key][1:]):
            failures.append(f"{key}: row differs between passes")
    for key, (family, _spec), row in zip(keys, points, rows):
        if row is None:
            continue
        expected = "simulation" if family != "static" else "marked-graph"
        if row["throughput_source"] != expected or row["engine"] != engine:
            failures.append(f"{key}: unexpected row {row}")

    if engine == "codegen" and not trace:
        # rows must be byte-identical to the worklist engine's, apart from
        # the engine label; checked on a seeded sample outside the window
        rng = random.Random(seed)
        by_family = {}
        for i, (family, _spec) in enumerate(points):
            by_family.setdefault(family, []).append(i)
        for family in sorted(by_family):
            if family == "pipe64":
                continue
            i = rng.choice(by_family[family])
            reference = _sweep_op(points[i][1], "worklist", failures)()
            if not same_rows(rows[i], reference):
                failures.append(f"{keys[i]}: codegen row differs from worklist")

    result["e2e"] = e2e_summary(len(points), samples, raw, walls)
    result["rows"] = rows
    if trace:
        run_traced_sweep(engine, points, keys, rows, walls, result, failures,
                         speed)
    result["attempted"] = sum(len(v) for v in samples.values())
    return failures


def same_rows(a, b):
    """Sweep rows equal apart from the engine label (the codegen gate)."""
    if a is None or b is None:
        return False
    strip = lambda row: canonical({k: v for k, v in row.items()
                                   if k != "engine"})
    return strip(a) == strip(b)


def run_traced_sweep(engine, points, keys, rows, walls, result, failures,
                     speed):
    from collections import Counter

    tracer = Tracer()
    counts = Counter()
    stats_before = None
    if engine == "codegen":
        from repro.backend import pysim

        pysim.clear_module_cache()
        stats_before = pysim.cache_stats()
    ops = [(key, _traced_sweep_op(spec, engine, tracer, counts))
           for key, (_f, spec) in zip(keys, points)]
    _samples, _raw, outputs, traced_walls = run_passes(ops, 0, speed,
                                                       timer=False)
    for key, row in zip(keys, rows):
        if canonical(outputs[key][0]) != canonical(row):
            failures.append(f"{key}: traced row differs from run_sweep's")
    layers = result["layers"]
    layers.update(span_metrics(tracer))
    layers["trace.overhead_s"] = traced_walls[0] - walls[0]
    prefix = "pysim" if engine == "codegen" else "sim"
    for family in FAMILIES:
        layers[f"{prefix}.cycles_per_s.{family}"] = (
            counts["cycles." + family] / counts["run_s." + family])
    layers["sim.transfers"] = counts["transfers"]
    layers["sim.mispredicts"] = counts["mispredicts"]
    if engine == "codegen":
        stats = pysim.cache_stats()
        layers["pysim.elaborations"] = (stats["re_elaborations"]
                                        - stats_before["re_elaborations"])
        # each traced point elaborates (or hits) in generated_source and
        # then hits once more in Simulator(); the second hit is the
        # tracer's, not the workload's
        layers["pysim.cache_hits"] = (stats["hits"] - stats_before["hits"]
                                      - counts["prelaborated"])
    _sweep_probes(points, engine, layers)


def span_metrics(tracer):
    """Self time of every span name, as ``<name>_s``."""
    return {f"{name}_s": seconds
            for name, seconds in tracer.self_times().items()}


# -- model checking ----------------------------------------------------------

def mc_designs():
    from repro.designs import MC_DESIGNS
    from repro.netlist import patterns

    # the longest explorations first, so that a second pass in the window
    # repeats them
    designs = {"spec-z2-kill": lambda: patterns.speculative_mc(
        n_zbl=2, can_kill_sink=True)[0]}
    designs.update(MC_DESIGNS)
    return designs


def _mc_op(name, factory, lanes, tracer=None, keep=None):
    from contextlib import nullcontext

    from repro.verif.deadlock import find_deadlocks
    from repro.verif.explore import StateExplorer
    from repro.verif.leads_to import check_leads_to

    span = tracer.span if tracer is not None else (lambda _n: nullcontext())

    def op():
        with span("verif.design"):
            with span("netlist.build"):
                net = factory()
            with span("verif.lanes" if lanes > 1 else "verif.scalar"):
                if lanes > 1:
                    explorer = StateExplorer(net, max_states=MC_MAX_STATES,
                                             lanes=lanes)
                else:
                    explorer = StateExplorer(net, max_states=MC_MAX_STATES,
                                             engine="worklist")
                result = explorer.explore()
            with span("verif.deadlock"):
                deadlocks = len(find_deadlocks(result))
            leads = None
            if name.startswith("spec"):
                with span("verif.leads_to"):
                    leads = [check_leads_to(result, "fin0", "fout0")[0],
                             check_leads_to(result, "fin1", "fout1")[0]]
        if keep is not None:
            keep[(name, lanes)] = (net, result)
        return {"states": result.n_states,
                "transitions": len(result.transitions),
                "deadlocks": deadlocks, "leads_to": leads,
                "ok": result.ok()}
    return op


def check_mc_summary(name, summary):
    """Messages for every way ``summary`` misses its pinned counts."""
    states, transitions, deadlocks, leads = MC_PINNED[name]
    problems = []
    if not summary["ok"]:
        problems.append("exploration incomplete or violated a property")
    if (summary["states"], summary["transitions"]) != (states, transitions):
        problems.append(f"{summary['states']}/{summary['transitions']} "
                        f"states/transitions, pinned {states}/{transitions}")
    if summary["deadlocks"] != deadlocks or summary["leads_to"] != leads:
        problems.append(f"deadlocks {summary['deadlocks']} leads-to "
                        f"{summary['leads_to']}, pinned {deadlocks} {leads}")
    return problems


def run_mc_workload(seed, seconds, trace, result, speed):
    failures = []
    designs = mc_designs()
    plan = [(name, lanes) for name in designs for lanes in (1, MC_LANES)]
    ops = [(f"{name}/{lanes}", _mc_op(name, designs[name], lanes))
           for name, lanes in plan]
    samples, raw, outputs, walls = run_passes(ops, 0 if trace else seconds,
                                              speed)
    for (name, lanes), (key, _op) in zip(plan, ops):
        for summary in outputs[key]:
            for problem in check_mc_summary(name, summary):
                failures.append(f"{key}: {problem}")
        if outputs[key][0] != outputs[f"{name}/1"][0]:
            failures.append(f"{key}: lane-batched result differs from scalar")
    transitions = sum(outputs[key][0]["transitions"] for key, _ in ops)
    result["e2e"] = e2e_summary(transitions, samples, raw, walls)
    if trace:
        tracer = Tracer()
        keep = {}
        traced = [(key, _mc_op(name, designs[name], lanes, tracer, keep))
                  for (name, lanes), (key, _op) in zip(plan, ops)]
        _s, _r, traced_out, traced_walls = run_passes(traced, 0, speed,
                                                      timer=False)
        for key, _op in ops:
            if traced_out[key][0] != outputs[key][0]:
                failures.append(f"{key}: traced exploration differs")
        layers = result["layers"]
        layers.update(span_metrics(tracer))
        layers["trace.overhead_s"] = traced_walls[0] - walls[0]
        states = sum(outputs[key][0]["states"] for key, _ in ops)
        layers["verif.states"] = states
        layers["verif.transitions"] = transitions
        layers["verif.dedup_hit_ratio"] = 1 - (states - len(ops)) / transitions
        net, explored = keep[("spec-z2-kill", 1)]
        layers.update(verif_call_probes(net, explored, seed))
    result["attempted"] = sum(len(v) for v in samples.values())
    return failures


def verif_call_probes(net, result, seed, n=300):
    """Median microseconds per call of the explorer's inner operations,
    timed on a seeded sample of reached states."""
    from repro.elastic.node import Node
    from repro.sim.engine import Simulator
    from repro.verif.encoding import StateCodec

    rng = random.Random(seed)
    sim = Simulator(net, check_protocol=False, engine="worklist")
    codec = StateCodec(net)
    choosers = [node for node in net.nodes.values()
                if type(node).choice_space is not Node.choice_space]
    clock = time.perf_counter_ns
    times = {"restore": [], "step": [], "snapshot": [], "encode": []}
    for index in rng.sample(range(result.n_states), min(n, result.n_states)):
        snapshot, signals = result.states[index]
        t0 = clock()
        net.restore(snapshot)
        t1 = clock()
        choices = {node.name: rng.randrange(node.choice_space())
                   for node in choosers if node.choice_space() > 1}
        t2 = clock()
        sim.step_with_choices(choices)
        t3 = clock()
        after = net.snapshot()
        t4 = clock()
        codec.encode(after, signals)
        t5 = clock()
        times["restore"].append(t1 - t0)
        times["step"].append(t3 - t2)
        times["snapshot"].append(t4 - t3)
        times["encode"].append(t5 - t4)
    return {f"verif.{name}_us": median(values) / 1e3
            for name, values in times.items()}


# -- serve -------------------------------------------------------------------

class ServerProcess:
    """A ``python -m repro serve`` subprocess on an empty root inside the
    checkout, stopped and reaped on exit.  ``ready`` is the ``(start,
    end)`` clock interval from spawn until ``wait_for_endpoint`` returned."""

    def __init__(self, root, work_dir):
        self.root = root
        self.work_dir = work_dir
        self.proc = None

    def __enter__(self):
        from repro.serve.client import wait_for_endpoint

        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.log = open(os.path.join(self.root, "server.log"), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", self.root,
             "--host", "127.0.0.1", "--cache-entries", "1024"],
            cwd=self.work_dir, stdout=self.log, stderr=subprocess.STDOUT)
        try:
            wait_for_endpoint(self.root, timeout=60)
        except BaseException:
            self.__exit__()
            raise
        self.ready = (start, time.perf_counter())
        return self

    def shutdown(self):
        from repro.serve.client import ServeClient

        ServeClient(root=self.root, timeout=60).shutdown()
        self.proc.wait(timeout=60)

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        shutil.rmtree(self.root, ignore_errors=True)
        return False


def _serve_pass(mix, root, work_dir, failures, speed, tracer=None,
                probe=None):
    """One pass of the mix against a fresh server.  Returns per-job
    calibrated and measured round-trip seconds and the miss payloads by
    spec.  The server shares the client's CPU, so the client calibrates
    between jobs, while the server is idle."""
    from contextlib import nullcontext

    from repro.errors import ServeError
    from repro.serve.client import ServeClient

    span = tracer.span if tracer is not None else (lambda _n: nullcontext())
    timed = []
    payloads = {}
    with ServerProcess(root, work_dir) as server:
        client = ServeClient(root=root, timeout=120)
        for i, (spec, expect_hit) in enumerate(mix):
            speed.maybe_measure()
            t0 = time.perf_counter()
            try:
                with span("serve.hit" if expect_hit else "serve.miss"):
                    reply = client.submit(spec)
            except ServeError as exc:
                timed.append((t0, time.perf_counter()))
                failures.append(f"job {i}: {type(exc).__name__}: {exc}")
                continue
            timed.append((t0, time.perf_counter()))
            failures_before = len(failures)
            check_serve_reply(i, spec, expect_hit, reply, payloads, failures)
            if not expect_hit and len(failures) == failures_before:
                payloads[canonical(spec)] = reply["payload"]
        speed.measure()
        with span("serve.status"):
            status = client.status()
        n_hits = sum(1 for _spec, hit in mix if hit)
        cache = status.get("cache", {})
        if (cache.get("hits"), cache.get("misses")) != (n_hits,
                                                          len(mix) - n_hits):
            failures.append(f"status cache counts {cache}, mix has {n_hits} "
                         f"hits and {len(mix) - n_hits} misses")
        server.shutdown()
        if probe is not None:
            probe(server)
    calibrated = [speed.calibrated(t0, t1) for t0, t1 in timed]
    raw = [t1 - t0 for t0, t1 in timed]
    return calibrated, raw, payloads


def check_serve_reply(i, spec, expect_hit, reply, payloads, failures):
    """Gate one reply: a ``result``, cached exactly when the mix says so,
    and a hit byte-identical to its miss."""
    if reply.get("type") != "result":
        failures.append(f"job {i}: reply {reply.get('type')}: "
                     f"{reply.get('error') or reply.get('reason')}")
        return
    if bool(reply.get("cached")) != expect_hit:
        failures.append(f"job {i}: cached={reply.get('cached')}, "
                     f"expected {'hit' if expect_hit else 'miss'}")
        return
    if expect_hit:
        miss = payloads.get(canonical(spec))
        if miss is None or canonical(miss) != canonical(reply["payload"]):
            failures.append(f"job {i}: hit payload differs from its miss")


def check_inprocess(i, spec, payloads, failures):
    """The server's miss payload equals an in-process ``run_job``; returns
    the seconds ``run_job`` took."""
    from repro.serve.jobs import run_job, validate_job

    t0 = time.perf_counter()
    payload = run_job(validate_job(spec))
    seconds = time.perf_counter() - t0
    served = payloads.get(canonical(spec))
    if served is None or canonical(served) != canonical(payload):
        failures.append(f"job {i}: served payload differs from in-process "
                     "run_job")
    return seconds


def run_serve_workload(seed, seconds, trace, result, speed, work_dir):
    failures = []
    mix = serve_mix(seed)
    tmp = os.path.join(work_dir, "perfbench", "out", "tmp")
    root = os.path.join(tmp, f"serve-{os.getpid()}")
    ready = []
    for _ in range(SERVE_SERVER_READY_REPS):
        speed.measure()
        with ServerProcess(root, work_dir) as server:
            ready.append(server.ready)
            server.shutdown()
    speed.measure()
    result["server_ready_s"] = [speed.calibrated(*span) for span in ready]

    walls = []
    samples = [[] for _ in mix]
    raw = [[] for _ in mix]
    first_payloads = None
    # a pass cannot stop part-way, so another starts only if one as long
    # as the last still fits in the window
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not walls or (not trace and time.perf_counter() + last < deadline):
        start = time.perf_counter()
        calibrated, measured, payloads = _serve_pass(
            mix, root, work_dir, failures, speed)
        last = time.perf_counter() - start
        for job, value in zip(samples, calibrated):
            job.append(value)
        for job, value in zip(raw, measured):
            job.append(value)
        walls.append(sum(calibrated))
        if first_payloads is None:
            first_payloads = payloads
        elif canonical(payloads) != canonical(first_payloads):
            failures.append("miss payloads differ between passes")
    misses = [i for i, (_spec, hit) in enumerate(mix) if not hit]
    rng = random.Random(seed)
    if not trace:
        for i in rng.sample(misses, SERVE_INPROCESS_CHECKS):
            check_inprocess(i, mix[i][0], first_payloads, failures)
    summary = e2e_summary(len(mix), dict(enumerate(samples)),
                          dict(enumerate(raw)), walls)
    medians = summary["op_s"]
    summary["op_s"] = [medians[i] for i in misses]
    summary["hit_s"] = [medians[i] for i, (_s, hit) in enumerate(mix) if hit]
    result["e2e"] = summary
    if trace:
        run_traced_serve(mix, misses, root, work_dir, medians, walls,
                         first_payloads, result, failures, rng, speed)
    result["attempted"] = len(mix) * len(walls)
    try:
        os.rmdir(tmp)
    except OSError:
        pass
    return failures


def run_traced_serve(mix, misses, root, work_dir, medians, walls, payloads,
                     result, failures, rng, speed, n_inprocess=30):
    from repro.serve.cache import ResultCache
    from repro.serve.journal import JobJournal

    layers = result["layers"]
    tracer = Tracer()

    def probe(server):
        journal_path = os.path.join(server.root, "journal.ckpt")
        layers["serve.journal_bytes"] = os.path.getsize(journal_path)
        copy = os.path.join(server.root, "journal-probe.ckpt")
        shutil.copyfile(journal_path, copy)
        journal = JobJournal(copy).load()
        appends = []
        for n in range(5):
            t0 = time.perf_counter()
            journal.append("done", f"probe-{n}")
            appends.append(time.perf_counter() - t0)
        layers["serve.journal_append_ms"] = median(appends) * 1e3

    calibrated, measured, traced_payloads = _serve_pass(
        mix, root, work_dir, failures, speed, tracer=tracer, probe=probe)
    if canonical(traced_payloads) != canonical(payloads):
        failures.append("traced pass payloads differ")
    layers.update(span_metrics(tracer))
    layers["trace.overhead_s"] = sum(calibrated) - walls[0]
    layers["serve.cache_hits"] = len(mix) - len(misses)
    layers["serve.cache_misses"] = len(misses)
    layers["setup.server_ready_s"] = median(result["server_ready_s"])
    hits = result["e2e"]["hit_s"]
    layers["serve.hit_p50_ms"] = quantile(hits, 0.5) * 1e3
    layers["serve.hit_p90_ms"] = quantile(hits, 0.9) * 1e3

    run_job_s, overhead_s = [], []
    for i in sorted(rng.sample(misses, min(n_inprocess, len(misses)))):
        seconds = check_inprocess(i, mix[i][0], payloads, failures)
        run_job_s.append(seconds)
        overhead_s.append(measured[i] - seconds)
    layers["serve.run_job_ms"] = median(run_job_s) * 1e3
    layers["serve.miss_overhead_ms"] = median(overhead_s) * 1e3

    cache_root = os.path.join(os.path.dirname(root), f"cache-{os.getpid()}")
    shutil.rmtree(cache_root, ignore_errors=True)
    try:
        cache = ResultCache(cache_root, max_entries=1024)
        puts, gets = [], []
        for n, payload in enumerate(payloads.values()):
            key = f"{n:064x}"
            t0 = time.perf_counter()
            cache.put(key, payload)
            t1 = time.perf_counter()
            got = cache.get(key)
            t2 = time.perf_counter()
            puts.append(t1 - t0)
            gets.append(t2 - t1)
            if canonical(got) != canonical(payload):
                failures.append("cache probe read back a different payload")
        layers["serve.cache_put_ms"] = median(puts) * 1e3
        layers["serve.cache_get_ms"] = median(gets) * 1e3
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)


# -- entry point -------------------------------------------------------------

def run_workload(name, seed, seconds, trace, work_dir):
    result = {"workload": name, "seed": seed, "layers": {}}
    for module in IMPORTS[name]:
        importlib.import_module(module)
    speed = HostSpeed()
    if name in SWEEP_ENGINES:
        failures = run_sweep_workload(name, seed, seconds, trace, result,
                                      speed)
    elif name == "model-check":
        failures = run_mc_workload(seed, seconds, trace, result, speed)
    elif name == "serve":
        failures = run_serve_workload(seed, seconds, trace, result, speed,
                                      work_dir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    result["failed"] = len(failures)
    result["failures"] = failures[:20]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(own, children) / 1024
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    work_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), work_dir)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
