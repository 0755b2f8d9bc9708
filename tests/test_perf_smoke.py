"""Perf smoke: the recorded engine-level speedups must not regress.

``benchmarks/bench_sweep.py`` and ``benchmarks/bench_incremental.py``
record the full trajectory numbers (and assert the >= 3x acceptance
bars); these tier-1 smokes are cheap guards against *regressions* of the
recorded rates — e.g. the batch engine silently degrading to per-lane
scalar evaluation, or incremental edit patching silently falling back to
full rebuilds — using floors far enough below the recorded speedups
(~3.3x lane batching, ~3.2-3.7x incremental, both on the reference 1-CPU
runner) to stay robust on noisy or slower CI hardware.  Set
``REPRO_SKIP_PERF_SMOKE=1`` to skip on machines where wall-clock
assertions are meaningless.
"""

import json
import os

import pytest

from repro.perf.presets import fig6_lane_spec
from repro.perf.sweep import run_sweep

#: minimum acceptable quick-measurement speedup (recorded rate is ~3.3x).
FLOOR = 1.8

#: fraction of the recorded benchmark speedup the quick measurement must
#: reach when a recorded rate is available for this checkout.
RECORDED_FRACTION = 0.55

_RESULTS_DIR = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "results",
)
_RESULTS = os.path.join(_RESULTS_DIR, "BENCH_sweep.json")


def _recorded(path, *keys):
    try:
        with open(path) as fh:
            value = json.load(fh)
        for key in keys:
            value = value[key]
        return value
    except (OSError, KeyError, ValueError):
        return None


def _recorded_lane_speedup():
    return _recorded(_RESULTS, "lane_batching", "speedup")


def _measure_speedup():
    spec = fig6_lane_spec(cycles=250, warmup=50)
    serial = run_sweep(spec, n_workers=1, engine="worklist")
    batched = run_sweep(spec, n_workers=1, lanes=8)
    # Correctness first — a fast wrong answer is not a speedup.
    for scalar_row, batched_row in zip(serial.rows, batched.rows):
        assert dict(scalar_row, engine="batch") == batched_row
    return serial.elapsed_seconds / batched.elapsed_seconds


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_SMOKE") == "1",
    reason="perf smoke disabled via REPRO_SKIP_PERF_SMOKE",
)
def test_lane_batching_beats_serial_scalar():
    threshold = FLOOR
    recorded = _recorded_lane_speedup()
    if recorded is not None and recorded >= 3.0:
        threshold = max(threshold, RECORDED_FRACTION * recorded)
    speedup = _measure_speedup()
    if speedup < threshold:
        # One retry damps scheduler-noise flakes on loaded runners; a real
        # regression (e.g. batch silently degrading to per-lane scalar
        # evaluation) fails both measurements.
        speedup = max(speedup, _measure_speedup())
    assert speedup >= threshold, (
        f"8-lane batch speedup regressed: measured {speedup:.2f}x, "
        f"required {threshold:.2f}x (recorded benchmark: {recorded})"
    )


# -- incremental transform-loop smoke (ISSUE 4) --------------------------------

#: minimum acceptable quick-measurement incremental-loop speedup
#: (recorded rate is ~3.7x).
INCREMENTAL_FLOOR = 1.6

#: fraction of the recorded bench speedup the quick loop must reach (the
#: quick loop's 40 steps stay on smaller netlists than the recorded
#: 200-step bench, so its intrinsic ratio runs a little lower).
INCREMENTAL_RECORDED_FRACTION = 0.45


def _measure_incremental_speedup(steps=40, cycles=6, warmup=2):
    """A shrunk version of ``benchmarks/bench_incremental.py``: the same
    transform-simulate-measure loop over the fig6b speculative design,
    warm-patched vs clone-and-rebuild, with score-parity asserted."""
    import random
    import time

    from repro.errors import TransformError
    from repro.netlist.varlat import variable_latency_speculative
    from repro.perf.throughput import measure_throughput
    from repro.transform.session import Session

    def design():
        return variable_latency_speculative(seed=3, pure_stream=True)[0]

    rng = random.Random(9)
    commands = []
    scratch = Session(design())
    while len(commands) < steps:
        channels = sorted(scratch.netlist.channels)
        roll = rng.random()
        if roll < 0.55:
            command = f"insert_bubble {rng.choice(channels)}"
        elif roll < 0.75:
            command = f"insert_zbl {rng.choice(channels)}"
        elif roll < 0.9:
            command = "undo"
        else:
            command = "redo"
        try:
            scratch.run_command(command)
        except TransformError:
            continue
        commands.append(command)

    warm_session = Session(design())
    warm_session.simulator()
    start = time.perf_counter()
    warm_scores = []
    for command in commands:
        warm_session.run_command(command)
        warm_scores.append(
            warm_session.measure("out", cycles=cycles, warmup=warmup).transfers
        )
    warm_seconds = time.perf_counter() - start

    cold_session = Session(design())
    history = []
    start = time.perf_counter()
    cold_scores = []
    for command in commands:
        # The pre-ISSUE-4 cost model, as in benchmarks/bench_incremental.py:
        # a whole-netlist deep clone per transform (the old Session's undo
        # history) plus the rebuild measurement path (per-step clone +
        # fresh Simulator).
        history.append(cold_session.netlist.clone())
        if len(history) > 64:
            history.pop(0)
        cold_session.run_command(command)
        cold_scores.append(
            measure_throughput(cold_session.netlist, "out",
                               cycles=cycles, warmup=warmup).transfers
        )
    cold_seconds = time.perf_counter() - start
    # Correctness first — a fast wrong answer is not a speedup.
    assert warm_scores == cold_scores
    return cold_seconds / warm_seconds


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_SMOKE") == "1",
    reason="perf smoke disabled via REPRO_SKIP_PERF_SMOKE",
)
def test_incremental_patching_beats_rebuild():
    threshold = INCREMENTAL_FLOOR
    recorded = _recorded(
        os.path.join(_RESULTS_DIR, "BENCH_incremental.json"),
        "incremental_loop", "speedup",
    )
    if recorded is not None and recorded >= 3.0:
        threshold = max(threshold,
                        INCREMENTAL_RECORDED_FRACTION * recorded)
    speedup = _measure_incremental_speedup()
    if speedup < threshold:
        # One retry damps scheduler-noise flakes on loaded runners; a real
        # regression (e.g. apply_edit silently rebuilding from scratch, or
        # reuse_simulator cloning after all) fails both measurements.
        speedup = max(speedup, _measure_incremental_speedup())
    assert speedup >= threshold, (
        f"incremental transform-loop speedup regressed: measured "
        f"{speedup:.2f}x, required {threshold:.2f}x "
        f"(recorded benchmark: {recorded})"
    )


# -- lane-batched exploration smoke (ISSUE 5) ----------------------------------

#: minimum acceptable quick-measurement exploration speedup (the recorded
#: benchmark rate is ~2.3x on the reference runner; the quick measurement
#: runs a shallower design capped at 1200 states, so its intrinsic ratio
#: is a little lower and noisier).
EXPLORE_FLOOR = 1.25

#: fraction of the recorded bench speedup the quick measurement must reach.
EXPLORE_RECORDED_FRACTION = 0.55


def _measure_explore_speedup():
    """A shrunk version of ``benchmarks/bench_explore.py``: the speculative
    composition with a 2-stage ZBL chain and killing sink, explored to a
    1200-state cap, scalar vs 16-lane — with bit-identity asserted."""
    import time

    from repro.core.scheduler import ToggleScheduler
    from repro.netlist import patterns
    from repro.verif.explore import StateExplorer

    def design():
        return patterns.speculative_mc(
            ToggleScheduler(2), n_zbl=2, can_kill_sink=True)[0]

    start = time.perf_counter()
    scalar = StateExplorer(design(), max_states=1200).explore()
    scalar_seconds = time.perf_counter() - start
    start = time.perf_counter()
    batched = StateExplorer(design(), max_states=1200, lanes=16).explore()
    batched_seconds = time.perf_counter() - start
    # Correctness first — a fast wrong answer is not a speedup.
    assert scalar.states == batched.states
    assert scalar.transitions == batched.transitions
    assert scalar.violations == batched.violations
    assert scalar.complete == batched.complete
    return scalar_seconds / batched_seconds


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_SMOKE") == "1",
    reason="perf smoke disabled via REPRO_SKIP_PERF_SMOKE",
)
def test_lane_batched_exploration_beats_scalar():
    threshold = EXPLORE_FLOOR
    recorded = _recorded(
        os.path.join(_RESULTS_DIR, "BENCH_explore.json"),
        "explore_batching", "speedup",
    )
    if recorded is not None and recorded >= 2.0:
        threshold = max(threshold, EXPLORE_RECORDED_FRACTION * recorded)
    speedup = _measure_explore_speedup()
    if speedup < threshold:
        # One retry damps scheduler-noise flakes on loaded runners; a real
        # regression (e.g. the frontier engine silently degrading to one
        # scalar fix-point per transition) fails both measurements.
        speedup = max(speedup, _measure_explore_speedup())
    assert speedup >= threshold, (
        f"lane-batched exploration speedup regressed: measured "
        f"{speedup:.2f}x, required {threshold:.2f}x "
        f"(recorded benchmark: {recorded})"
    )

# -- explorer successor-memo guard (timing-free) -------------------------------

#: ``spec-nondet`` has 5328 transitions out of 257 states, but only 2304
#: distinct ``(snapshot, choice-vector)`` expansions: states that differ
#: only in last cycle's signals share their successors.
SPEC_NONDET_TRANSITIONS = 5328
SPEC_NONDET_FIXPOINTS = 2304


def _count_explore_fixpoints(lanes):
    """Explore ``spec-nondet`` counting fix-points: scalar
    ``step_with_choices`` calls, or occupied lane slots of the batch
    engine (idle padding lanes repeat the last real lane's choices dict,
    so they are counted by identity and excluded)."""
    from repro.designs import build_mc_design
    from repro.verif.explore import StateExplorer

    explorer = StateExplorer(build_mc_design("spec-nondet"), lanes=lanes)
    count = [0]
    if lanes == 1:
        step = explorer.sim.step_with_choices

        def counted(choices):
            count[0] += 1
            return step(choices)

        explorer.sim.step_with_choices = counted
    else:
        step = explorer._batch.step_with_lane_choices

        def counted(choices_per_lane):
            count[0] += len({id(choices) for choices in choices_per_lane})
            return step(choices_per_lane)

        explorer._batch.step_with_lane_choices = counted
    result = explorer.explore()
    return len(result.transitions), count[0]


@pytest.mark.parametrize("lanes", [1, 8])
def test_explorer_expands_each_snapshot_once(lanes):
    """One fix-point per distinct ``(snapshot, choice-vector)`` pair, not
    per transition — counted, not timed, so it fails on any machine if
    the successor memo silently stops hitting."""
    transitions, fixpoints = _count_explore_fixpoints(lanes)
    assert transitions == SPEC_NONDET_TRANSITIONS
    assert fixpoints == SPEC_NONDET_FIXPOINTS


# -- codegen engine smoke (ISSUE 9) --------------------------------------------

#: minimum acceptable quick-measurement codegen-vs-worklist speedup on the
#: deep pipeline (the ISSUE's acceptance bar is 5x on the recorded bench;
#: the recorded rate is ~9.8x on the reference runner, and the quick
#: measurement runs fewer cycles so elaboration amortizes less).
CODEGEN_FLOOR = 3.0

#: fraction of the recorded bench speedup the quick measurement must reach.
CODEGEN_RECORDED_FRACTION = 0.45


def _measure_codegen_speedup(cycles=300):
    """A shrunk version of ``benchmarks/bench_engine.py``'s head-to-head:
    the 12-stage deep pipeline, worklist vs codegen, best of 3 — with
    bit-identity of the sink streams asserted."""
    import time

    from repro.netlist import patterns
    from repro.sim.engine import Simulator

    def rate(engine):
        best = float("inf")
        sink_values = None
        for _ in range(3):
            net = patterns.deep_pipeline(12, source_values=list(range(cycles)))
            sim = Simulator(net, engine=engine)
            start = time.perf_counter()
            sim.run(cycles)
            best = min(best, time.perf_counter() - start)
            sink_values = net.nodes["snk"].values
        return cycles / best, sink_values

    worklist_rate, worklist_sink = rate("worklist")
    codegen_rate, codegen_sink = rate("codegen")
    # Correctness first — a fast wrong answer is not a speedup.
    assert codegen_sink == worklist_sink
    return codegen_rate / worklist_rate


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_SMOKE") == "1",
    reason="perf smoke disabled via REPRO_SKIP_PERF_SMOKE",
)
def test_codegen_beats_worklist():
    threshold = CODEGEN_FLOOR
    recorded = _recorded(
        os.path.join(_RESULTS_DIR, "BENCH_engine.json"),
        "codegen_speedup", "pipeline12",
    )
    if recorded is not None and recorded >= 5.0:
        threshold = max(threshold, CODEGEN_RECORDED_FRACTION * recorded)
    speedup = _measure_codegen_speedup()
    if speedup < threshold:
        # One retry damps scheduler-noise flakes on loaded runners; a real
        # regression (e.g. elaboration silently demoting the whole pipeline
        # to the deferred fix-point loop) fails both measurements.
        speedup = max(speedup, _measure_codegen_speedup())
    assert speedup >= threshold, (
        f"codegen engine speedup regressed: measured {speedup:.2f}x, "
        f"required {threshold:.2f}x (recorded benchmark: {recorded})"
    )


# -- serve result-cache smoke (ISSUE 8) ----------------------------------------

#: minimum acceptable quick-measurement cache-hit speedup.  The ISSUE's
#: acceptance bar is 5x; the recorded benchmark rate is ~2900x (a verified
#: file read vs a 24-config sweep), so even a heavily loaded runner clears
#: this with orders of magnitude to spare.
SERVE_FLOOR = 5.0

#: fraction of the recorded bench speedup the quick measurement must
#: reach.  The quick sweep runs a shrunk grid (cycles=150) so its cold
#: side is ~20x cheaper than the recorded bench's — the hit latency stays
#: the same, which drops the intrinsic ratio accordingly.
SERVE_RECORDED_FRACTION = 0.005


def _measure_serve_cache_speedup():
    """A shrunk version of ``benchmarks/bench_serve.py``: one in-process
    job server, a cold fig6 sweep submit vs its cache-hit resubmit — with
    byte-identity of the payloads asserted."""
    import asyncio
    import tempfile
    import threading
    import time

    from repro.serve.client import ServeClient
    from repro.serve.server import JobServer

    spec = {"kind": "sweep", "grid": "fig6", "cycles": 150}
    with tempfile.TemporaryDirectory() as root:
        server = JobServer(root, retries=0)
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(server.run(ready=ready)), daemon=True)
        thread.start()
        assert ready.wait(10)
        client = ServeClient(root=root, timeout=120)
        try:
            start = time.perf_counter()
            cold = client.submit(spec)
            cold_seconds = time.perf_counter() - start
            start = time.perf_counter()
            warm = client.submit(spec)
            warm_seconds = time.perf_counter() - start
        finally:
            client.shutdown()
            thread.join(30)
    # Correctness first — a fast wrong answer is not a cache.
    assert cold["type"] == warm["type"] == "result"
    assert not cold.get("cached") and warm["cached"]
    assert json.dumps(cold["payload"], sort_keys=True) == \
        json.dumps(warm["payload"], sort_keys=True)
    return cold_seconds / warm_seconds


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_SMOKE") == "1",
    reason="perf smoke disabled via REPRO_SKIP_PERF_SMOKE",
)
def test_serve_cache_hit_beats_cold_run():
    threshold = SERVE_FLOOR
    recorded = _recorded(
        os.path.join(_RESULTS_DIR, "BENCH_serve.json"),
        "serve_cache", "speedup",
    )
    if recorded is not None and recorded >= 100.0:
        threshold = max(threshold, SERVE_RECORDED_FRACTION * recorded)
    speedup = _measure_serve_cache_speedup()
    if speedup < threshold:
        # One retry damps scheduler-noise flakes on loaded runners; a real
        # regression (e.g. the cache silently missing on every read and
        # re-simulating) fails both measurements.
        speedup = max(speedup, _measure_serve_cache_speedup())
    assert speedup >= threshold, (
        f"serve cache-hit speedup regressed: measured {speedup:.2f}x, "
        f"required {threshold:.2f}x (recorded benchmark: {recorded})"
    )


# -- chaos wrap-overhead smoke (ISSUE 10) --------------------------------------

#: ceiling on the quick per-cycle slowdown of a chaos-wrapped run (the
#: recorded bench overhead is ~1.2-1.6x; a saboteur knocking the engine
#: off its incremental path shows up as 10x+).
CHAOS_CEILING = 3.5

#: slack factor over the recorded bench overhead when one is available
#: (the guard is inverted — measured overhead must stay *below* the bar).
CHAOS_RECORDED_SLACK = 2.5


def _measure_chaos_overhead(cycles=600, repeats=2):
    import time

    from repro.chaos import ChaosPlan, wrap
    from repro.designs import build_design
    from repro.sim.engine import Simulator

    plan = ChaosPlan.seeded(1, list(build_design("fig6b").channels))

    def run(wrapped):
        best = None
        for _ in range(repeats):
            net = build_design("fig6b")
            if wrapped:
                wrap(net, plan)
            sim = Simulator(net)
            start = time.perf_counter()
            sim.run(cycles)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return best

    return run(True) / run(False)


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_SMOKE") == "1",
    reason="perf smoke disabled via REPRO_SKIP_PERF_SMOKE",
)
def test_chaos_wrap_overhead_stays_bounded():
    ceiling = CHAOS_CEILING
    recorded = _recorded(
        os.path.join(_RESULTS_DIR, "BENCH_chaos.json"), "wrap_overhead",
    )
    if recorded is not None and recorded >= 1.0:
        ceiling = max(ceiling, CHAOS_RECORDED_SLACK * recorded)
    overhead = _measure_chaos_overhead()
    if overhead > ceiling:
        # One retry damps scheduler-noise flakes on loaded runners; a real
        # regression (saboteurs forcing full re-evaluation every cycle)
        # fails both measurements.
        overhead = min(overhead, _measure_chaos_overhead())
    assert overhead <= ceiling, (
        f"chaos wrap overhead regressed: measured {overhead:.2f}x per "
        f"cycle, ceiling {ceiling:.2f}x (recorded benchmark: {recorded})"
    )
