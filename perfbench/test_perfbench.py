"""Tests of the benchmark's own code: percentiles, span arithmetic,
calibration, seeded inputs and the correctness gates.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import os
import re

import harness
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# -- percentiles -------------------------------------------------------------

def test_quantile_interpolates_between_ranks():
    assert harness.quantile([4, 1, 3, 2], 0.5) == 2.5
    assert harness.quantile([1, 2, 3, 4, 5], 0.9) == 4.6
    assert harness.median([7]) == 7


def test_tail_percentile_needs_ten_samples_beyond_it():
    samples = list(range(100))
    assert harness.tail_percentile(samples) == (90, harness.quantile(samples, 0.9))
    assert harness.tail_percentile(list(range(199)))[0] == 90
    assert harness.tail_percentile(list(range(200)))[0] == 95
    assert harness.tail_percentile(list(range(40)))[0] == 75
    assert harness.tail_percentile(list(range(20)))[0] == 50
    assert harness.tail_percentile(list(range(19))) == (None, None)
    assert harness.tail_percentile(list(range(10000)))[0] == 99.9


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_children_once():
    spans = [
        [0, "point", 0.0, 10.0, None],
        [1, "build", 1.0, 4.0, 0],
        [2, "inner", 2.0, 3.0, 1],
        [3, "run", 5.0, 9.0, 0],
    ]
    assert harness.self_times(spans) == {"point": 3.0, "build": 2.0,
                                         "inner": 1.0, "run": 4.0}


def test_self_time_overlapping_children_cover_their_union():
    spans = [
        [0, "parent", 0.0, 10.0, None],
        [1, "a", 1.0, 5.0, 0],
        [2, "b", 3.0, 7.0, 0],
        [3, "c", 9.0, 12.0, 0],     # clipped to the parent's end
    ]
    assert harness.self_times(spans)["parent"] == 10.0 - 6.0 - 1.0


def test_tracer_records_parents_and_sums_per_name():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = harness.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("leaf"):
            pass
        with tracer.span("leaf"):
            pass
    assert [span[4] for span in tracer.spans] == [None, 0, 0]
    assert tracer.self_times() == {"outer": 10.0 - 2.0 - 2.0, "leaf": 4.0}


# -- calibration -------------------------------------------------------------

class FakeSpeed(harness.HostSpeed):
    """A HostSpeed whose calibrations are given, not measured."""

    def __init__(self, spans, window=1.0):
        self.window = window
        self.starts = [start for start, _ in spans]
        self.ends = [end for _, end in spans]
        self.seconds = [harness.CAL_REF_S * (end - start) for start, end in spans]


def test_calibration_scales_by_the_kernel_around_and_inside_the_work():
    # kernels taking 1x, 2x (during the work) and 4x the reference time
    speed = FakeSpeed([(0.0, 1.0), (5.0, 7.0), (20.0, 24.0)])
    # 6 s of work outside the kernel; only the 2x kernel is within the
    # 1 s window, so the work ran at half the reference speed
    assert abs(speed.busy(2.0, 10.0) - 6.0) < 1e-12
    assert abs(speed.calibrated(2.0, 10.0) - 3.0) < 1e-12
    # a wider window takes the 1x kernel too: mean speed 3/4
    wide = FakeSpeed([(0.0, 1.0), (5.0, 7.0), (20.0, 24.0)], window=2.0)
    assert abs(wide.calibrated(2.0, 10.0) - 6.0 * 0.75) < 1e-12
    # nothing within the window: the nearest kernels before and after
    assert abs(speed.calibrated(12.0, 14.0) - 2.0 * (0.5 + 0.25) / 2) < 1e-12
    assert abs(speed.calibrated(30.0, 34.0) - 1.0) < 1e-12
    fresh = FakeSpeed([(10.0, 12.0)])
    assert abs(fresh.calibrated(1.0, 5.0) - 2.0) < 1e-12


def test_calibration_kernel_measures_and_records():
    speed = harness.HostSpeed(steps=1000)
    seconds = speed.measure()
    assert seconds > 0 and speed.seconds == [seconds]
    speed.maybe_measure()       # within the interval: no new calibration
    assert len(speed.seconds) == 1


def test_calibration_timer_interrupts_long_work():
    speed = harness.HostSpeed(interval=0.05, steps=1000)
    speed.start_timer()
    try:
        start = speed.clock()
        while speed.clock() - start < 0.3:
            pass
        end = speed.clock()
    finally:
        speed.stop_timer()
    assert len(speed.seconds) >= 3
    assert speed.busy(start, end) < end - start


# -- inputs from the seed ----------------------------------------------------

def test_sweep_inputs_are_a_function_of_the_seed():
    first = workloads.sweep_points(5)
    assert first == workloads.sweep_points(5)
    assert first != workloads.sweep_points(6)
    assert len(first) == 49
    families = [family for family, _point in first]
    assert families.count("static") == 3
    assert {"fig1d", "fig6", "fig7", "pipe12", "pipe64"} <= set(families)


def test_serve_mix_is_a_function_of_the_seed_with_a_fixed_composition():
    mix = workloads.serve_mix(9)
    assert json.dumps(mix) == json.dumps(workloads.serve_mix(9))
    assert json.dumps(mix) != json.dumps(workloads.serve_mix(10))
    assert len(mix) == 200
    misses = [spec for spec, hit in mix if not hit]
    hits = [spec for spec, hit in mix if hit]
    assert len(misses) == len(hits) == 100
    keys = [json.dumps(spec, sort_keys=True) for spec in misses]
    assert len(set(keys)) == 100
    seen = set()
    for spec, hit in mix:             # every hit resubmits an earlier miss
        key = json.dumps(spec, sort_keys=True)
        assert (key in seen) == hit
        seen.add(key)
    kinds = [spec["kind"] for spec in misses]
    assert (kinds.count("measure"), kinds.count("lint"),
            kinds.count("verify")) == (72, 14, 14)


# -- correctness gates -------------------------------------------------------

ROW = {"index": 0, "design": "fig6[design=stalling]", "params": {"seed": 1},
       "area": 12.5, "cycle_time": 3.25, "throughput": 0.5,
       "effective_cycle_time": 6.5, "throughput_source": "simulation",
       "engine": "worklist"}


def test_sweep_rows_compare_equal_apart_from_the_engine():
    assert workloads.same_rows(ROW, dict(ROW, engine="codegen"))


def test_an_altered_sweep_row_trips_the_gate():
    assert not workloads.same_rows(ROW, dict(ROW, throughput=0.5000001))
    assert not workloads.same_rows(ROW, dict(ROW, params={"seed": 2}))
    assert not workloads.same_rows(ROW, None)


def _reply(payload, cached):
    return {"type": "result", "payload": payload, "cached": cached}


def test_serve_gate_accepts_a_hit_equal_to_its_miss():
    spec = {"kind": "lint", "design": "fig1a", "seed": 3}
    failures = []
    payloads = {workloads.canonical(spec): {"ok": True, "errors": 0}}
    workloads.check_serve_reply(1, spec, True,
                                _reply({"errors": 0, "ok": True}, True),
                                payloads, failures)
    assert len(failures) == 0


def test_an_altered_serve_payload_trips_the_gate():
    spec = {"kind": "lint", "design": "fig1a", "seed": 3}
    payloads = {workloads.canonical(spec): {"ok": True, "errors": 0}}
    for reply, expect_hit in [
            (_reply({"ok": True, "errors": 1}, True), True),
            (_reply({"ok": True, "errors": 0}, False), True),
            (_reply({"ok": True, "errors": 0}, True), False),
            ({"type": "failed", "error": "boom"}, False)]:
        failures = []
        workloads.check_serve_reply(1, spec, expect_hit, reply, payloads,
                                    failures)
        assert len(failures) == 1


def test_model_check_pins_trip_on_any_changed_count():
    summary = {"states": 97, "transitions": 514, "deadlocks": 0,
               "leads_to": None, "ok": True}
    assert workloads.check_mc_summary("eb", summary) == []
    for change in ({"transitions": 513}, {"ok": False}, {"deadlocks": 1}):
        assert workloads.check_mc_summary("eb", dict(summary, **change))


# -- the benchmark description -----------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_follows_its_schema_and_layers_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"}
               for w in bench["workloads"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for m in bench["end_to_end"] + bench["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert [m["name"] for m in bench["per_layer"]] == list(layers["per_layer"])
    known = set(workloads.WORKLOADS)
    for entry in layers["per_layer"].values():
        assert set(entry["on"]) <= known
        assert set(entry["no_change_on"]) <= known
