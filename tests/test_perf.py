"""Performance-model tests: timing analysis, marked-graph throughput,
area accounting and the combined report."""

import pytest

from repro.elastic.buffers import ElasticBuffer, ZeroBackwardLatencyBuffer
from repro.elastic.environment import ListSource, Sink
from repro.elastic.functional import Func
from repro.errors import NetlistError
from repro.netlist import patterns
from repro.netlist.graph import Netlist
from repro.perf.area import area_breakdown, area_overhead, total_area
from repro.perf.mcr import marked_graph_throughput, min_cycle_ratio
from repro.perf.report import format_report_table, performance_report
from repro.perf.throughput import measure_throughput
from repro.perf.timing import analyze_timing, cycle_time, timing_graph
from repro.tech.library import DEFAULT_TECH, TechLibrary


def linear(delays):
    net = Netlist("lin")
    net.add(ListSource("src", list(range(10))))
    prev = "src.o"
    for i, d in enumerate(delays):
        net.add(ElasticBuffer(f"eb{i}"))
        net.connect(prev, f"eb{i}.i", name=f"c{i}")
        net.add(Func(f"f{i}", lambda x: x, n_inputs=1, delay=d))
        net.connect(f"eb{i}.o", f"f{i}.i0", name=f"m{i}")
        prev = f"f{i}.o"
    net.add(Sink("snk"))
    net.connect(prev, "snk.i", name="out")
    return net


class TestTiming:
    def test_cycle_time_tracks_slowest_stage(self):
        slow = cycle_time(linear([2.0, 9.0, 3.0]))
        fast = cycle_time(linear([2.0, 3.0, 3.0]))
        assert slow > fast
        assert slow == pytest.approx(9.0 + DEFAULT_TECH.register_overhead, abs=1.5)

    def test_back_to_back_funcs_accumulate(self):
        """Two blocks with no EB between them share a cycle."""
        net = Netlist("n")
        net.add(ListSource("src", [1]))
        net.add(ElasticBuffer("eb"))
        net.add(Func("f", lambda x: x, n_inputs=1, delay=4.0))
        net.add(Func("g", lambda x: x, n_inputs=1, delay=5.0))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="a")
        net.connect("eb.o", "f.i0", name="b")
        net.connect("f.o", "g.i0", name="c")
        net.connect("g.o", "snk.i", name="d")
        assert cycle_time(net) >= 9.0

    def test_fig1_ordering_matches_paper(self):
        """T(a) > T(d) > T(c) > T(b): bubble insertion shortens the clock
        most; Shannon beats speculation by one channel-mux; the original is
        slowest."""
        sel = lambda g: 0
        times = {}
        for label, make in [("a", patterns.fig1a), ("b", patterns.fig1b),
                            ("c", patterns.fig1c), ("d", patterns.fig1d)]:
            net, _names = make(sel)
            times[label] = cycle_time(net)
        assert times["a"] > times["d"] > times["c"] > times["b"]

    def test_critical_path_reported(self):
        net, _ = patterns.fig1a(lambda g: 0)
        result = analyze_timing(net)
        path_nodes = {n for n, _p, _pl in result.path}
        assert {"G", "mux", "F"} <= path_nodes

    def test_zbl_backward_chain_counts(self):
        """Chained ZBL buffers accumulate backward control delay (the
        Section 4.3 caveat)."""
        def chain(n):
            net = Netlist("z")
            net.add(ListSource("src", [1]))
            prev = "src.o"
            for i in range(n):
                net.add(ZeroBackwardLatencyBuffer(f"z{i}"))
                net.connect(prev, f"z{i}.i", name=f"c{i}")
                prev = f"z{i}.o"
            net.add(Sink("snk"))
            net.connect(prev, "snk.i", name="out")
            return net

        assert cycle_time(chain(6)) > cycle_time(chain(2))

    def test_zbl_ring_is_a_timing_loop_with_a_real_cycle(self):
        """A ring of ZBL buffers chains their zero-latency stop paths into
        a loop; the error names the vertices of one actual cycle."""
        net = Netlist("zbl_ring")
        for i in range(3):
            net.add(ZeroBackwardLatencyBuffer(f"z{i}", init=[i]))
        for i in range(3):
            net.connect(f"z{i}.o", f"z{(i + 1) % 3}.i", name=f"r{i}")
        with pytest.raises(NetlistError, match="combinational timing loop") as info:
            analyze_timing(net)
        hops = str(info.value).split(": ", 1)[1].split(" -> ")
        cycle = [(h.split(".")[0], h.split(".")[1][:-3], h[-2]) for h in hops]
        graph = timing_graph(net)
        assert len(set(cycle)) == len(cycle) == 6
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            assert v in graph[u]


class TestMcr:
    @pytest.mark.parametrize("stages,tokens,expected", [
        (4, 1, 0.25), (4, 2, 0.5), (4, 3, 0.75), (3, 3, 1.0), (5, 2, 0.4),
    ])
    def test_ring_throughput_formula(self, stages, tokens, expected):
        net = patterns.token_ring(stages, tokens)
        assert marked_graph_throughput(net) == pytest.approx(expected)

    def test_capacity_back_edges_limit_full_rings(self):
        """A ring of capacity-2 buffers completely full of tokens is also
        slow: the *holes* circulate at ratio (2n - k)/n."""
        net = patterns.token_ring(4, 7)
        assert marked_graph_throughput(net) == pytest.approx(1 / 4)

    def test_fig1b_gives_one_half(self):
        """The Section 2 analysis: one token, two buffers in the loop."""
        net, _names = patterns.fig1b(lambda g: 0)
        assert marked_graph_throughput(net) == pytest.approx(0.5)

    def test_fig1a_gives_one(self):
        net, _names = patterns.fig1a(lambda g: 0)
        assert marked_graph_throughput(net) == pytest.approx(1.0)

    def test_acyclic_design_is_one(self):
        net = patterns.eb_chain(3)
        assert marked_graph_throughput(net) == 1.0

    def test_speculative_design_rejected(self):
        net, _names = patterns.fig1d(lambda g: 0)
        with pytest.raises(NetlistError):
            min_cycle_ratio(net)

    def test_analytical_matches_simulation(self):
        """MCR vs measured throughput on rings."""
        for stages, tokens in [(4, 1), (4, 2), (3, 2)]:
            net = patterns.token_ring(stages, tokens)
            predicted = marked_graph_throughput(net)
            measured = measure_throughput(net, "ring0", cycles=400, warmup=50)
            assert measured.throughput == pytest.approx(predicted, abs=0.02)


class TestArea:
    def test_breakdown_covers_all_nodes(self):
        net, _names = patterns.fig1a(lambda g: 0)
        breakdown = area_breakdown(net)
        assert set(breakdown) == set(net.nodes)

    def test_environments_excluded_from_total(self):
        net = patterns.eb_chain(1)
        assert total_area(net) == net.nodes["eb0"].area(DEFAULT_TECH)

    def test_width_scales_eb_area(self):
        net1 = Netlist("n1")
        net1.add(ListSource("s", []))
        net1.add(ElasticBuffer("eb"))
        net1.add(Sink("k"))
        net1.connect("s.o", "eb.i", name="a", width=8)
        net1.connect("eb.o", "k.i", name="b", width=8)
        net2 = net1.clone()
        net2.channels["b"].width = 64
        assert total_area(net2) > total_area(net1)

    def test_overhead_helper(self):
        sel = lambda g: 0
        net_a, _ = patterns.fig1a(sel)
        net_c, _ = patterns.fig1c(sel)
        assert area_overhead(net_a, net_c) > 0.2   # duplicated F

    def test_speculation_cheaper_than_shannon(self):
        """The Figure 1 punchline: (d) saves area over (c)."""
        sel = lambda g: 0
        _, _ = patterns.fig1a(sel)
        net_c, _ = patterns.fig1c(sel)
        net_d, _ = patterns.fig1d(sel)
        assert total_area(net_d) < total_area(net_c)


class TestReport:
    def test_marked_graph_source_for_plain_designs(self):
        net, _names = patterns.fig1b(lambda g: 0)
        report = performance_report(net)
        assert report.throughput_source == "marked-graph"
        assert report.throughput == pytest.approx(0.5)
        assert report.effective_cycle_time == pytest.approx(
            report.cycle_time / 0.5)

    def test_simulation_source_for_speculative(self):
        net, names = patterns.fig1d(lambda g: g % 2)
        report = performance_report(net, sim_channel=names["ebin"],
                                    cycles=300, warmup=50)
        assert report.throughput_source == "simulation"
        assert report.throughput > 0.9

    def test_table_formatting(self):
        net, _names = patterns.fig1a(lambda g: 0)
        reports = [performance_report(net, name="x"),
                   performance_report(net, name="y")]
        table = format_report_table(reports)
        assert "design" in table and "x" in table and "y" in table

    def test_custom_tech_changes_numbers(self):
        net, _names = patterns.fig1a(lambda g: 0)
        fast = TechLibrary()
        fast.register_overhead = 0.0
        assert cycle_time(net, fast) < cycle_time(net, DEFAULT_TECH)

    def test_empty_table_is_header_only(self):
        """Regression: ``format_report_table([])`` raised TypeError."""
        table = format_report_table([])
        lines = table.splitlines()
        assert len(lines) == 2
        assert lines[0].split() == [
            "design", "area", "cycle_time", "throughput", "effective"]
        assert set(lines[1]) <= {"-", " "}

    def test_zero_throughput_is_data_not_missing(self):
        """Regression: a measured throughput of exactly 0.0 (a deadlocked
        or starved design point) must stay distinguishable from an
        unmeasured one."""
        net = Netlist("starved")
        net.add(ListSource("src", []))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="a")
        net.connect("eb.o", "snk.i", name="out")
        starved = performance_report(net, sim_channel="out", cycles=60,
                                     warmup=10)
        assert starved.throughput == 0.0
        assert starved.throughput_source == "simulation"
        assert starved.effective_cycle_time is None     # guarded division
        unmeasured = performance_report(patterns.fig1d(lambda g: 0)[0])
        assert unmeasured.throughput is None
        assert unmeasured.throughput_source == "none"
        assert starved.row()["throughput"] == 0.0
        assert unmeasured.row()["throughput"] is None
