"""Model checking tests: protocol compliance, deadlock freedom and the
scheduler leads-to property — the Section 4.2 verification, rebuilt on the
library's explicit-state explorer."""

import pytest

from repro.core.scheduler import (
    NondetScheduler,
    RepairScheduler,
    StaticScheduler,
    ToggleScheduler,
)
from repro.core.shared import SharedModule
from repro.elastic.buffers import ElasticBuffer, ZeroBackwardLatencyBuffer
from repro.elastic.eemux import EarlyEvalMux
from repro.elastic.environment import NondetSink, NondetSource
from repro.elastic.functional import Func
from repro.netlist import patterns
from repro.netlist.graph import Netlist
from repro.verif.deadlock import assert_deadlock_free, find_deadlocks
from repro.verif.explore import StateExplorer, explore_or_raise
from repro.verif.leads_to import check_leads_to


def eb_under_nondet(make_buffer):
    net = Netlist("mc")
    net.add(NondetSource("src"))
    net.add(make_buffer())
    net.add(NondetSink("snk", can_kill=True))
    net.connect("src.o", net.nodes[_buf_name(net)].name + ".i", name="in")
    net.connect(_buf_name(net) + ".o", "snk.i", name="out")
    net.validate()
    return net


def _buf_name(net):
    for name, node in net.nodes.items():
        if node.kind in ("eb", "zbl_eb"):
            return name
    raise AssertionError


class TestElasticBufferCompliance:
    def test_standard_eb_protocol_and_deadlock(self):
        """Exhaustive: EB under all source/sink/kill behaviours satisfies
        Retry+/-, the invariant, and never deadlocks."""
        net = eb_under_nondet(lambda: ElasticBuffer("eb"))
        result = explore_or_raise(net, max_states=5000)
        assert result.n_states > 4
        assert_deadlock_free(result)

    def test_zbl_eb_protocol_and_deadlock(self):
        net = eb_under_nondet(lambda: ZeroBackwardLatencyBuffer("eb"))
        result = explore_or_raise(net, max_states=5000)
        assert_deadlock_free(result)

    def test_eb_chain_protocol(self):
        net = Netlist("mc")
        net.add(NondetSource("src"))
        net.add(ElasticBuffer("e0"))
        net.add(ZeroBackwardLatencyBuffer("e1"))
        net.add(NondetSink("snk", can_kill=True))
        net.connect("src.o", "e0.i", name="a")
        net.connect("e0.o", "e1.i", name="b")
        net.connect("e1.o", "snk.i", name="c")
        result = explore_or_raise(net, max_states=20000)
        assert_deadlock_free(result)


def shared_mux_mc_net(scheduler):
    """Nondet sources -> shared module -> EE mux -> nondet (non-killing)
    sink, with a nondet select source: the Section 4.2 composition (the
    shared :func:`repro.netlist.patterns.speculative_mc` builder)."""
    net, _names = patterns.speculative_mc(scheduler)
    return net


class TestSpeculationCompliance:
    @pytest.mark.parametrize("make_sched", [
        lambda: ToggleScheduler(2),
        lambda: RepairScheduler(2),
    ])
    def test_protocol_holds_for_compliant_schedulers(self, make_sched):
        net = shared_mux_mc_net(make_sched())
        result = explore_or_raise(net, max_states=60000)
        assert_deadlock_free(result)

    def test_nondet_scheduler_protocol_safe(self):
        """Even a fully nondeterministic scheduler keeps the protocol safe
        (safety does not depend on the prediction strategy)."""
        net = shared_mux_mc_net(NondetScheduler(2))
        result = explore_or_raise(net, max_states=120000)
        assert result.violations == []


class TestLeadsTo:
    def test_compliant_scheduler_is_starvation_free(self):
        net = shared_mux_mc_net(ToggleScheduler(2))
        result = StateExplorer(net, max_states=60000).explore()
        ok0, _ = check_leads_to(result, "fin0", "fout0")
        ok1, _ = check_leads_to(result, "fin1", "fout1")
        assert ok0 and ok1

    def test_repair_scheduler_is_starvation_free(self):
        net = shared_mux_mc_net(RepairScheduler(2))
        result = StateExplorer(net, max_states=60000).explore()
        ok0, _ = check_leads_to(result, "fin0", "fout0")
        ok1, _ = check_leads_to(result, "fin1", "fout1")
        assert ok0 and ok1

    def test_broken_scheduler_starves(self):
        """A static scheduler without repair violates leads-to: a token on
        the never-predicted channel waits forever — the failure mode the
        paper's constraint (1) excludes."""
        net = shared_mux_mc_net(StaticScheduler(2, favourite=0, repair=False))
        result = StateExplorer(net, max_states=60000).explore()
        ok1, lasso = check_leads_to(result, "fin1", "fout1")
        assert not ok1
        assert lasso


class TestDeadlockDetection:
    def test_manufactured_deadlock_found(self):
        """A join whose second input can never be fed deadlocks as soon as
        the first input commits a token."""
        net = Netlist("dead")
        net.add(NondetSource("a"))
        net.add(Func("join", lambda x, y: x, n_inputs=2))
        net.add(ElasticBuffer("loop_eb"))          # empty: never produces
        net.add(NondetSink("snk"))
        net.connect("a.o", "join.i0", name="ca")
        net.connect("loop_eb.o", "join.i1", name="cb")
        net.connect("join.o", "snk.i", name="out")
        # close the loop so validation passes but no token ever circulates
        net2 = Netlist("dead2")
        # simpler: feed loop_eb from a source that never offers
        net.add(_NeverSource("never"))
        net.connect("never.o", "loop_eb.i", name="cn")
        net.validate()
        result = StateExplorer(net, max_states=2000).explore()
        assert find_deadlocks(result)


class _NeverSource(NondetSource):
    def choice_space(self):
        return 1

    def pre_cycle(self):
        pass


class TestBreadthFirstOrder:
    """Regression for the PR 5 search-order fix: the docstring always said
    BFS but the frontier popped LIFO (depth-first), so counterexamples
    could be arbitrarily long."""

    @staticmethod
    def _discovery_depths(result):
        """Depth of each state along its discovery transition (transitions
        are recorded in expansion order, so the first one reaching a state
        is the discovering one)."""
        depth = [None] * result.n_states
        depth[0] = 0
        for t in result.transitions:
            if depth[t.target] is None:
                depth[t.target] = depth[t.source] + 1
        return depth

    def test_states_indexed_in_breadth_first_layers(self):
        net = eb_under_nondet(lambda: ElasticBuffer("eb"))
        result = StateExplorer(net, max_states=5000).explore()
        depths = self._discovery_depths(result)
        assert None not in depths
        # Breadth-first <=> discovery index order never decreases in depth
        # (a LIFO frontier interleaves deep and shallow discoveries).
        assert depths == sorted(depths)

    def test_shortest_path_matches_bfs_depth(self):
        net = eb_under_nondet(lambda: ZeroBackwardLatencyBuffer("eb"))
        result = StateExplorer(net, max_states=5000).explore()
        depths = self._discovery_depths(result)
        for index in (1, result.n_states // 2, result.n_states - 1):
            path = result.shortest_path_to(index)
            assert path[0] == 0 and path[-1] == index
            assert len(path) == depths[index] + 1


class TestAdjacencyIndex:
    def test_successors_predecessors_match_linear_scan(self):
        net = eb_under_nondet(lambda: ElasticBuffer("eb"))
        result = StateExplorer(net, max_states=5000).explore()
        for index in range(result.n_states):
            assert result.successors(index) == [
                t for t in result.transitions if t.source == index
            ]
            assert result.predecessors(index) == [
                t for t in result.transitions if t.target == index
            ]

    def test_index_rebuilds_after_graph_growth(self):
        from repro.verif.explore import ExplorationResult, Transition

        result = ExplorationResult(states=[(None, None), (None, None)])
        result.transitions.append(Transition(0, 1, {}, {}, True))
        assert len(result.successors(0)) == 1
        result.transitions.append(Transition(0, 1, {}, {}, False))
        assert len(result.successors(0)) == 2      # lazily rebuilt

    def test_signals_decode(self):
        net = eb_under_nondet(lambda: ElasticBuffer("eb"))
        result = StateExplorer(net, max_states=5000).explore()
        assert result.signals_of(0) is None        # initial state
        decoded = result.signals_of(1)
        assert set(decoded) == set(net.channels)
        for quad in decoded.values():
            assert len(quad) == 4
            assert all(isinstance(b, bool) for b in quad)


class TestMaxStatesCap:
    CAP = 20

    def _net(self):
        return eb_under_nondet(lambda: ElasticBuffer("eb"))

    def test_cap_keeps_transitions_between_indexed_states(self):
        """Hitting the cap stops *indexing* new states but not expansion:
        every transition between already-indexed states must still be
        recorded, exactly as in the uncapped run's first CAP states."""
        full = StateExplorer(self._net(), max_states=5000).explore()
        capped = StateExplorer(self._net(), max_states=self.CAP).explore()
        assert capped.complete is False
        assert capped.n_states == self.CAP
        assert all(t.target < self.CAP for t in capped.transitions)
        def edges(result):
            return sorted(
                (t.source, t.target, tuple(sorted(t.choices.items())))
                for t in result.transitions
                if t.source < self.CAP and t.target < self.CAP
            )
        assert edges(capped) == edges(full)
        # The cap was genuinely hit after further expansions: some indexed
        # state past the first one still recorded outgoing transitions.
        assert max(t.source for t in capped.transitions) > 0

    def test_explore_or_raise_propagates_incomplete(self):
        import pytest as _pytest
        from repro.errors import VerificationError

        with _pytest.raises(VerificationError, match="exceeded cap"):
            explore_or_raise(self._net(), max_states=self.CAP)

    def test_capped_graph_identical_scalar_vs_batched(self):
        scalar = StateExplorer(self._net(), max_states=self.CAP).explore()
        batched = StateExplorer(self._net(), max_states=self.CAP,
                                lanes=4).explore()
        assert scalar.states == batched.states
        assert scalar.transitions == batched.transitions
        assert scalar.complete == batched.complete is False


class TestStateCodec:
    def test_equal_states_equal_keys(self):
        from repro.verif.encoding import StateCodec, pack_signals

        net = eb_under_nondet(lambda: ElasticBuffer("eb"))
        codec = StateCodec(net)
        net.reset()
        snap_a = net.snapshot()
        snap_b = net.snapshot()
        sig = pack_signals(
            {name: (True, False, False, False) for name in net.channels},
            codec.channel_names,
        )
        assert codec.encode(snap_a, sig) == codec.encode(snap_b, sig)
        assert codec.encode(snap_a, sig) != codec.encode(snap_a, None)

    def test_pack_unpack_roundtrip(self):
        from repro.verif.encoding import pack_signals, unpack_signals

        names = ["x", "y", "z"]
        signals = {"x": (True, False, True, False),
                   "y": (False, False, False, True),
                   "z": (True, True, False, False)}
        assert unpack_signals(pack_signals(signals, names), names) == signals

    def test_unencodable_snapshot_falls_back(self):
        from repro.verif.encoding import StateCodec

        net = eb_under_nondet(lambda: ElasticBuffer("eb"))
        codec = StateCodec(net)
        weird = (("node", (object(),)),)        # not marshal-serializable
        assert codec.encode(weird, None) is None

    def test_state_key_composes_snapshot_code(self):
        """``encode`` is ``state_key`` over ``snapshot_code``, and the tag
        byte keeps the initial state apart from any produced state."""
        from repro.verif.encoding import StateCodec

        net = eb_under_nondet(lambda: ElasticBuffer("eb"))
        codec = StateCodec(net)
        net.reset()
        snap = net.snapshot()
        code = codec.snapshot_code(snap)
        zeros = bytes(len(codec.channel_names))
        assert codec.encode(snap, zeros) == codec.state_key(code, zeros)
        assert codec.encode(snap, None) == codec.state_key(code, None)
        assert codec.state_key(code, None) != codec.state_key(code, zeros)
        weird = (("node", (object(),)),)
        assert codec.snapshot_code(weird) is weird
        assert codec.state_key(weird, zeros) == (weird, zeros)


class OpaqueToken:
    """A hashable, value-compared data token marshal cannot serialize."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, OpaqueToken) and other.value == self.value

    def __hash__(self):
        return hash(("OpaqueToken", self.value))

    def __repr__(self):
        return f"OpaqueToken({self.value!r})"


class TestUnmarshalableTokens:
    """Snapshots holding data marshal cannot encode take the tuple-key
    fallback, in the dedup index and in the successor memo alike."""

    @staticmethod
    def _net():
        net = Netlist("opaque")
        net.add(NondetSource("src"))
        net.add(Func("wrap", OpaqueToken))
        net.add(ElasticBuffer("eb"))
        net.add(NondetSink("snk", can_kill=True))
        net.connect("src.o", "wrap.i0", name="raw")
        net.connect("wrap.o", "eb.i", name="tok")
        net.connect("eb.o", "snk.i", name="out")
        net.validate()
        return net

    def test_same_result_on_both_engines(self):
        from repro.verif.encoding import StateCodec

        scalar = StateExplorer(self._net()).explore()
        batched = StateExplorer(self._net(), lanes=4).explore()
        codec = StateCodec(self._net())
        fallback = [codec.encode(snapshot, signals) is None
                    for snapshot, signals in scalar.states]
        # the buffer really holds opaque tokens in some states, and the
        # exploration still closes (equal tokens dedup by value)
        assert any(fallback) and not all(fallback)
        assert scalar.complete and scalar.violations == []
        assert scalar.states == batched.states
        assert scalar.transitions == batched.transitions
        assert scalar.violations == batched.violations
        assert find_deadlocks(scalar) == find_deadlocks(batched) == []


class TestPackedRetry:
    def test_packed_retry_matches_dict_form(self):
        """``check_retry_packed`` (built on ``retry_obligations``) gives the
        dict-form ``check_retry`` messages, in order, on random vectors."""
        import random

        from repro.verif.encoding import unpack_signals
        from repro.verif.properties import (
            broken_obligations,
            check_retry,
            check_retry_packed,
            retry_obligations,
        )

        rng = random.Random(5)
        names = [f"c{i}" for i in range(6)]
        for _ in range(500):
            prev = bytes(rng.randrange(16) for _ in names)
            cur = bytes(rng.randrange(16) for _ in names)
            exempt = {i for i in range(len(names)) if rng.random() < 0.3}
            expected = check_retry(unpack_signals(prev, names),
                                   unpack_signals(cur, names),
                                   {names[i] for i in exempt})
            assert check_retry_packed(prev, cur, names, exempt) == expected
            obligations = retry_obligations(prev, names, exempt)
            assert broken_obligations(obligations, cur) == expected
