"""The elastic simulator.

Each clock cycle proceeds in four phases:

1. **pre-cycle** — every node freezes its randomized / nondeterministic
   choices for the cycle;
2. **combinational fix-point** — node ``comb`` functions are evaluated
   (over three-valued signals, all starting unknown) until no signal
   changes.  Monotonicity of the node logic guarantees convergence;
   signals still unknown at the fix-point indicate a genuine combinational
   cycle and raise :class:`~repro.errors.CombinationalLoopError` — the
   hazard the paper warns about when chaining zero-backward-latency buffers;
3. **observation** — channel events are resolved *once* and cached on every
   channel; protocol monitors, statistics and traces sample them;
4. **tick** — every node updates its sequential state.

Fix-point engines
-----------------

Four interchangeable fix-point engines are provided (``engine=``
parameter, process-wide default via :func:`set_default_engine`):

``worklist`` (default) — event-driven evaluation over a **static
sensitivity map** (a patchable
:class:`~repro.sim.sensitivity.SensitivityMap` since PR 4, so structural
netlist edits update a live simulator in place — see `Incremental
patching` on :class:`Simulator`).  At construction the engine asks every
node which channel signals its ``comb`` may read (:meth:`Node.comb_reads`:
the free signals of the kind's comb spec, else derived from port roles)
and which it may drive (:meth:`Node.comb_writes`), and inverts the read
sets into signal -> dependent-node lists.  Every ``unknown -> known`` signal
transition inside :meth:`ChannelState.set` is appended to a shared change
log, so after evaluating a node the engine enqueues exactly the nodes
sensitive to what actually changed.

The once-per-cycle seed pass visits every node (each node's outputs depend
on its sequential state, so each must run at least once) in a **levelized
order**: a topological sort of the writer -> reader dependency graph.  On
the acyclic majority of the control network — everything separated by fully
registered elastic buffers — each node therefore runs *exactly once* per
cycle; the worklist only re-evaluates nodes inside the cyclic regions that
zero-backward-latency buffers, lazy joins and speculative loops create, and
only when a signal they read becomes known after they last ran.

*Convergence argument*: node logic is monotone over the Kleene information
order (``None`` below ``False``/``True``), and :meth:`ChannelState.set`
only ever moves a signal ``unknown -> known`` (a conflicting re-write
raises).  Each of the ``5 * |channels|`` signals can thus change at most
once per cycle, each change enqueues at most ``|nodes|`` dependents, and a
node evaluation with no change enqueues nothing — so the worklist drains
after at most ``O(|nodes| + changes * max_fanout)`` evaluations and the
state it drains at is the least fixed point (any still-unknown signal
genuinely depends on itself through a combinational cycle).  The dense
engine computes the same least fixed point by repeated full sweeps, so the
two engines are behaviourally identical — which the differential fuzz tests
assert.

``naive`` — the original dense Gauss–Seidel sweep (every node, every sweep,
until quiescence; O(nodes²) node evaluations per cycle on deep combinational
chains).  Kept for differential testing and as a reference semantics.

``batch`` — the lane-parallel engine of :mod:`repro.sim.batch`.  Channel
signals are bit-packed Python ints — each three-valued signal becomes a
``(known, value)`` mask pair with one bit per simulation *lane* — so a
single pass over the same static sensitivity map advances N configurations
of a shared topology at once, with node logic lane-parallelized through
bitwise Kleene operators (mask kernels compiled from each node kind's
comb spec, a per-lane scalar fallback for a kind without one).
``Simulator(engine="batch")`` wraps a single netlist in a one-lane
:class:`~repro.sim.batch.BatchSimulator` and behaves exactly like the
scalar engines (the differential fuzz tests pin all three against each
other); multi-lane batches are built directly via
:class:`~repro.sim.batch.BatchSimulator` or, for design-space sweeps,
``run_sweep(spec, lanes=N)``.

``codegen`` — the compiled engine of :mod:`repro.backend.pysim`.  The
netlist is *elaborated*: every node with a comb spec whose signals are
acyclic (on the shipped designs, every node) is emitted as straight-line
Python with channel signals in flat locals, the residue — nodes without a
spec and true combinational loops — runs in a generated event-driven
worklist off the same change log (so it makes exactly this engine's
``comb()`` calls there), and protocol monitoring / statistics / event
resolution / the node kinds' ``tick`` emitters are inlined into the same
generated function — one Python call per cycle, no per-node dispatch.
Modules are ``exec``-compiled once per topology and kept in a bounded
process-wide cache (sequential parameters are read
at run time, so sweeps over one topology compile once); structural edits
re-elaborate before the next step, never serving stale code.  Highest
per-cycle throughput (~10x over worklist on the deep-pipeline bench) at
the cost of a one-time elaboration per topology; pinned bit-identical to
the worklist engine by ``tests/test_codegen_diff.py``.
"""

from __future__ import annotations

from collections import deque

from repro.elastic.node import Node
from repro.errors import CombinationalLoopError
from repro.sim.monitors import ProtocolMonitor
from repro.sim.sensitivity import SensitivityMap, sensitivity_tables
from repro.sim.stats import ChannelStats

__all__ = [
    "ENGINES", "Simulator", "sensitivity_tables",
    "get_default_engine", "set_default_engine",
]

#: Recognized fix-point engines.
ENGINES = ("worklist", "naive", "batch", "codegen")

_default_engine = "worklist"


def set_default_engine(name):
    """Set the process-wide default fix-point engine (CLI ``--engine``)."""
    global _default_engine
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; choose from {ENGINES}")
    _default_engine = name


def get_default_engine():
    """The engine used when ``Simulator(engine=None)``."""
    return _default_engine


class Simulator:
    """Drives a :class:`~repro.netlist.graph.Netlist` cycle by cycle.

    Parameters
    ----------
    netlist:
        The design; it is validated and reset on construction.
    check_protocol:
        Install runtime monitors for the SELF properties (Retry+, Retry-,
        Invariant) on every channel; violations raise immediately.
    observers:
        Optional iterable of objects with an ``observe(cycle, netlist)``
        method called after each fix-point (trace recorders etc.).
    max_iterations:
        Safety bound on fix-point sweeps per cycle (naive engine only; the
        worklist engine terminates by monotonicity).
    engine:
        ``"worklist"`` (event-driven, default), ``"naive"`` (dense sweep),
        ``"batch"`` (one-lane bit-packed) or ``"codegen"`` (compiled
        straight-line module); ``None`` picks the process-wide default.
        Unknown names raise ``ValueError`` with the valid-choices list
        before any engine setup runs.
    profile:
        Record per-node ``comb()`` call counts and per-cycle evaluation /
        sweep histograms (see :mod:`repro.sim.profile`).
    follow_edits:
        Subscribe to the netlist's structural edit log: every
        add/remove/connect/disconnect after construction is applied to
        this simulator via :meth:`apply_edit` automatically, so a warm
        simulator survives transformations without reconstruction (see
        `Incremental patching` below).  Call :meth:`detach` to stop
        following.

    A netlist has a single owning simulator at a time: constructing a new
    :class:`Simulator` on the same netlist re-registers the channels'
    change logs, so a previously constructed simulator must not be stepped
    afterwards (it raises rather than silently missing change events).

    Incremental patching
    --------------------

    The netlist records a monotonically increasing structural ``version``
    and emits a :class:`~repro.netlist.edits.NetlistEdit` per mutation.
    :meth:`apply_edit` patches a live scalar simulator for one such edit —
    the worklist engine's :class:`~repro.sim.sensitivity.SensitivityMap`
    re-levelizes only the affected region — so transform-simulate-measure
    loops keep one warm simulator instead of paying O(netlist)
    clone-and-rebuild per step.  A simulator whose netlist version
    advanced *without* the corresponding ``apply_edit`` calls raises on
    :meth:`step` instead of silently reading stale sensitivity tables; the
    batch wrapper never patches (conservative invalidation: after any
    structural edit it must be rebuilt).  :meth:`reset` rewinds dynamic
    state (netlist sequential state, cycle counter, statistics, monitor
    history) while keeping the built structures warm — the combination the
    ``reuse_simulator`` mode of :func:`repro.perf.throughput.measure_throughput`
    relies on.
    """

    def __init__(self, netlist, check_protocol=True, observers=(),
                 max_iterations=None, engine=None, profile=False,
                 follow_edits=False):
        netlist.validate()
        if engine is None:
            engine = _default_engine
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
        self.netlist = netlist
        self.engine = engine
        self.cycle = 0
        self.observers = list(observers)
        # Each sweep propagates information at least one node further, so
        # #nodes + 2 sweeps always suffice for a resolvable network.  An
        # explicit 0 (or negative) bound is a caller error, not a request
        # for the default.
        self._auto_max_iterations = max_iterations is None
        if max_iterations is None:
            max_iterations = len(netlist.nodes) + 2
        elif max_iterations <= 0:
            raise ValueError(
                f"max_iterations must be positive, got {max_iterations}"
            )
        self.max_iterations = max_iterations
        self._netlist_version = netlist.version
        self._followed = None
        self._structures_dirty = False
        self._edited_channels = set()
        self._nodes = list(netlist.nodes.values())
        self._channels = list(netlist.channels.values())
        self._choosers = [node for node in self._nodes
                          if type(node).choice_space is not Node.choice_space]
        self.profile = bool(profile)
        self._smap = None
        self._cg = None
        if engine == "batch":
            # One-lane delegation to the lane-parallel engine; the wrapper
            # keeps the full Simulator API (stats, monitor, profiling,
            # model-checking hooks) so "batch" is a drop-in third engine.
            from repro.sim.batch import BatchSimulator

            self._batch = BatchSimulator(
                [netlist], check_protocol=check_protocol,
                observers=[self.observers], max_iterations=max_iterations,
                profile=self.profile,
            )
            # Live lane-0 view: references held across step() keep
            # reading current counts, as with the scalar engines.
            self.stats = self._batch.lane_stats_view(0)
            self.monitor = self._batch.monitor
            if follow_edits:
                self._follow(netlist)
            return
        self._batch = None
        if engine == "codegen":
            # Delegation to the compiled engine, exactly like the batch
            # wrapper above: the backend owns the generated cycle function
            # and shares its stats/monitor objects with this wrapper.
            from repro.backend.pysim import CodegenBackend

            self._cg = CodegenBackend(
                netlist, check_protocol=check_protocol,
                observers=self.observers, profile=self.profile,
            )
            self.stats = self._cg.stats
            self.monitor = self._cg.monitor
            if follow_edits:
                self._follow(netlist)
            return
        self.stats = ChannelStats(netlist)
        self.monitor = ProtocolMonitor(netlist) if check_protocol else None
        # Pre-bound method lists: the per-cycle loops call these directly
        # instead of re-resolving attributes on every node every cycle.
        self._combs = [node.comb for node in self._nodes]
        self._ticks = [node.tick for node in self._nodes
                       if type(node).tick is not Node.tick]
        self._pre_cycles = [node.pre_cycle for node in self._nodes
                            if type(node).pre_cycle is not Node.pre_cycle]
        if engine == "worklist":
            self._smap = SensitivityMap(netlist)
            self._log = self._smap.log
            self._sync_worklist_structures()
            self._fixpoint = self._fixpoint_worklist
        else:
            # Detach any change log a previous worklist simulator registered.
            for channel in self._channels:
                channel.state.log = None
            self._fixpoint = self._fixpoint_naive
        if self.profile:
            if self._smap is not None:
                # counters are parallel to the map's node slots; keep the
                # slot layout they were recorded against so a later
                # refresh (patch or compaction) can remap by name.
                self._profile_slots = list(self._smap.node_slots)
                self.comb_calls = [0] * len(self._profile_slots)
            else:
                self.comb_calls = [0] * len(self._nodes)
            self.evals_per_cycle = []    # worklist: evaluations; naive: comb calls
            self.sweeps_per_cycle = []   # naive only (worklist records 1 seed pass)
        if follow_edits:
            self._follow(netlist)
        netlist.reset()

    # -- incremental patching (structural netlist edits) ---------------------------

    def _follow(self, netlist):
        netlist.subscribe(self.apply_edit)
        self._followed = netlist

    def detach(self):
        """Stop following the netlist's edit log (no-op when not following)."""
        if self._followed is not None:
            self._followed.unsubscribe(self.apply_edit)
            self._followed = None

    def _sync_worklist_structures(self):
        """(Re)derive the engine's flat evaluation structures from the
        sensitivity map's slot tables (holes for removed nodes/channels)."""
        smap = self._smap
        self._comb_slots = [None if node is None else node.comb
                            for node in smap.node_slots]
        self._nodes = smap.live_nodes()
        self._channels = smap.live_channels()
        n_slots = len(smap.node_slots)
        self._pending = bytearray(n_slots)
        self._all_pending = bytes(
            0 if node is None else 1 for node in smap.node_slots
        )

    def apply_edit(self, edit):
        """Patch this live simulator for one structural netlist edit.

        Feed every emitted :class:`~repro.netlist.edits.NetlistEdit`
        exactly once, in order (``follow_edits=True`` does this
        automatically); afterwards the simulator behaves exactly as a
        freshly constructed one on the edited netlist, without the
        O(netlist) clone / sensitivity rebuild / reset.  The sensitivity
        map is patched per edit; the derived flat evaluation structures
        (pre-bound method lists, monitor exemptions) are refreshed lazily
        once, right before the next :meth:`step`/:meth:`reset`, so a
        multi-edit transformation pays the O(netlist) list rebuilds a
        single time.  The batch engine wrapper does not patch: the edit
        conservatively invalidates it and the next :meth:`step` raises.
        """
        from repro.netlist.edits import CONNECT, DISCONNECT

        if self._batch is not None:
            # Conservative invalidation: _netlist_version stays behind, so
            # the structural-version guard in step() fires.
            return
        if self._cg is not None:
            # The compiled engine re-elaborates lazily (a module-cache hit
            # when the edited topology has been seen before) right before
            # the next step — stale generated code is never executed.
            self._cg.apply_edit(edit)
            self._netlist_version = self.netlist.version
            return
        if self._smap is not None:
            # A newer simulator may have taken ownership of the netlist
            # while this one is still subscribed; patching would steal the
            # new channels' change logs back.  Detach instead — this
            # simulator is stale either way and step() will say so.  (The
            # map still reflects the pre-edit channel set, so any of its
            # live channels is a valid ownership probe.)
            live = self._smap.live_channels()
            if live and live[0].state.log is not self._log:
                self.detach()
                return
            self._smap.apply_edit(edit)
        if edit.op == CONNECT:
            self.stats.add_channel(edit.channel)
        if edit.op in (CONNECT, DISCONNECT):
            self._edited_channels.add(edit.channel)
        self._structures_dirty = True
        self._netlist_version = self.netlist.version

    def _refresh_structures(self):
        """The deferred O(netlist) part of edit patching: re-derive the
        flat evaluation structures after one *or more* applied edits."""
        self._structures_dirty = False
        if self._smap is not None:
            if self.profile:
                # The map's slot layout may have shifted (new slots, or a
                # compaction renumbering everything); remap the recorded
                # counts through the node names.
                counts = {node.name: calls for node, calls
                          in zip(self._profile_slots, self.comb_calls)
                          if node is not None}
                self.comb_calls = [
                    0 if node is None else counts.get(node.name, 0)
                    for node in self._smap.node_slots
                ]
                self._profile_slots = list(self._smap.node_slots)
            self._sync_worklist_structures()
        else:
            if self.profile:
                # comb_calls is parallel to _nodes for the naive engine;
                # remap the recorded counts through the (old) node names.
                counts = {node.name: calls
                          for node, calls in zip(self._nodes, self.comb_calls)}
            self._nodes = list(self.netlist.nodes.values())
            self._channels = list(self.netlist.channels.values())
            self._combs = [node.comb for node in self._nodes]
            if self.profile:
                self.comb_calls = [counts.get(node.name, 0)
                                   for node in self._nodes]
        self._ticks = [node.tick for node in self._nodes
                       if type(node).tick is not Node.tick]
        self._pre_cycles = [node.pre_cycle for node in self._nodes
                            if type(node).pre_cycle is not Node.pre_cycle]
        self._choosers = [node for node in self._nodes
                          if type(node).choice_space is not Node.choice_space]
        if self._auto_max_iterations:
            self.max_iterations = len(self.netlist.nodes) + 2
        if self.monitor is not None:
            self.monitor.structure_changed()
            for name in self._edited_channels:
                self.monitor._prev.pop(name, None)
        for observer in self.observers:
            hook = getattr(observer, "structure_changed", None)
            if hook is not None:
                hook()
        self._edited_channels.clear()

    def _check_structural_version(self):
        if self.netlist.version == self._netlist_version:
            return
        if self._batch is not None:
            raise RuntimeError(
                f"netlist {self.netlist.name!r} was structurally edited "
                f"(version {self.netlist.version}, simulator built at "
                f"{self._netlist_version}); the batch engine does not patch "
                "incrementally — construct a fresh Simulator"
            )
        raise RuntimeError(
            f"netlist {self.netlist.name!r} was structurally edited "
            f"(version {self.netlist.version}, simulator last synced at "
            f"{self._netlist_version}) without Simulator.apply_edit(); "
            "follow the edit log (follow_edits=True / Session.simulator()) "
            "or construct a fresh Simulator instead of stepping this one"
        )

    def reset(self):
        """Rewind dynamic state — netlist sequential state, cycle counter,
        statistics and monitor history — keeping the built engine
        structures (sensitivity map, levelization, pre-bound node lists)
        warm.  The warm-simulator analogue of constructing afresh."""
        self._check_structural_version()
        if self._batch is not None:
            self._batch.reset()
            self.cycle = 0
            return
        if self._cg is not None:
            self._cg.reset()
            self.cycle = 0
            return
        if self._structures_dirty:
            self._refresh_structures()
        self.netlist.reset()
        self.cycle = 0
        self.stats.reset()
        if self.monitor is not None:
            self.monitor.reset()

    # -- per-cycle phases ----------------------------------------------------------

    def _clear_channels(self):
        # One shared clear path (signals + events cache) for every engine.
        for channel in self._channels:
            channel.clear_cycle()

    def _fixpoint_worklist(self):
        # All channel logs are (re)assigned together at construction, so
        # checking one detects a newer simulator having taken ownership.
        if self._channels and self._channels[0].state.log is not self._log:
            raise RuntimeError(
                "netlist is now owned by a newer Simulator; this simulator "
                "can no longer observe signal changes — construct a fresh "
                "Simulator instead of reusing this one"
            )
        self._clear_channels()
        log = self._log
        log.clear()
        pending = self._pending
        pending[:] = self._all_pending
        combs = self._comb_slots
        readers = self._smap.readers
        queue = deque(self._smap.order)
        profile = self.profile
        evals = 0
        while queue:
            i = queue.popleft()
            pending[i] = 0
            combs[i]()
            if profile:
                self.comb_calls[i] += 1
                evals += 1
            if log:
                for signal in log:
                    for j in readers[signal]:
                        if not pending[j]:
                            pending[j] = 1
                            queue.append(j)
                log.clear()
        if profile:
            self.evals_per_cycle.append(evals)
            self.sweeps_per_cycle.append(1)
        self._check_resolved()

    def _fixpoint_naive(self):
        # A newer worklist/batch/codegen simulator registers its change log
        # on the channels; stepping this simulator afterwards would append
        # change events into the *new* simulator's log.  Same ownership
        # rule as the worklist engine: fail loudly instead.
        if self._channels and self._channels[0].state.log is not None:
            raise RuntimeError(
                "netlist is now owned by a newer Simulator; this simulator "
                "would append spurious entries to the new simulator's "
                "change log — construct a fresh Simulator instead of "
                "reusing this one"
            )
        self._clear_channels()
        profile = self.profile
        sweeps = 0
        for _sweep in range(self.max_iterations):
            sweeps += 1
            changed = False
            if profile:
                for i, comb in enumerate(self._combs):
                    changed |= bool(comb())
                    self.comb_calls[i] += 1
            else:
                for comb in self._combs:
                    changed |= bool(comb())
            if not changed:
                break
        if profile:
            self.sweeps_per_cycle.append(sweeps)
            self.evals_per_cycle.append(sweeps * len(self._nodes))
        self._check_resolved()

    def _check_resolved(self):
        unresolved = []
        for channel in self._channels:
            state = channel.state
            if not state.resolved():
                unresolved.extend(
                    f"{channel.name}.{sig}" for sig in state.unresolved_signals()
                )
            elif state.vp and state.data is None:
                unresolved.append(f"{channel.name}.data")
        if unresolved:
            raise CombinationalLoopError(unresolved, cycle=self.cycle)

    def _resolve_events(self):
        """Resolve every channel's events exactly once and cache them, so
        stats, monitors, transfer logs and ``tick`` handlers share one
        computation per cycle."""
        events = {}
        for channel in self._channels:
            events[channel.name] = channel.resolve_events()
        return events

    def step(self):
        """Advance one clock cycle; returns the cycle index just completed."""
        self._check_structural_version()
        if self._batch is not None:
            done = self._batch.step()
            self.cycle = self._batch.cycle
            return done
        if self._cg is not None:
            done = self._cg.step()
            self.cycle = self._cg.cycle
            return done
        if self._structures_dirty:
            self._refresh_structures()
        for pre_cycle in self._pre_cycles:
            pre_cycle()
        self._fixpoint()
        if self.monitor is not None:
            self.monitor.observe(self.cycle)
        events = self._resolve_events()
        self.stats.observe(self.cycle, events)
        for observer in self.observers:
            observer.observe(self.cycle, self.netlist)
        for tick in self._ticks:
            tick()
        done = self.cycle
        self.cycle += 1
        return done

    def run(self, n_cycles):
        """Run ``n_cycles`` cycles; returns ``self`` for chaining."""
        for _ in range(n_cycles):
            self.step()
        return self

    # -- model-checking support -------------------------------------------------------

    def state(self):
        return self.netlist.snapshot()

    def load_state(self, state):
        self.netlist.restore(state)

    def choice_nodes(self):
        """Nodes with a nondeterministic choice this cycle."""
        if self._cg is not None:
            return self._cg.choice_nodes()
        if self._structures_dirty:
            self._refresh_structures()
        return [node for node in self._choosers if node.choice_space() > 1]

    def step_with_choices(self, choices):
        """One cycle with explicit environment choices.

        ``choices`` maps node name -> choice index; unnamed choice nodes get
        choice 0.  Returns the per-channel events dict (resolved once and
        shared with the channels' per-cycle cache) for property evaluation
        by the model checker.
        """
        self._check_structural_version()
        if self._batch is not None:
            events = self._batch.step_with_choices(choices)
            self.cycle = self._batch.cycle
            return events
        if self._cg is not None:
            events = self._cg.step_with_choices(choices)
            self.cycle = self._cg.cycle
            return events
        if self._structures_dirty:
            self._refresh_structures()
        for node in self._choosers:
            if node.choice_space() > 1:
                node.set_choice(choices.get(node.name, 0))
        for pre_cycle in self._pre_cycles:
            pre_cycle()
        self._fixpoint()
        if self.monitor is not None:
            self.monitor.observe(self.cycle)
        events = self._resolve_events()
        for tick in self._ticks:
            tick()
        self.cycle += 1
        return events

    # -- profiling ---------------------------------------------------------------------

    def profile_report(self):
        """Aggregate the recorded counters (requires ``profile=True``);
        returns a :class:`repro.sim.profile.ProfileReport`."""
        if not self.profile:
            raise ValueError("Simulator was not constructed with profile=True")
        if self._batch is not None:
            return self._batch.profile_report()
        if self._cg is not None:
            return self._cg.profile_report()
        if self._structures_dirty:
            self._refresh_structures()
        from repro.sim.profile import ProfileReport

        # For the worklist engine the counters are parallel to the
        # sensitivity map's node slots (holes for removed nodes); for the
        # naive engine they are parallel to the live node list.
        counted = (self._smap.node_slots if self._smap is not None
                   else self._nodes)
        by_kind = {}
        for node, calls in zip(counted, self.comb_calls):
            if node is None:
                continue
            entry = by_kind.setdefault(node.kind, [0, 0])
            entry[0] += calls
            entry[1] += 1
        return ProfileReport(
            engine=self.engine,
            cycles=self.cycle,
            n_nodes=len(self._nodes),
            comb_calls_by_kind={k: tuple(v) for k, v in sorted(by_kind.items())},
            total_comb_calls=sum(self.comb_calls),
            evals_per_cycle=list(self.evals_per_cycle),
            sweeps_per_cycle=list(self.sweeps_per_cycle),
        )
