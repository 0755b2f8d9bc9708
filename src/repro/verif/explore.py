"""Explicit-state exploration of an elastic netlist.

Plays the role NuSMV plays in the paper's Section 4.2: the design's
controllers are composed with *nondeterministic* environments
(:class:`~repro.elastic.environment.NondetSource` /
:class:`~repro.elastic.environment.NondetSink`,
:class:`~repro.core.scheduler.NondetScheduler`) and every reachable state
is enumerated.  Along the way each transition is checked against the SELF
protocol properties; the resulting state graph feeds deadlock and
starvation (leads-to) analysis.

A state is ``(netlist snapshot, previous channel signals)`` — the signal
part makes the two-cycle Retry properties checkable per transition.  The
signal part is carried *packed*, one byte per channel in netlist channel
order (see :mod:`repro.verif.encoding`); decode a state's signals with
:meth:`ExplorationResult.signals_of` when a friendly view is needed.

Exploration engines
-------------------

Both engines rest on one contract: a step is a *deterministic function
of (snapshot, choice vector)*.  Every piece of sequential state that
influences a cycle must be in :meth:`Node.snapshot`, and every
nondeterministic alternative must come through ``choice_space`` /
``set_choice``.  Seeded-random nodes outside nondet mode keep RNG state
outside their snapshot and are therefore not explorable: ``ListSource``
/ ``FunctionSource`` with ``0 < rate < 1``, ``Sink`` / ``KillerSink``
with a stall or kill rate strictly between 0 and 1, the
``RandomScheduler``, and the chaos saboteurs built with ``nondet=False``.
(``StateCorruptor`` is fine: its corruption mask is a function of the
snapshotted ``_idx``.)

Only the two-cycle Retry check reads a state's previous signals, so the
successors of a state depend on its snapshot alone.  Each ``explore()``
call therefore keeps a *successor memo* keyed by the snapshot code of
:mod:`repro.verif.encoding`: the first state with a given snapshot is
expanded — one fix-point per choice vector, recording each successor's
choices, events, packed signals, snapshot, ``productive`` flag and
invariant check — and every later state with the same snapshot only
replays that list, running its own Retry check against its own previous
signals.  Both engines record transitions through that one replay
routine, so the memo cannot make them disagree.

``lanes=1`` (default) — classic breadth-first search: one scalar
fix-point (``engine=`` selects worklist / naive / one-lane batch / the
compiled ``codegen`` module) per distinct ``(snapshot, choice-vector)``
expansion.

``lanes=N`` — the lane-batched frontier engine.  Every successor
expansion of a BFS frontier is same-topology by construction, differing
only in dynamic state and environment choices, so the explorer packs N
pending ``(snapshot, choice-vector)`` expansions into the lanes of one
:class:`~repro.sim.batch.BatchSimulator` pass: snapshots are scattered
into the lanes (:meth:`~repro.sim.batch.BatchSimulator.restore_lane_states`),
one shared bit-packed fix-point advances all of them
(:meth:`~repro.sim.batch.BatchSimulator.step_with_lane_choices`), and each
lane's successor snapshot / signals are gathered back out.  The lanes
carry only snapshots the memo has not seen; states are replayed in
exactly the scalar BFS order, so the batched engine is *bit-identical* to
the scalar one — same state indices, transition list, violations and
verdicts — which the differential exploration tests pin.

Either way the dedup index is keyed by the canonical compact byte
encoding of :mod:`repro.verif.encoding` (hash-consed by the index dict;
a state's key embeds its snapshot code, computed once when the state is
indexed and reused as its memo key), and the returned
:class:`ExplorationResult` carries a prebuilt adjacency index
(:meth:`ExplorationResult.successors` /
:meth:`ExplorationResult.predecessors`) that the deadlock and leads-to
analyses traverse instead of re-scanning the flat transition list.

Checkpoint / resume
-------------------

Multi-minute explorations survive crashes and Ctrl-C through
``StateExplorer(checkpoint=PATH)``.  Because both engines expand states
in strict discovery-index order, the whole search position at any *state
boundary* (the instant before expanding state ``k``) is one integer:
every state with a smaller index is fully expanded, the frontier is
exactly ``range(k, n_states)``.  The checkpoint is therefore the explored
prefix — states, transitions, violations, the cap flag and ``k`` —
written atomically (temp file + ``os.replace``, SHA-256 checksum) every
``checkpoint_every`` expanded states, keyed by a content-address over the
netlist's structure, initial snapshot, ``max_states`` and
``check_protocol``, so a checkpoint of a *different* design (or a
truncated / bit-rotted file) is a loud
:class:`~repro.errors.CheckpointError`, never silently loaded.  On
:class:`KeyboardInterrupt` the explorer rolls back to the last boundary,
flushes it, and re-raises; a resumed run replays the identical BFS from
``k`` — same state indices, transition list, violations and verdicts as
an uninterrupted run (the dedup index is rebuilt from the stored states
by re-encoding, and a resume of a *finished* checkpoint returns the
stored result without expanding anything).  ``time_budget`` bounds a
single call's wall clock the same way: stop at a boundary, flush, mark
the result ``stopped`` — `repro verify --timeout --retries` chains such
slices into an any-length exploration that makes progress per slice.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field

from repro.elastic.node import Node
from repro.errors import CheckpointError, VerificationError
from repro.runtime.checkpoint import content_key, load_checkpoint, save_checkpoint
from repro.runtime.faults import fault_point
from repro.sim.engine import Simulator
from repro.verif.encoding import StateCodec, unpack_signals
from repro.verif.properties import (
    broken_obligations,
    check_invariant_packed,
    retry_exempt_channels,
    retry_obligations,
)


@dataclass
class Transition:
    """One explored transition (for counterexample reporting)."""

    source: int
    target: int
    choices: dict
    events: dict          # channel -> ChannelEvents
    productive: bool      # any token/anti-token movement anywhere


class _Successor:
    """One memoized ``(snapshot, choice-vector)`` expansion: everything
    about a transition that does not depend on the source state's
    previous signals.  ``choices`` and ``events`` are shared by every
    :class:`Transition` replayed from it (read-only downstream);
    ``snapshot``, ``code`` and ``key`` are only kept until the successor
    state has an index (``target``)."""

    __slots__ = ("choices", "events", "signals", "snapshot", "code",
                 "key", "productive", "problems", "target")

    def __init__(self, choices, events, signals, snapshot, code, key,
                 productive, problems):
        self.choices = choices
        self.events = events
        self.signals = signals          # packed, one byte per channel
        self.snapshot = snapshot
        self.code = code                # snapshot code: the memo key
        self.key = key                  # dedup-index key of the successor
        self.productive = productive
        self.problems = problems        # invariant violations (no Retry)
        self.target = None              # state index, once indexed


@dataclass
class ExplorationResult:
    """The reachable state graph plus property verdicts.

    States are indexed in breadth-first discovery order (index 0 is the
    initial state), so the first path found to any state is shortest.
    Each state is ``(snapshot, packed_signals)`` where ``packed_signals``
    is the one-byte-per-channel encoding of the cycle that produced it
    (``None`` for the initial state); :meth:`signals_of` decodes it.
    """

    states: list = field(default_factory=list)        # index -> state
    transitions: list = field(default_factory=list)   # Transition records
    violations: list = field(default_factory=list)    # protocol problems
    complete: bool = True                              # hit no state cap
    channel_names: list = field(default_factory=list)  # packed-signal order
    #: ``None`` when the search ran to the end of the frontier; a reason
    #: string when it stopped early (``time_budget`` exceeded).  The
    #: partial result is still consistent and, with a checkpoint, resumable.
    stopped: object = None

    # lazily built adjacency index (invalidated when the graph grows)
    _succ: list = field(default=None, init=False, repr=False, compare=False)
    _pred: list = field(default=None, init=False, repr=False, compare=False)
    _indexed: int = field(default=-1, init=False, repr=False, compare=False)

    @property
    def n_states(self):
        return len(self.states)

    def _ensure_adjacency(self):
        if (self._succ is not None and self._indexed == len(self.transitions)
                and len(self._succ) == len(self.states)):
            return
        succ = [[] for _ in self.states]
        pred = [[] for _ in self.states]
        for t in self.transitions:
            succ[t.source].append(t)
            pred[t.target].append(t)
        self._succ = succ
        self._pred = pred
        self._indexed = len(self.transitions)

    def successors(self, index):
        """Outgoing :class:`Transition` records of one state — O(out-degree)
        via the prebuilt adjacency index (the old implementation scanned
        every transition).  Returns a fresh list; mutating it does not
        touch the index."""
        self._ensure_adjacency()
        return list(self._succ[index])

    def predecessors(self, index):
        """Incoming :class:`Transition` records of one state (counterexample
        reconstruction walks these back to the initial state).  Returns a
        fresh list; mutating it does not touch the index."""
        self._ensure_adjacency()
        return list(self._pred[index])

    def signals_of(self, index):
        """Friendly ``{channel: (vp, sp, vm, sm)}`` view of one state's
        packed signals (``None`` for the initial state)."""
        packed = self.states[index][1]
        if packed is None:
            return None
        return unpack_signals(packed, self.channel_names)

    def channel_index(self, name):
        """Position of ``name`` in the packed-signal byte vectors."""
        return self.channel_names.index(name)

    def shortest_path_to(self, index):
        """State indices of a shortest path from the initial state to
        ``index``.  Because states are discovered breadth-first, walking
        any predecessor with a smaller index terminates and is shortest."""
        path = [index]
        while path[-1] != 0:
            best = min(t.source for t in self.predecessors(path[-1]))
            path.append(best)
        path.reverse()
        return path

    def ok(self):
        return self.complete and self.stopped is None and not self.violations


class StateExplorer:
    """Breadth-first reachability over environment/scheduler choices.

    ``engine`` selects the scalar fix-point engine (worklist by default):
    the explorer pays one fix-point per distinct ``(snapshot,
    choice-vector)`` expansion, so the worklist engine speeds up whole
    model-checking runs.  ``lanes=N`` switches to the lane-batched
    frontier engine instead, expanding N pending expansions per
    bit-packed fix-point pass (``engine`` must then be left at ``None`` —
    the batch engine is implied).
    """

    def __init__(self, netlist, max_states=20000, check_protocol=True,
                 engine=None, lanes=1, checkpoint=None, checkpoint_every=1000,
                 time_budget=None, control=None):
        self.netlist = netlist
        self.max_states = max_states
        self.check_protocol = check_protocol
        self.checkpoint = checkpoint
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.time_budget = time_budget
        #: optional :class:`~repro.runtime.control.JobControl`: progress
        #: is published and cancellation / deadline stops are honoured at
        #: every state boundary (flush first, then stop — the partial
        #: result is consistent and, with a checkpoint, resumable).
        self.control = control
        lanes = int(lanes)
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        if lanes > 1 and engine not in (None, "batch"):
            raise ValueError(
                f"lanes={lanes} implies the batch engine; "
                f"got engine={engine!r}"
            )
        self.lanes = lanes
        # The simulator's own online monitor is disabled: exploration jumps
        # between branches, so two-cycle properties are checked explicitly
        # against the state-embedded previous signals.
        self.sim = None
        self._batch = None
        if lanes == 1:
            self.sim = Simulator(netlist, check_protocol=False, engine=engine)
        else:
            from repro.sim.batch import BatchSimulator

            netlist.validate()
            # One same-topology clone per lane; the original netlist stays
            # un-owned and serves as the probe for per-state choice-space
            # enumeration (restore + choice_space only, never stepped).
            self._batch = BatchSimulator(
                [netlist.clone() for _ in range(lanes)],
                check_protocol=False,
            )
        self.retry_exempt = retry_exempt_channels(netlist)
        self._codec = StateCodec(netlist)
        self._channel_names = self._codec.channel_names
        self._exempt_indices = frozenset(
            i for i, name in enumerate(self._channel_names)
            if name in self.retry_exempt
        )
        # Bound channel-state list for the scalar packed-signal gather
        # (structure is fixed for the lifetime of an exploration).
        self._channel_states = [
            ch.state for ch in netlist.channels.values()
        ]
        # The choice-*node* set is static per netlist (their per-state
        # choice spaces still vary — persistence pins an offering source
        # to space 1, say), so it is computed once instead of per state.
        self._choice_nodes = [
            node for node in netlist.nodes.values()
            if type(node).choice_space is not Node.choice_space
        ]

    def _packed_signals(self):
        """One byte per channel of the netlist's resolved control signals
        (the scalar-engine gather; the batch engine packs from its
        bit-planes)."""
        packed = bytearray(len(self._channel_states))
        for i, st in enumerate(self._channel_states):
            b = 1 if st.vp else 0
            if st.sp:
                b |= 2
            if st.vm:
                b |= 4
            if st.sm:
                b |= 8
            packed[i] = b
        return bytes(packed)

    def _choice_vectors(self):
        """Choice vectors valid in the netlist's *current* state.

        The per-node spaces are read when the generator starts, so the
        caller must have the state of interest restored at that point;
        iteration after that is state-independent.
        """
        nodes = [n for n in self._choice_nodes if n.choice_space() > 1]
        spaces = [range(node.choice_space()) for node in nodes]
        names = [node.name for node in nodes]
        for combo in itertools.product(*spaces):
            yield dict(zip(names, combo))

    def _successor(self, choices, events, signals, snapshot):
        """Memo entry of one expansion that produced ``events`` /
        ``signals`` (packed) / ``snapshot`` under ``choices``."""
        code = self._codec.snapshot_code(snapshot)
        return _Successor(
            choices, events, signals, snapshot, code,
            self._codec.state_key(code, signals),
            any(ev.forward or ev.cancel or ev.backward
                for ev in events.values()),
            check_invariant_packed(signals, self._channel_names)
            if self.check_protocol else (),
        )

    def _replay(self, result, index, codes, frontier, current, successors):
        """Record the expansion of state ``current`` from its memoized
        ``successors`` — the per-transition bookkeeping shared by both
        engines: the Retry check against this state's own previous
        signals, state dedup (cap-aware) and the transition records."""
        prev_signals = result.states[current][1]
        obligations = ()
        if self.check_protocol and prev_signals is not None:
            obligations = retry_obligations(
                prev_signals, self._channel_names, self._exempt_indices)
        for succ in successors:
            if self.check_protocol:
                problems = succ.problems
                if obligations:
                    problems = problems + broken_obligations(
                        obligations, succ.signals)
                for problem in problems:
                    result.violations.append(
                        f"state {current} choices {succ.choices}: {problem}"
                    )
            target = succ.target
            if target is None:
                target = index.get(succ.key)
                if target is None:
                    if len(result.states) >= self.max_states:
                        # Over the cap: the successor stays unindexed and
                        # the transition is dropped (there is no target id
                        # to record), but expansion continues so
                        # transitions into already-indexed states are
                        # still captured.
                        result.complete = False
                        continue
                    target = len(result.states)
                    index[succ.key] = target
                    result.states.append((succ.snapshot, succ.signals))
                    codes.append(succ.code)
                    frontier.append(target)
                # Only indexing reads the successor's snapshot, code and
                # key; release the memo's copies of them.
                succ.target = target
                succ.snapshot = succ.code = succ.key = None
            result.transitions.append(Transition(
                current, target, succ.choices, succ.events, succ.productive,
            ))

    # -- checkpoint / resume ------------------------------------------------

    def _checkpoint_key(self, initial_snapshot):
        """Content address of this exploration: netlist structure, initial
        state, ``max_states`` and ``check_protocol`` — everything that
        determines the reachable graph.  ``lanes`` / ``engine`` are
        deliberately excluded: the engines are bit-identical, so their
        checkpoints interchange."""
        try:
            return content_key((
                "explore-v1",
                self.netlist.name,
                tuple(self._channel_names),
                tuple((name, type(node).__name__)
                      for name, node in sorted(self.netlist.nodes.items())),
                initial_snapshot,
                self.max_states,
                self.check_protocol,
            ))
        except ValueError as exc:
            raise CheckpointError(
                f"design state is not serializable for checkpointing: {exc}"
            ) from exc

    def _try_resume(self, result):
        """Restore the explored prefix from ``checkpoint`` (when the file
        exists and matches this exploration's content key); returns the
        discovery index to resume expansion from (0 on a fresh start)."""
        if self.checkpoint is None:
            return 0
        body = load_checkpoint(self.checkpoint, "explore", self._ckpt_key)
        if body is None:
            return 0
        result.states[:] = body["states"]
        result.transitions[:] = body["transitions"]
        result.violations[:] = body["violations"]
        result.complete = body["complete"]
        return body["next_index"]

    def _index_states(self, result):
        """The dedup index (state key -> state index) and the per-state
        snapshot codes of ``result.states``, built by encoding every
        state — so a resumed run dedups exactly as the uninterrupted run
        did."""
        index = {}
        codes = []
        for i, (snapshot, signals) in enumerate(result.states):
            code = self._codec.snapshot_code(snapshot)
            codes.append(code)
            index[self._codec.state_key(code, signals)] = i
        return index, codes

    def _boundary(self, result, current):
        """State-boundary hook, called the instant before expanding state
        ``current``: record the rollback point, fire the fault-injection
        point, write a periodic checkpoint, publish progress, and check
        the time budget / job control.  Returns ``True`` when the search
        should stop (``self._stop_reason`` says why; the boundary is
        already flushed)."""
        self._boundary_state = (current, len(result.states),
                                len(result.transitions),
                                len(result.violations), result.complete)
        fault_point("explore_state", current)
        if (self.checkpoint is not None
                and current - self._last_saved >= self.checkpoint_every):
            self._flush_boundary(result)
            self._last_saved = current
        if self.control is not None:
            self.control.progress("explore_state", state=current,
                                  n_states=len(result.states))
            reason = self.control.stop_reason()
            if reason is not None:
                # Flush before reporting the stop: the caller may unwind,
                # but the boundary is durable and resumable.
                self._flush_boundary(result)
                self._stop_reason = reason
                return True
        if self._deadline is not None and time.monotonic() >= self._deadline:
            self._flush_boundary(result)
            self._stop_reason = "time budget exceeded"
            return True
        return False

    def _flush_boundary(self, result):
        """Roll ``result`` back to the last recorded state boundary (a
        no-op when already there) and, when checkpointing, write the
        boundary out atomically."""
        if self._boundary_state is None:
            return
        current, n_states, n_transitions, n_violations, complete = \
            self._boundary_state
        del result.states[n_states:]
        del result.transitions[n_transitions:]
        del result.violations[n_violations:]
        result.complete = complete
        if self.checkpoint is None:
            return
        save_checkpoint(self.checkpoint, "explore", self._ckpt_key, {
            "states": result.states,
            "transitions": result.transitions,
            "violations": result.violations,
            "complete": result.complete,
            "next_index": current,
        }, codec="pickle")

    # -- the search ---------------------------------------------------------

    def explore(self):
        """Run BFS; returns an :class:`ExplorationResult`.

        The frontier is expanded strictly first-in-first-out
        (:class:`collections.deque`), so state indices are in
        breadth-first discovery order and counterexamples reconstructed
        through :meth:`ExplorationResult.predecessors` are shortest-path.
        With ``checkpoint`` set, resumes from a matching checkpoint file
        and flushes the last consistent boundary on KeyboardInterrupt
        before re-raising; with ``time_budget`` set, stops at a boundary
        once the budget is spent and marks the result ``stopped``.
        """
        self.netlist.reset()
        initial_snapshot = self.netlist.snapshot()
        result = ExplorationResult(states=[(initial_snapshot, None)],
                                   channel_names=list(self._channel_names))
        self._ckpt_key = (self._checkpoint_key(initial_snapshot)
                          if self.checkpoint is not None else None)
        start = self._try_resume(result)
        index, codes = self._index_states(result)
        self._last_saved = start
        self._boundary_state = None
        self._stop_reason = None
        self._deadline = (time.monotonic() + self.time_budget
                          if self.time_budget is not None else None)
        try:
            if self._batch is not None:
                self._explore_batched(result, index, codes, start)
            else:
                self._explore_scalar(result, index, codes, start)
        except KeyboardInterrupt:
            self._flush_boundary(result)
            raise
        if self.checkpoint is not None and result.stopped is None:
            # Final "done" checkpoint: next_index == n_states, so resuming
            # a finished job returns the stored result without expanding.
            self._boundary_state = (len(result.states), len(result.states),
                                    len(result.transitions),
                                    len(result.violations), result.complete)
            self._flush_boundary(result)
        return result

    def _explore_scalar(self, result, index, codes, start=0):
        netlist = self.netlist
        sim = self.sim
        states = result.states
        frontier = deque(range(start, len(states)))
        memo = {}                    # snapshot code -> [_Successor]
        while frontier:
            current = frontier[0]
            if self._boundary(result, current):
                result.stopped = self._stop_reason
                return
            frontier.popleft()
            successors = memo.get(codes[current])
            if successors is None:
                successors = memo[codes[current]] = []
                snapshot = states[current][0]
                # One restore serves both the choice-space enumeration and
                # the first expansion; later vectors re-restore first.
                netlist.restore(snapshot)
                restored = True
                for choices in self._choice_vectors():
                    if not restored:
                        netlist.restore(snapshot)
                    restored = False
                    events = sim.step_with_choices(choices)
                    successors.append(self._successor(
                        choices, events, self._packed_signals(),
                        netlist.snapshot(),
                    ))
            self._replay(result, index, codes, frontier, current, successors)

    def _explore_batched(self, result, index, codes, start=0):
        batch = self._batch
        lanes = self.lanes
        netlist = self.netlist       # choice-space probe only, never stepped
        states = result.states
        frontier = deque(range(start, len(states)))
        memo = {}                    # snapshot code -> [_Successor]
        pending = deque()            # popped states awaiting replay
        tasks = deque()              # (successors, snapshot, choices)
        while frontier or pending:
            # A state boundary exists only when no state is pending: states
            # replay strictly in BFS order, so an empty queue means every
            # state below frontier[0] is fully expanded.
            if not pending and self._boundary(result, frontier[0]):
                result.stopped = self._stop_reason
                return
            # Refill the lane work in exactly the scalar BFS order.
            # Pre-popping the next frontier states before earlier ones are
            # replayed is safe: the frontier is ordered by discovery index
            # and new discoveries always index higher.  A state whose
            # snapshot is already in the memo adds no lane work.
            while frontier and len(tasks) < lanes:
                current = frontier.popleft()
                pending.append(current)
                if codes[current] in memo:
                    continue
                successors = memo[codes[current]] = []
                snapshot = states[current][0]
                netlist.restore(snapshot)
                for choices in self._choice_vectors():
                    tasks.append((successors, snapshot, choices))
            if tasks:
                chunk = [tasks.popleft()
                         for _ in range(min(lanes, len(tasks)))]
                # Idle lanes (final partial chunk) replicate the last
                # pending expansion; their results are discarded.
                padded = chunk + [chunk[-1]] * (lanes - len(chunk))
                batch.restore_lane_states([snap for _, snap, _ in padded])
                events_by_lane, signals_by_lane = batch.step_with_lane_choices(
                    [choices for _, _, choices in padded]
                )
                for lane, (successors, _, choices) in enumerate(chunk):
                    successors.append(self._successor(
                        choices, events_by_lane[lane], signals_by_lane[lane],
                        batch.lane_snapshot(lane),
                    ))
            # Replay every pending state whose memo entry is complete.
            # Entries are created, and their lane work queued, in pending
            # order, so the head's entry is complete unless the next
            # queued task still belongs to it.
            while pending:
                successors = memo[codes[pending[0]]]
                if tasks and tasks[0][0] is successors:
                    break
                self._replay(result, index, codes, frontier,
                             pending.popleft(), successors)


def explore_or_raise(netlist, max_states=20000, engine=None, lanes=1):
    """Convenience wrapper: explore and raise on any protocol violation."""
    result = StateExplorer(netlist, max_states=max_states, engine=engine,
                           lanes=lanes).explore()
    if result.violations:
        raise VerificationError(
            f"{len(result.violations)} protocol violation(s); first: "
            f"{result.violations[0]}"
        )
    if not result.complete:
        raise VerificationError(
            f"state space exceeded cap ({max_states}); increase max_states"
        )
    return result
