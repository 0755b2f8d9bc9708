"""Compiled simulation: elaborate a netlist into straight-line Python.

Every interpreted engine — naive, worklist, batch — pays Python dispatch
per node per fix-point pass: bound-method calls into ``comb()``, attribute
loads on :class:`~repro.elastic.channel.ChannelState`, the monotone
``state.set`` funnel, then separate passes for the protocol monitor,
event resolution, statistics and ticks.  This module removes all of it by
**elaboration**: given a netlist, it emits one specialized Python module
per *topology* in which

* the acyclic majority of the design (the same levelized writer->reader
  order the PR 1 worklist engine seeds with) becomes **straight-line
  code** — each node kind with a comb spec (:mod:`repro.elastic.spec`)
  has it lowered to signal tasks, inlined and evaluated exactly once per
  cycle, in dependency order;
* channel signals of that region live in **flat local variables**
  (``v3``/``p3``/``a3``/``m3``/``d3`` for ``vp``/``sp``/``vm``/``sm``/
  ``data`` of channel slot 3) instead of ``ChannelState`` objects;
* the residue — nodes without a comb spec (and their readers) and true
  signal-level combinational loops; on the shipped designs it is empty —
  falls back to a generated **event-driven
  worklist** over the real ``comb()`` methods and ``ChannelState`` objects
  ("boxed" channels), preserving the monotone Kleene semantics and
  :class:`~repro.errors.SignalConflictError` behaviour exactly.  It is
  the worklist engine's loop restricted to the residue: every deferred
  node is seeded once in levelized order, ``ChannelState.set`` logs each
  signal a deferred ``comb()`` resolves, and only that signal's deferred
  readers (a wake table baked into the module from their ``comb_reads()``)
  run again — so the residue makes exactly the worklist engine's calls and
  relies on the read declarations exactly as it does (the lint auditor
  fuzzes them);
* protocol monitoring, event resolution, statistics, observers and the
  node kinds' ``tick`` emitters (``Node.emit_tick``) are inlined into the
  same generated function, so a cycle is one Python call.

The locals are flushed back into the ``ChannelState`` objects every cycle
(before the monitor/event phases), so everything that inspects channel
state between cycles — observers, ``Channel.events()``, the model
checker's packed-signal reader, fallback ``tick`` methods — sees exactly
what the interpreted engines would produce.  The differential suite
(``tests/test_codegen_diff.py``) pins the engine bit-identical to the
worklist engine, including protocol violations and combinational-loop
diagnoses.

Caching and staleness
---------------------

Generated modules are ``exec``-compiled once per topology and cached
process-wide (a least-recently-used cache of :data:`MODULE_CACHE_SIZE`
modules, so a long-lived ``repro serve`` stays bounded), keyed by the
netlist **content signature** (node names,
classes, ports, declared sensitivities, channel wiring — the same
structural identity the batch engine uses for lane sharing) plus the
elaboration flags (``check_protocol``, ``profile``).  Numeric parameters
that only affect sequential behaviour (capacities, rates, seeds, datapath
functions) are deliberately *not* baked in — they are read from the node
instances at run time — so a parameter sweep over one topology compiles
exactly once.  ``build(env)`` re-binds a cached module to a concrete
simulator's nodes, channels, stats and monitor.

Structural edits (the PR 4 ``NetlistEdit`` log) mark the backend dirty;
the next ``step``/``reset`` re-elaborates against the edited netlist —
which is a cache *hit* when the new topology has been seen before — so a
mutated design can never execute stale generated code.  A netlist whose
``version`` advanced without ``Simulator.apply_edit`` raises on ``step``,
exactly like the worklist engine.  :func:`cache_stats` exposes the
hit / re-elaboration counters (CLI: ``repro elaborate``).

Instrumented elaboration (``profile=True``) is a *documented mode*: the
module is generated with per-node call counters and per-cycle eval/sweep
histograms woven in, so ``Simulator(engine="codegen", profile=True)``
supports :meth:`~repro.sim.engine.Simulator.profile_report` with the same
report shape as the interpreted engines (straight-line nodes count one
evaluation per cycle; the residue counts its real calls; every cycle is
one pass, ``sweeps_per_cycle`` 1, as on the worklist engine).

Ownership follows the worklist rule: elaboration registers this
backend's change log on every channel, and a backend whose first
channel reports into another log refuses to step — a newer simulator of
any engine owns the netlist.

This module knows no node kind: signal tasks come from the node's comb
spec and tick code from its ``emit_tick`` hook, both under the one trust
rule of :func:`repro.elastic.spec.own_hook` — a spec counts only when it is
defined at or below the class defining ``comb``, an emitter only at or
below the class defining ``tick``.  A subclass overriding ``comb`` (or
``tick``) without its own falls back to the always-correct deferred
evaluation (or call) of its own method.
"""

from __future__ import annotations

import hashlib
import re
from collections import OrderedDict

from repro.elastic.channel import (
    CONSUMER,
    CONTROL_SIGNALS,
    N_SIGNALS,
    PRODUCER,
    SIG_INDEX,
    SIGNALS_BY_ROLE,
)
from repro.elastic.node import Node
from repro.elastic.spec import (
    TRUE, own_hook, select_index, spec_for, value_ports,
)
from repro.errors import CombinationalLoopError
from repro.graphalg import levelize, toposort
from repro.sim.monitors import ProtocolMonitor
from repro.sim.stats import ChannelStats

__all__ = [
    "CodegenBackend",
    "cache_stats",
    "clear_module_cache",
    "generated_source",
]

#: signal name -> local-variable prefix for non-boxed channels.
_LOC = {"vp": "v", "sp": "p", "vm": "a", "sm": "m", "data": "d"}


# ---------------------------------------------------------------------------
# signal tasks, lowered from comb specs
#
# A node's comb() is split into *signal tasks*: (reads, writes, emitter)
# triples, where reads/writes are (port, signal) pairs and the emitter
# appends straight-line statements computing exactly what comb() drives
# for those signals, via g.sig(node, port, signal) (a flat local for fast
# channels, a ChannelState attribute for boxed ones).  Scheduling happens at
# task granularity because that is where elastic control is acyclic: a ZBL
# chain is cyclic node-to-node (the buffer reads downstream sp/vm, the
# downstream join reads its vp) but acyclic signal-to-signal (vp/data flow
# forward, sp/vm flow backward) — exactly the structure the worklist engine
# discovers dynamically, resolved statically here.
#
# Tasks are derived from the node kind's comb spec (repro.elastic.spec):
# the spec's outputs are grouped by identical read set, one task per group.
# A fast task runs after the tasks producing its reads, so every control
# signal it reads is known and the Kleene terms lower to two-valued Python
# expressions.  Every control signal in a task's writes is assigned
# unconditionally (the elaborator audits this); data writes are guarded,
# mirroring drive()'s None no-op.  Tasks share no scratch state — each
# recomputes the state terms it needs (locals with a leading underscore,
# which never collide with channel locals).  A ``case`` term becomes a
# conditional chain over its select's arm index; a select that is present
# but carries unknown data has no two-valued meaning, and since such a
# cycle cannot resolve, the generated code hands it to the backend's
# diagnosis (which re-derives the three-valued fix-point) at once.
# ---------------------------------------------------------------------------

_TASKS = {}


def _signal_tasks(node):
    """``[(reads, writes, emitter), ...]`` of ``node``'s trusted comb
    spec (lowered once per spec), or ``None`` when it has none."""
    spec = spec_for(node)
    if spec is None:
        return None
    tasks = _TASKS.get(spec)
    if tasks is None:
        groups = {}
        for port, signal in spec.outputs():
            reads = spec.output_reads(port, signal)
            groups.setdefault(frozenset(reads), (reads, []))[1].append(
                (port, signal))
        tasks = _TASKS[spec] = [
            (reads, tuple(writes), _task_emitter(spec, writes))
            for reads, writes in groups.values()
        ]
    return tasks


def _python(expr):
    """A spec's Python expression over ``self`` as a format string over
    the node reference ``{n}``."""
    expr = expr.replace("{", "{{").replace("}", "}}")
    return re.sub(r"\bself\b", "{n}", expr)


def _task_emitter(spec, writes):
    """Lower one task to ``str.format`` lines over ``{n}`` (the node) and
    ``{port_signal}`` (channel signals), and return its emitter.

    A state term or composite subterm used more than once in the task is
    computed once into a local; a term an earlier write of the task
    already holds is read back from that signal.
    """
    uses = {}
    held = set()         # terms already held by a write of this task

    def count(term):
        if term in held or term[0] in ("const", "sig"):
            return
        uses[term] = uses.get(term, 0) + 1
        if uses[term] == 1 and term[0] != "state":
            for sub in term[2] if term[0] == "case" else term[1:]:
                count(sub)

    for port, signal in writes:
        term = spec.output_term(port, signal)
        count(term)
        if signal != "data":
            held.add(term)
    lines = []
    memo = {}
    pairs = set(writes)      # channel signals the lines reference
    selects = {}             # case port -> local holding its arm index

    def select(port, n):
        # The arm index, or -1 while the select is absent.  ``_sel``
        # raises SchedulerError on an invalid select, and diagnoses the
        # cycle when the select's data is unknown: a two-valued task
        # cannot carry that unknown, and the cycle cannot resolve.
        local = selects.get(port)
        if local is None:
            local = selects[port] = f"_x{len(selects)}"
            pairs.update(((port, "vp"), (port, "data")))
            lines.append(f"{local} = _sel({{n}}, {{{port}_data}}, {n}, cycle)"
                         f" if {{{port}_vp}} else -1")
        return local

    def pick(port, arms, default):
        # ``arms[index]`` as a conditional chain (``default`` when absent).
        x = select(port, len(arms))
        if set(arms) <= {"True", "False"} and default == "False":
            hits = tuple(k for k, arm in enumerate(arms) if arm == "True")
            if len(hits) == 1:
                return f"{x} == {hits[0]}"
            return f"{x} in {hits!r}" if hits else "False"
        chain = default
        for k in reversed(range(len(arms))):
            if arms[k] != default:
                chain = f"{arms[k]} if {x} == {k} else {chain}"
        return chain

    def value_code(val):
        # A data value that is None while any argument it needs is.
        if val[0] == "case":
            return pick(val[1], [value_code(arm) for arm in val[2]], "None")
        args = [f"{{{arg}_data}}" for arg in value_ports(val)]
        pairs.update((arg, "data") for arg in value_ports(val))
        if val[0] == "data":
            return args[0]
        rhs = (f"{{n}}.{val[1]}({', '.join(args)})" if val[0] == "call"
               else _python(val[1]))
        if not args:
            return rhs
        known = " and ".join(f"{arg} is not None" for arg in args)
        return f"({rhs} if {known} else None)"

    def expr(term):
        if term in memo:
            return memo[term]
        op = term[0]
        if op == "const":
            return repr(term[1])
        if op == "sig":
            pairs.add((term[1], term[2]))
            return f"{{{term[1]}_{term[2]}}}"
        if op == "state":
            code = _python(spec.state[term[1]])
        elif op == "not":
            code = f"not {expr(term[1])}"
        elif op in ("and", "or"):
            code = f"{expr(term[1])} {op} {expr(term[2])}"
        elif op == "case":
            code = pick(term[1], [expr(arm) for arm in term[2]], "False")
        else:
            code = f"{expr(term[2])} if {expr(term[1])} else {expr(term[3])}"
        if uses.get(term, 0) > 1:
            local = memo[term] = f"_z{len(memo)}"
            lines.append(f"{local} = {code}")
            return local
        return f"({code})"

    for port, signal in writes:
        target = f"{{{port}_{signal}}}"
        if signal != "data":
            term = spec.signals[(port, signal)]
            lines.append(f"{target} = {expr(term)}")
            memo[term] = target
            continue
        # A value with an unknown argument is None, which leaves the
        # (cleared) data signal unresolved, as drive() would.
        guard, val = spec.data[port]
        test = None if guard == TRUE else expr(guard)
        rhs = value_code(val)
        if test is None:
            lines.append(f"{target} = {rhs}")
        else:
            lines += [f"if {test}:", f"    {target} = {rhs}"]
    uses_node = any("{n}" in line for line in lines)

    def emit(g, ni, node, out):
        mapping = {f"{port}_{signal}": g.sig(node, port, signal)
                   for port, signal in pairs}
        if uses_node:
            mapping["n"] = g.node_ref(ni)
        if selects:
            g.bind["_sel"] = 'env["select"]'
        out += [line.format_map(mapping) for line in lines]

    return emit


# ---------------------------------------------------------------------------
# elaboration plan
# ---------------------------------------------------------------------------


class _Plan:
    """Structural classification of one netlist for code generation."""

    __slots__ = (
        "nodes", "channels", "chan_idx", "port_channel", "writer",
        "bound_ok", "task_order", "fast", "deferred", "wake", "boxed",
        "pre_cycles", "choosers", "ticks",
    )


def _build_plan(netlist):
    plan = _Plan()
    nodes = plan.nodes = list(netlist.nodes.values())
    channels = plan.channels = list(netlist.channels.values())
    node_idx = {node.name: ni for ni, node in enumerate(nodes)}
    chan_idx = plan.chan_idx = {ch.name: ci for ci, ch in enumerate(channels)}

    # Every declared port must be bound to a channel that is (still) in the
    # netlist; nodes failing this evaluate deferred, exactly as the
    # interpreted engines would call their comb()/tick() directly.
    bound_ok = plan.bound_ok = []
    port_channel = plan.port_channel = {}
    for node in nodes:
        ok = True
        for port in node.ports:
            ch = node._channels.get(port)
            if ch is None or chan_idx.get(ch.name) is None \
                    or channels[chan_idx[ch.name]] is not ch:
                ok = False
                continue
            port_channel[(node.name, port)] = chan_idx[ch.name]
        bound_ok.append(ok)

    # Role writer of every (channel, signal): the producer node drives
    # vp/sm/data, the consumer drives sp/vm — drive() permits nothing else.
    writer = plan.writer = {}
    for ci, ch in enumerate(channels):
        if ch.producer is not None and ch.producer[0] in node_idx:
            for sig in SIGNALS_BY_ROLE[PRODUCER]:
                writer[(ci, sig)] = node_idx[ch.producer[0]]
        if ch.consumer is not None and ch.consumer[0] in node_idx:
            for sig in SIGNALS_BY_ROLE[CONSUMER]:
                writer[(ci, sig)] = node_idx[ch.consumer[0]]

    # Signal-task scheduling.  Tasks of nodes with comb specs are wired by
    # (channel, signal) and topologically sorted; a node any of whose tasks
    # is stuck — a read with no live producing task, or a genuine
    # signal-level cycle — is demoted whole to the deferred residue,
    # and demotion cascades (its readers lose their producers) until the
    # remaining task graph is acyclic and fully sourced.
    specs = {}
    for ni, node in enumerate(nodes):
        tasks = _signal_tasks(node) if bound_ok[ni] else None
        if tasks is not None:
            specs[ni] = tasks
    demoted = set(ni for ni in range(len(nodes)) if ni not in specs)
    task_order = []
    while True:
        live = [(ni, reads, writes, emit)
                for ni in range(len(nodes)) if ni not in demoted
                for (reads, writes, emit) in specs[ni]]
        produced = {}
        for t, (ni, reads, writes, emit) in enumerate(live):
            for port, sig in writes:
                produced[(port_channel[(nodes[ni].name, port)], sig)] = t
        adj = [[] for _ in live]
        starved = set()
        for t, (ni, reads, writes, emit) in enumerate(live):
            for port, sig in reads:
                src = produced.get(
                    (port_channel[(nodes[ni].name, port)], sig)
                )
                if src is None:
                    starved.add(ni)
                    break
                adj[src].append(t)
        if starved:
            demoted |= starved
            continue
        scheduled, cycle = toposort(range(len(live)), adj)
        if cycle is None:
            task_order = [live[t] for t in scheduled]
            break
        placed = set(scheduled)
        demoted |= {live[t][0] for t in range(len(live))
                    if t not in placed}
    plan.task_order = task_order
    plan.fast = [ni for ni in range(len(nodes)) if ni not in demoted]

    # Deferred nodes run in the levelized order of the node-level read
    # graph (cyclic regions seeded in declaration order by the Kahn scan
    # fallback), like the worklist engine's seed pass.  The same walk over
    # the declared reads yields the residue's wake table: global signal id
    # (``N_SIGNALS * channel + SIG_INDEX[signal]``, as logged by
    # ``ChannelState.set``) -> positions in ``deferred`` of its readers.
    succ = [set() for _ in nodes]
    readers = {}
    for ni, node in enumerate(nodes):
        for port, sig in node.comb_reads():
            ci = port_channel.get((node.name, port))
            if ci is None:
                continue
            readers.setdefault(N_SIGNALS * ci + SIG_INDEX[sig], []).append(ni)
            wi = writer.get((ci, sig))
            if wi is not None and wi != ni:
                succ[wi].add(ni)
    order = levelize(range(len(nodes)), succ)
    plan.deferred = [ni for ni in order if ni in demoted]
    position = {ni: k for k, ni in enumerate(plan.deferred)}
    wake = plan.wake = [()] * (N_SIGNALS * len(channels))
    for sid, nis in readers.items():
        wake[sid] = tuple(position[ni] for ni in nis if ni in position)

    # A channel adjacent to any deferred (or missing) endpoint stays boxed
    # in its ChannelState; all other channels become flat locals.
    boxed = plan.boxed = set()
    for ci, ch in enumerate(channels):
        for end in (ch.producer, ch.consumer):
            if end is None or end[0] not in node_idx \
                    or node_idx[end[0]] in demoted:
                boxed.add(ci)
                break

    plan.pre_cycles = [ni for ni, node in enumerate(nodes)
                       if type(node).pre_cycle is not Node.pre_cycle]
    plan.choosers = [ni for ni, node in enumerate(nodes)
                     if type(node).choice_space is not Node.choice_space]
    plan.ticks = [ni for ni, node in enumerate(nodes)
                  if type(node).tick is not Node.tick]
    return plan


# ---------------------------------------------------------------------------
# source generation
# ---------------------------------------------------------------------------


class _Gen:
    """Binding/naming context shared by the emitters."""

    def __init__(self, plan):
        self.plan = plan
        self.bind = {}        # default-arg name -> build-scope expression
        self.covered = set()  # (ci, control) unconditionally assigned

    def node_ref(self, ni):
        name = f"_n{ni}"
        self.bind[name] = f"_nodes[{ni}]"
        return name

    def state_ref(self, ci):
        name = f"_c{ci}"
        self.bind[name] = f"_channels[{ci}].state"
        return name

    def chan_ref(self, ci):
        name = f"_h{ci}"
        self.bind[name] = f"_channels[{ci}]"
        return name

    def sig(self, node, port, signal):
        ci = self.plan.port_channel[(node.name, port)]
        if ci in self.plan.boxed:
            return f"{self.state_ref(ci)}.{signal}"
        return f"{_LOC[signal]}{ci}"

    def csig(self, ci, signal):
        if ci in self.plan.boxed:
            return f"{self.state_ref(ci)}.{signal}"
        return f"{_LOC[signal]}{ci}"

    def cover(self, node, pairs):
        for port, signal in pairs:
            self.covered.add((self.plan.port_channel[(node.name, port)], signal))


def _chunk_chain(targets, value, size=8):
    """`a = b = ... = value` statements in chunks of ``size`` targets."""
    lines = []
    for i in range(0, len(targets), size):
        lines.append(" = ".join(targets[i:i + size]) + f" = {value}")
    return lines


def _events_block(g, ci, name, cache_lhs, counters=None):
    """The inlined per-channel event resolution (exact mirror of
    ``Channel._compute_events`` + ``ChannelStats.observe``)."""
    vp, sp, vm, sm, da = (g.csig(ci, s) for s in ("vp", "sp", "vm", "sm", "data"))
    key = repr(name)

    def ev(kind, expr):
        lines = [f"{cache_lhs} = {expr}"]
        if counters is not None:
            lines.append(f"{counters[kind]}[{key}] += 1")
        return lines

    out = []
    out.append(f"if {vp}:")
    out.append(f"    if {vm}:")
    out += ["        " + ln for ln in ev("cancels", "EV_CANCEL")]
    out.append(f"    elif not {sp}:")
    out += ["        " + ln for ln in
            ev("transfers", f"ChannelEvents(True, False, False, {da})")]
    out.append("    else:")
    out += ["        " + ln for ln in ev("stalls", "EV_IDLE")]
    out.append(f"elif {vm} and not {sm}:")
    out += ["    " + ln for ln in ev("backwards", "EV_BACKWARD")]
    out.append("else:")
    out += ["    " + ln for ln in ev("idles", "EV_IDLE")]
    return out


def _generate_source(netlist, check_protocol, profile, content_hash):
    plan = _build_plan(netlist)
    g = _Gen(plan)
    nodes, channels = plan.nodes, plan.channels
    boxed = plan.boxed
    fast_channels = [ci for ci in range(len(channels)) if ci not in boxed]
    body = []  # _cycle body lines, relative indentation included

    # -- nondeterministic choices (model-checker path only) -----------------
    if plan.choosers:
        body.append("if choices is not None:")
        for ni in plan.choosers:
            n = g.node_ref(ni)
            body += [
                f"    if {n}.choice_space() > 1:",
                f"        {n}.set_choice(choices.get({nodes[ni].name!r}, 0))",
            ]

    # -- pre-cycle hooks (freeze randomized / nondet decisions) -------------
    for ni in plan.pre_cycles:
        name = f"_p{ni}"
        g.bind[name] = f"_nodes[{ni}].pre_cycle"
        body.append(f"{name}()")

    # -- clear: boxed channels via the shared clear path, fast channels as
    # -- fresh locals (events caches invalidated for both) ------------------
    for ci in sorted(boxed):
        body.append(f"{g.chan_ref(ci)}.clear_cycle()")
    locals_ = [f"{_LOC[s]}{ci}" for ci in fast_channels
               for s in ("vp", "sp", "vm", "sm", "data")]
    body += _chunk_chain(locals_, "None", size=10)
    body += _chunk_chain([f"{g.chan_ref(ci)}.events_cache" for ci in fast_channels],
                         "None", size=8)

    # -- straight-line region, in scheduled signal-task order ---------------
    for ni, reads, writes, emit in plan.task_order:
        node = nodes[ni]
        body.append(f"# {node.name} ({node.kind})")
        emit(g, ni, node, body)
        g.cover(node, [(p, s) for p, s in writes if s != "data"])
    if profile and plan.fast:
        for ni in plan.fast:
            body.append(f"_cc[{ni}] += 1")

    # -- cyclic residue: event-driven worklist over the real comb() ---------
    # Deferred comb() calls are the only writes that go through
    # ChannelState.set, so the change log holds exactly what they resolved;
    # every deferred node is seeded once in levelized order, then only the
    # deferred readers of a logged signal are re-run (the worklist engine's
    # loop, restricted to the residue).  Monotonicity bounds it: each
    # signal is logged at most once per cycle.
    if plan.deferred:
        n_def = len(plan.deferred)
        g.bind.update({
            "_log": 'env["log"]',
            "_dq": "deque",
            "_wk": "_WAKE",
            "_fd": "(" + "".join(f"_nodes[{ni}].comb, "
                                 for ni in plan.deferred) + ")",
            "_pd": f"bytearray({n_def})",     # pending flags, by position
            "_pa": f"b'\\x01' * {n_def}",     # all pending: the seed pass
            "_sd": f"range({n_def})",
        })
        if profile:
            g.bind["_di"] = repr(tuple(plan.deferred))
            body.append("_ne = 0")
        body += [
            "_log.clear()",
            "_pd[:] = _pa",
            "_q = _dq(_sd)",
            "while _q:",
            "    _k = _q.popleft()",
            "    _pd[_k] = 0",
            "    _fd[_k]()",
        ]
        if profile:
            body += ["    _cc[_di[_k]] += 1", "    _ne += 1"]
        body += [
            "    if _log:",
            "        for _s in _log:",
            "            for _j in _wk[_s]:",
            "                if not _pd[_j]:",
            "                    _pd[_j] = 1",
            "                    _q.append(_j)",
            "        _log.clear()",
        ]

    if profile:
        extra = " + _ne" if plan.deferred else ""
        body += [
            f"_sim.evals_per_cycle.append({len(plan.fast)}{extra})",
            "_sim.sweeps_per_cycle.append(1)",
        ]

    # -- flush locals into the ChannelState objects (observers, fallback
    # -- ticks, the model checker's packed reader and Channel.events() all
    # -- read them between phases / cycles) ---------------------------------
    for ci in fast_channels:
        st = g.state_ref(ci)
        body.append("; ".join(
            f"{st}.{s} = {_LOC[s]}{ci}" for s in ("vp", "sp", "vm", "sm", "data")
        ))

    # -- resolution check (combinational-loop diagnosis) --------------------
    # Fast-channel controls are unconditionally assigned two-valued
    # expressions (audited below), so only the data obligation can fail;
    # boxed channels get the full unresolved test.
    for ci in range(len(channels)):
        if ci in boxed:
            st = g.state_ref(ci)
            body.append(
                f"if {st}.vp is None or {st}.sp is None or {st}.vm is None "
                f"or {st}.sm is None or ({st}.vp and {st}.data is None):"
            )
        else:
            body.append(f"if {_LOC['vp']}{ci} and {_LOC['data']}{ci} is None:")
        body.append("    _diag(cycle)")

    # -- protocol monitor, inlined (exact ProtocolMonitor.observe mirror) ---
    if check_protocol:
        exempt = ProtocolMonitor(netlist)._retry_exempt
        for ci, ch in enumerate(channels):
            key = repr(ch.name)
            vp, sp, vm, sm, da = (g.csig(ci, s)
                                  for s in ("vp", "sp", "vm", "sm", "data"))
            body += [
                f"if {vm} and {sp}:",
                f"    _mf('Invariant', {key}, cycle, 'V- and S+ both asserted')",
                f"if {vp} and {vm} and {sm}:",
                f"    _mf('Invariant', {key}, cycle, "
                "'cancellation with S- asserted')",
            ]
            if ch.name not in exempt:
                body += [
                    f"_pv = _mp.get({key})",
                    "if _pv is not None:",
                    "    _pvp, _psp, _pvm, _psm, _pd = _pv",
                    "    if _pvp and _psp and not _pvm:",
                    f"        if not {vp}:",
                    f"            _mf('Retry+', {key}, cycle, "
                    "'stalled token withdrawn')",
                    f"        if {da} != _pd:",
                    f"            _mf('Retry+', {key}, cycle, "
                    f"f'stalled token changed data {{_pd!r}} -> {{{da}!r}}')",
                    "    if _pvm and _psm and not _pvp:",
                    f"        if not {vm}:",
                    f"            _mf('Retry-', {key}, cycle, "
                    "'stalled anti-token withdrawn')",
                ]
            body.append(f"_mp[{key}] = ({vp}, {sp}, {vm}, {sm}, {da})")

    # -- events + statistics (step) / events dict (step_with_choices) -------
    body.append("if choices is None:")
    counters = {"transfers": "_tr", "cancels": "_ca", "backwards": "_ba",
                "stalls": "_sl", "idles": "_il"}
    for ci, ch in enumerate(channels):
        cache = f"{g.chan_ref(ci)}.events_cache"
        body += ["    " + ln
                 for ln in _events_block(g, ci, ch.name, cache, counters=counters)]
    body += [
        "    _stats.cycles += 1",
        "    for _ob in _sim.observers:",
        "        _ob.observe(cycle, _net)",
        "else:",
        "    _evd = {}",
    ]
    for ci, ch in enumerate(channels):
        key = repr(ch.name)
        block = _events_block(g, ci, ch.name, "_e")
        body += ["    " + ln for ln in block]
        body += [f"    {g.chan_ref(ci)}.events_cache = _e",
                 f"    _evd[{key}] = _e"]

    # -- clock edge ---------------------------------------------------------
    for ni in plan.ticks:
        node = nodes[ni]
        emitter = own_hook(type(node), "emit_tick", anchor="tick")
        if emitter is not None and plan.bound_ok[ni]:
            body.append(f"# tick {node.name} ({node.kind})")
            emitter(g, ni, node, body)
        else:
            name = f"_t{ni}"
            g.bind[name] = f"_nodes[{ni}].tick"
            body.append(f"{name}()")

    body += ["if choices is not None:", "    return _evd"]

    # -- audit: every fast channel's four controls must be written
    # -- unconditionally by the straight-line region ------------------------
    for ci in fast_channels:
        for sig in CONTROL_SIGNALS:
            if (ci, sig) not in g.covered:
                raise AssertionError(
                    f"pysim elaboration bug: {channels[ci].name}.{sig} is not "
                    "unconditionally driven by the straight-line region"
                )

    # fixed environment bindings
    g.bind.update({
        "_stats": "_stats",
        "_tr": "_stats.transfers", "_ca": "_stats.cancels",
        "_ba": "_stats.backwards", "_sl": "_stats.stalls",
        "_il": "_stats.idles",
        "_sim": 'env["backend"]', "_net": 'env["netlist"]',
        "_diag": 'env["diagnose"]',
        "EV_IDLE": 'env["EV_IDLE"]', "EV_CANCEL": 'env["EV_CANCEL"]',
        "EV_BACKWARD": 'env["EV_BACKWARD"]',
        "ChannelEvents": 'env["ChannelEvents"]',
    })
    if check_protocol:
        g.bind.update({"_mp": "_mon._prev", "_mf": "_mon._fail"})
    if profile:
        g.bind["_cc"] = 'env["comb_calls"]'

    params = [f"{name}={expr}" for name, expr in g.bind.items()]
    lines = [
        f"# generated by repro.backend.pysim — topology {content_hash}",
        f"# netlist {netlist.name!r}: {len(nodes)} nodes, {len(channels)} "
        f"channels ({len(plan.fast)} straight-line, {len(plan.deferred)} "
        f"deferred, {len(boxed)} boxed)",
        f"# flags: check_protocol={bool(check_protocol)}, "
        f"profile={bool(profile)}",
        "",
    ]
    if plan.deferred:
        lines += ["from collections import deque", "",
                  f"_WAKE = {tuple(plan.wake)!r}", ""]
    lines += [
        "def build(env):",
        '    _nodes = env["nodes"]',
        '    _channels = env["channels"]',
        '    _stats = env["stats"]',
        '    _mon = env["monitor"]',
        "",
        "    def _cycle(",
        "        cycle,",
        "        choices,",
    ]
    lines += [f"        {p}," for p in params]
    lines.append("    ):")
    lines += ["        " + ln if ln else "" for ln in body]
    lines += ["", "    return _cycle", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# module cache
# ---------------------------------------------------------------------------


class CompiledModule:
    """One exec-compiled module for one (topology, flags) key."""

    __slots__ = ("source", "build", "content_hash")

    def __init__(self, source, build, content_hash):
        self.source = source
        self.build = build
        self.content_hash = content_hash


#: generated modules kept by the process-wide cache (least recently used
#: evicted first); a ``perfbench`` pass elaborates 10 sweep topologies.
MODULE_CACHE_SIZE = 64

_MODULE_CACHE = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0}


def _module_key(netlist, check_protocol, profile):
    from repro.sim.batch import topology_signature

    return (topology_signature(netlist), bool(check_protocol), bool(profile))


def _module_for(netlist, check_protocol, profile):
    key = _module_key(netlist, check_protocol, profile)
    module = _MODULE_CACHE.get(key)
    if module is not None:
        _CACHE_STATS["hits"] += 1
        _MODULE_CACHE.move_to_end(key)
        return module
    _CACHE_STATS["misses"] += 1
    content_hash = hashlib.sha256(repr(key).encode()).hexdigest()[:16]
    source = _generate_source(netlist, check_protocol, profile, content_hash)
    namespace = {}
    exec(compile(source, f"<pysim:{content_hash}>", "exec"), namespace)
    module = CompiledModule(source, namespace["build"], content_hash)
    _MODULE_CACHE[key] = module
    while len(_MODULE_CACHE) > MODULE_CACHE_SIZE:
        _MODULE_CACHE.popitem(last=False)
    return module


def generated_source(netlist, check_protocol=True, profile=False):
    """The generated module source for ``netlist`` (compiling and caching
    it if this topology has not been elaborated yet) — the inspection aid
    behind ``repro elaborate``."""
    netlist.validate()
    return _module_for(netlist, check_protocol, profile).source


def cache_stats():
    """Process-wide module-cache counters: ``hits`` (reused modules),
    ``re_elaborations`` (actual codegen+compile runs), ``modules``
    (currently cached)."""
    return {
        "hits": _CACHE_STATS["hits"],
        "re_elaborations": _CACHE_STATS["misses"],
        "modules": len(_MODULE_CACHE),
    }


def clear_module_cache():
    """Drop every cached module and zero the counters (test hygiene)."""
    _MODULE_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


# ---------------------------------------------------------------------------
# runtime backend (the engine="codegen" delegate of Simulator)
# ---------------------------------------------------------------------------


class CodegenBackend:
    """Owns one compiled-cycle function for one netlist.

    :class:`~repro.sim.engine.Simulator` delegates to this exactly like it
    delegates ``engine="batch"`` to a one-lane ``BatchSimulator``; the
    stats / monitor objects are shared with the wrapper, and structural
    edits re-elaborate lazily on the next ``step``/``reset`` (see the
    module docstring on caching and staleness).
    """

    def __init__(self, netlist, check_protocol=True, observers=None,
                 profile=False):
        self.netlist = netlist
        self.check_protocol = bool(check_protocol)
        self.profile = bool(profile)
        self.observers = observers if observers is not None else []
        self.cycle = 0
        self.stats = ChannelStats(netlist)
        self.monitor = ProtocolMonitor(netlist) if check_protocol else None
        self._structures_dirty = False
        self._edited_channels = set()
        self.re_elaborations = 0
        if self.profile:
            self.evals_per_cycle = []
            self.sweeps_per_cycle = []
        self._nodes = []
        self._log = []
        self._elaborate()
        netlist.reset()

    # -- elaboration --------------------------------------------------------

    def _elaborate(self):
        prev_nodes = self._nodes
        netlist = self.netlist
        self._nodes = list(netlist.nodes.values())
        self._channels = list(netlist.channels.values())
        self._choosers = [node for node in self._nodes
                          if type(node).choice_space is not Node.choice_space]
        # Take ownership worklist-style: every channel reports into this
        # backend's change log (only deferred comb() calls write through
        # ChannelState.set), so an older simulator's step() says so.
        for ci, channel in enumerate(self._channels):
            channel.state.base = N_SIGNALS * ci
            channel.state.log = self._log
        if self.profile:
            counts = {node.name: calls for node, calls
                      in zip(prev_nodes, getattr(self, "comb_calls", []))}
            self.comb_calls = [counts.get(node.name, 0) for node in self._nodes]
        module = _module_for(netlist, self.check_protocol, self.profile)
        self.module = module
        self.re_elaborations += 1
        env = {
            "nodes": self._nodes,
            "channels": self._channels,
            "stats": self.stats,
            "monitor": self.monitor,
            "backend": self,
            "netlist": netlist,
            "diagnose": self._diagnose,
            "select": self._select,
            "log": self._log,
            "EV_IDLE": _ev().EV_IDLE,
            "EV_CANCEL": _ev().EV_CANCEL,
            "EV_BACKWARD": _ev().EV_BACKWARD,
            "ChannelEvents": _ev().ChannelEvents,
        }
        if self.profile:
            env["comb_calls"] = self.comb_calls
        self._cycle_fn = module.build(env)

    def _refresh(self):
        """Deferred re-elaboration after one or more structural edits."""
        self._structures_dirty = False
        self._elaborate()
        if self.monitor is not None:
            self.monitor.structure_changed()
            for name in self._edited_channels:
                self.monitor._prev.pop(name, None)
        self._edited_channels.clear()

    def apply_edit(self, edit):
        """Record one structural edit; the compiled cycle is rebuilt (via
        the module cache) right before the next step — stale generated
        code is never executed."""
        from repro.netlist.edits import CONNECT, DISCONNECT

        if edit.op == CONNECT:
            self.stats.add_channel(edit.channel)
        if edit.op in (CONNECT, DISCONNECT):
            self._edited_channels.add(edit.channel)
        self._structures_dirty = True

    # -- per-cycle drive ----------------------------------------------------

    def _check_ownership(self):
        channels = self._channels
        if channels and channels[0].state.log is not self._log:
            raise RuntimeError(
                "netlist is now owned by a newer Simulator; this simulator "
                "can no longer observe signal changes — construct a fresh "
                "Simulator instead of reusing this one"
            )

    def _diagnose(self, cycle):
        """Raise the worklist engine's :class:`CombinationalLoopError` for
        ``cycle``; only called once the cycle is known not to resolve.

        The straight-line region is two-valued and cannot hold the unknowns
        an unresolved cycle leaves, so the three-valued fix-point is
        re-derived here by sweeping every node's ``comb()`` over cleared
        channel states (``comb()`` is pure once ``pre_cycle`` has run), then
        reported in ``Simulator._check_resolved``'s channel and signal
        order."""
        for channel in self._channels:
            channel.clear_cycle()
        changed = True
        while changed:
            changed = False
            for node in self._nodes:
                changed |= bool(node.comb())
        self._log.clear()
        unresolved = []
        for channel in self._channels:
            state = channel.state
            if not state.resolved():
                unresolved.extend(
                    f"{channel.name}.{sig}"
                    for sig in state.unresolved_signals()
                )
            elif state.vp and state.data is None:
                unresolved.append(f"{channel.name}.data")
        raise CombinationalLoopError(unresolved, cycle=cycle)

    def _select(self, node, sel, n, cycle):
        """A ``case`` arm index for the generated code: an unknown select
        (``vp`` True, data ``None``) leaves the cycle unresolved."""
        if sel is None:
            self._diagnose(cycle)
        return select_index(node, sel, n)

    def step(self):
        # Ownership first: a dirty refresh would re-register this backend's
        # change log and silently steal the netlist back from a newer
        # simulator.
        self._check_ownership()
        if self._structures_dirty:
            self._refresh()
        self._cycle_fn(self.cycle, None)
        done = self.cycle
        self.cycle += 1
        return done

    def step_with_choices(self, choices):
        self._check_ownership()
        if self._structures_dirty:
            self._refresh()
        events = self._cycle_fn(self.cycle, choices)
        self.cycle += 1
        return events

    def choice_nodes(self):
        if self._structures_dirty:
            self._refresh()
        return [node for node in self._choosers if node.choice_space() > 1]

    def reset(self):
        if self._structures_dirty:
            self._refresh()
        self.netlist.reset()
        self.cycle = 0
        self.stats.reset()
        if self.monitor is not None:
            self.monitor.reset()

    # -- profiling ----------------------------------------------------------

    def profile_report(self):
        if self._structures_dirty:
            self._refresh()
        from repro.sim.profile import ProfileReport

        by_kind = {}
        for node, calls in zip(self._nodes, self.comb_calls):
            entry = by_kind.setdefault(node.kind, [0, 0])
            entry[0] += calls
            entry[1] += 1
        return ProfileReport(
            engine="codegen",
            cycles=self.cycle,
            n_nodes=len(self._nodes),
            comb_calls_by_kind={k: tuple(v) for k, v in sorted(by_kind.items())},
            total_comb_calls=sum(self.comb_calls),
            evals_per_cycle=list(self.evals_per_cycle),
            sweeps_per_cycle=list(self.sweeps_per_cycle),
        )


def _ev():
    """Late import of the interned event constants (kept in one place)."""
    from repro.elastic import channel

    return channel
