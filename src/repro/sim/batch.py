"""Lane-parallel batch simulation of same-topology netlists.

Design-space exploration runs many *parameterizations* of one elastic
topology — same nodes, same channels, different capacities / schedulers /
operand streams.  :class:`BatchSimulator` simulates N such netlists
("lanes") in lock-step through **bit-packed channel states**: every
three-valued control signal of a channel becomes one
:class:`~repro.elastic.channel.BatchChannelState` ``(known, value)`` mask
pair with one bit per lane, so a single pass over the static sensitivity
map of PR 1's worklist engine advances all N configurations at once.

How a cycle runs
----------------

1. **pre-cycle** — every node of every lane freezes its randomized choices,
   exactly as in the scalar engines (per-lane RNGs stay independent).
2. **batched fix-point** — the worklist loop visits *node positions* (one
   per topology node, covering all lanes).  Positions with a lane kernel
   (:func:`batch_kernel`, compiled from the node kind's comb spec, see
   :mod:`repro.elastic.spec`) advance every lane with a handful of bitwise
   Kleene operations on the mask pairs;
   positions of a kind without a spec (or a subclass overriding ``comb``
   without its own) fall back to the scalar ``comb`` lane by lane, bridged
   through the lanes' own
   :class:`~repro.elastic.channel.ChannelState` objects.  Change
   propagation reuses the exact signal -> readers tables of the worklist
   engine; a signal id is (re-)enqueued whenever it becomes known in at
   least one new lane, and per-lane monotonicity bounds the loop just like
   the scalar argument.
3. **observation** — the batched protocol monitor checks the SELF
   properties on the mask pairs, per-channel event masks update bit-plane
   statistics counters (O(log cycles) int operations per channel per cycle,
   independent of the lane count), and the resolved signals are *scattered*
   into each lane's scalar channel states so observers and ``tick``
   handlers see exactly what a scalar simulator would have produced.
4. **tick** — every node of every lane updates its sequential state from
   its (scattered) scalar channel view.

Because phases 1 and 4 run the unmodified per-lane node code and phase 2 is
pinned to the scalar semantics by the differential batch tests, a lane of a
batch is *bit-identical* to running that configuration in its own scalar
simulator: same transfer streams, same statistics, same protocol verdicts,
same combinational-loop diagnostics (raised for the lowest failing lane,
with the lane recorded on the exception's ``lane`` attribute).

Whenever a batch contains at least one scalar-fallback node, the lanes'
scalar channel states are cleared at the start of every cycle, so a
``Channel.events()`` call from inside a fallback node's ``comb`` raises on
unresolved signals exactly as under the scalar engines.  Kernel-only
batches skip that clearing as an optimization — lane kernels are engine
code and work from the mask pairs, never from the scalar states, inside
the fix-point.

Beyond lock-step simulation, the batch engine exposes per-lane dynamic
state scatter/gather for the model checker
(:mod:`repro.verif.explore`): :meth:`BatchSimulator.restore_lane_states`
loads a *different* netlist snapshot into every lane,
:meth:`BatchSimulator.step_with_lane_choices` advances all lanes through
one shared fix-point with per-lane environment choices, and
:meth:`BatchSimulator.lane_snapshot` / :meth:`BatchSimulator.lane_signals`
read each lane's successor state back out — which is what lets the
explorer expand B frontier states per fix-point pass.
"""

from __future__ import annotations

from collections import deque

from repro.elastic.channel import (
    ALL_SIGNALS,
    BatchChannelState,
    ChannelEvents,
    EV_BACKWARD,
    EV_CANCEL,
    EV_IDLE,
    N_SIGNALS,
    iter_lanes,
)
from repro.elastic.node import Node
from repro.elastic.spec import select_index, spec_for, value_ports
from repro.errors import CombinationalLoopError
from repro.sim.monitors import BatchProtocolMonitor
from repro.sim.sensitivity import sensitivity_tables
from repro.sim.stats import ChannelStats


def batch_kernel(node):
    """The lane kernel the batch engine runs for ``node``'s position, or
    ``None`` for the per-lane scalar fallback.

    The node's comb spec is compiled into a mask kernel (once per spec, on
    first use).  Under :func:`repro.elastic.spec.own_hook`, a subclass that
    overrides ``comb`` without its own spec has none and falls back to its
    (always correct) scalar ``comb``.
    """
    spec = spec_for(node)
    if spec is None:
        return None
    kernel = _KERNELS.get(spec)
    if kernel is None:
        kernel = _KERNELS[spec] = _compile_kernel(spec, type(node))
    return kernel


_KERNELS = {}


def _select_masks(bst, n, lanes):
    """Per-value lane masks of the select ``bst`` of a ``case`` with ``n``
    arms: mask ``k`` holds the lanes whose ``vp`` is True and whose data
    is ``k``.  Raises :class:`~repro.errors.SchedulerError` for the lowest
    lane with an invalid select, as the scalar ``comb`` would."""
    masks = [0] * n
    data = bst.data
    for lane in iter_lanes(bst.vp_v & bst.data_k):
        masks[select_index(lanes[lane], data[lane], n)] |= 1 << lane
    return masks


def _atom(expr):
    return expr.replace("_", "").replace(".", "").isalnum()


def _band(*xs):
    """``&`` of mask expressions, folding ``0`` and ``full`` (the identity
    on lane masks; kept when every other operand is a ``~`` complement,
    which has bits beyond the lanes)."""
    rest = [x for x in xs if x != "full"]
    if "0" in rest:
        return "0"
    if all(x.startswith("~") for x in rest) and len(rest) < len(xs):
        rest.insert(0, "full")
    return " & ".join(x if _atom(x) or x.startswith("~") else f"({x})"
                      for x in rest)


def _bor(*xs):
    xs = [x for x in xs if x != "0"]
    if "full" in xs:
        return "full"
    return " | ".join(xs) if xs else "0"


def _bandnot(x, y):
    """``x & ~y`` for ``y`` a subset of ``x``'s universe."""
    if y == "0":
        return x
    if y == "full" or x == "0":
        return "0"
    return _band(x, f"~{y}" if _atom(y) else f"~({y})")


class _MaskLowering:
    """Lowers spec terms to ``(known, value)`` mask expressions.

    A three-valued signal of N lanes is a pair of ints ``(known, value)``
    (bit ``l`` of ``known`` set once lane ``l`` resolved it, ``value`` a
    subset of ``known``), and each strong-Kleene operator lifts to a few
    bitwise operations on such pairs, monotone per lane.  Each term becomes
    a pair of Python expressions over the kernel's locals: ``full`` (all
    lanes), ``s<j>`` (state-term masks), the ``p<k>`` port states and
    ``c<k>_<v>`` (lanes where port ``k`` selects case arm ``v``), with those
    bit formulas inlined.  Composite terms are assigned to temporaries; a
    known mask of ``full`` marks a term known in every lane, which folds
    most of the formulas away.
    """

    def __init__(self, ports, states, selects, lines, indent):
        self.ports = ports
        self.states = states
        self.selects = selects     # port index -> arms of its cases
        self.lines = lines
        self.indent = indent
        self.n_temps = 0
        self.memo = {}

    def _temp(self, expr):
        if _atom(expr):
            return expr
        name = f"t{self.n_temps}"
        self.n_temps += 1
        self.lines.append(f"{self.indent}{name} = {expr}")
        return name

    def lower(self, term):
        pair = self.memo.get(term)
        if pair is None:
            pair = self.memo[term] = self._lower(term)
        return pair

    def _lower(self, term):
        op = term[0]
        if op == "const":
            return ("full", "full" if term[1] else "0")
        if op == "state":
            return ("full", f"s{self.states.index(term[1])}")
        if op == "sig":
            p = f"p{self.ports.index(term[1])}"
            return (f"{p}.{term[2]}_k", f"{p}.{term[2]}_v")
        if op == "case":
            # Known where the select is absent, or selects a known arm.
            k = self.ports.index(term[1])
            self.selects[k] = len(term[2])
            known = [_bandnot(f"p{k}.vp_k", f"p{k}.vp_v")]
            value = []
            for v, arm in enumerate(term[2]):
                ak, av = self.lower(arm)
                known.append(_band(f"c{k}_{v}", ak))
                value.append(_band(f"c{k}_{v}", av))
            v = self._temp(_bor(*value))
            return (self._temp(_bor(*known)), v)
        if op == "not":
            ak, av = self.lower(term[1])
            return (ak, self._temp(_bandnot(ak, av)))
        if op in ("and", "or"):
            (ak, av), (bk, bv) = self.lower(term[1]), self.lower(term[2])
            if op == "and":
                v = self._temp(_band(av, bv))
                k = _bor(_bandnot(ak, av), _bandnot(bk, bv), v)
            else:
                v = self._temp(_bor(av, bv))
                k = _bor(v, _band(_bandnot(ak, av), _bandnot(bk, bv)))
            if ak == bk == "full":
                return ("full", v)
            return (self._temp(k), v)
        (ck, cv), (tk, tv), (fk, fv) = (self.lower(t) for t in term[1:])
        sel_f = self._temp(_bandnot(ck, cv))
        agree = "0"
        if ck != "full":
            # Lanes with an unknown condition resolve where both branches
            # are known and agree (the kite rule).
            same = (f"~{fv}" if tv == "0" else f"~{tv}" if fv == "0"
                    else f"~({tv} ^ {fv})")
            agree = self._temp(_band(f"~{ck}", tk, fk, same))
        v = self._temp(_bor(_band(cv, tv), _band(sel_f, fv), _band(agree, tv)))
        if ck == tk == fk == "full":
            return ("full", v)
        return (self._temp(_bor(_band(cv, tk), _band(sel_f, fk), agree)), v)


def _compile_kernel(spec, cls):
    """Python source of a lane kernel ``kernel(ctx)`` for ``spec``,
    compiled.  Per cycle it builds the state-term lane masks once (cached
    in ``ctx.cache`` when the node reads signals and may be re-evaluated),
    per call the select masks of its ``case`` terms, then drives each
    output signal not yet known in every lane with inlined bitwise Kleene
    logic, and sets data lane by lane."""
    ports = []
    for port, _signal in spec.outputs() + list(spec.reads):
        if port not in ports:
            ports.append(port)
    states = list(spec.state)
    body = ["full = ctx.full", "ports = ctx.ports"]
    body += [f"p{k} = ports[{port!r}]" for k, port in enumerate(ports)]
    selects = {}
    header = len(body)      # the select masks go here, once lowered
    if states:
        masks = ", ".join(f"s{j}" for j in range(len(states))) + ","
        build = [" = ".join(f"s{j}" for j in range(len(states))) + " = 0",
                 "for lane, self in enumerate(ctx.lanes):",
                 "    bit = 1 << lane"]
        for j, name in enumerate(states):
            build += [f"    if {spec.state[name]}:", f"        s{j} |= bit"]
        if spec.reads:
            body += ["cache = ctx.cache", "masks = cache.get(0)",
                     "if masks is None:"]
            body += ["    " + line for line in build]
            body += [f"    cache[0] = ({masks})", "else:",
                     f"    {masks} = masks"]
        else:
            body += build
    for (port, signal), term in spec.signals.items():
        p = f"p{ports.index(port)}"
        body.append(f"if full & ~{p}.{signal}_k:")
        lowering = _MaskLowering(ports, states, selects, body, "    ")
        k, v = lowering.lower(term)
        if k == "full":
            body.append(f"    {p}.set_mask({signal!r}, full, {v})")
        else:
            body += [f"    if {k} & ~{p}.{signal}_k:",
                     f"        {p}.set_mask({signal!r}, {k}, {v})"]

    def set_data(p, need, val):
        if val[0] == "case":
            k = ports.index(val[1])
            selects[k] = len(val[2])
            for v, arm in enumerate(val[2]):
                set_data(p, f"{need} & c{k}_{v}", arm)
            return
        for arg in value_ports(val):
            need += f" & p{ports.index(arg)}.data_k"
        body.append(f"for lane in iter_lanes({need}):")
        if val[0] == "data":
            body.append(f"    {p}.set_data(lane, p{ports.index(val[1])}.data[lane])")
        else:
            body.append("    self = ctx.lanes[lane]")
            if val[0] == "value":
                expr = val[1]
            else:
                args = ", ".join(f"p{ports.index(a)}.data[lane]" for a in val[2])
                expr = f"self.{val[1]}({args})"
            body.append(f"    {p}.set_data(lane, {expr})")

    for port, (guard, val) in spec.data.items():
        p = f"p{ports.index(port)}"
        lowering = _MaskLowering(ports, states, selects, body, "")
        set_data(p, f"{lowering.lower(guard)[1]} & ~{p}.data_k", val)
    body[header:header] = ["".join(f"c{k}_{v}, " for v in range(n))
                           + f"= _select_masks(p{k}, {n}, ctx.lanes)"
                           for k, n in selects.items()]
    source = "def kernel(ctx):\n" + "".join(f"    {line}\n" for line in body)
    namespace = {"iter_lanes": iter_lanes, "_select_masks": _select_masks}
    exec(compile(source, f"<comb spec kernel {cls.__qualname__}>", "exec"),
         namespace)
    return namespace["kernel"]


def topology_signature(netlist):
    """Structural identity of a netlist for lane-batching purposes.

    Two netlists may share a :class:`BatchSimulator` iff their signatures
    are equal: same node names, classes, port lists and declared
    combinational sensitivities, and same channel wiring.  Parameters that
    only affect *sequential* behaviour (capacities, seeds, schedulers,
    datapath functions) are deliberately excluded — differing per lane is
    the whole point.
    """
    nodes = tuple(
        (
            name,
            f"{type(node).__module__}.{type(node).__qualname__}",
            tuple(node.in_ports),
            tuple(node.out_ports),
            tuple(node.comb_reads()),
            tuple(node.comb_writes()),
        )
        for name, node in netlist.nodes.items()
    )
    channels = tuple(
        (name, channel.producer, channel.consumer)
        for name, channel in netlist.channels.items()
    )
    return (nodes, channels)


class _PackedCounter:
    """Per-lane event counter stored as binary bit-planes.

    ``add(mask)`` increments the counter of every lane whose bit is set
    using a ripple-carry over the planes — amortized O(1) int operations
    per cycle regardless of the lane count; ``lane_count(lane)`` decodes
    one lane's total on demand.
    """

    __slots__ = ("planes",)

    def __init__(self):
        self.planes = []

    def add(self, mask):
        planes = self.planes
        i = 0
        while mask:
            if i == len(planes):
                planes.append(mask)
                return
            carry = planes[i] & mask
            planes[i] ^= mask
            mask = carry
            i += 1

    def lane_count(self, lane):
        bit = 1 << lane
        total = 0
        for i, plane in enumerate(self.planes):
            if plane & bit:
                total += 1 << i
        return total


class LaneStatsView:
    """Live :class:`ChannelStats`-shaped view of one lane's counters.

    The :class:`Simulator` batch wrapper hands this out as ``sim.stats``
    so the scalar engines' contract holds: a reference held across
    ``step()`` calls always reads the current counts (each dict access
    decodes the bit-plane counters on demand).  For a detached snapshot
    use :meth:`BatchSimulator.lane_stats`.
    """

    __slots__ = ("_batch", "_lane", "netlist")

    def __init__(self, batch, lane):
        self._batch = batch
        self._lane = lane
        self.netlist = batch.netlists[lane]

    @property
    def cycles(self):
        return self._batch._stat_cycles

    def _decode(self, counters):
        lane = self._lane
        return {
            name: counters[ci].lane_count(lane)
            for ci, name in enumerate(self._batch._channel_names)
        }

    @property
    def transfers(self):
        return self._decode(self._batch._transfers)

    @property
    def cancels(self):
        return self._decode(self._batch._cancels)

    @property
    def backwards(self):
        return self._decode(self._batch._backwards)

    @property
    def stalls(self):
        return self._decode(self._batch._stalls)

    @property
    def idles(self):
        return self._decode(self._batch._idles)

    def throughput(self, channel_name):
        return self._batch.lane_stats(self._lane).throughput(channel_name)

    def utilization(self, channel_name):
        return self._batch.lane_stats(self._lane).utilization(channel_name)

    def summary(self):
        return self._batch.lane_stats(self._lane).summary()


class BatchNodeCtx:
    """What a lane kernel sees: the per-lane node
    instances of one topology position plus the batched states of its
    ports.

    ``cache`` is a scratch dict the engine clears at the start of every
    cycle — kernels that are re-evaluated within a fix-point stash masks
    derived from *sequential* state there (occupancies, kill counters,
    predictions), which are constant for the cycle.
    """

    __slots__ = ("lanes", "full", "ports", "cache")

    def __init__(self, lanes, ports, full):
        self.lanes = lanes            # tuple of per-lane node instances
        self.ports = ports            # port name -> BatchChannelState
        self.full = full              # all-lanes mask
        self.cache = {}

    def lane_mask(self, pred):
        """Mask of lanes whose node instance satisfies ``pred``."""
        mask = 0
        for lane, node in enumerate(self.lanes):
            if pred(node):
                mask |= 1 << lane
        return mask


class BatchSimulator:
    """Drives N same-topology netlists cycle by cycle, lane-parallel.

    Parameters
    ----------
    netlists:
        One netlist per lane; all must share the lane-0
        :func:`topology_signature` (names, classes, ports, wiring).
    check_protocol:
        Install the batched SELF protocol monitor (mask-parallel
        equivalents of the scalar :class:`ProtocolMonitor` checks).
    observers:
        Optional per-lane observer lists (``observers[lane]`` is an
        iterable of objects with ``observe(cycle, netlist)``); observers
        see the lane's scalar channel states, scattered after each
        fix-point.
    max_iterations:
        Accepted for :class:`Simulator` parity and validated; the batched
        worklist terminates by per-lane monotonicity and does not use it.
    profile:
        Record per-position evaluation counts (a kernel call counts 1, a
        scalar-fallback evaluation counts one per lane).

    Like the scalar engines, constructing a :class:`BatchSimulator` takes
    ownership of every lane netlist: it re-registers the channels' change
    logs, and a previously constructed simulator on any of the netlists
    raises instead of silently corrupting the batch state.
    """

    def __init__(self, netlists, check_protocol=True, observers=None,
                 max_iterations=None, profile=False):
        netlists = list(netlists)
        if not netlists:
            raise ValueError("BatchSimulator needs at least one lane")
        if max_iterations is not None and max_iterations <= 0:
            raise ValueError(
                f"max_iterations must be positive, got {max_iterations}"
            )
        for net in netlists:
            net.validate()
        signature = topology_signature(netlists[0])
        for lane, net in enumerate(netlists[1:], start=1):
            if topology_signature(net) != signature:
                raise ValueError(
                    f"lane {lane} netlist {net.name!r} does not share the "
                    f"lane-0 topology of {netlists[0].name!r}; group "
                    "configurations by topology_signature() before batching"
                )
        self.netlists = netlists
        self.n_lanes = len(netlists)
        self.full = (1 << self.n_lanes) - 1
        self.cycle = 0
        self._stat_cycles = 0
        # Structural-version guard: the lane-parallel tables are built for
        # exactly these netlist structures; the batch engine conservatively
        # invalidates (refuses to step) after any structural edit instead
        # of patching incrementally like the scalar worklist engine.
        self._lane_versions = [net.version for net in netlists]

        # -- batched channel states (and ownership of the lane channels) --
        self._log = []            # batched engine change log
        self._lane_log = []       # scalar-fallback write capture + ownership
        channel_names = list(netlists[0].channels)
        self._channel_names = channel_names
        self._lane_channels = [
            tuple(net.channels[name] for net in netlists)
            for name in channel_names
        ]
        self._bstates = []
        for ci, name in enumerate(channel_names):
            bst = BatchChannelState(self.n_lanes, name=name)
            bst.base = ci * N_SIGNALS
            bst.log = self._log
            self._bstates.append(bst)
            for channel in self._lane_channels[ci]:
                channel.state.base = bst.base
                channel.state.log = self._lane_log
        self._bst_by_name = dict(zip(channel_names, self._bstates))

        # -- sensitivity tables + per-position evaluators ------------------
        node_names = list(netlists[0].nodes)
        nodes0 = [netlists[0].nodes[name] for name in node_names]
        self._node_lanes = [
            tuple(net.nodes[name] for net in netlists) for name in node_names
        ]
        self._readers, self._order = sensitivity_tables(
            nodes0, len(channel_names)
        )
        self._pending = bytearray(len(nodes0))
        self._all_pending = bytes(b"\x01" * len(nodes0))
        self._evals = []
        self._eval_cost = []
        self._ctx_caches = []
        self._any_fallback = False
        for pos, lanes in enumerate(self._node_lanes):
            kernel = batch_kernel(lanes[0])
            if kernel is not None:
                ports = {
                    port: self._bst_by_name[lanes[0]._channels[port].name]
                    for port in lanes[0].ports
                }
                ctx = BatchNodeCtx(lanes, ports, self.full)
                self._evals.append((kernel, ctx))
                self._eval_cost.append(1)
                self._ctx_caches.append(ctx.cache)
            else:
                self._evals.append(
                    (self._make_fallback_eval(lanes), None)
                )
                self._eval_cost.append(self.n_lanes)
                self._any_fallback = True

        # -- per-lane machinery -------------------------------------------
        self._pre_cycle_fns = [
            node.pre_cycle
            for net in netlists for node in net.nodes.values()
            if type(node).pre_cycle is not Node.pre_cycle
        ]
        self._tick_fns = [
            node.tick
            for net in netlists for node in net.nodes.values()
            if type(node).tick is not Node.tick
        ]
        self._chooser_lanes = [
            lanes for lanes in self._node_lanes
            if type(lanes[0]).choice_space is not Node.choice_space
        ]
        if observers is None:
            observers = [[] for _ in netlists]
        observers = list(observers)
        if len(observers) != self.n_lanes:
            raise ValueError(
                f"observers must have one entry per lane: got "
                f"{len(observers)} for {self.n_lanes} lane(s)"
            )
        # Lists are kept by reference (not copied) so callers — e.g. the
        # Simulator batch wrapper — can append observers after
        # construction, matching the scalar engines' live-list behaviour.
        self._observers = [
            lane_obs if isinstance(lane_obs, list) else list(lane_obs)
            for lane_obs in observers
        ]
        self.monitor = (
            BatchProtocolMonitor(self._bstates, netlists[0])
            if check_protocol else None
        )

        # -- statistics: bit-plane counters per (channel, category) --------
        n = len(channel_names)
        self._transfers = [_PackedCounter() for _ in range(n)]
        self._cancels = [_PackedCounter() for _ in range(n)]
        self._backwards = [_PackedCounter() for _ in range(n)]
        self._stalls = [_PackedCounter() for _ in range(n)]
        self._idles = [_PackedCounter() for _ in range(n)]
        self._channel_index = {name: ci for ci, name in enumerate(channel_names)}

        self.profile = bool(profile)
        if self.profile:
            self.comb_calls = [0] * len(nodes0)
            self.evals_per_cycle = []
            self.sweeps_per_cycle = []

        for net in netlists:
            net.reset()

    # -- evaluator construction -----------------------------------------------

    def _make_fallback_eval(self, lanes):
        """Scalar fallback: bridge one node position through the lanes' own
        ChannelStates — sync the batched view in, run ``comb``, fold the
        captured writes back into the mask pairs."""
        ports = [
            (port, self._bst_by_name[lanes[0]._channels[port].name])
            for port in lanes[0].ports
        ]
        lane_log = self._lane_log
        bstates = self._bstates
        lane_channels = self._lane_channels
        n_lanes = self.n_lanes

        def evaluate(_ctx):
            for lane in range(n_lanes):
                node = lanes[lane]
                bit = 1 << lane
                for port, bst in ports:
                    st = node._channels[port].state
                    st.vp = bool(bst.vp_v & bit) if bst.vp_k & bit else None
                    st.sp = bool(bst.sp_v & bit) if bst.sp_k & bit else None
                    st.vm = bool(bst.vm_v & bit) if bst.vm_k & bit else None
                    st.sm = bool(bst.sm_v & bit) if bst.sm_k & bit else None
                    st.data = bst.data[lane] if bst.data_k & bit else None
                lane_log.clear()
                node.comb()
                for signal in lane_log:
                    ci, offset = divmod(signal, N_SIGNALS)
                    bst = bstates[ci]
                    name = ALL_SIGNALS[offset]
                    value = getattr(lane_channels[ci][lane].state, name)
                    if name == "data":
                        bst.set_data(lane, value)
                    else:
                        bst.set_mask(name, bit, bit if value else 0)
                lane_log.clear()
        return evaluate

    # -- per-cycle phases -----------------------------------------------------

    def _check_structural_versions(self):
        for lane, (net, built) in enumerate(zip(self.netlists,
                                                self._lane_versions)):
            if net.version != built:
                raise RuntimeError(
                    f"lane {lane} netlist {net.name!r} was structurally "
                    f"edited (version {net.version}, batch built at "
                    f"{built}); the batch engine does not patch "
                    "incrementally — construct a fresh BatchSimulator"
                )

    def _fixpoint(self):
        # Within one lane the channel logs are (re)assigned together, so
        # checking one channel per lane detects a newer
        # Simulator/BatchSimulator having taken ownership of that lane's
        # netlist — each lane can be claimed independently.
        if self._lane_channels:
            lane_log = self._lane_log
            for channel in self._lane_channels[0]:
                if channel.state.log is not lane_log:
                    raise RuntimeError(
                        "a lane netlist is now owned by a newer Simulator; "
                        "this batch can no longer observe signal changes — "
                        "construct a fresh BatchSimulator instead of "
                        "reusing this one"
                    )
        for bst in self._bstates:
            bst.clear()
        if self._any_fallback:
            # Scalar-fallback nodes run their real comb() against the
            # lanes' scalar channel states; clear those per cycle so any
            # mid-fix-point Channel.events() call raises on unresolved
            # signals exactly as under the scalar engines, instead of
            # silently reading the previous cycle's scattered values.
            # Kernel-only batches skip this (kernels never touch the
            # scalar states inside the fix-point).
            for channels in self._lane_channels:
                for channel in channels:
                    channel.clear_cycle()
        for cache in self._ctx_caches:
            cache.clear()
        log = self._log
        log.clear()
        pending = self._pending
        pending[:] = self._all_pending
        evals_fns = self._evals
        readers = self._readers
        queue = deque(self._order)
        profile = self.profile
        evals = 0
        while queue:
            i = queue.popleft()
            pending[i] = 0
            fn, ctx = evals_fns[i]
            fn(ctx)
            if profile:
                self.comb_calls[i] += self._eval_cost[i]
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

    def _check_resolved(self):
        full = self.full
        for bst in self._bstates:
            if bst.resolved_mask() != full or bst.vp_v & ~bst.data_k:
                break
        else:
            return
        # Slow path: diagnose the lowest failing lane exactly like a scalar
        # simulator of that lane would (same channel and signal order).
        for lane in range(self.n_lanes):
            bit = 1 << lane
            unresolved = []
            for bst in self._bstates:
                missing = bst.unresolved_signals(lane)
                if missing:
                    unresolved.extend(f"{bst.name}.{sig}" for sig in missing)
                elif bst.vp_v & bit and not bst.data_k & bit:
                    unresolved.append(f"{bst.name}.data")
            if unresolved:
                err = CombinationalLoopError(unresolved, cycle=self.cycle)
                err.lane = lane
                raise err

    def _scatter(self):
        """Write the resolved batch signals into every lane's scalar channel
        states (and invalidate the per-lane events caches), so observers,
        ``tick`` handlers and ``Channel.events()`` see exactly what a
        scalar simulator would have left behind."""
        for ci, bst in enumerate(self._bstates):
            vp = bst.vp_v
            sp = bst.sp_v
            vm = bst.vm_v
            sm = bst.sm_v
            data = bst.data
            for lane, channel in enumerate(self._lane_channels[ci]):
                bit = 1 << lane
                st = channel.state
                st.vp = vp & bit != 0
                st.sp = sp & bit != 0
                st.vm = vm & bit != 0
                st.sm = sm & bit != 0
                st.data = data[lane]
                channel.events_cache = None

    def _update_stats(self):
        """Classify each (channel, lane) into the scalar ``ChannelStats``
        categories from the value masks, then ripple the masks into the
        bit-plane counters."""
        full = self.full
        transfers = self._transfers
        cancels = self._cancels
        backwards = self._backwards
        stalls = self._stalls
        idles = self._idles
        for ci, bst in enumerate(self._bstates):
            vp = bst.vp_v
            vm = bst.vm_v
            cancel = vp & vm
            forward = vp & ~bst.sp_v & ~vm
            backward = vm & ~bst.sm_v & ~vp
            stall = vp & bst.sp_v & ~vm
            if forward:
                transfers[ci].add(forward)
            if cancel:
                cancels[ci].add(cancel)
            if backward:
                backwards[ci].add(backward)
            if stall:
                stalls[ci].add(stall)
            idle = full & ~(forward | cancel | backward | stall)
            if idle:
                idles[ci].add(idle)
        self._stat_cycles += 1

    # -- public stepping ------------------------------------------------------

    def step(self):
        """Advance all lanes one clock cycle; returns the completed index."""
        self._check_structural_versions()
        for pre_cycle in self._pre_cycle_fns:
            pre_cycle()
        self._fixpoint()
        if self.monitor is not None:
            self.monitor.observe(self.cycle)
        self._scatter()
        self._update_stats()
        if any(self._observers):
            for lane, lane_observers in enumerate(self._observers):
                netlist = self.netlists[lane]
                for observer in lane_observers:
                    observer.observe(self.cycle, netlist)
        for tick in self._tick_fns:
            tick()
        done = self.cycle
        self.cycle += 1
        return done

    def run(self, n_cycles):
        """Run ``n_cycles`` cycles; returns ``self`` for chaining."""
        for _ in range(n_cycles):
            self.step()
        return self

    def reset(self):
        """Rewind dynamic state of every lane (netlist sequential state,
        cycle counter, statistics planes, monitor history) keeping the
        built batch structures warm."""
        self._check_structural_versions()
        for net in self.netlists:
            net.reset()
        self.cycle = 0
        self._stat_cycles = 0
        n = len(self._channel_names)
        self._transfers = [_PackedCounter() for _ in range(n)]
        self._cancels = [_PackedCounter() for _ in range(n)]
        self._backwards = [_PackedCounter() for _ in range(n)]
        self._stalls = [_PackedCounter() for _ in range(n)]
        self._idles = [_PackedCounter() for _ in range(n)]
        if self.monitor is not None:
            self.monitor._prev = None
            self.monitor.violations.clear()

    def _choice_cycle(self):
        """The shared cycle body of the model-checking steps: pre-cycle,
        batched fix-point, monitor, scatter, tick (no statistics — exactly
        what the scalar :meth:`Simulator.step_with_choices` observes)."""
        for pre_cycle in self._pre_cycle_fns:
            pre_cycle()
        self._fixpoint()
        if self.monitor is not None:
            self.monitor.observe(self.cycle)
        self._scatter()
        for tick in self._tick_fns:
            tick()
        self.cycle += 1

    def _gather_choice_results(self):
        """Per-lane results of a choice step, resolved from the bit-planes
        in one masked pass per channel: the per-channel
        :class:`ChannelEvents` dict of every lane (also cached on each
        lane's channel, exactly as the scalar engines leave behind) and
        every lane's packed signal byte vector (``VP | SP<<1 | VM<<2 |
        SM<<3`` per channel, the :mod:`repro.verif.encoding` layout).
        Returns ``(events, signals)`` with ``events[lane][channel_name]``
        and ``signals[lane]``."""
        n_lanes = self.n_lanes
        n_channels = len(self._channel_names)
        events = [{} for _ in range(n_lanes)]
        signals = [bytearray(n_channels) for _ in range(n_lanes)]
        for ci, name in enumerate(self._channel_names):
            bst = self._bstates[ci]
            vp = bst.vp_v
            sp = bst.sp_v
            vm = bst.vm_v
            sm = bst.sm_v
            cancel = vp & vm
            forward = vp & ~sp & ~vm
            backward = vm & ~sm & ~vp
            data = bst.data
            channels = self._lane_channels[ci]
            for lane in range(n_lanes):
                bit = 1 << lane
                b = 1 if vp & bit else 0
                if sp & bit:
                    b |= 2
                if vm & bit:
                    b |= 4
                if sm & bit:
                    b |= 8
                signals[lane][ci] = b
                if forward & bit:
                    ev = ChannelEvents(forward=True, cancel=False,
                                       backward=False, data=data[lane])
                elif cancel & bit:
                    ev = EV_CANCEL
                elif backward & bit:
                    ev = EV_BACKWARD
                else:
                    ev = EV_IDLE
                channels[lane].events_cache = ev
                events[lane][name] = ev
        return events, [bytes(p) for p in signals]

    def step_with_choices(self, choices):
        """One cycle with explicit environment choices (model-checking
        hook, mirrors :meth:`Simulator.step_with_choices`): choices are
        applied to every lane's choice nodes by name; returns the lane-0
        per-channel events dict (resolved from the scattered scalar
        states — the all-lane mask gather is only worth it when every
        lane's result is consumed, see :meth:`step_with_lane_choices`)."""
        self._check_structural_versions()
        for lanes in self._chooser_lanes:
            for node in lanes:
                if node.choice_space() > 1:
                    node.set_choice(choices.get(node.name, 0))
        self._choice_cycle()
        return {
            name: self._lane_channels[ci][0].resolve_events()
            for ci, name in enumerate(self._channel_names)
        }

    def step_with_lane_choices(self, choices_per_lane):
        """One cycle with *per-lane* explicit choices.

        ``choices_per_lane[lane]`` maps node name -> choice index for that
        lane (unnamed choice nodes get choice 0, as in the scalar step).
        Combined with :meth:`restore_lane_states`, this is the batched
        model-checking hook: the explorer loads B pending frontier
        expansions into the lanes, steps them through one shared fix-point
        pass, and reads each lane's successor back out.  Returns
        ``(events, signals)``: the per-lane per-channel events dicts and
        the per-lane packed signal byte vectors (see
        :meth:`_gather_choice_results`).
        """
        self._check_structural_versions()
        if len(choices_per_lane) != self.n_lanes:
            raise ValueError(
                f"need one choices dict per lane: got "
                f"{len(choices_per_lane)} for {self.n_lanes} lane(s)"
            )
        for lanes in self._chooser_lanes:
            for lane, node in enumerate(lanes):
                if node.choice_space() > 1:
                    node.set_choice(choices_per_lane[lane].get(node.name, 0))
        self._choice_cycle()
        return self._gather_choice_results()

    # -- per-lane dynamic state (model-checking scatter/gather) ---------------

    def restore_lane_states(self, states):
        """Scatter per-lane sequential state: lane ``l`` is restored to
        ``states[l]``, a :meth:`Netlist.snapshot` capture of any
        same-topology netlist.  The state need not have been produced by
        this lane — the model checker loads a *different* frontier snapshot
        into every lane before each batched step."""
        if len(states) != self.n_lanes:
            raise ValueError(
                f"need one state per lane: got {len(states)} for "
                f"{self.n_lanes} lane(s)"
            )
        for net, state in zip(self.netlists, states):
            net.restore(state)

    def lane_snapshot(self, lane):
        """Gather one lane's sequential state (:meth:`Netlist.snapshot`)."""
        return self.netlists[lane].snapshot()

    def lane_signals(self, lane):
        """Gather one lane's resolved control signals, straight from the
        bit-planes: ``{channel: (vp, sp, vm, sm)}`` (valid after a step)."""
        bit = 1 << lane
        return {
            bst.name: (
                bool(bst.vp_v & bit), bool(bst.sp_v & bit),
                bool(bst.vm_v & bit), bool(bst.sm_v & bit),
            )
            for bst in self._bstates
        }

    # -- per-lane results -----------------------------------------------------

    def lane_transfers(self, lane, channel_name):
        """Forward-transfer count of one lane on one channel so far."""
        return self._transfers[self._channel_index[channel_name]].lane_count(lane)

    def lane_stats_view(self, lane):
        """Live :class:`LaneStatsView` of one lane (reads track the
        simulation as it advances; used by the Simulator batch wrapper)."""
        return LaneStatsView(self, lane)

    def lane_stats(self, lane):
        """Materialize one lane's :class:`ChannelStats` snapshot
        (identical to what a scalar simulator of that lane would have
        accumulated up to now)."""
        stats = ChannelStats(self.netlists[lane])
        stats.cycles = self._stat_cycles
        for ci, name in enumerate(self._channel_names):
            stats.transfers[name] = self._transfers[ci].lane_count(lane)
            stats.cancels[name] = self._cancels[ci].lane_count(lane)
            stats.backwards[name] = self._backwards[ci].lane_count(lane)
            stats.stalls[name] = self._stalls[ci].lane_count(lane)
            stats.idles[name] = self._idles[ci].lane_count(lane)
        return stats

    # -- profiling ------------------------------------------------------------

    def profile_report(self):
        """Aggregate the recorded counters (requires ``profile=True``)."""
        if not self.profile:
            raise ValueError(
                "BatchSimulator was not constructed with profile=True"
            )
        from repro.sim.profile import ProfileReport

        by_kind = {}
        for lanes, calls in zip(self._node_lanes, self.comb_calls):
            entry = by_kind.setdefault(lanes[0].kind, [0, 0])
            entry[0] += calls
            entry[1] += 1
        return ProfileReport(
            engine="batch",
            cycles=self.cycle,
            n_nodes=len(self._node_lanes),
            comb_calls_by_kind={k: tuple(v) for k, v in sorted(by_kind.items())},
            total_comb_calls=sum(self.comb_calls),
            evals_per_cycle=list(self.evals_per_cycle),
            sweeps_per_cycle=list(self.sweeps_per_cycle),
        )
