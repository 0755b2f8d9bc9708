"""Base class for elastic netlist nodes.

A node owns a set of ports; each port is either a token *input* (the node is
the channel's consumer) or a token *output* (the node is the channel's
producer).  During simulation each node participates in two phases per clock
cycle:

1. :meth:`Node.comb` — evaluate combinational logic.  Called repeatedly
   until the global fix-point is reached, so it must be *monotone*: written
   in Kleene logic, only adding information, never retracting it.  The node
   drives exactly the signals its role permits (producer: ``vp``/``data``/
   ``sm``; consumer: ``sp``/``vm``).
2. :meth:`Node.tick` — the clock edge.  All signals are resolved; the node
   updates its sequential state from the channel events.

Nodes also expose :meth:`snapshot` / :meth:`restore` so the explicit-state
model checker of :mod:`repro.verif` can enumerate the reachable state space,
and a few static descriptors (:meth:`area`, :meth:`timing_arcs`) used by the
performance models.
"""

from __future__ import annotations

from repro.elastic.channel import PRODUCER, CONSUMER, SIGNALS_BY_ROLE


class PortRole:
    IN = CONSUMER     # node consumes tokens from the channel
    OUT = PRODUCER    # node produces tokens into the channel


class Node:
    """Abstract elastic node.

    Subclasses declare ports by calling :meth:`add_in` / :meth:`add_out` in
    their constructor, and implement ``comb`` and ``tick``.
    """

    #: short kind tag used by dot export / back-ends; subclasses override.
    kind = "node"

    #: Batched combinational kernel (lane-parallel engine).
    #:
    #: ``None`` means the batch engine evaluates this node lane by lane
    #: through the ordinary :meth:`comb` (the scalar fallback).  Core node
    #: kinds override this with a ``staticmethod(ctx)`` that advances every
    #: lane of a batch at once: ``ctx`` is a
    #: :class:`repro.sim.batch.BatchNodeCtx` exposing the per-lane node
    #: instances, the :class:`~repro.elastic.channel.BatchChannelState` of
    #: each port, and bit-mask drive helpers.  A kernel must implement
    #: exactly the per-lane semantics of :meth:`comb` (same monotone Kleene
    #: logic, same signals driven) — the differential batch tests pin the
    #: two against each other.
    #:
    #: Kernels do **not** blindly inherit: a subclass that overrides
    #: :meth:`comb` without defining its own ``batch_comb`` falls back to
    #: per-lane scalar evaluation (see
    #: :func:`repro.sim.batch.resolve_batch_kernel`), since the inherited
    #: kernel would lane-parallelize the *ancestor's* semantics.
    batch_comb = None

    #: True for node kinds that *register* tokens — a clock boundary on the
    #: token-flow path (elastic buffers, variable-latency stations, FIFOs).
    #: The static-analysis rules of :mod:`repro.lint` use this to decide
    #: which nodes break a combinational cycle and where bubbles/tokens can
    #: live on an elastic loop; kinds setting it True should expose
    #: ``count`` (current token occupancy, possibly signed) and
    #: ``capacity`` (token slots).
    registers_tokens = False

    def __init__(self, name):
        self.name = name
        self.in_ports = []        # ordered token-input port names
        self.out_ports = []       # ordered token-output port names
        self._channels = {}       # port name -> Channel (set by the netlist)

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"

    # -- port declaration ---------------------------------------------------

    def add_in(self, port):
        self.in_ports.append(port)

    def add_out(self, port):
        self.out_ports.append(port)

    @property
    def ports(self):
        return list(self.in_ports) + list(self.out_ports)

    def role_of(self, port):
        if port in self.in_ports:
            return PortRole.IN
        if port in self.out_ports:
            return PortRole.OUT
        raise KeyError(f"{self} has no port {port!r}")

    # -- wiring (used by the netlist container) ------------------------------

    def bind(self, port, channel):
        self._channels[port] = channel

    def channel(self, port):
        return self._channels[port]

    def st(self, port):
        """The :class:`ChannelState` seen at ``port``."""
        return self._channels[port].state

    def drive(self, port, signal, value):
        """Monotonically drive ``signal`` on the channel at ``port``.

        Returns True when the write changed the signal (fix-point progress).
        """
        ch = self._channels[port]
        return ch.state.set(signal, value, ch.name)

    def ev(self, port):
        """Resolved :class:`ChannelEvents` at ``port`` (tick time only)."""
        return self._channels[port].events()

    # -- static sensitivity (worklist engine) ---------------------------------

    def comb_reads(self):
        """``(port, signal)`` pairs :meth:`comb` may *read*.

        The worklist engine re-evaluates a node only when one of these
        signals changes, so the default is deliberately conservative: every
        signal the opposite endpoint may drive, on every port (a consumer
        port reads ``vp``/``sm``/``data``, a producer port reads
        ``sp``/``vm``).  Subclasses whose combinational function reads less
        — elastic buffers and environments drive purely from sequential
        state, for instance — override this to narrow the set; subclasses
        must never read a channel signal outside the set they declare.
        """
        reads = []
        for port in self.in_ports:
            for sig in SIGNALS_BY_ROLE[PRODUCER]:
                reads.append((port, sig))
        for port in self.out_ports:
            for sig in SIGNALS_BY_ROLE[CONSUMER]:
                reads.append((port, sig))
        return reads

    def comb_writes(self):
        """``(port, signal)`` pairs :meth:`comb` may *drive*.

        Derived from port roles: a consumer port drives ``sp``/``vm``, a
        producer port drives ``vp``/``sm``/``data``.  This is exactly what
        :meth:`drive` permits, so there is rarely a reason to override it.
        """
        writes = []
        for port in self.in_ports:
            for sig in SIGNALS_BY_ROLE[CONSUMER]:
                writes.append((port, sig))
        for port in self.out_ports:
            for sig in SIGNALS_BY_ROLE[PRODUCER]:
                writes.append((port, sig))
        return writes

    # -- simulation interface -------------------------------------------------

    def reset(self):
        """Reset sequential state.  Default: stateless."""

    def pre_cycle(self):
        """Hook called once per cycle, before the combinational fix-point.

        Environments use it to freeze their randomized / nondeterministic
        choices so that repeated ``comb`` evaluations stay consistent.
        """

    def comb(self):
        """Drive combinational outputs (monotone, Kleene).  Returns True when
        any signal changed."""
        return False

    def tick(self):
        """Clock edge: update sequential state from resolved channels."""

    # -- model checking interface ----------------------------------------------

    def snapshot(self):
        """Hashable snapshot of the sequential state.

        Contract: one simulation step must be a deterministic function of
        (snapshot, choice vector) — every piece of state that influences
        a cycle belongs here, and every nondeterministic alternative must
        come through :meth:`choice_space` / :meth:`set_choice`.  The model
        checker memoizes a snapshot's successors and clones snapshots
        into batch lanes on that basis.  Nodes that draw from a seeded RNG
        outside nondet mode (``ListSource`` / ``FunctionSource`` with
        ``0 < rate < 1``, ``Sink`` / ``KillerSink`` with a stall or kill
        rate strictly between 0 and 1, ``RandomScheduler``,
        chaos saboteurs with ``nondet=False``) break it and are not
        explorable; ``StateCorruptor`` keeps it, since its mask is a
        function of the snapshotted ``_idx``.

        Prefer nested tuples of ints / bools / strings / ``None``: the
        model checker's state index stores a canonical ``marshal``-based
        byte encoding of these (see :mod:`repro.verif.encoding`) instead
        of the raw tuples; exotic value types force it back to plain
        tuple keys for the whole state.
        """
        return ()

    def restore(self, state):
        """Restore a state produced by :meth:`snapshot`."""

    # -- nondeterminism (environments override) ---------------------------------

    def choice_space(self):
        """Number of nondeterministic alternatives this cycle (1 = none)."""
        return 1

    def set_choice(self, choice):
        """Select one alternative before combinational evaluation."""

    # -- performance models -----------------------------------------------------

    def area(self, tech):
        """Area estimate in library units (controller + datapath)."""
        return 0.0

    def timing_arcs(self, tech):
        """Combinational timing arcs as ``(from_port, to_port, delay)``.

        ``from_port``/``to_port`` name ports of this node; an arc means a
        combinational path from the data/control arriving at ``from_port``
        to the data/control leaving at ``to_port``.  Sequential elements
        (elastic buffers) return no data arcs, which is what breaks cycles.
        """
        return []
