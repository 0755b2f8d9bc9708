"""Comb specs: the one description of a node kind's combinational function
that the read sets, the batch kernels and the codegen signal tasks are
derived from (:mod:`repro.elastic.spec`).

* The derived read sets are pinned to the hand-written declarations they
  replaced, written out as literals, so the worklist sensitivity maps,
  ``comb_calls_per_cycle`` and the topology signatures stay unchanged.
* Every spec is checked against its kind's scalar ``comb()`` — the
  reference semantics — over every three-valued assignment of the signals
  it reads, in several sequential states.
* ``comb()`` is pure within a cycle for every spec'd kind: calling it
  twice leaves the node's snapshot and the driven signals unchanged
  (sources latch their offer in ``pre_cycle``).
"""

import itertools
import random
from collections import deque

import pytest

from repro.chaos.saboteurs import BubbleInjector, StallInjector, StateCorruptor
from repro.core.scheduler import StaticScheduler, ToggleScheduler
from repro.core.shared import SharedModule
from repro.elastic.buffers import ElasticBuffer, ZeroBackwardLatencyBuffer
from repro.elastic.channel import Channel, ALL_SIGNALS
from repro.elastic.eemux import EarlyEvalMux
from repro.elastic.environment import (
    FunctionSource,
    KillerSink,
    ListSource,
    NondetChoiceSource,
    NondetSink,
    NondetSource,
    Sink,
)
from repro.elastic.fifo_model import AbstractElasticFifo
from repro.elastic.fork import EagerFork
from repro.elastic.functional import Func
from repro.elastic.spec import spec_for, value_ports
from repro.elastic.varlat import VariableLatencyUnit
from repro.errors import SchedulerError
from repro.kleene import kand, kite, knot, kor
from repro.netlist import patterns
from repro.netlist.graph import Netlist
from repro.sim.engine import Simulator
from repro.sim.stats import TransferLog


def _plus(*args):
    return sum(args) + 1


def _shared(k):
    return SharedModule("n", _plus, ToggleScheduler(k), n_channels=k)


# -- read sets: the parent's hand-written declarations, as literals -------------

IO_ALL = {("i", "vp"), ("i", "data"), ("i", "sm"), ("o", "sp"), ("o", "vm")}

DECLARED_READS = [
    (lambda: ElasticBuffer("n"), set()),
    (lambda: ZeroBackwardLatencyBuffer("n"),
     {("o", "sp"), ("o", "vm"), ("i", "sm")}),
    (lambda: Func("n", _plus, n_inputs=1),
     {("o", "sp"), ("i0", "vp"), ("i0", "data")}),
    (lambda: Func("n", _plus, n_inputs=2),
     {("o", "sp"), ("i0", "vp"), ("i0", "data"), ("i1", "vp"),
      ("i1", "data")}),
    (lambda: Func("n", _plus, n_inputs=3),
     {("o", "sp"), ("i0", "vp"), ("i0", "data"), ("i1", "vp"),
      ("i1", "data"), ("i2", "vp"), ("i2", "data")}),
    (lambda: EagerFork("n", n_outputs=2),
     {("i", "vp"), ("i", "data"), ("o0", "sp"), ("o1", "sp")}),
    (lambda: EagerFork("n", n_outputs=3),
     {("i", "vp"), ("i", "data"), ("o0", "sp"), ("o1", "sp"), ("o2", "sp")}),
    (lambda: ListSource("n", [1, 2]), set()),
    (lambda: FunctionSource("n", _plus), set()),
    (lambda: Sink("n"), set()),
    (lambda: KillerSink("n"), set()),
    (lambda: NondetSource("n"), set()),
    (lambda: NondetChoiceSource("n"), set()),
    (lambda: NondetSink("n", can_kill=True), set()),
    (lambda: StallInjector("n"), IO_ALL),
    (lambda: BubbleInjector("n"), {("o", "sp"), ("o", "vm"), ("i", "sm")}),
    (lambda: StateCorruptor("n"), IO_ALL),
    (lambda: _shared(2),
     {("i0", "vp"), ("i0", "data"), ("i0", "sm"), ("o0", "vm"), ("o0", "sp"),
      ("i1", "vp"), ("i1", "data"), ("i1", "sm"), ("o1", "vm"),
      ("o1", "sp")}),
    (lambda: _shared(3),
     {("i0", "vp"), ("i0", "data"), ("i0", "sm"), ("o0", "vm"), ("o0", "sp"),
      ("i1", "vp"), ("i1", "data"), ("i1", "sm"), ("o1", "vm"), ("o1", "sp"),
      ("i2", "vp"), ("i2", "data"), ("i2", "sm"), ("o2", "vm"),
      ("o2", "sp")}),
    (lambda: VariableLatencyUnit("n", _plus, lambda v: v > 3), set()),
    (lambda: EarlyEvalMux("n", n_inputs=2),
     {("s", "vp"), ("s", "data"), ("o", "sp"), ("i0", "vp"), ("i0", "data"),
      ("i1", "vp"), ("i1", "data")}),
    (lambda: EarlyEvalMux("n", n_inputs=3),
     {("s", "vp"), ("s", "data"), ("o", "sp"), ("i0", "vp"), ("i0", "data"),
      ("i1", "vp"), ("i1", "data"), ("i2", "vp"), ("i2", "data")}),
    (lambda: AbstractElasticFifo("n"), set()),
]


def _label(entry):
    node = entry[0]()
    return f"{type(node).__name__}{len(node.ports)}"


@pytest.mark.parametrize("make,declared", DECLARED_READS,
                         ids=[_label(e) for e in DECLARED_READS])
def test_read_set_equals_declaration(make, declared):
    node = make()
    assert spec_for(node) is not None
    assert set(node.comb_reads()) == declared
    assert len(node.comb_reads()) == len(declared)


def test_comb_override_falls_back_to_role_reads():
    class Override(ZeroBackwardLatencyBuffer):
        def comb(self):
            return super().comb()

    node = Override("n")
    assert spec_for(node) is None
    assert set(node.comb_reads()) == {("i", "vp"), ("i", "sm"), ("i", "data"),
                                      ("o", "sp"), ("o", "vm")}


# -- every spec agrees with its comb() over all Kleene inputs -------------------


_CODE = {}


def _state(expr, node):
    code = _CODE.get(expr)
    if code is None:
        code = _CODE[expr] = compile(expr, "<state>", "eval")
    return bool(eval(code, {}, {"self": node}))


def _eval(spec, term, node, env, memo=None):
    """Kleene value of ``term`` (``memo``: values of the shared subterm
    objects already evaluated under ``env``, by id)."""
    if memo is not None and id(term) in memo:
        return memo[id(term)]
    op = term[0]
    if op == "const":
        return term[1]
    if op == "state":
        return _state(spec.state[term[1]], node)
    if op == "sig":
        return env.get((term[1], term[2]))
    if op == "case":
        arms = [_eval(spec, t, node, env, memo) for t in term[2]]
        sel = _select(term[1], len(arms), node, env)
        result = False if sel == -1 else None if sel is None else arms[sel]
    else:
        args = [_eval(spec, t, node, env, memo) for t in term[1:]]
        if op == "not":
            result = knot(args[0])
        elif op == "and":
            result = kand(*args)
        elif op == "or":
            result = kor(*args)
        else:
            result = kite(*args)
    if memo is not None:
        memo[id(term)] = result
    return result


def _select(port, n, node, env):
    """A case's arm index: -1 while ``port`` is absent, None while it is
    unknown; an invalid select raises as ``EarlyEvalMux.comb`` does."""
    vp, sel = env.get((port, "vp")), env.get((port, "data"))
    if vp is not True:
        return None if vp is None else -1
    if sel is not None and (not isinstance(sel, int) or not 0 <= sel < n):
        raise SchedulerError(f"{node.name}: select {sel!r}")
    return sel


def _value(spec, val, node, env):
    if val[0] == "case":
        sel = _select(val[1], len(val[2]), node, env)
        if sel is None or sel == -1:
            return None
        return _value(spec, val[2][sel], node, env)
    args = [env.get((arg, "data")) for arg in value_ports(val)]
    if None in args:
        return None
    if val[0] == "data":
        return args[0]
    if val[0] == "call":
        return getattr(node, val[1])(*args)
    return eval(val[1], {}, {"self": node})


def _evaluate_spec(spec, node, env):
    memo = {}
    drives = {key: _eval(spec, term, node, env, memo)
              for key, term in spec.signals.items()}
    for port, (guard, val) in spec.data.items():
        result = None
        if _eval(spec, guard, node, env, memo) is True:
            result = _value(spec, val, node, env)
        drives[(port, "data")] = result
    return drives


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except SchedulerError:
        return SchedulerError


def _comb_drives(node, env):
    channels = {}
    for port in node.ports:
        channels[port] = Channel(f"c_{port}")
        node.bind(port, channels[port])
    for (port, signal), val in env.items():
        setattr(channels[port].state, signal, val)
    node.comb()
    return {(port, signal): getattr(channels[port].state, signal)
            for port, signal in node.comb_writes()}


#: (factory, sequential states to check in: attribute assignments)
STATES = [
    (lambda: ElasticBuffer("n", capacity=2, anti_capacity=1),
     [dict(_wr=w, _rd=r, _store={k: 10 + k for k in range(r, w)})
      for w, r in [(0, 0), (1, 0), (2, 0), (0, 1), (3, 2)]]),
    (lambda: ZeroBackwardLatencyBuffer("n"),
     [dict(_full=False, _value=None), dict(_full=True, _value=5)]),
    (lambda: Func("n", _plus, n_inputs=2, max_kills=2),
     [dict(_pk=[a, b]) for a in range(3) for b in range(3)]),
    (lambda: EagerFork("n", n_outputs=2, max_kills=1),
     [dict(_done=[d0, d1], _pk=[k0, k1])
      for d0 in (False, True) for d1 in (False, True)
      for k0 in (0, 1) for k1 in (0, 1)]),
    (lambda: ListSource("n", [1, 2]),
     [dict(_offering=o, _value=v) for o, v in [(False, None), (True, 3)]]),
    (lambda: Sink("n"), [dict(_stall_now=s) for s in (False, True)]),
    (lambda: KillerSink("n"),
     [dict(_killing=k, _stall_now=s) for k in (False, True)
      for s in (False, True)]),
    (lambda: NondetSource("n"),
     [dict(_offering=o, _counter=2) for o in (False, True)]),
    (lambda: NondetChoiceSource("n"),
     [dict(_offering=o, _value=1) for o in (False, True)]),
    (lambda: NondetSink("n", can_kill=True),
     [dict(_killing=k, _choice=c) for k in (False, True) for c in range(3)]),
    (lambda: StallInjector("n"), [dict(_stall_now=s) for s in (False, True)]),
    (lambda: BubbleInjector("n"),
     [dict(_full=f, _bubble_now=b and f, _value=4) for f in (False, True)
      for b in (False, True)]),
    (lambda: StateCorruptor("n", rate=1.0, seed=3),
     [dict(_idx=i) for i in range(3)]),
    (lambda: _shared(2),
     [dict(scheduler=StaticScheduler(2, favourite=g)) for g in (0, 1)]),
    (lambda: VariableLatencyUnit("n", _plus, lambda v: v > 3),
     [dict(_q=deque([list(slot) for slot in q]))
      for q in [(), ((5, 0),), ((5, 1),), ((5, 0), (6, 0)),
                ((5, 1), (6, 0))]]),
    (lambda: EarlyEvalMux("n", n_inputs=2, max_kills=2),
     [dict(_pk=[a, b], _pko=o) for a in (0, 1) for b in (0, 2)
      for o in (0, 1, 2)]),
    (lambda: EarlyEvalMux("n", n_inputs=3, max_kills=1),
     [dict(_pk=[0, 0, 0], _pko=0), dict(_pk=[1, 0, 1], _pko=1)]),
    (lambda: AbstractElasticFifo("n", max_occupancy=2),
     [dict(_wr=w, _rd=r, _store={k: 10 + k for k in range(r, w)},
           _retry_plus=rp, _retry_minus=rm, _choice=c)
      for w, r in [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]
      for rp, rm in [(False, False), (True, False), (False, True)]
      for c in range(4)]),
]


def _domain(node, port, sig):
    """Values tried for one read: the three Kleene values for a control,
    unknown or a token for data — and for a mux select every arm index
    plus one out of range, which both ``comb()`` and the spec raise on."""
    if sig != "data":
        return (None, False, True)
    if isinstance(node, EarlyEvalMux) and port == "s":
        return (None, *range(node.n_inputs + 1))
    return (None, 7)


@pytest.mark.parametrize("make,states", STATES,
                         ids=[type(e[0]()).__name__ for e in STATES])
def test_spec_matches_comb_on_every_kleene_input(make, states):
    node = make()
    spec = spec_for(node)
    reads = list(node.comb_reads())
    domains = [_domain(node, port, sig) for port, sig in reads]
    checked = 0
    for attrs in states:
        for name, val in attrs.items():
            setattr(node, name, val)
        for values in itertools.product(*domains):
            env = dict(zip(reads, values))
            assert _outcome(_evaluate_spec, spec, node, env) == \
                _outcome(_comb_drives, node, env), (attrs, env)
            checked += 1
    assert checked >= len(states)


# -- comb() is pure within a cycle -------------------------------------------------


def _port_signals(node):
    return [tuple(getattr(node.st(port), s) for s in ALL_SIGNALS)
            for port in node.ports]


def _check_comb_twice(node):
    """Wrap ``node.comb`` so every engine call runs it twice and asserts
    the second call changes nothing: not the snapshot, not a signal."""
    real = node.comb
    calls = []

    def comb():
        before = node.snapshot()
        changed = real()
        driven = _port_signals(node)
        assert not real(), f"{node.name}: second comb() drove new signals"
        assert _port_signals(node) == driven
        assert node.snapshot() == before, f"{node.name}: comb() changed state"
        calls.append(1)
        return changed

    node.comb = comb
    return calls


def _scalar_design():
    net = Netlist("pure")
    net.add(ListSource("src", list(range(30)), rate=0.5, seed=4))
    net.add(StallInjector("stall", rate=0.3, seed=1))
    net.add(ElasticBuffer("eb"))
    net.add(BubbleInjector("bubble", rate=0.3, seed=2))
    net.add(ZeroBackwardLatencyBuffer("zbl"))
    net.add(EagerFork("fork"))
    net.add(StateCorruptor("corrupt", rate=0.5, seed=3))
    net.add(Func("join", _plus, n_inputs=2))
    net.add(KillerSink("ksnk", kill_rate=0.15, stall_rate=0.2, seed=5))
    net.add(FunctionSource("fsrc", lambda i: i * i, rate=0.5, seed=6))
    net.add(Sink("snk", stall_rate=0.3, seed=7))
    net.connect("src.o", "stall.i")
    net.connect("stall.o", "eb.i")
    net.connect("eb.o", "bubble.i")
    net.connect("bubble.o", "zbl.i")
    net.connect("zbl.o", "fork.i")
    net.connect("fork.o0", "join.i0")
    net.connect("fork.o1", "corrupt.i")
    net.connect("corrupt.o", "join.i1")
    net.connect("join.o", "ksnk.i")
    net.connect("fsrc.o", "snk.i")
    return net


def _nondet_design():
    net = Netlist("pure_nondet")
    net.add(NondetSource("nsrc"))
    net.add(ElasticBuffer("eb"))
    net.add(NondetSink("nsnk", can_kill=True))
    net.add(NondetChoiceSource("sel", n_values=3))
    net.add(Sink("snk"))
    net.connect("nsrc.o", "eb.i")
    net.connect("eb.o", "nsnk.i")
    net.connect("sel.o", "snk.i")
    return net


def _speculative_design():
    from repro.core.scheduler import NondetScheduler

    return patterns.speculative_mc(NondetScheduler(2), n_zbl=1,
                                   can_kill_sink=True)[0]


def _fifo_design():
    net = Netlist("pure_fifo")
    net.add(NondetSource("nsrc"))
    net.add(AbstractElasticFifo("fifo", max_occupancy=2))
    net.add(NondetSink("nsnk", can_kill=True))
    net.connect("nsrc.o", "fifo.i")
    net.connect("fifo.o", "nsnk.i")
    return net


def _varlat_design():
    from repro.netlist.varlat import variable_latency_stalling

    return variable_latency_stalling(seed=2)[0]


#: designs stepped with random nondeterministic choices
_NONDET_DESIGNS = (_nondet_design, _speculative_design, _fifo_design)

PURITY_CASES = {
    "ElasticBuffer": (_scalar_design, "eb"),
    "ZeroBackwardLatencyBuffer": (_scalar_design, "zbl"),
    "Func": (_scalar_design, "join"),
    "EagerFork": (_scalar_design, "fork"),
    "ListSource": (_scalar_design, "src"),
    "FunctionSource": (_scalar_design, "fsrc"),
    "Sink": (_scalar_design, "snk"),
    "KillerSink": (_scalar_design, "ksnk"),
    "NondetSource": (_nondet_design, "nsrc"),
    "NondetChoiceSource": (_nondet_design, "sel"),
    "NondetSink": (_nondet_design, "nsnk"),
    "StallInjector": (_scalar_design, "stall"),
    "BubbleInjector": (_scalar_design, "bubble"),
    "StateCorruptor": (_scalar_design, "corrupt"),
    "SharedModule": (_speculative_design, "sh"),
    "EarlyEvalMux": (_speculative_design, "mux"),
    "VariableLatencyUnit": (_varlat_design, "vl"),
    "AbstractElasticFifo": (_fifo_design, "fifo"),
}


@pytest.mark.parametrize("kind", sorted(PURITY_CASES))
def test_comb_twice_leaves_state_and_signals_unchanged(kind):
    build, name = PURITY_CASES[kind]
    net = build()
    assert type(net.nodes[name]).__name__ == kind
    calls = _check_comb_twice(net.nodes[name])
    sim = Simulator(net, engine="worklist")
    rng = random.Random(11)
    for _ in range(60):
        if build in _NONDET_DESIGNS:
            choices = {node.name: rng.randrange(node.choice_space())
                       for node in net.nodes.values()}
            sim.step_with_choices(choices)
        else:
            sim.step()
    assert len(calls) >= 60


# -- sources with rate < 1: same streams on every engine as before -------------


def _rate_design():
    net = Netlist("rate")
    net.add(ListSource("src", list(range(12)), rate=0.5, seed=5))
    net.add(ElasticBuffer("eb"))
    net.add(Func("inc", _plus, n_inputs=1))
    net.add(Sink("snk", stall_rate=0.25, seed=2))
    net.add(FunctionSource("fsrc", lambda i: i * i, rate=0.5, seed=9,
                           limit=10))
    net.add(ZeroBackwardLatencyBuffer("zbl"))
    net.add(Sink("fsnk", stall_rate=0.25, seed=3))
    net.connect("src.o", "eb.i", name="a")
    net.connect("eb.o", "inc.i0", name="b")
    net.connect("inc.o", "snk.i", name="c")
    net.connect("fsrc.o", "zbl.i", name="d")
    net.connect("zbl.o", "fsnk.i", name="e")
    return net


#: forward-transfer streams (cycle, value) of ``_rate_design`` over 40
#: cycles, recorded before sources latched their offers in ``pre_cycle``.
RATE_STREAMS = {
    "a": [(6, 0), (7, 1), (11, 2), (12, 3), (13, 4), (16, 5), (17, 6),
          (18, 7), (21, 8), (23, 9), (25, 10), (26, 11)],
    "b": [(7, 0), (8, 1), (12, 2), (13, 3), (14, 4), (17, 5), (18, 6),
          (19, 7), (22, 8), (24, 9), (26, 10), (27, 11)],
    "c": [(7, 1), (8, 2), (12, 3), (13, 4), (14, 5), (17, 6), (18, 7),
          (19, 8), (22, 9), (24, 10), (26, 11), (27, 12)],
    "d": [(0, 0), (1, 1), (2, 4), (4, 9), (7, 16), (10, 25), (11, 36),
          (13, 49), (15, 64), (16, 81)],
    "e": [(1, 0), (2, 1), (3, 4), (7, 9), (8, 16), (11, 25), (12, 36),
          (14, 49), (16, 64), (17, 81)],
}


@pytest.mark.parametrize("engine", ["naive", "worklist", "batch", "codegen"])
def test_rate_limited_source_streams_unchanged(engine):
    net = _rate_design()
    log = TransferLog(list(net.channels))
    Simulator(net, engine=engine, observers=[log]).run(40)
    assert log.streams == RATE_STREAMS
