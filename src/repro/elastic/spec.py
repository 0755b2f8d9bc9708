"""Comb specs: one declarative description of a node kind's combinational
function, from which the engines derive their own copies.

A node kind's :meth:`~repro.elastic.node.Node.comb` is the reference
semantics — the naive and worklist engines run it as written.  The batch
engine, the codegen engine and the worklist sensitivity map each need the
same function in another shape: a bit-packed lane kernel, straight-line
signal tasks and a read set.  Instead of writing those by hand, a node kind
describes its ``comb()`` once as a :class:`CombSpec` (returned by its
``comb_spec()`` method) and three lowerings generate the rest:

* **read sets** — :attr:`CombSpec.reads`, the spec's free port signals,
  is what :meth:`Node.comb_reads` returns (here);
* **batch kernel** — :func:`repro.sim.batch.batch_kernel` compiles the
  spec into a mask kernel over :class:`~repro.sim.batch.BatchNodeCtx`;
* **codegen tasks** — :mod:`repro.backend.pysim` groups the output
  signals into tasks by read set and emits two-valued straight-line code.

Terms
-----

A spec maps every signal ``comb()`` drives to a Kleene term:

* ``sig(port, signal)`` — a channel signal the node reads;
* ``state(name)`` — a named **state term**: a Python boolean expression
  over ``self`` (the node's registered state and parameters), listed in
  :attr:`CombSpec.state`.  State terms are constant within a cycle once
  ``pre_cycle`` has run, so every lowering evaluates them once per cycle
  and treats them as known;
* ``TRUE`` / ``FALSE`` and the strong-Kleene ``and_`` / ``or_`` /
  ``not_`` / ``ite`` over terms (with the constant folding of
  :mod:`repro.kleene`'s truth tables);
* ``case(port, arms)`` — a **data-indexed** term: the arm indexed by the
  data ``port`` carries.  It is False while ``port``'s ``vp`` is False,
  unknown while ``vp`` is unknown or True with unknown data, and raises
  :class:`~repro.errors.SchedulerError` (:func:`select_index`) whenever
  ``vp`` is True and the data is not an int in ``range(len(arms))`` —
  the early-evaluation mux's select.

Data outputs are **guarded**: ``(guard, value)`` drives the port's data
in a cycle where the Kleene guard is True and every argument of the value
is known.  A value is a state expression (:func:`value`), a port's data
(:func:`data`), a method call on port data (:func:`call`, e.g. a
``Func``'s ``fn``) or a ``case(port, values)`` picking one of several
values by ``port``'s data (known only while ``port``'s ``vp`` is True),
e.g. the mux's ``data(i{sel})``.

A spec is built from one node but cached per (class, ports) and reused
for every node of that shape, so it may depend on the node's ports only —
parameters (capacities, rates) belong inside state expressions, which
read them at run time.

Trust
-----

:func:`own_hook` is the one trust rule of the derived copies: a spec or
tick emitter counts only if it is defined at or below the class that
defines ``comb`` (or ``tick``).  A subclass that overrides
``comb`` without a spec of its own therefore falls back to the engines'
scalar paths and to the conservative role-derived read set, instead of
running its ancestor's semantics.
"""

from __future__ import annotations

from repro.errors import SchedulerError

# -- terms --------------------------------------------------------------------
#
# Terms are plain tuples, so they hash and compare structurally:
# ("sig", port, signal), ("state", name), ("const", bool), ("not", a),
# ("and", a, b), ("or", a, b), ("ite", c, t, f), ("case", port, arms).

TRUE = ("const", True)
FALSE = ("const", False)


def sig(port, signal):
    """The channel signal ``signal`` seen at ``port``."""
    return ("sig", port, signal)


def state(name):
    """The state term ``name`` of the enclosing :class:`CombSpec`."""
    return ("state", name)


def not_(a):
    """Kleene NOT."""
    if a[0] == "const":
        return FALSE if a[1] else TRUE
    if a[0] == "not":
        return a[1]
    return ("not", a)


def _and2(a, b):
    if a == FALSE or b == FALSE:
        return FALSE
    if a == TRUE:
        return b
    if b == TRUE:
        return a
    return ("and", a, b)


def _or2(a, b):
    if a == TRUE or b == TRUE:
        return TRUE
    if a == FALSE:
        return b
    if b == FALSE:
        return a
    return ("or", a, b)


def and_(*terms):
    """Kleene AND (folded left; ``and_()`` is ``TRUE``)."""
    result = TRUE
    for t in terms:
        result = _and2(result, t)
    return result


def or_(*terms):
    """Kleene OR (folded left; ``or_()`` is ``FALSE``)."""
    result = FALSE
    for t in terms:
        result = _or2(result, t)
    return result


def ite(c, t, f):
    """Kleene if-then-else (:func:`repro.kleene.kite`)."""
    if c[0] == "const":
        return t if c[1] else f
    if t == f:
        return t
    if t == TRUE and f == FALSE:
        return c
    if t == FALSE and f == TRUE:
        return not_(c)
    return ("ite", c, t, f)


def case(port, arms):
    """The arm indexed by ``port``'s data: a term when ``arms`` are terms,
    a data value when they are values (see the module docstring)."""
    return ("case", port, tuple(arms))


def select_index(node, sel, n):
    """``sel`` as an index into ``n`` case arms, or
    :class:`~repro.errors.SchedulerError` when it is not an int in range."""
    if isinstance(sel, int) and 0 <= sel < n:
        return sel
    raise SchedulerError(
        f"{type(node).__name__} {node.name}: select value {sel!r} out of "
        f"range 0..{n - 1}"
    )


# -- data values ----------------------------------------------------------------


def value(expr):
    """A data value computed from registered state (``self._value``)."""
    return ("value", expr)


def data(port):
    """The data carried by ``port``'s channel."""
    return ("data", port)


def call(method, *ports):
    """``self.<method>(data of ports...)``, e.g. ``call("fn", "i0", "i1")``."""
    return ("call", method, tuple(ports))


def value_ports(val):
    """Ports whose data a ``data``/``call``/``value`` value needs (all must
    be known to drive it); a ``case`` value needs its selected arm's."""
    if val[0] == "data":
        return (val[1],)
    if val[0] == "call":
        return val[2]
    return ()


def _leaves(node, op, out):
    """Append the distinct ``op`` leaves of a term or data value to
    ``out``: ``(port, signal)`` pairs for ``"sig"``, names for
    ``"state"``."""
    tag = node[0]
    if tag == op:
        leaf = node[1:] if op == "sig" else node[1]
        if leaf not in out:
            out.append(leaf)
    elif tag == "case":
        for sub in (sig(node[1], "vp"), sig(node[1], "data")) + node[2]:
            _leaves(sub, op, out)
    elif tag in ("data", "call"):
        for port in value_ports(node):
            _leaves(sig(port, "data"), op, out)
    elif tag in ("not", "and", "or", "ite"):
        for sub in node[1:]:
            _leaves(sub, op, out)
    return out


class CombSpec:
    """The combinational function of one node shape.

    ``state`` maps state-term names to Python boolean expressions over
    ``self``; ``signals`` maps each driven control signal ``(port, sig)``
    to its term; ``data`` maps an output port to its ``(guard, value)``.
    """

    __slots__ = ("state", "signals", "data", "reads")

    def __init__(self, signals, state=None, data=None):
        self.state = dict(state or {})
        self.signals = dict(signals)
        self.data = dict(data or {})
        reads = []
        for port, signal in self.outputs():
            for name in _leaves(self.output_term(port, signal), "state", []):
                if name not in self.state:
                    raise ValueError(f"comb spec uses undeclared state {name!r}")
            for pair in self.output_reads(port, signal):
                if pair not in reads:
                    reads.append(pair)
        self.reads = tuple(reads)

    def outputs(self):
        """Every driven ``(port, signal)``, data outputs last."""
        return list(self.signals) + [(port, "data") for port in self.data]

    def output_term(self, port, signal):
        """The term of a control output, or the guard of a data output."""
        if signal == "data":
            return self.data[port][0]
        return self.signals[(port, signal)]

    def output_reads(self, port, signal):
        """Free port signals of one output (a data output also reads its
        guard and the data of every value argument)."""
        reads = _leaves(self.output_term(port, signal), "sig", [])
        if signal == "data":
            _leaves(self.data[port][1], "sig", reads)
        return tuple(reads)


# -- trust and caching ------------------------------------------------------------


def own_hook(cls, attr, anchor="comb"):
    """``cls.<attr>`` when it is defined at or below the class defining
    ``anchor`` in ``cls``'s MRO, else ``None``.

    This is the one trust rule for every derived copy of a node's
    semantics: comb specs are anchored at ``comb``, tick emitters at
    ``tick``.  An inherited copy would
    reproduce the *ancestor's* method, not the subclass override.
    """
    hook = getattr(cls, attr, None)
    if hook is None:
        return None
    mro = cls.__mro__
    hook_definer = next(k for k in mro if attr in k.__dict__)
    anchor_definer = next(k for k in mro if anchor in k.__dict__)
    if mro.index(hook_definer) <= mro.index(anchor_definer):
        return hook
    return None


_SPECS = {}


def spec_for(node):
    """The trusted :class:`CombSpec` of ``node``'s shape, or ``None``.

    Built once per (class, in-ports, out-ports) and cached, so every
    lowering keyed by the returned object is computed once per shape.
    """
    key = (type(node), tuple(node.in_ports), tuple(node.out_ports))
    try:
        return _SPECS[key]
    except KeyError:
        pass
    builder = own_hook(type(node), "comb_spec")
    spec = builder(node) if builder is not None else None
    _SPECS[key] = spec
    return spec
