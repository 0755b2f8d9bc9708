"""Analytical throughput of plain elastic designs: minimum cycle ratio.

A plain elastic network (no early evaluation) behaves as a *marked graph*;
its steady-state throughput is limited by the worst cycle:

    throughput = min over directed cycles C of  tokens(C) / latency(C)

capped at 1 transfer/cycle.  Each elastic buffer contributes a forward edge
(latency ``Lf``, marking = its tokens) and a backward edge (latency ``Lb``,
marking = capacity - tokens); the backward edges express finite capacity —
they are why a capacity-1 buffer (``C < Lf + Lb``) halves throughput, and
why the Figure 1(b) bubble-in-a-one-token-loop yields exactly 1/2.

The minimum is found without enumerating cycles: Dinkelbach's parametric
search (Dasdan, TODAES 2004) asks one Bellman–Ford negative-cycle question
per candidate ratio (:func:`repro.graphalg.negative_cycle`) and moves to
the ratio of each cycle it finds, so the answer stays an exact
:class:`~fractions.Fraction` in polynomial time per step.

Early evaluation and speculation *break* the marked-graph abstraction (that
is the point of the paper); for those designs use simulation
(:mod:`repro.perf.throughput`).  :func:`marked_graph_throughput` refuses
early-evaluation designs unless ``force=True``.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

from repro.errors import NetlistError
from repro.graphalg import negative_cycle


def _cloud_edges(netlist):
    """Contract combinational regions into clouds; EBs become weighted edges.

    Clouds are formed over *channels*: two channels belong to the same
    cloud when a combinational (non-buffer) node connects them.  Each
    elastic buffer then contributes a forward edge (latency ``Lf``, marking
    = its tokens) from its input-channel cloud to its output-channel cloud,
    and a backward capacity edge (latency ``Lb``, marking = capacity -
    tokens).  Returns the multigraph as ``(u, v, tokens, latency)`` edges.
    """
    parent = {name: name for name in netlist.channels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    buffers = []
    for node in netlist.nodes.values():
        if node.kind in ("eb", "zbl_eb"):
            buffers.append(node)
            continue
        connected = [node.channel(p).name for p in node.ports if p in node._channels]
        for other in connected[1:]:
            union(connected[0], other)
    edges = []
    for eb in buffers:
        src_cloud = find(eb.channel("i").name)
        dst_cloud = find(eb.channel("o").name)
        tokens = max(eb.count, 0)
        anti = max(-eb.count, 0)
        lf = 1
        lb = 0 if eb.kind == "zbl_eb" else 1
        edges.append((src_cloud, dst_cloud, tokens - anti, lf))
        edges.append((dst_cloud, src_cloud, eb.capacity - tokens + anti, lb))
    return edges


def _has_early_eval(netlist):
    return any(node.kind in ("eemux", "shared") for node in netlist.nodes.values())


def min_cycle_ratio(netlist, force=False):
    """Minimum tokens/latency over all cycles, as a :class:`Fraction`,
    or ``None`` when the design has no cycles (throughput then 1.0).

    Raises on zero-latency cycles (combinational capacity loops) and on
    cycles with non-positive marking (structural deadlock)."""
    if _has_early_eval(netlist) and not force:
        raise NetlistError(
            "marked-graph analysis is not valid for early-evaluation / "
            "speculative designs; use simulation (pass force=True to override)"
        )
    return cycle_ratio(_cloud_edges(netlist))


def cycle_ratio(edges):
    """Minimum tokens/latency over the cycles of a multigraph given as
    ``(u, v, tokens, latency)`` edges (integer markings and latencies).

    Returns an exact :class:`Fraction`, or ``None`` when no cycle has
    positive latency.  Raises :class:`NetlistError` when some cycle holds
    no tokens (or a negative count).  Cycles are never enumerated: each
    step is one Bellman–Ford negative-cycle search.
    """
    nodes = list(dict.fromkeys(end for edge in edges for end in edge[:2]))
    out = {u: [] for u in nodes}
    for u, v, tokens, latency in edges:
        out[u].append((v, tokens, latency))

    def cycle_under(weight):
        """(tokens, latency) of some cycle negative under ``weight``."""
        succ = {u: [(v, weight(t, l)) for v, t, l in arcs]
                for u, arcs in out.items()}
        cycle = negative_cycle(nodes, succ)
        if cycle is None:
            return None
        hops = [out[u][i] for u, i in cycle]
        return sum(h[1] for h in hops), sum(h[2] for h in hops)

    # A simple cycle has at most len(nodes) edges, so it weighs below zero
    # under (len(nodes) + 1) * tokens - 1 exactly when its tokens are <= 0.
    scale = len(nodes) + 1
    starved = cycle_under(lambda t, _l: scale * t - 1)
    if starved is not None:
        tokens, latency = starved
        if latency == 0:
            raise NetlistError(
                "zero-latency cycle with no slack (combinational "
                "capacity loop)"
            )
        raise NetlistError(
            f"cycle with {tokens} tokens and latency {latency}: "
            "structural deadlock"
        )
    # Dinkelbach: every cycle now holds a token, so it weighs below zero
    # under q*tokens - p*latency exactly when it has latency and a ratio
    # below p/q.  Start above every ratio and drop to each cycle found
    # until none is left below.
    best = None
    ratio = Fraction(sum(max(t, 0) for _u, _v, t, _l in edges) + 1)
    while True:
        p, q = ratio.numerator, ratio.denominator
        found = cycle_under(lambda t, l: q * t - p * l)
        if found is None:
            return best
        best = ratio = Fraction(*found)


#: netlist -> (structural version, force flag, ratio) memo for
#: :func:`cached_min_cycle_ratio` (weak keys: dropping a netlist drops its
#: cache entry).
_MCR_CACHE = weakref.WeakKeyDictionary()


def cached_min_cycle_ratio(netlist, force=False):
    """:func:`min_cycle_ratio` memoized on the netlist's structural
    ``version``.

    The session-attached analysis mode of the transform loop: the ratio
    search is only redone after an actual structural edit, so
    repeated scoring of an unchanged design point (or pure undo/redo
    round-trips back to a cached version... which still bumps the version,
    and therefore recomputes — the memo is per *current* version only) is
    free.  Token-marking changes without structural edits are not detected;
    use :func:`min_cycle_ratio` directly when mutating markings in place.
    """
    version = netlist.version
    entry = _MCR_CACHE.get(netlist)
    if entry is not None and entry[0] == version and entry[1] == force:
        return entry[2]
    ratio = min_cycle_ratio(netlist, force=force)
    _MCR_CACHE[netlist] = (version, force, ratio)
    return ratio


def marked_graph_throughput(netlist, force=False, cached=False):
    """Analytical steady-state throughput in transfers/cycle (<= 1.0).

    ``cached=True`` memoizes the minimum cycle ratio on the netlist's
    structural version (see :func:`cached_min_cycle_ratio`).
    """
    if cached:
        ratio = cached_min_cycle_ratio(netlist, force=force)
    else:
        ratio = min_cycle_ratio(netlist, force=force)
    if ratio is None:
        return 1.0
    return min(1.0, float(ratio))
