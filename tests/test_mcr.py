"""Minimum-cycle-ratio tests: the parametric search against a brute-force
enumerator, pinned values on the shipped designs, and the error paths."""

import random
from fractions import Fraction

import pytest

from repro.elastic.buffers import ZeroBackwardLatencyBuffer
from repro.errors import NetlistError
from repro.netlist import patterns
from repro.netlist.graph import Netlist
from repro.perf.mcr import _cloud_edges, cycle_ratio, min_cycle_ratio


def reference_ratio(edges):
    """Minimum tokens/latency by brute force: a DFS over every simple cycle
    and every choice among parallel edges.  Each cycle is walked once, from
    its lowest-ranked node.  Zero-latency cycles with tokens are skipped;
    any cycle without a positive token count raises."""
    nodes = list(dict.fromkeys(end for edge in edges for end in edge[:2]))
    rank = {u: k for k, u in enumerate(nodes)}
    out = {u: [] for u in nodes}
    for u, v, tokens, latency in edges:
        out[u].append((v, tokens, latency))
    best = None

    def walk(start, u, on_path, tokens, latency):
        nonlocal best
        for v, t, lat in out[u]:
            if v == start:
                total, length = tokens + t, latency + lat
                if total <= 0:
                    raise NetlistError(f"cycle with {total} tokens")
                if length and (best is None or Fraction(total, length) < best):
                    best = Fraction(total, length)
            elif rank[v] > rank[start] and v not in on_path:
                on_path.add(v)
                walk(start, v, on_path, tokens + t, latency + lat)
                on_path.discard(v)

    for start in nodes:
        walk(start, start, {start}, 0, 0)
    return best


def outcome(fn, edges):
    try:
        return fn(edges)
    except NetlistError:
        return NetlistError


def random_multigraph(rng):
    """Up to 8 clouds; parallel edges, zero-latency edges and a sprinkling
    of non-positive markings."""
    n = rng.randint(1, 8)
    edges = []
    for _ in range(rng.randint(1, 2 * n + 1)):
        u, v = rng.randrange(n), rng.randrange(n)
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            tokens = rng.choice((-1, 0)) if rng.random() < 0.08 else rng.randint(1, 4)
            edges.append((u, v, tokens, rng.choice((0, 1, 1, 2, 3))))
    return edges


def test_fuzz_matches_brute_force_enumeration():
    rng = random.Random(2009)
    kinds = {"ratio": 0, "none": 0, "error": 0}
    for _ in range(400):
        edges = random_multigraph(rng)
        expected = outcome(reference_ratio, edges)
        assert outcome(cycle_ratio, edges) == expected, edges
        kinds["error" if expected is NetlistError
              else "none" if expected is None else "ratio"] += 1
    assert min(kinds.values()) >= 40, kinds


def _first(make):
    return lambda: make(lambda g: 0)[0]


def _ring(stages, tokens):
    return lambda: patterns.token_ring(stages, tokens)


#: every design the MCR unit tests and the MCR benchmark analyse, with the
#: ratio the enumerating implementation returned for it.
PINNED = {
    "ring3,1": (_ring(3, 1), Fraction(1, 3)),
    "ring3,2": (_ring(3, 2), Fraction(2, 3)),
    "ring3,3": (_ring(3, 3), Fraction(1)),
    "ring4,1": (_ring(4, 1), Fraction(1, 4)),
    "ring4,2": (_ring(4, 2), Fraction(1, 2)),
    "ring4,3": (_ring(4, 3), Fraction(3, 4)),
    "ring4,7": (_ring(4, 7), Fraction(1, 4)),
    "ring5,2": (_ring(5, 2), Fraction(2, 5)),
    "ring6,4": (_ring(6, 4), Fraction(2, 3)),
    "fig1a": (_first(patterns.fig1a), Fraction(1)),
    "fig1b": (_first(patterns.fig1b), Fraction(1, 2)),
    "fig1c": (_first(patterns.fig1c), Fraction(1)),
    "fig1d": (_first(patterns.fig1d), Fraction(1)),
    "kway3": (_first(patterns.kway_loop), Fraction(1)),
    "chain3": (lambda: patterns.eb_chain(3), Fraction(1)),
    "pipe64": (lambda: patterns.deep_pipeline(64), Fraction(1)),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_designs(name):
    make, expected = PINNED[name]
    net = make()
    ratio = min_cycle_ratio(net, force=True)
    assert ratio == expected
    assert ratio == reference_ratio(_cloud_edges(net))


class TestErrorPaths:
    def test_empty_ring_is_a_structural_deadlock(self):
        with pytest.raises(NetlistError, match="0 tokens and latency 3: structural deadlock"):
            min_cycle_ratio(patterns.token_ring(3, 0))

    def test_full_ring_has_no_hole_to_move(self):
        with pytest.raises(NetlistError, match="structural deadlock"):
            min_cycle_ratio(patterns.token_ring(3, 6))

    def test_full_zbl_loop_is_a_combinational_capacity_loop(self):
        net = Netlist("zbl_ring")
        for i in range(3):
            net.add(ZeroBackwardLatencyBuffer(f"z{i}", init=[i]))
        for i in range(3):
            net.connect(f"z{i}.o", f"z{(i + 1) % 3}.i", name=f"r{i}")
        with pytest.raises(NetlistError, match="combinational capacity loop"):
            min_cycle_ratio(net)
