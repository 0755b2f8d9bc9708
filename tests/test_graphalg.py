"""Unit tests for the shared graph toolkit, plus seeded cross-checks of each
algorithm against a brute-force definition on small random graphs."""

import itertools
import random

import pytest

from repro.graphalg import levelize, negative_cycle, sccs, toposort


def random_graph(rng, n, max_edges):
    succ = {u: [] for u in range(n)}
    for _ in range(rng.randint(0, max_edges)):
        succ[rng.randrange(n)].append(rng.randrange(n))
    return succ


def reachable(succ, start):
    seen = {start}
    frontier = [start]
    while frontier:
        for v in succ[frontier.pop()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


class TestSccs:
    def test_components_come_out_successors_first(self):
        succ = {"a": ["b"], "b": ["c"], "c": ["b", "d"], "d": []}
        assert sccs("abcd", succ) == [["d"], ["c", "b"], ["a"]]

    def test_random_graphs_match_mutual_reachability(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 8)
            succ = random_graph(rng, n, 2 * n)
            reach = {u: reachable(succ, u) for u in succ}
            found = sccs(range(n), succ)
            assert sorted(u for comp in found for u in comp) == list(range(n))
            for comp in found:
                for u, v in itertools.product(comp, repeat=2):
                    assert v in reach[u]
            for a, b in itertools.combinations(found, 2):
                assert not (b[0] in reach[a[0]] and a[0] in reach[b[0]])


class TestLevelize:
    def test_dag_is_kahn_order(self):
        succ = {0: [2], 1: [2], 2: [3], 3: []}
        assert levelize(range(4), succ) == [0, 1, 2, 3]

    def test_cycle_is_seeded_in_declaration_order(self):
        succ = {0: [1], 1: [2], 2: [1], 3: []}
        assert levelize(range(4), succ) == [0, 3, 1, 2]


class TestToposort:
    def test_fifo_keeps_declaration_order_on_ties(self):
        succ = {"x": ["z"], "y": ["z"], "z": [], "w": []}
        assert toposort(["x", "y", "z", "w"], succ) == (["x", "y", "w", "z"], None)

    def test_cycle_witness_is_a_real_cycle(self):
        succ = {0: [1], 1: [2], 2: [3, 1], 3: [], 4: [0]}
        order, cycle = toposort(range(5), succ)
        assert order == [4, 0]
        assert sorted(cycle) == [1, 2]
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            assert v in succ[u]

    def test_self_loop_is_a_cycle(self):
        assert toposort([0], {0: [0]}) == ([], [0])

    def test_random_graphs(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 8)
            succ = random_graph(rng, n, 2 * n)
            order, cycle = toposort(range(n), succ)
            position = {u: k for k, u in enumerate(order)}
            for u in order:
                assert all(position.get(v, n) > position[u] for v in succ[u])
            cyclic = any(u in reachable(succ, v) for u in succ for v in succ[u])
            assert (cycle is not None) == cyclic
            if cycle is not None:
                assert len(set(cycle)) == len(cycle)
                for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                    assert v in succ[u]


class TestNegativeCycle:
    def test_no_cycle_below_zero(self):
        succ = {0: [(1, 2)], 1: [(0, -2)]}
        assert negative_cycle([0, 1], succ) is None

    def test_picks_the_negative_parallel_edge(self):
        succ = {0: [(1, 5), (1, -3)], 1: [(0, 2)]}
        cycle = negative_cycle([0, 1], succ)
        assert sorted(cycle) == [(0, 1), (1, 0)]

    def test_negative_self_loop(self):
        assert negative_cycle(["a"], {"a": [("a", 1), ("a", -1)]}) == [("a", 1)]

    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs_match_floyd_warshall(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            n = rng.randint(1, 7)
            succ = {u: [(rng.randrange(n), rng.randint(-4, 6))
                        for _ in range(rng.randint(0, 3))] for u in range(n)}
            inf = float("inf")
            dist = [[inf] * n for _ in range(n)]
            for u in range(n):
                for v, w in succ[u]:
                    dist[u][v] = min(dist[u][v], w)
            for k, i, j in itertools.product(range(n), repeat=3):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
            expected = any(dist[u][u] < 0 for u in range(n))
            cycle = negative_cycle(range(n), succ)
            assert (cycle is not None) == expected
            if cycle is not None:
                heads = [u for u, _i in cycle]
                assert len(set(heads)) == len(heads)
                assert sum(succ[u][i][1] for u, i in cycle) < 0
                for k, (u, i) in enumerate(cycle):
                    assert succ[u][i][0] == heads[(k + 1) % len(heads)]
