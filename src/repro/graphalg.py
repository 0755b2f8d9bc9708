"""Graph algorithms over plain adjacency, each written once.

Every function takes ``nodes`` (an iterable that fixes the visit order, so
results are deterministic) and ``succ`` (anything indexable by node —
a dict or, for integer nodes, a list — whose ``succ[u]`` iterates ``u``'s
successors; parallel edges are allowed).  Callers build that adjacency from
whatever they analyse: netlist channels (lint, speculation), timing arcs,
writer -> reader sensitivity edges, codegen signal tasks, gate nets,
explored state graphs and the marked-graph cloud multigraph.

* :func:`sccs` — strongly connected components (iterative Tarjan);
* :func:`levelize` — Kahn order that seeds cyclic regions in declaration
  order (never fails);
* :func:`toposort` — strict Kahn order, with a cycle witness when the graph
  is not a DAG;
* :func:`negative_cycle` — Bellman–Ford negative-cycle search over integer
  edge weights.

Stdlib only, like :mod:`repro.kleene`: importing it pulls in nothing else.
"""

from __future__ import annotations

from collections import deque


def sccs(nodes, succ):
    """Iterative Tarjan: strongly connected components, as node lists, in
    the order their DFS roots finish (successors before predecessors)."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    result = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for nxt in successors:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
    return result


def levelize(nodes, succ):
    """Kahn topological order of ``nodes``, with the scan fallback that
    seeds cyclic regions in declaration order: every node is placed once,
    whether or not the graph is acyclic."""
    live = list(nodes)
    indegree = {i: 0 for i in live}
    for i in live:
        for j in succ[i]:
            indegree[j] += 1
    order = []
    placed = set()
    ready = deque(i for i in live if indegree[i] == 0)
    scan = 0
    while len(order) < len(live):
        if not ready:
            while live[scan] in placed:
                scan += 1
            ready.append(live[scan])
        i = ready.popleft()
        if i in placed:
            continue
        placed.add(i)
        order.append(i)
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0 and j not in placed:
                ready.append(j)
    return order


def toposort(nodes, succ):
    """Strict Kahn order of ``nodes`` (first-in first-out, so ties keep
    declaration order).

    Returns ``(order, cycle)``.  On a DAG ``order`` holds every node and
    ``cycle`` is ``None``.  Otherwise ``order`` holds only the nodes that no
    cycle reaches, and ``cycle`` is one directed cycle among the rest,
    ``[c0, c1, ..., ck]`` with edges ``c0 -> c1 -> ... -> ck -> c0``.
    """
    nodes = list(nodes)
    indegree = dict.fromkeys(nodes, 0)
    for u in nodes:
        for v in succ[u]:
            indegree[v] += 1
    order = [u for u in nodes if indegree[u] == 0]
    for u in order:                       # grows while it is scanned
        for v in succ[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                order.append(v)
    if len(order) == len(nodes):
        return order, None
    # An unplaced node keeps a nonzero indegree, so it has an unplaced
    # predecessor: walking predecessors must revisit a node.
    pred = {}
    for u in nodes:
        if indegree[u]:
            for v in succ[u]:
                pred.setdefault(v, u)
    walk = {}
    path = []
    v = next(u for u in nodes if indegree[u])
    while v not in walk:
        walk[v] = len(path)
        path.append(v)
        v = pred[v]
    return order, path[walk[v]:][::-1]


def negative_cycle(nodes, succ):
    """Bellman–Ford from a virtual source: a cycle of negative total weight.

    ``succ[u]`` is a sequence of ``(v, weight)`` pairs with integer weights
    (parallel edges allowed).  Returns the cycle as a list of ``(u, i)``
    hops in path order — hop ``(u, i)`` is the edge ``succ[u][i]`` — or
    ``None`` when every cycle weighs at least zero.

    The predecessor graph is checked for a cycle after every relaxation
    pass.  Predecessors only change on a strict improvement, so any cycle
    there is negative; and while a negative cycle exists the passes never
    settle, so one eventually appears.
    """
    nodes = list(nodes)
    dist = dict.fromkeys(nodes, 0)
    pred = {}
    while True:
        changed = False
        for u in nodes:
            du = dist[u]
            for i, (v, weight) in enumerate(succ[u]):
                if du + weight < dist[v]:
                    dist[v] = du + weight
                    pred[v] = (u, i)
                    changed = True
        if not changed:
            return None
        walked = {}
        for start in nodes:
            v = start
            while v in pred and v not in walked:
                walked[v] = start
                v = pred[v][0]
            if walked.get(v) == start:
                cycle = []
                u = v
                while True:
                    cycle.append(pred[u])
                    u = pred[u][0]
                    if u == v:
                        return cycle[::-1]
