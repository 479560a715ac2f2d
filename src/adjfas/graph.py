"""Causal DAGs with latent nodes, d-separation, and the adjustment criterion.

A graph is a DAG over observed and unobserved nodes; a hidden common cause is
an explicit node left out of ``observed``, so a ground-truth world and the
graph its criteria are judged on are the same object. All queries are pure;
graphs are immutable after construction.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable

from .data import ValidationError


class Dag:
    """Directed acyclic graph with an observed-node subset.

    Edges are (tail, head) pairs. Cycles and self-loops are rejected, and
    duplicate edges collapse. ``observed`` defaults to all nodes; the nodes
    absent from it are latent.
    """

    __slots__ = ("_nodes", "_index", "_directed", "_observed", "_parents", "_children",
                 "_order")

    def __init__(self, nodes: Iterable[str], directed: Iterable[tuple[str, str]] = (),
                 observed: Iterable[str] | None = None):
        self._nodes = tuple(nodes)
        if len(set(self._nodes)) != len(self._nodes):
            raise ValidationError("duplicate node names")
        self._index = {v: i for i, v in enumerate(self._nodes)}

        edges = set()
        parents = {v: set() for v in self._nodes}
        children = {v: set() for v in self._nodes}
        for u, v in directed:
            self._check_node(u)
            self._check_node(v)
            if u == v:
                raise ValidationError(f"self-loop on {u!r}")
            edges.add((u, v))
            children[u].add(v)
            parents[v].add(u)
        self._directed = frozenset(edges)
        self._parents = {v: frozenset(ps) for v, ps in parents.items()}
        self._children = {v: frozenset(cs) for v, cs in children.items()}

        if observed is None:
            self._observed = frozenset(self._nodes)
        else:
            self._observed = frozenset(observed)
            unknown = self._observed - set(self._nodes)
            if unknown:
                raise ValidationError(f"observed flags for unknown nodes: {sorted(unknown)}")

        # One Kahn pass both rejects cycles and fixes the topological order.
        # Each node releases its children in node-index order: the simulator
        # samples in this order, so every simulated value depends on the rule.
        indeg = {v: len(parents[v]) for v in self._nodes}
        queue = deque(v for v in self._nodes if indeg[v] == 0)
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for c in sorted(children[v], key=self._index.__getitem__):
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != len(self._nodes):
            raise ValidationError("graph contains a directed cycle")
        self._order = tuple(order)

    def _check_node(self, v: str) -> None:
        if v not in self._index:
            raise ValidationError(f"unknown node {v!r}")

    # --- basic accessors

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def directed_edges(self) -> frozenset[tuple[str, str]]:
        return self._directed

    @property
    def observed(self) -> frozenset[str]:
        return self._observed

    def parents(self, v: str) -> frozenset[str]:
        self._check_node(v)
        return self._parents[v]

    def children(self, v: str) -> frozenset[str]:
        self._check_node(v)
        return self._children[v]

    def topological_order(self) -> tuple[str, ...]:
        return self._order

    # --- reachability

    def _closure(self, vs: Iterable[str], step: dict[str, frozenset[str]]) -> set[str]:
        vs = list(vs)
        for v in vs:
            self._check_node(v)
        return reach(step, vs)

    def ancestors(self, vs: Iterable[str]) -> set[str]:
        """All ancestors of vs, including vs themselves."""
        return self._closure(vs, self._parents)

    def descendants(self, vs: Iterable[str]) -> set[str]:
        """All descendants of vs, including vs themselves."""
        return self._closure(vs, self._children)

    # --- serialization

    def save(self, path) -> None:
        """Write the graph as JSON; latent nodes are those absent from ``observed``."""
        doc = {
            "nodes": list(self._nodes),
            "observed": [v for v in self._nodes if v in self._observed],
            "directed": sorted([list(e) for e in self._directed]),
            "bidirected": [],  # always empty, kept so files keep their earlier format
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


def reach(step, start: Iterable) -> set:
    """The nodes of ``start`` and all they reach, where ``step[v]`` holds v's next nodes."""
    out, stack = set(), list(start)
    while stack:
        v = stack.pop()
        if v not in out:
            out.add(v)
            stack.extend(step[v])
    return out


def d_separated(g: Dag, a: Iterable[str], b: Iterable[str], z: Iterable[str]) -> bool:
    """Test whether node sets a and b are d-separated given z.

    A path is d-connecting given z when every non-collider on it is outside z
    and every collider is an ancestor of z. The test is the Bayes-ball
    reachability (Shachter, UAI 1998) over (node, entered from a parent)
    states instead of an enumeration of paths, so it is linear in the number
    of edges.
    """
    a, b, z = set(a), set(b), set(z)
    for v in sorted(a | b | z):  # sorted: the same unknown node is named in every process
        g._check_node(v)
    if (a & b) or (a & z) or (b & z):
        raise ValidationError("a, b, z must be pairwise disjoint")

    anz = reach(g._parents, z)
    # a start node acts as if entered from a child: it passes both ways
    stack = [(v, False) for v in a]
    visited = set(stack)
    while stack:
        v, from_parent = stack.pop()
        if v in b:
            return False
        nxt = []
        if v not in z:
            nxt += [(c, True) for c in g._children[v]]
            if not from_parent:
                nxt += [(p, False) for p in g._parents[v]]
        if from_parent and v in anz:  # an open collider
            nxt += [(p, False) for p in g._parents[v]]
        for state in nxt:
            if state not in visited:
                visited.add(state)
                stack.append(state)
    return True


def _causal_nodes(g: Dag, x: str, y: str) -> set[str]:
    """Nodes other than x lying on a directed path from x to y."""
    return (g.descendants({x}) & g.ancestors({y})) - {x}


def forbidden_set(g: Dag, x: str, y: str) -> set[str]:
    """Nodes no valid adjustment set for (x, y) may contain.

    These are the descendants of any node (other than x) on a directed path
    from x to y; x itself is excluded because it is never a candidate.
    """
    if x == y:
        raise ValidationError("x and y must differ")
    cn = _causal_nodes(g, x, y)
    return g.descendants(cn) if cn else set()


def proper_backdoor_graph(g: Dag, x: str, y: str) -> Dag:
    """Remove the first edge of every directed path from x to y."""
    an_y = g.ancestors({y})
    drop = {(x, w) for w in g.children(x) if w in an_y}
    return Dag(g.nodes, g.directed_edges - drop, g.observed)


def satisfies_adjustment_criterion(g: Dag, x: str, y: str, z: Iterable[str]) -> bool:
    """Sound-and-complete graphical test that z is an adjustment set for (x, y).

    z must avoid the forbidden set and must d-separate x from y in the graph
    with every causal path's first edge removed. z is required to be a set of
    observed nodes not containing x or y.
    """
    z = set(z)
    if x in z or y in z:
        raise ValidationError("z must not contain x or y")
    unknown = z - set(g.nodes)
    if unknown:
        raise ValidationError(f"unknown nodes in z: {sorted(unknown)}")
    hidden = z - g.observed
    if hidden:
        raise ValidationError(f"z must be observed; latent: {sorted(hidden)}")

    if z & forbidden_set(g, x, y):
        return False
    return d_separated(proper_backdoor_graph(g, x, y), {x}, {y}, z)
