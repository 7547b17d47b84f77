"""The annealer's hardware graph and its constructors: complete, Chimera, edge lists."""

from __future__ import annotations

import numbers
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import count

import numpy as np


def _integer(value, what: str, least: int | None = None) -> int:
    """The count rule: ``value`` as a Python int (not a bool) of at least ``least``, if given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} {value!r} is not an integer")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}")
    return int(value)


def _check_real(value, what: str) -> None:
    """Reject ``value`` unless it is a real number; a bool or string is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} {value!r} is not a real number")


@dataclass(frozen=True)
class TopologyGraph:
    """Undirected hardware graph on nodes ``0..n-1``, stored as its edge set.

    ``edges`` is any iterable of node pairs. The constructor checks them
    (integer nodes in range, no self-loops), collapses duplicates and stores
    a frozenset of ``(min, max)`` Python-int tuples, in time linear in the
    edges; graphs compare by ``n`` and ``edges``. The instance is frozen,
    and copies and pickles are rebuilt through the constructor, so no field
    can change after the checks.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        n = _integer(self.n, "node count", 1)
        edges = set()
        for pair in self.edges:
            try:
                i, j = pair
            except (TypeError, ValueError):
                raise ValueError(f"edge {pair!r} is not a pair of nodes") from None
            if type(i) is not int or type(j) is not int:  # plain ints skip the call
                i, j = _integer(i, "node"), _integer(j, "node")
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for {n} nodes")
            edges.add((i, j) if i < j else (j, i))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(edges))

    def __reduce__(self):
        return TopologyGraph, (self.n, self.edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        i = _integer(i, "node")
        if i not in range(self.n):
            raise ValueError(f"node {i} out of range for {self.n} nodes")
        return self._degrees[i]

    @cached_property
    def _degrees(self) -> Counter:
        """Edge endpoints counted once per graph: no n-sized array at any n."""
        return Counter(node for edge in self.edges for node in edge)

    @cached_property
    def adjacency_mask(self) -> np.ndarray:
        """Read-only float64 (n, n) array, derived from the edges on first use:
        1 on every edge in both orientations and on the diagonal (so that
        encoding keeps linear bias terms), 0 elsewhere."""
        mask = np.eye(self.n, dtype=np.float64)
        if self.edges:
            rows, cols = zip(*self.edges)
            mask[rows, cols] = mask[cols, rows] = 1.0
        mask.flags.writeable = False
        return mask

    @cached_property
    def colour_classes(self) -> tuple[np.ndarray, ...]:
        """Independent sets partitioning the nodes, computed on first use.

        Greedy smallest-free colouring in breadth-first order, one component
        at a time from its lowest index, neighbours queued in index order.
        A bipartite graph gets two classes and the complete graph n
        singletons in index order. Class c holds the nodes of colour c in
        increasing order.
        """
        neighbours = [[] for _ in range(self.n)]
        for i, j in sorted(self.edges):  # leaves every neighbour list ascending
            neighbours[i].append(j)
            neighbours[j].append(i)
        colour = [-1] * self.n
        queued = [False] * self.n
        for root in range(self.n):
            if queued[root]:
                continue
            queued[root] = True
            queue = deque([root])
            while queue:
                node = queue.popleft()
                taken = {colour[v] for v in neighbours[node]}
                colour[node] = next(c for c in count() if c not in taken)
                for v in neighbours[node]:
                    if not queued[v]:
                        queued[v] = True
                        queue.append(v)
        colour = np.array(colour)
        classes = tuple(np.flatnonzero(colour == c) for c in range(colour.max() + 1))
        for c in classes:
            c.flags.writeable = False  # one cached copy is shared by every caller
        return classes


def complete_graph(n: int) -> TopologyGraph:
    """All-to-all connectivity on n nodes."""
    n = _integer(n, "node count")
    return TopologyGraph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def chimera_graph(m: int) -> TopologyGraph:
    """An m-by-m grid of K_{4,4} unit cells, 8*m^2 qubits in total.

    Cell (r, c) in row-major order holds qubits 8*(r*m + c) + t for
    t in 0..7; t in 0..3 is the left partition, 4..7 the right. Each cell
    is fully bipartite (16 edges). Left qubits couple to the same-position
    left qubit in the vertically adjacent cell, right qubits to the
    same-position right qubit in the horizontally adjacent cell.
    """
    m = _integer(m, "grid size", 1)
    n = 8 * m * m
    pairs = []
    for r in range(m):
        for c in range(m):
            base = 8 * (r * m + c)
            for t in range(4):
                for u in range(4, 8):
                    pairs.append((base + t, base + u))
            if r + 1 < m:
                below = 8 * ((r + 1) * m + c)
                for t in range(4):
                    pairs.append((base + t, below + t))
            if c + 1 < m:
                right = 8 * (r * m + c + 1)
                for u in range(4, 8):
                    pairs.append((base + u, right + u))
    return TopologyGraph(n, pairs)


def parse_edge_list(text: str) -> TopologyGraph:
    """Parse the line-oriented edge-list format.

    First non-comment line is ``n <count>``; each following line is ``i j``
    with 0-based node indices. ``#`` starts a comment.
    """
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise ValueError(f"line {lineno}: expected header 'n <count>'")
            try:
                n = int(tokens[1])
            except ValueError:
                raise ValueError(f"line {lineno}: node count is not an integer") from None
            if n < 1:
                raise ValueError(f"line {lineno}: node count must be positive")
            continue
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 'i j'")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: node indices are not integers") from None
        if i == j:
            raise ValueError(f"line {lineno}: self-loop on node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"line {lineno}: edge ({i}, {j}) out of range for {n} nodes")
        pairs.append((i, j))
    if n is None:
        raise ValueError("missing header line 'n <count>'")
    return TopologyGraph(n, pairs)


def load_edge_list(path) -> TopologyGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())
