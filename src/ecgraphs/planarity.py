"""Planarity decision via the left-right criterion.

Implementation of the left-right (de Fraysseix / de Mendez / Rosenstiehl)
planarity test in its DFS formulation: orient the graph by DFS, compute
lowpoints and nesting order, then re-traverse maintaining a stack of
conflict pairs of back-edge intervals; the graph is planar iff no pair of
same-constraint intervals is forced onto both sides.  Boolean answer only, no
embedding or witness.  The spec-level Euler bound |E| <= 3|V| - 6 short-cut
runs first.

Correctness is pinned by tests against a brute-force Kuratowski-subdivision
oracle on all connected graphs of order <= 7.
"""

from __future__ import annotations

from .graphs import Graph, bits


class _Interval:
    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None


class _ConflictPair:
    __slots__ = ("left", "right")

    def __init__(self, left=None, right=None):
        self.left = left if left is not None else _Interval()
        self.right = right if right is not None else _Interval()

    def swap(self) -> None:
        self.left, self.right = self.right, self.left


class _LRTest:
    def __init__(self, n: int, adj):
        self.n = n
        self.adj = adj
        self.height: list[int | None] = [None] * n
        self.parent_edge: list[tuple[int, int] | None] = [None] * n
        self.lowpt: dict[tuple[int, int], int] = {}
        self.lowpt2: dict[tuple[int, int], int] = {}
        self.nesting: dict[tuple[int, int], int] = {}
        self.out_edges: list[list[int]] = [[] for _ in range(n)]
        self.oriented: set[tuple[int, int]] = set()
        # testing phase state
        self.ordered: list[list[int]] = [[] for _ in range(n)]
        self.stack: list[_ConflictPair] = []
        self.stack_bottom: dict[tuple[int, int], _ConflictPair | None] = {}
        self.lowpt_edge: dict[tuple[int, int], tuple[int, int]] = {}
        self.ref: dict[tuple[int, int], tuple[int, int] | None] = {}

    # -- phase 1: orientation -------------------------------------------------

    def _dfs1(self, v: int) -> None:
        e = self.parent_edge[v]
        for w in bits(self.adj[v]):
            if (v, w) in self.oriented or (w, v) in self.oriented:
                continue
            ei = (v, w)
            self.oriented.add(ei)
            self.out_edges[v].append(w)
            self.lowpt[ei] = self.height[v]
            self.lowpt2[ei] = self.height[v]
            if self.height[w] is None:  # tree edge
                self.parent_edge[w] = ei
                self.height[w] = self.height[v] + 1
                self._dfs1(w)
            else:  # back edge
                self.lowpt[ei] = self.height[w]
            self.nesting[ei] = 2 * self.lowpt[ei]
            if self.lowpt2[ei] < self.height[v]:  # chordal: tie-break nesting
                self.nesting[ei] += 1
            if e is not None:
                if self.lowpt[ei] < self.lowpt[e]:
                    self.lowpt2[e] = min(self.lowpt[e], self.lowpt2[ei])
                    self.lowpt[e] = self.lowpt[ei]
                elif self.lowpt[ei] > self.lowpt[e]:
                    self.lowpt2[e] = min(self.lowpt2[e], self.lowpt[ei])
                else:
                    self.lowpt2[e] = min(self.lowpt2[e], self.lowpt2[ei])

    # -- phase 2: testing ------------------------------------------------------

    def _top(self) -> _ConflictPair | None:
        return self.stack[-1] if self.stack else None

    def _lowest(self, pair: _ConflictPair) -> int:
        if pair.left.empty():
            return self.lowpt[pair.right.low]
        if pair.right.empty():
            return self.lowpt[pair.left.low]
        return min(self.lowpt[pair.left.low], self.lowpt[pair.right.low])

    def _conflicting(self, interval: _Interval, b: tuple[int, int]) -> bool:
        return not interval.empty() and self.lowpt[interval.high] > self.lowpt[b]

    def _dfs2(self, v: int) -> bool:
        e = self.parent_edge[v]
        outs = self.ordered[v]
        for w in outs:
            ei = (v, w)
            self.stack_bottom[ei] = self._top()
            if ei == self.parent_edge[w]:  # tree edge
                if not self._dfs2(w):
                    return False
            else:  # back edge
                self.lowpt_edge[ei] = ei
                self.stack.append(_ConflictPair(right=_Interval(ei, ei)))
            if self.lowpt[ei] < self.height[v]:  # ei has a return edge
                if ei == (v, outs[0]):
                    self.lowpt_edge[e] = self.lowpt_edge[ei]
                elif not self._add_constraints(ei, e):
                    return False
        if e is not None:
            self._trim_back_edges(e)
        return True

    def _add_constraints(self, ei: tuple[int, int], e: tuple[int, int]) -> bool:
        pair = _ConflictPair()
        # merge return edges of ei into pair.right
        while True:
            q = self.stack.pop()
            if not q.left.empty():
                q.swap()
            if not q.left.empty():
                return False  # not planar
            if self.lowpt[q.right.low] > self.lowpt[e]:
                if pair.right.empty():
                    pair.right.high = q.right.high
                else:
                    self.ref[pair.right.low] = q.right.high
                pair.right.low = q.right.low
            else:  # align
                self.ref[q.right.low] = self.lowpt_edge[e]
            if self._top() is self.stack_bottom[ei]:
                break
        # merge conflicting return edges of earlier siblings into pair.left
        while self.stack and (
            self._conflicting(self.stack[-1].left, ei) or self._conflicting(self.stack[-1].right, ei)
        ):
            q = self.stack.pop()
            if self._conflicting(q.right, ei):
                q.swap()
            if self._conflicting(q.right, ei):
                return False  # not planar
            # interval below lowpt(ei) merges into pair.right
            self.ref[pair.right.low] = q.right.high
            if q.right.low is not None:
                pair.right.low = q.right.low
            if pair.left.empty():
                pair.left.high = q.left.high
            else:
                self.ref[pair.left.low] = q.left.high
            pair.left.low = q.left.low
        if not (pair.left.empty() and pair.right.empty()):
            self.stack.append(pair)
        return True

    def _trim_back_edges(self, e: tuple[int, int]) -> None:
        u = e[0]
        # drop entire conflict pairs whose lowest return is at u
        while self.stack and self._lowest(self.stack[-1]) == self.height[u]:
            self.stack.pop()
        if self.stack:
            pair = self.stack.pop()
            while pair.left.high is not None and pair.left.high[1] == u:
                pair.left.high = self.ref.get(pair.left.high)
            if pair.left.high is None and pair.left.low is not None:
                self.ref[pair.left.low] = pair.right.low
                pair.left.low = None
            while pair.right.high is not None and pair.right.high[1] == u:
                pair.right.high = self.ref.get(pair.right.high)
            if pair.right.high is None and pair.right.low is not None:
                self.ref[pair.right.low] = pair.left.low
                pair.right.low = None
            self.stack.append(pair)
        if self.lowpt[e] < self.height[u] and self.stack:  # e has a return edge
            top = self.stack[-1]
            hl = top.left.high
            hr = top.right.high
            if hl is not None and (hr is None or self.lowpt[hl] > self.lowpt[hr]):
                self.ref[e] = hl
            else:
                self.ref[e] = hr

    def run(self) -> bool:
        roots = []
        for v in range(self.n):
            if self.height[v] is None:
                roots.append(v)
                self.height[v] = 0
                self._dfs1(v)  # recursion depth is at most n <= 64
        for v in range(self.n):
            self.ordered[v] = sorted(self.out_edges[v], key=lambda w: self.nesting[(v, w)])
        for root in roots:
            if not self._dfs2(root):
                return False
        return True


def lr_planar_rows(n: int, adj) -> bool:
    """Planarity of raw adjacency rows, Euler shortcut included."""
    m = sum(row.bit_count() for row in adj) // 2
    if n >= 3 and m > 3 * n - 6:
        return False
    if n <= 4 or m <= 8:
        return True  # K5 (10 edges) and K33 subdivisions (>= 9 edges) need more
    return _LRTest(n, adj).run()


def is_planar(g: Graph) -> bool:
    """True iff g admits a planar embedding."""
    return lr_planar_rows(g.n, g.adj)
