"""Directed multigraphs and exact closed-walk counting.

A :class:`DirectedMultigraph` is the edge-shift presentation everything else
in the package is built on: vertices are opaque string ids, parallel edges
and self-loops are allowed, and the adjacency matrix holds exact nonnegative
integers. All values are immutable after construction and every function
here is pure, so concurrent use on shared inputs is safe.

Counting is exact: matrix powers use arbitrary-precision integers, and for
large sparse graphs every walk count comes from one window DP on a weighted
core (forced chains contracted into weighted edges), cross-checked in the
test suite against dense matrix powers and the zeta determinant.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd

from .arith import ResourceLimitExceeded, word_least_period

DEFAULT_PATH_BUDGET = 2_000_000
WALK_DP_CAP = 200_000_000  # core vertices x core edges x length


@dataclass(frozen=True)
class DirectedMultigraph:
    """Finite directed multigraph with opaque string vertex and edge ids.

    ``edges`` holds ``(source, target, edge_id)`` triples. Edge ids are
    unique; endpoints must name existing vertices. Internal indices
    (``index``, ``by_index``, ``adjacency``) follow the sorted order of the
    vertex ids, not the stored order; the stored order is kept only for
    output and is preserved by the JSON round trip.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise ValueError("duplicate vertex id")
        ids = set()
        for src, dst, eid in self.edges:
            if src not in seen or dst not in seen:
                raise ValueError(f"edge {eid!r} references missing vertex")
            if eid in ids:
                raise ValueError(f"duplicate edge id {eid!r}")
            ids.add(eid)

    @classmethod
    def build(cls, vertices, edges) -> "DirectedMultigraph":
        return cls(tuple(vertices), tuple((s, t, e) for (s, t, e) in edges))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def index(self) -> dict:
        """Deterministic internal indices, assigned by sorted vertex id."""
        return {v: i for i, v in enumerate(self.by_index)}

    @cached_property
    def by_index(self) -> tuple:
        return tuple(sorted(self.vertices))

    @cached_property
    def out_adj(self) -> tuple:
        """Per vertex index: tuple of (target index, edge id)."""
        adj = [[] for _ in self.vertices]
        idx = self.index
        for src, dst, eid in self.edges:
            adj[idx[src]].append((idx[dst], eid))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def adjacency(self) -> tuple:
        """Adjacency matrix rows; entry (u, v) counts edges u -> v."""
        m = [[0] * self.n for _ in self.vertices]
        idx = self.index
        for src, dst, _ in self.edges:
            m[idx[src]][idx[dst]] += 1
        return tuple(tuple(r) for r in m)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e, "from": s, "to": t} for (s, t, e) in self.edges],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DirectedMultigraph":
        g = cls.build(
            data["vertices"],
            [(e["from"], e["to"], e["id"]) for e in data["edges"]],
        )
        if not all(isinstance(v, str) for v in g.vertices) or not all(
            isinstance(e, str) for (_s, _t, e) in g.edges
        ):
            raise ValueError("vertex and edge ids must be strings")
        return g

    def to_dot(self, labels=None) -> str:
        lines = ["digraph {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for src, dst, eid in self.edges:
            tag = eid if labels is None else f"{eid}:{labels[eid]}"
            lines.append(f'  "{src}" -> "{dst}" [label="{tag}"];')
        lines.append("}")
        return "\n".join(lines)

    @classmethod
    def from_dot(cls, text: str) -> "DirectedMultigraph":
        """Parse the DOT dialect emitted by :meth:`to_dot` (lossless)."""
        import re

        vertices, edges = [], []
        edge_re = re.compile(r'^"(.*)" -> "(.*)" \[label="([^:"]*)(?::.*)?"\];$')
        vert_re = re.compile(r'^"(.*)";$')
        for raw in text.splitlines():
            line = raw.strip()
            if line in ("digraph {", "}") or not line:
                continue
            m = edge_re.match(line)
            if m:
                edges.append((m.group(1), m.group(2), m.group(3)))
                continue
            m = vert_re.match(line)
            if m:
                vertices.append(m.group(1))
                continue
            raise ValueError(f"unparseable DOT line: {raw!r}")
        return cls.build(vertices, edges)


@dataclass(frozen=True)
class Cycle:
    """A closed edge-path: ``edge_ids`` returns to ``start``."""

    start: str
    edge_ids: tuple[str, ...]

    def __len__(self):
        return len(self.edge_ids)

    def least_period(self) -> int:
        """Least period of the bi-infinite repetition of this edge sequence."""
        return word_least_period(self.edge_ids)


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected components plus their acyclic condensation.

    A component is trivial iff it contains no edge (hence no cycle).
    """

    components: tuple[frozenset, ...]
    is_trivial: tuple[bool, ...]
    condensation_edges: frozenset

    @property
    def nontrivial(self) -> list[int]:
        return [i for i, t in enumerate(self.is_trivial) if not t]


def scc_decompose(g: DirectedMultigraph) -> SccDecomposition:
    """Tarjan's algorithm (iterative); components ordered canonically, by
    the sorted list of their vertex ids."""
    comps = strong_components([[w for (w, _e) in row] for row in g.out_adj])
    comp_sets = [frozenset(g.by_index[i] for i in c) for c in comps]
    order = sorted(range(len(comp_sets)), key=lambda i: sorted(comp_sets[i]))
    comp_sets = [comp_sets[i] for i in order]
    member = {}
    for i, c in enumerate(comp_sets):
        for v in c:
            member[v] = i
    trivial = [True] * len(comp_sets)
    cond = set()
    for src, dst, _ in g.edges:
        a, b = member[src], member[dst]
        if a == b:
            trivial[a] = False
        else:
            cond.add((a, b))
    return SccDecomposition(tuple(comp_sets), tuple(trivial), frozenset(cond))


def strong_components(adj) -> list:
    """Strongly connected components of the digraph on vertex indices
    0..len(adj)-1 with an edge v -> w for each w in adj[v], as lists of
    indices, in the order Tarjan's algorithm (iterative) closes them."""
    n = len(adj)
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = [1]

    for root in range(n):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                visited[v] = True
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(adj[v]):
                w = adj[v][ei]
                ei += 1
                if not visited[w]:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comps


def component_period(g: DirectedMultigraph, component) -> int:
    """gcd of all cycle lengths inside a nontrivial SCC, via BFS level gcds.

    No cycle enumeration: for every intra-component edge u -> v the value
    level(u) + 1 - level(v) contributes to the gcd.
    """
    comp = set(component)
    intra = [(s, t) for (s, t, _) in g.edges if s in comp and t in comp]
    if not intra:
        raise ValueError("component has no internal edge; period undefined")
    succ: dict = {v: [] for v in comp}
    for s, t in intra:
        succ[s].append(t)
    root = min(comp)
    level = {root: 0}
    queue = [root]
    while queue:
        u = queue.pop()
        for t in succ[u]:
            if t not in level:
                level[t] = level[u] + 1
                queue.append(t)
    d = 0
    for s, t in intra:
        d = gcd(d, level[s] + 1 - level[t])
    return abs(d)


def _mat_mul(a, b):
    n = len(a)
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matrix_power(m, k: int):
    """Exact k-th power of a square integer matrix by binary exponentiation."""
    n = len(m)
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = [list(r) for r in m]
    while k:
        if k & 1:
            result = _mat_mul(result, base)
        k >>= 1
        if k:
            base = _mat_mul(base, base)
    return result


def trace_power(g: DirectedMultigraph, n: int) -> int:
    """Exact trace of the n-th adjacency power: the number of closed
    edge-paths of length n counted with starting phase."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if g.n == 0:
        return 0
    p = matrix_power(g.adjacency, n)
    return sum(p[i][i] for i in range(g.n))


def _return_distances(pred, s: int, N: int) -> list:
    """Reverse-BFS distances to s, radius N; a vertex farther away (or
    unable to reach s) holds N + 1."""
    far = N + 1
    dist = [far] * len(pred)
    dist[s] = 0
    frontier = [s]
    for r in range(1, N + 1):
        reached = []
        for v in frontier:
            for u in pred[v]:
                if dist[u] == far:
                    dist[u] = r
                    reached.append(u)
        if not reached:
            break
        frontier = reached
    return dist


def _predecessors(g: DirectedMultigraph) -> list:
    pred: list = [[] for _ in range(g.n)]
    for u, out in enumerate(g.out_adj):
        for t, _ in out:
            pred[t].append(u)
    return pred


def enumerate_closed_paths(
    g: DirectedMultigraph, N: int, max_total: int = DEFAULT_PATH_BUDGET
) -> dict:
    """Complete list of closed edge-paths of each length n <= N, as
    :class:`Cycle` objects: by start vertex index, then in depth-first
    order of the out-edges.

    The count for each n equals ``trace_power(g, n)``. A walk from s is
    extended only along an edge whose target can still get back to s
    within N steps in all, read off reverse-BFS distances to s (radius N),
    so every walk visited is a prefix of a closed path and a dead end
    costs nothing. The depth-first search keeps its own stack: its depth N
    comes from the caller. Raises :class:`ResourceLimitExceeded` when it
    would record more than ``max_total`` paths or visit more than
    ``50 * max_total`` walks; an empty result is returned as empty lists.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    result: dict = {k: [] for k in range(1, N + 1)}
    adj = g.out_adj
    pred = _predecessors(g)
    total = 0
    visits = 0
    visit_budget = 50 * max_total
    for s in range(g.n):
        dist = _return_distances(pred, s, N)
        # out-edges that can still close, each with the longest walk it
        # may extend and leave room to get back to s
        live = [
            [(t, eid, N - dist[t]) for t, eid in out if dist[t] < N]
            for out in adj
        ]
        start = g.by_index[s]
        path: list[str] = []
        stack = [iter(live[s])]
        while stack:
            for target, eid, room in stack[-1]:
                if len(path) < room:
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            visits += 1
            if visits > visit_budget:
                raise ResourceLimitExceeded(
                    f"path sweep visit budget exceeded at N={N}"
                )
            path.append(eid)
            if target == s:
                total += 1
                if total > max_total:
                    raise ResourceLimitExceeded(
                        f"more than {max_total} closed paths at N={N}"
                    )
                result[len(path)].append(Cycle(start, tuple(path)))
            if len(path) < N:
                stack.append(iter(live[target]))
            else:
                path.pop()
    return result


def lyndon_closed_path_counts(
    g: DirectedMultigraph, N: int, max_total: int = DEFAULT_PATH_BUDGET
) -> list:
    """[L_1 .. L_N]: L_n counts the closed edge-paths of length n whose edge
    sequence, with edges ranked by their position in ``g.edges``, is a
    Lyndon word; one per periodic orbit of least period n.

    Every closed path of length n is a rotation of a power of exactly one
    Lyndon closed path, so p_n = sum of e * L_e over e | n and q_n =
    n * L_n, with no least-period test per path. For each edge r0, taken
    as the least edge of the word, a depth-first search from r0's source
    extends only prenecklaces (Fredricksen-Kessler-Maiorana): the next
    edge's rank is at least ``word[t - p]``, p the length of the longest
    Lyndon prefix, and a word closing with p equal to its length is
    counted. As in :func:`enumerate_closed_paths`, a walk is extended only
    where its target can still get back to the start within N, so every
    walk visited here is one that search visits too. The search keeps its
    own stack and raises :class:`ResourceLimitExceeded` past ``max_total``
    Lyndon paths or ``50 * max_total`` visited walks.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    idx = g.index
    out: list = [[] for _ in range(g.n)]
    for rank, (src, dst, _eid) in enumerate(g.edges):
        out[idx[src]].append((rank, idx[dst]))
    pred = _predecessors(g)
    L = [0] * N
    total = 0
    visits = 0
    visit_budget = 50 * max_total
    for s in range(g.n):
        dist = _return_distances(pred, s, N)
        # per vertex, ascending by rank: out-edges that can still close,
        # each with the longest walk it may extend
        live = [
            [(rank, t, N - dist[t]) for rank, t in edges if dist[t] < N]
            for edges in out
        ]
        live_ranks = [[e[0] for e in edges] for edges in live]
        word: list[int] = []
        # each frame: the candidate edges for the next position, and the
        # length p of the longest Lyndon prefix of the word so far (0 for
        # the empty word, whose candidates are every first edge r0)
        stack = [(iter(live[s]), 0)]
        while stack:
            candidates, p = stack[-1]
            t = len(word)
            for rank, target, room in candidates:
                if t < room:
                    break
            else:
                stack.pop()
                if word:
                    word.pop()
                continue
            visits += 1
            if visits > visit_budget:
                raise ResourceLimitExceeded(
                    f"orbit search visit budget exceeded at N={N}"
                )
            if not p or rank != word[t - p]:
                p = t + 1
            word.append(rank)
            if p == t + 1 and target == s:
                L[t] += 1
                total += 1
                if total > max_total:
                    raise ResourceLimitExceeded(
                        f"more than {max_total} Lyndon closed paths at N={N}"
                    )
            if t + 1 < N:
                lo = bisect_left(live_ranks[target], word[t + 1 - p])
                stack.append((iter(live[target][lo:]), p))
            else:
                word.pop()
    return L


def essential_subgraph(g: DirectedMultigraph) -> DirectedMultigraph:
    """Maximal subgraph in which every vertex lies on a bi-infinite walk."""
    alive = set(g.vertices)
    changed = True
    while changed:
        changed = False
        outs = {v: 0 for v in alive}
        ins = {v: 0 for v in alive}
        for s, t, _ in g.edges:
            if s in alive and t in alive:
                outs[s] += 1
                ins[t] += 1
        for v in list(alive):
            if outs[v] == 0 or ins[v] == 0:
                alive.discard(v)
                changed = True
    return DirectedMultigraph.build(
        [v for v in g.vertices if v in alive],
        [(s, t, e) for (s, t, e) in g.edges if s in alive and t in alive],
    )


def disjoint_union(graphs) -> DirectedMultigraph:
    """Disjoint union with deterministic relabeling ``c<i>.<id>``."""
    vertices, edges = [], []
    for i, g in enumerate(graphs):
        pre = f"c{i}."
        vertices.extend(pre + v for v in g.vertices)
        edges.extend((pre + s, pre + t, pre + e) for (s, t, e) in g.edges)
    return DirectedMultigraph.build(vertices, edges)


def subdivide_edges(g: DirectedMultigraph, d: int) -> DirectedMultigraph:
    """Replace every edge by a directed path of d edges (d - 1 new vertices).

    Multiplies every closed-walk length by exactly d.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return g
    vertices = list(g.vertices)
    edges = []
    for src, dst, eid in g.edges:
        prev = src
        for j in range(1, d):
            mid = f"{eid}@{j}"
            vertices.append(mid)
            edges.append((prev, mid, f"{eid}#{j}"))
            prev = mid
        edges.append((prev, dst, f"{eid}#{d}"))
    return DirectedMultigraph.build(vertices, edges)


# -- weighted-core machinery -------------------------------------------------
#
# Inside one strongly connected component, vertices with a single in-edge and
# a single out-edge never offer a choice to a walk, so chains contract onto a
# small "core" whose edges carry integer lengths. One window DP,
# ``_core_walks``, counts walks on the core that end on a weighted set of
# core vertices; a core edge of weight w reads the counts w lengths back.
# Closed-walk counts, basepoint returns and walk caps are each one choice of
# that end set. A closed walk based at an interior vertex of a length-w core
# edge (u -> x) is a walk x -> u of the complementary length, giving the
# (w - 1) correction term of the closed-walk counts.


def contract_chains(g: DirectedMultigraph, component):
    """Weighted core of a component: (core vertex list, [(u, v, weight)])."""
    comp = sorted(component)
    in_e: dict = {v: [] for v in comp}
    out_e: dict = {v: [] for v in comp}
    edges = []
    cset = set(comp)
    for s, t, _ in g.edges:
        if s in cset and t in cset:
            edges.append([s, t, 1])
    for e in edges:
        out_e[e[0]].append(e)
        in_e[e[1]].append(e)
    removed = set()
    changed = True
    while changed:
        changed = False
        for v in comp:
            if v in removed:
                continue
            if len(in_e[v]) == 1 and len(out_e[v]) == 1:
                ein = in_e[v][0]
                eout = out_e[v][0]
                if ein is eout:  # self-loop vertex, keep
                    continue
                merged = [ein[0], eout[1], ein[2] + eout[2]]
                out_e[ein[0]].remove(ein)
                in_e[eout[1]].remove(eout)
                out_e[merged[0]].append(merged)
                in_e[merged[1]].append(merged)
                removed.add(v)
                in_e[v] = []
                out_e[v] = []
                changed = True
    core = [v for v in comp if v not in removed]
    core_edges = []
    for v in core:
        for e in out_e[v]:
            core_edges.append((e[0], e[1], e[2]))
    core_edges.sort()
    return core, core_edges


def _core_walks(core, core_edges, N: int, start, fill=0) -> list:
    """[v_0 .. v_N] on a weighted core, with v_0 = ``start`` (a weight per
    core vertex, in core order): v_ell[y] counts the walks of length ell
    from y that end on ``start``, and a walk that would need a v_ell with
    ell < 0 counts ``fill``. A core edge of weight w reads v_(ell - w), so
    the edges are grouped by weight and each length is one pass over them.
    """
    idx = {v: i for i, v in enumerate(core)}
    by_weight: dict = {}
    for u, v, w in core_edges:
        by_weight.setdefault(w, []).append((idx[u], idx[v]))
    before = [fill] * len(core)
    walks = [list(start)]
    for ell in range(1, N + 1):
        cur = [0] * len(core)
        for w, pairs in by_weight.items():
            prev = walks[ell - w] if w <= ell else before
            for y, x in pairs:
                cur[y] += prev[x]
        walks.append(cur)
    return walks


def component_walk_counts(g: DirectedMultigraph, component, N: int) -> list:
    """[p_1 .. p_N] closed-walk counts within one nontrivial component.

    One window DP per core vertex u, ending on u: its closed walks are the
    walks u -> u, and each interior vertex of a core edge u -> x of weight
    w adds the walks x -> u of length ell - w. Refuses with
    :class:`ResourceLimitExceeded` when the core's vertices times its edges
    times N exceed ``WALK_DP_CAP``, before any step is taken.
    """
    core, core_edges = contract_chains(g, component)
    k = len(core)
    work = k * len(core_edges) * N
    if work > WALK_DP_CAP:
        raise ResourceLimitExceeded(
            f"walk counts on a core of {k} vertices and {len(core_edges)} edges "
            f"up to n={N} take {work} steps, more than WALK_DP_CAP = {WALK_DP_CAP}"
        )
    idx = {v: i for i, v in enumerate(core)}
    interior: list = [[] for _ in core]
    for u, x, w in core_edges:
        if w > 1:
            interior[idx[u]].append((idx[x], w))
    p = [0] * (N + 1)
    for u in range(k):
        walks = _core_walks(core, core_edges, N, [int(y == u) for y in range(k)])
        for ell in range(1, N + 1):
            p[ell] += walks[ell][u]
        for x, w in interior[u]:
            for ell in range(w, N + 1):
                p[ell] += (w - 1) * walks[ell - w][x]
    return p[1:]


def closed_walk_counts(g: DirectedMultigraph, N: int) -> list:
    """[p_1 .. p_N] for the whole graph; closed walks live inside components."""
    if g.n == 0 or N < 1:
        return [0] * max(N, 0)
    dec = scc_decompose(g)
    totals = [0] * N
    for i in dec.nontrivial:
        comp = dec.components[i]
        for j, val in enumerate(component_walk_counts(g, comp, N)):
            totals[j] += val
    return totals


def basepoint_return_counts(core, core_edges, base, N: int) -> list:
    """[c_0 .. c_N]: walks base -> base of each length on a weighted core.

    Superadditive: c(a + b) >= c(a) * c(b), since returns concatenate.
    """
    b = core.index(base)
    start = [int(y == b) for y in range(len(core))]
    return [v[b] for v in _core_walks(core, core_edges, N, start)]


def basepoint_return_attained(core, core_edges, base, N: int) -> bytearray:
    """attained[ell] = 1 iff some walk base -> base of length ell exists.

    The analysis reads return lengths off :func:`return_tail_start`; this
    view of the return counts stays because ``perfbench`` times it by name.
    """
    return bytearray(
        1 if c else 0 for c in basepoint_return_counts(core, core_edges, base, N)
    )


def _core_successors(core, core_edges) -> dict:
    succ: dict = {v: [] for v in core}
    for u, v, w in core_edges:
        succ[u].append((v, w))
    return succ


def first_return_loops(core, core_edges, base) -> tuple:
    """Lengths (a,) or (a, b) with a <= b of the one or two shortest
    distinct first-return loops at ``base`` on a weighted core: walks
    base -> base that do not pass base in between.

    A Dijkstra over walks that settles each vertex at most twice, since the
    two shortest walks to a vertex extend the two shortest walks to its
    predecessors, and never expands base after the start. An irreducible
    core that is not a single cycle has two loops at every vertex: the
    shortest walk to a vertex with two out-edges, either edge, and the
    shortest walk back. So one loop means a core of one self-loop.
    """
    succ = _core_successors(core, core_edges)
    settled = dict.fromkeys(core, 0)
    heap = [(w, v) for v, w in succ[base]]
    heapify(heap)
    loops: list = []
    while heap and len(loops) < 2:
        dist, v = heappop(heap)
        if v == base:
            loops.append(dist)
        elif settled[v] < 2:
            settled[v] += 1
            for t, w in succ[v]:
                heappush(heap, (dist + w, t))
    assert len(loops) == 2 or len(core_edges) == 1, "one loop but not a cycle"
    return tuple(loops)


def return_tail_start(core, core_edges, base, d: int, a0: int) -> int:
    """Least multiple w0 >= d of d from which every multiple of d is the
    length of a walk base -> base on a weighted core; d is the gcd of the
    return lengths and a0 the shortest of them.

    Returns concatenate, so with m_r the shortest return length congruent
    to r modulo a0, found by a Dijkstra over (vertex, length mod a0), a
    length n is a return length exactly when n >= m_(n mod a0). The last
    multiple of d that is not one is the largest m_r less a0.
    """
    succ = _core_successors(core, core_edges)
    best = {(base, 0): 0}
    heap = [(0, base, 0)]
    while heap:
        dist, v, r = heappop(heap)
        if best[v, r] < dist:
            continue
        for t, w in succ[v]:
            state = (t, (r + w) % a0)
            if state not in best or dist + w < best[state]:
                best[state] = dist + w
                heappush(heap, (dist + w, *state))
    last = max(best[base, r] for r in range(0, a0, d))
    return max(d, last - a0 + d)


def core_max_walk_counts(core, core_edges, J: int) -> list:
    """[W_1 .. W_J] of ``max_walk_counts`` for the irreducible component
    whose weighted core this is, by a window DP over the core alone.

    A walk from a core vertex takes a core edge of weight w to its far end,
    or ends inside its chain in one way when fewer than w steps remain. A
    chain vertex i steps before core vertex v starts count_(j - i)(v) walks
    of length j > i, and count_(j - i)(v) <= count_j(v) because counts
    never fall with length when every vertex has an out-edge; so the
    maximum over the component is the maximum over the core.
    """
    walks = _core_walks(core, core_edges, J, [1] * len(core), fill=1)
    return [max(v) for v in walks[1:]]


def max_walk_counts(g: DirectedMultigraph, component, J: int) -> list:
    """[W_1 .. W_J]: W_j = max over component vertices of the number of
    length-j walks staying in the component (a certified upper bound
    W_j ** (1/j) for the component's Perron root)."""
    comp = sorted(component)
    idx = {v: i for i, v in enumerate(comp)}
    succ: list = [[] for _ in comp]
    cset = set(comp)
    for s, t, _ in g.edges:
        if s in cset and t in cset:
            succ[idx[s]].append(idx[t])
    vec = [1] * len(comp)
    out = []
    for _ in range(J):
        vec = [sum(vec[t] for t in succ[v]) for v in range(len(comp))]
        out.append(max(vec) if vec else 0)
    return out
