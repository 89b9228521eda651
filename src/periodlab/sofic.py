"""Labeled-graph presentations of sofic shifts.

Covers exact periodic-point counts and least-period sets by transition
relation classes, subset-construction determinization with follower-set
minimization (Fischer cover for irreducible shifts), synchronizing words,
receptive periodic points, and the layer graphs that realize the
unique-preimage decomposition of the least-period set. Every question of
what a word does to the states of a presentation, the Fischer cover's
included, is answered by that presentation's relation engine.

A periodic point of the presented shift is the bi-infinite repetition of a
word w; it belongs to the shift iff the transition relation of w has a
cycle. A relation is a pair of flat tuples (sources, row_ids): the source
vertices with a nonempty row, ascending, and the ids of their rows (bit y
of v's row: a w-labeled path v -> y). Rows and whole relations are interned
per presentation by its :class:`RelationEngine`, which numbers relations
(0 the empty relation, 1 the identity) and keeps each one's cycle answer.
Each symbol has a row table and a relation table that step a row or a
relation id the first time they meet it and keep the result, so a relation
met again, at another length or in another pass, is stepped by one table
lookup; the subset construction steps its subsets through the row tables.
Words of one length are grouped by relation id, so period counts, and
through Möbius inversion the least-period set, come from one pass over the
relation classes, which also supplies the witness words; a period no class
representative carries gets the first Lyndon word of a search to that
length alone. On a Fischer cover the same pass counts the primitive words
that label closed paths, the receptive least periods. Two presentations of
the same point are *mutually separated* when they occupy distinct vertices
at every time; the layer-i graph tracks i-sets of vertices joined by
injective label-respecting matchings, so a point has >= i mutually
separated presentations exactly when some layer-i walk carries its label.
The layer analysis walks the Lyndon words of the shift (one per periodic
orbit) in a single depth-first search over per-depth arrays, which also
tells how long a prefix each word shares with the one before. Each higher
layer, built from integer step masks over index subsets, keeps the relation
ids of the prefixes of the last word it extended, so a word costs one step
per symbol past that shared prefix. A word w is tested in layers 2, 3, ...
only up to |image(R_w)|, R_w its relation on the presentation: i mutually
separated presentations put i vertices on cycles of R_w, so the separation
of w is at most the number of vertices on cycles of R_w, which is at most
|image(R_w)|.

The relation-class pass, the Lyndon-word search, the layer analysis and the
language-inclusion check are bounded by the module constants below; passing
one raises :class:`ResourceLimitExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations, compress
from operator import or_

from .arith import (
    ResourceLimitExceeded,
    divisors,
    least_rotation_period,
    min_rotation,
)
from .graph_core import (
    DirectedMultigraph,
    essential_subgraph,
    scc_decompose,
    strong_components,
)

RELATION_CLASS_CAP = 200_000  # relation classes of one word length
WORD_BUDGET = 5_000_000  # relation steps of one Lyndon-word search
LAYER_MAX_STATES = 12  # presentation states the layer analysis accepts
INCLUSION_PAIR_CAP = 200_000  # (state, state set) pairs of the inclusion check


def as_word(w) -> tuple:
    return tuple(w)


def word_str(w) -> str:
    return "".join(map(str, w))


@dataclass(frozen=True)
class LabeledGraph:
    """A directed multigraph with a symbol on every edge."""

    graph: DirectedMultigraph
    labels: tuple[tuple[str, str], ...]  # (edge id, symbol), sorted

    @classmethod
    def build(cls, graph: DirectedMultigraph, labels) -> "LabeledGraph":
        label_map = dict(labels.items()) if isinstance(labels, dict) else dict(labels)
        missing = [e for (_, _, e) in graph.edges if e not in label_map]
        if missing:
            raise ValueError(f"unlabeled edges: {missing}")
        pairs = tuple(sorted((e, str(label_map[e])) for (_, _, e) in graph.edges))
        return cls(graph, pairs)

    @cached_property
    def label_map(self) -> dict:
        return dict(self.labels)

    @cached_property
    def alphabet(self) -> tuple:
        return tuple(sorted({s for (_, s) in self.labels}))

    @cached_property
    def relations(self) -> "RelationEngine":
        """Row tables of this presentation's transition relations."""
        return RelationEngine(self.step_masks, self.graph.n)

    @cached_property
    def step_masks(self) -> dict:
        """Per symbol: tuple indexed by vertex of successor bitmasks (bit y
        set when an edge with that symbol leads to vertex index y)."""
        idx = self.graph.index
        acc = {a: [0] * self.graph.n for a in self.alphabet}
        lm = self.label_map
        for src, dst, eid in self.graph.edges:
            acc[lm[eid]][idx[src]] |= 1 << idx[dst]
        return {a: tuple(row) for a, row in acc.items()}

    def essential(self) -> "LabeledGraph":
        g = essential_subgraph(self.graph)
        keep = {e for (_, _, e) in g.edges}
        return LabeledGraph.build(g, {e: s for (e, s) in self.labels if e in keep})

    def to_json(self) -> dict:
        lm = self.label_map
        return {
            "vertices": list(self.graph.vertices),
            "edges": [
                {"id": e, "from": s, "to": t, "label": lm[e]}
                for (s, t, e) in self.graph.edges
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LabeledGraph":
        g = DirectedMultigraph.from_json(data)
        return cls.build(g, {e["id"]: e["label"] for e in data["edges"]})

    def to_dot(self) -> str:
        lm = self.label_map
        lines = ["digraph {"]
        for v in self.graph.vertices:
            lines.append(f'  "{v}";')
        for src, dst, eid in self.graph.edges:
            lines.append(f'  "{src}" -> "{dst}" [label="{lm[eid]}"];')
        lines.append("}")
        return "\n".join(lines)


# -- transition relations ------------------------------------------------------
#
# The relation of a word w is a pair of flat tuples (sources, row_ids).
# ``sources`` are the vertices v with a nonempty row, ascending, and
# ``row_ids[k]`` names the row of sources[k]: the int bitmask with bit y set
# when there is a w-labeled path from sources[k] to y. Rows are interned per
# presentation by its RelationEngine (row id 0 is the empty row, ids 1..n
# the single vertices), and so are whole relations: relation id 0 is the
# empty relation, id 1 the identity, and ``engine.relations[rid]`` is the
# (sources, row_ids) pair of id rid. Equal relations have equal ids, so a
# pass keys its dicts by small ints.
#
# Each symbol a has a row table, row id -> id of the row one a-step on, and
# a relation table, relation id -> id of the relation one a-step on. A
# missing entry is filled once: a row by OR-ing a's successor masks over its
# set bits, a relation by one row-table lookup per row, dropping the rows
# that became empty. A relation met again, at another length or in another
# pass, is then stepped by one lookup. ``engine.cycles[rid]`` is the cycle
# answer of id rid (None until it is asked for): the bi-infinite repetition
# of w lies in the shift exactly when w's relation, viewed as a digraph,
# has a cycle.

EMPTY_RELATION = ((), ())


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _intern(rows: list, ids: dict, row: int) -> int:
    """Id of ``row``, appended to ``rows`` (id -> row) when new."""
    rid = ids.get(row)
    if rid is None:
        rid = ids[row] = len(rows)
        rows.append(row)
    return rid


def _intern_relation(relations: list, ids: dict, cycles: list, rel: tuple) -> int:
    """Id of the relation ``rel``, appended when new with an unknown cycle
    answer."""
    rid = ids.get(rel)
    if rid is None:
        rid = ids[rel] = len(relations)
        relations.append(rel)
        cycles.append(None)
    return rid


class _RowTable(dict):
    """Row id -> row id of one symbol's step. A row met for the first time
    is stepped by the bit loop, and its image is interned. The table holds
    the engine's row list and id map, not the engine, so no reference cycle
    keeps a presentation's tables alive after it is dropped."""

    __slots__ = ("succ", "rows", "ids")

    def __missing__(self, rid: int) -> int:
        row = self.rows[rid]
        succ = self.succ
        acc = 0
        while row:
            low = row & -row
            acc |= succ[low.bit_length() - 1]
            row ^= low
        out = self[rid] = _intern(self.rows, self.ids, acc)
        return out


class _RelationTable(dict):
    """Relation id -> relation id of one symbol's step. A relation met for
    the first time is stepped through the symbol's row table (``step``, its
    bound ``__getitem__``), and its image is interned with an unknown cycle
    answer. Like :class:`_RowTable`, it holds the engine's lists, not the
    engine."""

    __slots__ = ("step", "relations", "ids", "cycles")

    def __missing__(self, rid: int) -> int:
        sources, row_ids = self.relations[rid]
        row_ids = tuple(map(self.step, row_ids))
        if 0 in row_ids:
            sources = tuple(compress(sources, row_ids))
            row_ids = tuple(filter(None, row_ids))
        out = self[rid] = _intern_relation(
            self.relations, self.ids, self.cycles, (sources, row_ids)
        )
        return out


class RelationEngine:
    """Interned rows and relations of one presentation, with per-symbol row
    and relation tables and the cycle answer of every relation id. A pass
    steps relation ids with a relation table's bound ``__getitem__``, taken
    once per pass."""

    def __init__(self, step_masks: dict, n: int):
        self.rows = [0] + [1 << v for v in range(n)]  # row id -> mask
        self.ids = {row: rid for rid, row in enumerate(self.rows)}
        identity = (tuple(range(n)), tuple(range(1, n + 1)))
        self.relations = [EMPTY_RELATION, identity]  # relation id -> relation
        # with no vertex the identity is the empty relation, and keeps id 0
        self.relation_ids = {identity: 1, EMPTY_RELATION: 0}
        self.cycles = [False, n > 0]  # relation id -> has a cycle, or None
        self.tables = {}  # symbol -> row table
        self.steps = {}  # symbol -> relation table
        for a, succ in step_masks.items():
            table = self.tables[a] = _RowTable()
            table.succ, table.rows, table.ids = succ, self.rows, self.ids
            step = self.steps[a] = _RelationTable()
            step.step = table.__getitem__
            step.relations, step.ids = self.relations, self.relation_ids
            step.cycles = self.cycles

    def intern(self, row: int) -> int:
        return _intern(self.rows, self.ids, row)

    def row_masks(self, row_ids: tuple) -> tuple:
        return tuple(map(self.rows.__getitem__, row_ids))

    def has_cycle(self, rel: tuple) -> bool:
        """Cycle answer of the relation ``rel`` = (sources, row_ids), read
        off its id."""
        return self._cycle(
            _intern_relation(self.relations, self.relation_ids, self.cycles, rel)
        )

    def _cycle(self, rid: int) -> bool:
        """Cycle answer of relation id ``rid``, decided on first asking."""
        cyc = self.cycles[rid]
        if cyc is None:
            sources, row_ids = self.relations[rid]
            rows = tuple(map(self.rows.__getitem__, row_ids))
            alive = _sources_reached(sources, rows)
            cyc = self.cycles[rid] = bool(alive) and _cycle_search(sources, rows, alive)
        return cyc

    def _word_id(self, w) -> int:
        """Id of the relation of w: one table lookup per symbol from the
        identity, and the empty relation for a symbol the presentation does
        not carry."""
        steps = self.steps
        rid = 1
        for a in w:
            table = steps.get(a)
            if table is None:
                return 0
            rid = table[rid]
            if not rid:
                break
        return rid


def relation_has_cycle(sources, rows) -> bool:
    """Does the digraph with an edge v -> y for each bit y of the row of
    source v contain a cycle?"""
    alive = _sources_reached(sources, rows)
    return bool(alive) and _cycle_search(sources, rows, alive)


def _sources_reached(sources, rows) -> int:
    """Mask of the sources, or 0 when no row reaches one: then the relation
    has no edge between sources and no cycle, as for most relations of a
    class pass on a realized presentation."""
    alive = 0
    for v in sources:
        alive |= 1 << v
    return alive if reduce(or_, rows, 0) & alive else 0


def _cycle_search(sources, rows, alive: int) -> bool:
    """Iterative depth-first search over the sources (``alive``, their
    mask), O(V + E) steps on V-bit masks: a row that meets the current path
    closes a cycle. Only sources have rows, so only they are entered."""
    succ = dict(zip(sources, rows))
    unseen = alive
    for root in sources:
        if not unseen >> root & 1:
            continue
        unseen ^= 1 << root
        path = 1 << root
        if succ[root] & path:
            return True
        stack = [root]
        while stack:
            nxt = succ[stack[-1]] & unseen
            if nxt:
                low = nxt & -nxt
                unseen ^= low
                path |= low
                y = low.bit_length() - 1
                if succ[y] & path:
                    return True
                stack.append(y)
            else:
                path ^= 1 << stack.pop()
    return False


def word_relation(lg: LabeledGraph, w) -> tuple:
    """(sources, row_ids) of the transition relation of w."""
    engine = lg.relations
    return engine.relations[engine._word_id(w)]


def periodic_point_in_shift(lg: LabeledGraph, w) -> bool:
    """Is the bi-infinite repetition of w a point of the presented shift?"""
    engine = lg.relations
    return engine._cycle(engine._word_id(as_word(w)))


def _lyndon_walk(lg: LabeledGraph, N: int, sym: list):
    """Every Lyndon word w of length <= N whose bi-infinite repetition lies
    in the shift, in lexicographic order over the sorted alphabet; yields
    (len(w), relation id of w, shared), where shared is the length of the
    prefix w shares with the word yielded before (0 for the first). The
    walk writes w's symbol indices into ``sym[:len(w)]`` (a list of length
    >= N that the caller owns), and leaves ``sym[:shared]`` as it was.

    A Lyndon word is primitive and strictly smaller than its other
    rotations, so these are exactly the least-rotation representatives of
    the periodic points with least period <= N. The depth-first search
    extends prenecklaces only (FKM rule: with p the length of the longest
    Lyndon prefix of w, the next symbol is at least w[len(w) - p]; w is
    Lyndon when p = len(w)) and prunes a word whose relation is empty. Per
    depth t it keeps the symbol at t, p and the relation id of the length-t
    prefix, and the next symbol to try. Entering a node charges one
    relation step per candidate symbol, all at once, and more than
    WORD_BUDGET in all is a resource limit.
    """
    if lg.graph.n == 0 or N < 1:
        return
    engine = lg.relations
    steps = [engine.steps[a].__getitem__ for a in lg.alphabet]
    width = len(steps)
    cycles = engine.cycles
    ps = [1] * (N + 1)  # ps[t]: longest Lyndon prefix length of the t-prefix
    rids = [1] * (N + 1)  # rids[t]: relation id of the t-prefix
    lows = [0] * (N + 1)  # lows[t]: least symbol a child of the t-prefix takes
    nexts = [0] * (N + 1)  # nexts[t]: next symbol to try after the t-prefix
    spent = width
    if spent > WORD_BUDGET:
        raise ResourceLimitExceeded("periodic word sweep budget exceeded")
    shared = 0
    t = 0
    while True:
        i = nexts[t]
        if i == width:
            if not t:
                return
            t -= 1
            continue
        nexts[t] = i + 1
        rid = steps[i](rids[t])
        if not rid:
            continue
        sym[t] = i
        if t < shared:
            shared = t
        p = ps[t] if i == lows[t] else t + 1
        t += 1
        rids[t] = rid
        ps[t] = p
        if p == t:
            cyc = cycles[rid]
            if cyc is None:
                cyc = engine._cycle(rid)
            if cyc:
                yield t, rid, shared
                shared = t
        if t == N:
            t -= 1
            continue
        low = lows[t] = nexts[t] = sym[t - p]
        spent += width - low
        if spent > WORD_BUDGET:
            raise ResourceLimitExceeded("periodic word sweep budget exceeded")


def _lyndon_words_in_shift(lg: LabeledGraph, N: int):
    """The words of :func:`_lyndon_walk`, in its order; yields (w, relation
    id of w), w a tuple of symbols."""
    sym = [0] * max(N, 0)
    alphabet = lg.alphabet
    for t, rid, _shared in _lyndon_walk(lg, N, sym):
        yield tuple(map(alphabet.__getitem__, sym[:t])), rid


def _relation_classes(lg: LabeledGraph, N: int):
    """For n = 1..N, yields n and the words of length n grouped by relation
    id: a dict relation id -> [word count, representative word], the empty
    relation left out. The representative is the first word of the class
    in the order of the sorted alphabet. More than RELATION_CLASS_CAP
    classes at one length is a resource limit."""
    engine = lg.relations
    steps = [(a, engine.steps[a].__getitem__) for a in lg.alphabet]
    level = {1: [1, ()]}
    for n in range(1, N + 1):
        nxt: dict = {}
        for rid, (cnt, rep) in level.items():
            for a, step in steps:
                r2 = step(rid)
                if r2:
                    slot = nxt.get(r2)
                    if slot is None:
                        nxt[r2] = [cnt, rep + (a,)]
                    else:
                        slot[0] += cnt
        level = nxt
        if len(level) > RELATION_CLASS_CAP:
            raise ResourceLimitExceeded("relation-class cap exceeded")
        yield n, level


def sofic_period_counts(lg: LabeledGraph, N: int):
    """Exact point counts p_n of the presented sofic shift for n <= N, with
    a witness word for every least rotation period seen along the way.

    Words of each length are grouped by their transition relation (counts
    add, one representative word is kept, see :func:`_relation_classes`),
    so the pass is exponential only in the relation-class structure, not in
    the word count.
    """
    p = [0] * N
    witnesses: dict = {}
    if lg.graph.n == 0:
        return p, witnesses
    engine = lg.relations
    relations, cycles, row_of = engine.relations, engine.cycles, engine.rows.__getitem__
    for n, level in _relation_classes(lg, N):
        total = 0
        # a length-n word's least rotation period divides n: once every
        # divisor has a witness, no class of this length adds one
        unwitnessed = set(divisors(n)).difference(witnesses)
        for rid, (cnt, rep) in level.items():
            cyc = cycles[rid]  # engine._cycle's answer, written directly
            rho = 0
            if cyc is None:
                sources, row_ids = relations[rid]
                rows = tuple(map(row_of, row_ids))
                alive = _sources_reached(sources, rows)
                cyc = False
                if alive:
                    # rep = u^(n/ρ) has relation R_u^(n/ρ), and a digraph's
                    # power has a cycle exactly when the digraph has one: u's
                    # class was decided at level ρ, and each prefix of rep
                    # names a class, so its id is |u| table lookups away
                    rho = least_rotation_period(rep)
                    if rho < n:
                        cyc = cycles[engine._word_id(rep[:rho])]
                    else:
                        cyc = _cycle_search(sources, rows, alive)
                cycles[rid] = cyc
            if cyc:
                total += cnt
                if unwitnessed:
                    rho = rho or least_rotation_period(rep)
                    if rho in unwitnessed:
                        unwitnessed.remove(rho)
                        witnesses[rho] = word_str(min_rotation(rep[:rho]))
        p[n - 1] = total
    return p, witnesses


@dataclass(frozen=True)
class SoficLpsResult:
    """Least periods <= N with one witness word per period."""

    N: int
    witnesses: tuple  # ((period, word string), ...) sorted by period

    @property
    def support(self) -> frozenset:
        return frozenset(p for (p, _) in self.witnesses)

    def to_json(self) -> list:
        return [{"period": p, "word": w} for (p, w) in self.witnesses]


def sofic_lps_upto(lg: LabeledGraph, N: int) -> SoficLpsResult:
    """LPS of the presented sofic shift, exactly, on [1, N].

    Period-n points are counted per transition-relation class (see
    :func:`sofic_period_counts`) and Möbius-inverted to least-period
    counts, which settles the support exactly, including points whose
    shortest presentation is several phases longer than their period.
    Witnesses are the class representatives; a period that no
    representative carries gets the lexicographically first Lyndon word of
    that length whose point lies in the shift.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    from .sft_counting import mobius_invert

    p, found = sofic_period_counts(lg, N)
    support = {
        n for n, qn in enumerate(mobius_invert(p), start=1) if qn > 0
    }
    if set(found) - support:
        raise AssertionError("witnessed period missing from exact count")
    for n in sorted(support - set(found)):
        # a search to depth n alone: one to the largest missing length
        # could pass a subtree exponential in that length before reaching
        # the first Lyndon word of a short one
        found[n] = next(
            word_str(w) for w, _rid in _lyndon_words_in_shift(lg, n) if len(w) == n
        )
    return SoficLpsResult(
        N, tuple((n, found[n]) for n in sorted(support))
    )


# -- determinization and the Fischer cover -------------------------------------


@dataclass(frozen=True)
class DeterministicPresentation:
    """Right-resolving presentation; ``minimal`` marks the Fischer cover of
    an irreducible sofic shift (no two states share a follower set)."""

    lg: LabeledGraph
    minimal: bool
    irreducible: bool

    @property
    def states(self) -> tuple:
        return self.lg.graph.vertices


def _subset_automaton(lg: LabeledGraph):
    """Subset construction seeded at the full vertex set: states are the
    row ids of vertex subsets, transitions per symbol by the union step (a
    row-table lookup)."""
    nv = lg.graph.n
    if nv == 0:
        return {}, []
    engine = lg.relations
    steps = [(a, engine.tables[a].__getitem__) for a in lg.alphabet]
    full = engine.intern((1 << nv) - 1)
    trans = {}  # (state, symbol) -> state, in discovery order
    stack = [full]
    seen = {full}
    while stack:
        cur = stack.pop()
        for a, step in steps:
            nxt = step(cur)
            if nxt:
                trans[(cur, a)] = nxt
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return trans, sorted(seen)


def _trim_automaton(states, trans):
    alive = set(states)
    changed = True
    while changed:
        changed = False
        outs = {q: 0 for q in alive}
        ins = {q: 0 for q in alive}
        for (q, _a), t in trans.items():
            if q in alive and t in alive:
                outs[q] += 1
                ins[t] += 1
        for q in list(alive):
            if outs[q] == 0 or ins[q] == 0:
                alive.discard(q)
                changed = True
    states = [q for q in states if q in alive]
    trans = {
        (q, a): t for ((q, a), t) in trans.items() if q in alive and t in alive
    }
    return states, trans


def _minimize_partial(states, trans, alphabet):
    """Moore refinement by follower languages on a partial DFA."""
    cls = {q: 0 for q in states}
    while True:
        sigs: dict = {}
        for q in states:
            sig = (cls[q],) + tuple(
                cls.get(trans.get((q, a))) for a in alphabet
            )
            sigs.setdefault(sig, []).append(q)
        new_cls = {}
        ordered = sorted(sigs, key=lambda s: tuple(-1 if x is None else x for x in s))
        for i, sig in enumerate(ordered):
            for q in sigs[sig]:
                new_cls[q] = i
        if len(set(new_cls.values())) == len(set(cls.values())):
            renum = new_cls
            break
        cls = new_cls
    classes = sorted(set(renum.values()))
    qtrans = {}
    for (q, a), t in trans.items():
        qtrans[(renum[q], a)] = renum[t]
    return classes, qtrans


def _language_covered_by(states, trans, alphabet, comp):
    """Is every word readable somewhere in (states, trans) also readable
    within the state set ``comp``?  Subset-simulation check on (state,
    state set) pairs; ``states`` are the class numbers 0..k-1, and a state
    set is the bitmask of its members, stepped by OR-ing per-symbol
    successor masks that keep the targets inside ``comp``."""
    size = len(states)
    moves = []  # per symbol: (state -> next state or -1, state set -> next set)
    for a in alphabet:
        target = [-1] * size
        inside = [0] * size
        for q in states:
            t = trans.get((q, a))
            if t is not None:
                target[q] = t
                if t in comp:
                    inside[q] = 1 << t
        moves.append((target, inside, {}))
    full = 0
    for c in comp:
        full |= 1 << c
    seen = set()
    stack = [(q, full) for q in states]
    while stack:
        pair = stack.pop()
        if pair in seen:
            continue
        seen.add(pair)
        if len(seen) > INCLUSION_PAIR_CAP:
            raise ResourceLimitExceeded("language inclusion check too large")
        q, s = pair
        for target, inside, stepped in moves:
            qn = target[q]
            if qn < 0:
                continue
            sn = stepped.get(s)
            if sn is None:
                sn = 0
                for c in _bits(s):
                    sn |= inside[c]
                stepped[s] = sn
            if not sn:
                return False
            stack.append((qn, sn))
    return True


def determinize_and_minimize(lg: LabeledGraph) -> DeterministicPresentation:
    """Right-resolving presentation of the same sofic shift; when the shift
    is irreducible, the minimal one (Fischer cover).

    Irreducibility of the *shift* is decided by whether some terminal
    strongly connected piece of the minimized automaton already presents the
    whole language; for a reducible shift the full right-resolving
    presentation is returned with ``minimal=False``.
    """
    ess = lg.essential()
    if ess.graph.n == 0:
        empty = LabeledGraph.build(DirectedMultigraph.build((), ()), {})
        return DeterministicPresentation(empty, False, False)
    trans, states = _subset_automaton(ess)
    states, trans = _trim_automaton(states, trans)
    classes, qtrans = _minimize_partial(states, trans, ess.alphabet)
    # condensation of the class automaton
    cedges = [(q, t) for ((q, _a), t) in qtrans.items()]
    name = {c: "s" + str(i) for i, c in enumerate(classes)}

    def build(chosen, minimal, irreducible):
        keep = sorted(chosen)
        vertices = [name[c] for c in keep]
        edges, labels = [], {}
        for (q, a), t in sorted(qtrans.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            if q in chosen and t in chosen:
                eid = f"{name[q]}-{a}"
                edges.append((name[q], name[t], eid))
                labels[eid] = a
        g = DirectedMultigraph.build(vertices, edges)
        return DeterministicPresentation(
            LabeledGraph.build(g, labels), minimal, irreducible
        )

    mgraph = DirectedMultigraph.build(
        [str(c) for c in classes],
        [
            (str(q), str(t), f"e{i}")
            for i, (q, t) in enumerate(sorted(set(cedges)))
        ],
    )
    dec = scc_decompose(mgraph)
    outgoing = {i for (i, _j) in dec.condensation_edges}
    for i, comp in enumerate(dec.components):
        if dec.is_trivial[i] or i in outgoing:
            continue
        comp_classes = {int(c) for c in comp}
        if _language_covered_by(classes, qtrans, ess.alphabet, comp_classes):
            return build(comp_classes, True, True)
    return build(set(classes), False, False)


def synchronizing_words_upto(dp: DeterministicPresentation, L: int) -> list:
    """Words of length <= L whose read image over all states is a single
    state. Requires the minimal irreducible presentation, where focusing
    certifies intrinsic synchronization. Images are row ids, stepped through
    the row tables from the full state set; ids 1..n are the single
    states."""
    if not (dp.minimal and dp.irreducible):
        raise ValueError("synchronizing-word analysis needs the minimal cover")
    nv = dp.lg.graph.n
    engine = dp.lg.relations
    steps = [(a, engine.tables[a].__getitem__) for a in dp.lg.alphabet]
    out = []
    frontier = [((), engine.intern((1 << nv) - 1))]
    for _ in range(L):
        nxt = []
        for w, img in frontier:
            for a, step in steps:
                img2 = step(img)
                if img2:
                    w2 = w + (a,)
                    nxt.append((w2, img2))
                    if img2 <= nv:
                        out.append(word_str(w2))
        frontier = nxt
    return sorted(out, key=lambda w: (len(w), w))


@dataclass(frozen=True)
class ReceptiveCertificate:
    receptive: bool
    state: str | None
    rotation: str | None
    reason: str


def _closed_at(engine: RelationEngine, rid: int) -> set:
    """Source indices v whose row in relation id ``rid`` holds v: the
    states where a word of that relation labels a closed path."""
    sources, row_ids = engine.relations[rid]
    rows = engine.rows
    return {v for v, r in zip(sources, row_ids) if rows[r] >> v & 1}


def is_receptive(dp: DeterministicPresentation, w) -> ReceptiveCertificate:
    """Does the point w^infinity admit a presentation of its own least
    period, i.e. a closed path of length |w| labeled by a rotation of w in
    the minimal cover?"""
    if not (dp.minimal and dp.irreducible):
        raise ValueError("receptivity check needs the minimal irreducible cover")
    w = as_word(w)
    if least_rotation_period(w) != len(w):
        raise ValueError("w must not be purely periodic")
    engine = dp.lg.relations
    idx = dp.lg.graph.index
    for r in range(len(w)):
        rot = w[r:] + w[:r]
        closed = _closed_at(engine, engine._word_id(rot))
        for q in dp.states:
            if idx[q] in closed:
                return ReceptiveCertificate(True, q, word_str(rot), "cycle found")
    return ReceptiveCertificate(
        False, None, None, "no closed path of this length carries any rotation"
    )


def receptive_lps_upto(dp: DeterministicPresentation, N: int) -> frozenset:
    """Least periods n <= N of receptive periodic points: lengths n for
    which some primitive word of length n labels a closed path.

    Counted exactly on the relation classes of :func:`_relation_classes`.
    The words of a class whose relation is the (n/m)-th power of a shorter
    class's are not primitive when that class's are, so a class's primitive
    count is its word count less, for each divisor m < n and each class of
    length m with primitive words, their count when the power lands in it.
    """
    if not (dp.minimal and dp.irreducible):
        raise ValueError("receptive analysis needs the minimal irreducible cover")
    engine = dp.lg.relations
    primitive: dict = {}  # m -> ((representative, primitive count), ...)
    out = set()
    for n, level in _relation_classes(dp.lg, N):
        counts = {rid: cnt for rid, (cnt, _rep) in level.items()}
        for m in divisors(n)[:-1]:
            for rep, cnt in primitive[m]:
                rid = engine._word_id(rep * (n // m))
                if rid:
                    counts[rid] -= cnt
        primitive[n] = tuple((level[rid][1], c) for rid, c in counts.items() if c)
        if any(c and _closed_at(engine, rid) for rid, c in counts.items()):
            out.add(n)
    return frozenset(out)


# -- layer graphs and the unique-preimage decomposition -------------------------


def _matched_images(rows) -> set:
    """Masks of the vertex sets V onto which an injective matching carries
    the sources with successor masks ``rows``: each source goes to a vertex
    of its row, distinct sources to distinct vertices."""
    images = {0}
    for row in rows:
        grown = set()
        for img in images:
            free = row & ~img
            while free:
                low = free & -free
                grown.add(img | low)
                free ^= low
        images = grown
    return images


def _layer_tables(lg: LabeledGraph, i: int) -> tuple:
    """(subsets, step masks, components) of layer i, on vertex indices.

    Layer vertex k is ``subsets[k]``, the k-th i-subset of the
    presentation's vertex indices in combinations order. ``step masks``
    maps each symbol a to a tuple indexed by layer vertex: bit k of U's
    entry is set when an injective a-matching carries U onto subsets[k].
    ``components`` holds (j, mask) for each nontrivial strongly connected
    component of the layer, mask its layer vertices and j its number in
    :func:`scc_decompose`'s canonical order: that of :func:`layer_graph`
    for i >= 2, and for i = 1 that of the presentation itself, whose
    vertex ids the layer-1 analysis reports against.
    """
    subsets = list(combinations(range(lg.graph.n), i))
    pos = {}
    for k, U in enumerate(subsets):
        pos[sum(1 << v for v in U)] = k
    step_masks = {}
    union = [0] * len(subsets)
    for a, succ in lg.step_masks.items():
        out = []
        for k, U in enumerate(subsets):
            m = 0
            for img in _matched_images([succ[u] for u in U]):
                m |= 1 << pos[img]
            out.append(m)
            union[k] |= m
        step_masks[a] = tuple(out)
    verts = lg.graph.by_index
    if i == 1:
        names = verts
    else:
        names = ["{" + ",".join(verts[v] for v in U) + "}" for U in subsets]
    comps = strong_components([list(_bits(m)) for m in union])
    comps.sort(key=lambda c: sorted(names[v] for v in c))
    masks = []
    for j, comp in enumerate(comps):
        mask = sum(1 << v for v in comp)
        if any(union[v] & mask for v in comp):
            masks.append((j, mask))
    return subsets, step_masks, tuple(masks)


@dataclass(frozen=True)
class LayerGraph:
    """Layer i: vertices are the i-subsets of the source vertices; an
    a-labeled edge U -> V marks an injective a-matching from U onto V.
    Layer 1 reproduces the source presentation (as a labeled relation)."""

    index: int
    lg: LabeledGraph
    subsets: tuple  # tuple of sorted vertex-id tuples


def layer_graph(lg: LabeledGraph, i: int) -> LayerGraph:
    """Layer i as a labeled graph, its vertices named "{u,v,...}"."""
    if i < 1:
        raise ValueError("layer index must be >= 1")
    subsets, step_masks, _components = _layer_tables(lg, i)
    verts = lg.graph.by_index
    subsets = tuple(tuple(verts[v] for v in U) for U in subsets)
    names = ["{" + ",".join(U) + "}" for U in subsets]
    edges, labels = [], {}
    for a, masks in step_masks.items():
        for k, m in enumerate(masks):
            for y in _bits(m):
                eid = f"{names[k]}~{a}~{names[y]}"
                edges.append((names[k], names[y], eid))
                labels[eid] = a
    g = DirectedMultigraph.build(names, edges)
    return LayerGraph(i, LabeledGraph.build(g, labels), subsets)


@dataclass(frozen=True)
class LayerDecomposition:
    """supports[(i, j)] = least periods contributed by points with exactly i
    mutually separated presentations whose layer-i presentation lies in
    irreducible component j."""

    N: int
    supports: tuple  # (((i, j), frozenset of periods), ...)
    witnesses: tuple  # ((period, word, layer, component), ...)

    @property
    def union(self) -> frozenset:
        out = set()
        for _, periods in self.supports:
            out |= periods
        return frozenset(out)

    def support_map(self) -> dict:
        return {k: v for (k, v) in self.supports}

    def to_json(self) -> list:
        return [
            {"period": p, "word": w, "layer": i, "component": j}
            for (p, w, i, j) in self.witnesses
        ]


def unique_preimage_lps(lg: LabeledGraph, N: int) -> LayerDecomposition:
    """Classify every least period n <= N by the exact number of mutually
    separated presentations of a witnessing point and the layer component
    presenting it; the union over retained (layer, component) pairs is the
    full LPS on [1, N].

    One walk over the Lyndon words (:func:`_lyndon_walk`) gives each word w
    and its relation R_w on the presentation (layer 1). The separation of
    w, the highest layer whose relation of w has a cycle, is found by
    testing layers 2, 3, ... in turn, up to min(states, |image(R_w)|): a
    layer-i relation of w pairs i-sets joined by a bijection along w-paths,
    so its targets lie in image(R_w), and composing the bijections around
    one of its cycles puts all i sources on cycles of R_w. The bound is
    kept per id of R_w, and a layer is built when the first word reaches
    it. Each built layer keeps the relation ids of the prefixes of the last
    word it extended (:func:`_prefix_id`), cut back to the prefix the walk
    has left in place since.

    Layer vertices are subsets of the presentation's states, so this is a
    desk-scale analysis; presentations beyond LAYER_MAX_STATES states are
    refused as a resource limit.
    """
    nv = lg.graph.n
    if nv > LAYER_MAX_STATES:
        raise ResourceLimitExceeded(
            f"layer analysis needs <= {LAYER_MAX_STATES} states, got {nv}"
        )
    engine = lg.relations
    rows, relations = engine.rows, engine.relations
    alphabet = lg.alphabet
    # layers[i]: (relation engine, steps by symbol index, prefix relation
    # ids of the last word extended, components); layer 1 is the
    # presentation, whose relation ids the walk supplies
    layers: list = [None, (engine, None, None, _layer_tables(lg, 1)[2])]
    tops: dict = {}  # layer-1 relation id -> highest layer worth testing
    found = []  # (period, word, separation, relation id at that layer)
    sym = [0] * max(N, 0)
    cut = N  # shortest prefix the walk left in place since the last ladder
    for n, rid, shared in _lyndon_walk(lg, N, sym):
        if shared < cut:
            cut = shared
        top = tops.get(rid)
        if top is None:
            image = 0
            for r in relations[rid][1]:
                image |= rows[r]
            top = tops[rid] = min(nv, image.bit_count())
        sep = 1
        if top > 1:
            for layer in layers[2:]:
                del layer[2][cut + 1:]
            cut = N
            for i in range(2, top + 1):
                if i == len(layers):
                    layers.append(_ladder_layer(lg, i))
                layer_engine, steps, ids, _comps = layers[i]
                r = _prefix_id(ids, steps, sym, n)
                cyc = layer_engine.cycles[r]
                if cyc is None:
                    cyc = layer_engine._cycle(r)
                if not cyc:
                    break
                sep, rid = i, r
        found.append((n, "".join(map(alphabet.__getitem__, sym[:n])), sep, rid))
    supports: dict = {}
    witnesses = []
    components: dict = {}  # (layer, relation id) -> its cycle components
    for n, word, sep, rid in found:
        comps = components.get((sep, rid))
        if comps is None:
            layer_engine, _steps, _ids, layer_comps = layers[sep]
            sources, row_ids = layer_engine.relations[rid]
            comps = components[(sep, rid)] = sorted(
                _cycle_components(sources, layer_engine.row_masks(row_ids), layer_comps)
            )
        for j in comps:
            supports.setdefault((sep, j), set()).add(n)
        witnesses.append((n, word, sep, comps[0]))
    return LayerDecomposition(
        N,
        tuple(sorted((k, frozenset(v)) for k, v in supports.items())),
        tuple(sorted(witnesses)),
    )


def _prefix_id(ids: list, steps: list, sym: list, n: int) -> int:
    """Relation id of the word with symbol indices ``sym[:n]``, given that
    ids[k] is that of sym[:k] for every k < len(ids) <= n + 1 (ids[0] = 1,
    the identity). Steps the last id over the rest of the word, one
    relation-table lookup per symbol (``steps``, by symbol index), and
    appends each prefix's id."""
    rid = ids[-1]
    for k in range(len(ids) - 1, n):
        rid = steps[sym[k]](rid)
        ids.append(rid)
    return rid


def _ladder_layer(lg: LabeledGraph, i: int) -> tuple:
    """(relation engine, steps by symbol index, prefix ids [identity],
    components) of layer i >= 2, from :func:`_layer_tables`."""
    subsets, step_masks, comps = _layer_tables(lg, i)
    layer_engine = RelationEngine(step_masks, len(subsets))
    steps = [layer_engine.steps[a].__getitem__ for a in lg.alphabet]
    return layer_engine, steps, [1], comps


def _cycle_components(sources, rows, comps) -> set:
    """Layer components (``comps`` as from :func:`_layer_tables`)
    containing a cycle of the relation with row masks ``rows``. A relation
    cycle is a closed walk of the layer graph, so it never leaves one
    nontrivial component: each is tested on the relation restricted to its
    mask."""
    out = set()
    for j, mask in comps:
        inside = [mask >> v & 1 for v in sources]
        if relation_has_cycle(
            tuple(compress(sources, inside)),
            [row & mask for row in compress(rows, inside)],
        ):
            out.add(j)
    return out
