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
that label closed paths, the receptive least periods. The layer analysis
walks the Lyndon words of the shift (one per periodic orbit) in a single
depth-first search and extends each word's relation id in a higher layer
from that of its longest prefix shared with the word before. Two
presentations of the same point are *mutually separated* when they occupy
distinct vertices at every time; the layer-i graph tracks i-sets of
vertices joined by injective label-respecting matchings, so a point has
>= i mutually separated presentations exactly when some layer-i walk
carries its label.

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
from .graph_core import DirectedMultigraph, essential_subgraph, scc_decompose

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


def _lyndon_words_in_shift(lg: LabeledGraph, N: int):
    """Every Lyndon word w of length <= N whose bi-infinite repetition lies
    in the shift, in lexicographic order over the sorted alphabet; yields
    (w, relation id of w).

    A Lyndon word is primitive and strictly smaller than its other
    rotations, so these are exactly the least-rotation representatives of
    the periodic points with least period <= N. The depth-first search
    extends prenecklaces only (FKM rule: with p the length of the longest
    Lyndon prefix of w, the next symbol is at least w[len(w) - p]; w is
    Lyndon when p = len(w)) and prunes a word whose relation is empty.
    Spends at most WORD_BUDGET relation steps.
    """
    if lg.graph.n == 0 or N < 1:
        return
    engine = lg.relations
    alphabet = lg.alphabet
    steps = [engine.steps[a].__getitem__ for a in alphabet]
    cycles = engine.cycles
    spent = 0
    # (word as symbol indices, longest Lyndon prefix length, relation id)
    stack = [((), 1, 1)]
    while stack:
        w, p, rid = stack.pop()
        t = len(w)
        if t and p == t:
            cyc = cycles[rid]
            if cyc is None:
                cyc = engine._cycle(rid)
            if cyc:
                yield tuple(map(alphabet.__getitem__, w)), rid
        if t == N:
            continue
        low = w[t - p] if t else 0
        children = []
        for i in range(low, len(alphabet)):
            spent += 1
            if spent > WORD_BUDGET:
                raise ResourceLimitExceeded("periodic word sweep budget exceeded")
            nxt = steps[i](rid)
            if nxt:
                children.append((w + (i,), p if i == low else t + 1, nxt))
        stack.extend(reversed(children))


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
    within the state set ``comp``?  Subset-simulation check."""
    comp = frozenset(comp)
    seen = set()
    stack = [(q, comp) for q in states]
    while stack:
        q, s = stack.pop()
        if (q, s) in seen:
            continue
        seen.add((q, s))
        if len(seen) > INCLUSION_PAIR_CAP:
            raise ResourceLimitExceeded("language inclusion check too large")
        for a in alphabet:
            qn = trans.get((q, a))
            if qn is None:
                continue
            sn = frozenset(
                t
                for t in (trans.get((c, a)) for c in s)
                if t is not None and t in comp
            )
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


def _has_perfect_matching(adj: list) -> bool:
    """adj[i] = candidate right indices for left i; both sides same size."""
    n = len(adj)
    match_r = {}

    def augment(i, seen):
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_r or augment(match_r[j], seen):
                match_r[j] = i
                return True
        return False

    for i in range(n):
        if not augment(i, set()):
            return False
    return True


@dataclass(frozen=True)
class LayerGraph:
    """Layer i: vertices are the i-subsets of the source vertices; an
    a-labeled edge U -> V marks an injective a-matching from U onto V.
    Layer 1 reproduces the source presentation (as a labeled relation)."""

    index: int
    lg: LabeledGraph
    subsets: tuple  # tuple of sorted vertex-id tuples


def layer_graph(lg: LabeledGraph, i: int) -> LayerGraph:
    if i < 1:
        raise ValueError("layer index must be >= 1")
    verts = lg.graph.by_index  # sorted ids; vertex k is bit k of the masks
    subsets = list(combinations(verts, i))
    name = {s: "{" + ",".join(s) + "}" for s in subsets}
    idx = lg.graph.index
    masks = lg.step_masks
    edges, labels = [], {}
    for a in lg.alphabet:
        succ = masks[a]
        for U in subsets:
            rows = [succ[idx[u]] for u in U]
            reach = 0
            for row in rows:
                reach |= row
            # only V inside U's successor union can be matched from U
            for ys in combinations(tuple(_bits(reach)), i):
                adj = [[j for j, y in enumerate(ys) if row >> y & 1] for row in rows]
                if all(adj) and _has_perfect_matching(adj):
                    V = tuple(verts[y] for y in ys)
                    eid = f"{name[U]}~{a}~{name[V]}"
                    edges.append((name[U], name[V], eid))
                    labels[eid] = a
    g = DirectedMultigraph.build([name[s] for s in subsets], edges)
    return LayerGraph(i, LabeledGraph.build(g, labels), tuple(subsets))


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

    Layer vertices are subsets of the presentation's states, so this is a
    desk-scale analysis; presentations beyond LAYER_MAX_STATES states are
    refused as a resource limit.
    """
    nv = lg.graph.n
    if nv > LAYER_MAX_STATES:
        raise ResourceLimitExceeded(
            f"layer analysis needs <= {LAYER_MAX_STATES} states, got {nv}"
        )
    layers: dict = {}  # i -> (prefix relations, components, id -> cycle components)

    def layer(i):
        if i not in layers:
            base = lg if i == 1 else layer_graph(lg, i).lg
            layers[i] = _layer_relations(base) + ({},)
        return layers[i]

    supports: dict = {}
    witnesses = []
    for w, rid1 in _lyndon_words_in_shift(lg, N):
        n = len(w)
        sep = 1
        rid_at_sep = rid1
        for i in range(2, nv + 1):
            prefixes = layer(i)[0]
            rid = prefixes.relation(w)
            if not prefixes.engine._cycle(rid):
                break
            sep = i
            rid_at_sep = rid
        prefixes, comps, found_of = layer(sep)
        found = found_of.get(rid_at_sep)
        if found is None:
            sources, row_ids = prefixes.engine.relations[rid_at_sep]
            found = found_of[rid_at_sep] = _cycle_components(
                sources, prefixes.engine.row_masks(row_ids), comps
            )
        for j in found:
            supports.setdefault((sep, j), set()).add(n)
        witnesses.append((n, word_str(w), sep, min(found)))
    return LayerDecomposition(
        N,
        tuple(sorted((k, frozenset(v)) for k, v in supports.items())),
        tuple(sorted(witnesses)),
    )


class _PrefixRelations:
    """Relation ids of the prefixes of the last word asked for, in one
    presentation; the next word starts from the longest prefix the two
    share. The layer analysis asks for Lyndon words in lexicographic order,
    so consecutive words share most of their prefixes."""

    def __init__(self, engine: RelationEngine):
        self.engine = engine
        self.steps = {a: table.__getitem__ for a, table in engine.steps.items()}
        self.word: tuple = ()
        self.ids = [1]  # ids[k]: relation id of word[:k]

    def relation(self, w: tuple) -> int:
        k = 0
        for a, b in zip(self.word, w):
            if a != b:
                break
            k += 1
        del self.ids[k + 1:]
        rid = self.ids[k]
        steps = self.steps
        for a in w[k:]:
            step = steps.get(a)
            rid = 0 if step is None else step(rid)
            self.ids.append(rid)
        self.word = w
        return rid


def _layer_relations(base: LabeledGraph) -> tuple:
    """(prefix relations, ((j, vertex mask), ...)) of a layer presentation,
    one (j, mask) per nontrivial component j of its SCC decomposition."""
    g = base.graph
    dec = scc_decompose(g)
    comps = []
    for j in dec.nontrivial:
        mask = 0
        for v in dec.components[j]:
            mask |= 1 << g.index[v]
        comps.append((j, mask))
    return _PrefixRelations(base.relations), tuple(comps)


def _cycle_components(sources, rows, comps) -> set:
    """Layer components (``comps`` as from :func:`_layer_relations`)
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
