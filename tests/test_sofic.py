import functools
import itertools
import random

import pytest

from periodlab import sofic
from periodlab.arith import ResourceLimitExceeded, least_rotation_period, min_rotation
from periodlab.graph_core import scc_decompose
from periodlab.realize import _torus_realization, realize_sofic
from periodlab.sft_counting import PeriodSetDescriptor
from periodlab.sofic import (
    DeterministicPresentation,
    determinize_and_minimize,
    is_receptive,
    layer_graph,
    periodic_point_in_shift,
    receptive_lps_upto,
    sofic_lps_upto,
    sofic_period_counts,
    synchronizing_words_upto,
    unique_preimage_lps,
)

from conftest import build_labeled, random_labeled


def multi_phase_100100():
    """Doubled 3-cycle labeled by a repeated primitive word: the point has
    least period 3 but its only presentation is the 6-cycle."""
    word = "100100"
    return build_labeled(
        [f"u{i}" for i in range(6)],
        [(f"u{i}", f"u{(i + 1) % 6}", f"e{i}", word[i]) for i in range(6)],
    )


def layered_dag(layers=9, width=8):
    """An a-loop at s, then s -> `layers` layers of `width` vertices, each
    fully joined to the next by b-edges: one closed walk per length, but
    exponentially many open ones."""
    verts = ["s"] + [f"L{i}.{j}" for i in range(layers) for j in range(width)]
    edges = [("s", "s", "loop", "a")]
    edges += [("s", f"L0.{j}", f"in.{j}", "b") for j in range(width)]
    edges += [
        (f"L{i}.{j}", f"L{i + 1}.{k}", f"b{i}.{j}.{k}", "b")
        for i in range(layers - 1)
        for j in range(width)
        for k in range(width)
    ]
    return build_labeled(verts, edges)


def resolving_moves(lg):
    """(state, symbol) -> state of a right-resolving presentation, read off
    its edges; fails when two edges from one state share a symbol."""
    moves = {}
    for src, dst, eid in lg.graph.edges:
        key = (src, lg.label_map[eid])
        assert key not in moves, f"two {key[1]}-edges leave {src}"
        moves[key] = dst
    return moves


def read(moves, state, w):
    """The state reached from ``state`` along the word w, or None."""
    for a in w:
        state = moves.get((state, a))
        if state is None:
            return None
    return state


def label_matrices(lg):
    """Per symbol, the 0/1 adjacency matrix (list of int rows) of the edges
    carrying that symbol, indexed like the graph's vertices."""
    idx = lg.graph.index
    n = lg.graph.n
    mats = {a: [[0] * n for _ in range(n)] for a in lg.alphabet}
    for src, dst, eid in lg.graph.edges:
        mats[lg.label_map[eid]][idx[src]][idx[dst]] = 1
    return mats


def bool_product(A, B):
    """Integer product of 0/1 matrices, each entry clamped back to 0/1."""
    n = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [0] * n
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(B[k]):
                    acc[j] += x * y
        out.append([1 if v else 0 for v in acc])
    return out


def is_nilpotent(M):
    """M^m == 0 for some m >= dimension (squarings until m >= n)."""
    power, m = M, 1
    while m < len(M):
        power = bool_product(power, power)
        m *= 2
    return not any(any(row) for row in power)


def on_relation_cycle(M):
    """Indices v with v -> ... -> v in the 0/1 relation matrix M, read off
    its transitive closure (Warshall)."""
    n = len(M)
    reach = [list(row) for row in M]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = 1
    return [v for v in range(n) if reach[v][v]]


def reference_products(lg, N):
    """word -> product of the label matrices, for every word of length <= N."""
    mats = label_matrices(lg)
    n = lg.graph.n
    level = {(): [[int(i == j) for j in range(n)] for i in range(n)]}
    out = {}
    for _ in range(N):
        level = {
            w + (a,): bool_product(M, mats[a])
            for w, M in level.items()
            for a in lg.alphabet
        }
        out.update(level)
    return out


def decode(lg, rel, engine=None):
    """The (v, y) pairs of an engine relation: a labeled path from v to y.
    The rows are read from ``engine``, by default the presentation's."""
    sources, row_ids = rel
    rows = (engine or lg.relations).row_masks(row_ids)
    return {(v, y) for v, row in zip(sources, rows) for y in range(row.bit_length()) if row >> y & 1}


def reference_class_pass(lg, N, products, nonnil):
    """The relation-class pass on label-matrix products: the words of each
    length grouped by product, each class keeping the first word the pass
    meets; p_n counts the words in classes with a non-nilpotent product,
    and each such class's first word names a witness for its least period."""
    p, witnesses = [], {}
    level = {(): [1, ()]}
    for _ in range(N):
        nxt = {}
        for cnt, rep in level.values():
            for a in lg.alphabet:
                w = rep + (a,)
                M = products[w]
                if not any(any(row) for row in M):
                    continue
                key = tuple(map(tuple, M))
                if key in nxt:
                    nxt[key][0] += cnt
                else:
                    nxt[key] = [cnt, w]
        level = nxt
        total = 0
        for cnt, rep in level.values():
            if nonnil[rep]:
                total += cnt
                rho = least_rotation_period(rep)
                witnesses.setdefault(rho, "".join(min_rotation(rep[:rho])))
        p.append(total)
    return p, witnesses


def renamed(lg, names="a ab a0 b ba bb b0".split()):
    """``lg`` with vertex s<k> renamed names[k]: ids one of which is a prefix
    of another, so wrapping them in braces, as layer-graph names do,
    changes their sorted order ("a" < "ab" but "{ab}" < "{a}")."""
    data = lg.to_json()
    rename = {f"s{k}": name for k, name in enumerate(names)}
    return build_labeled(
        [rename[v] for v in data["vertices"]],
        [(rename[e["from"]], rename[e["to"]], e["id"], e["label"]) for e in data["edges"]],
    )


def reference_layer_decomposition(lg, N):
    """(supports, witnesses) of the layer decomposition by brute force, with
    neither the Lyndon walk nor prefix ids: every word of length <= N, the
    Lyndon ones kept, and each one's label-matrix product on every layer
    graph (layer 1: the presentation itself). A word's separation is the
    highest layer where its product is not nilpotent; its components are
    those, numbered by scc_decompose, that hold a vertex on a cycle of that
    product."""
    layers = []
    for i in range(1, lg.graph.n + 1):
        layer = lg if i == 1 else layer_graph(lg, i).lg
        layers.append((i, layer, reference_products(layer, N), scc_decompose(layer.graph)))
    supports, witnesses = {}, []
    for n in range(1, N + 1):
        for w in itertools.product(lg.alphabet, repeat=n):
            if least_rotation_period(w) != n or min_rotation(w) != w:
                continue
            top = None
            for i, layer, products, dec in layers:
                M = products.get(w)  # None: a symbol the layer does not carry
                if M is not None and not is_nilpotent(M):
                    top = (i, layer, M, dec)
            if top is None:
                continue
            i, layer, M, dec = top
            comps = sorted({
                j
                for v in on_relation_cycle(M)
                for j, comp in enumerate(dec.components)
                if layer.graph.by_index[v] in comp
            })
            for j in comps:
                supports.setdefault((i, j), set()).add(n)
            witnesses.append((n, "".join(w), i, comps[0]))
    return (
        tuple(sorted((k, frozenset(v)) for k, v in supports.items())),
        tuple(sorted(witnesses)),
    )


@functools.cache
def engine_cases():
    """(presentation, N, word -> label-matrix product, word -> product not
    nilpotent) for the relation-engine tests, one >64-vertex case included."""
    rng = random.Random(404)
    out = [(random_labeled(rng, max_states=4), 7) for _ in range(10)]
    out += [(random_labeled(rng, max_states=3, alphabet="012"), 5) for _ in range(6)]
    # {3, 4, 6, 8, ...} misses 3 + 4, so it gets the 79-vertex torus
    big = realize_sofic(PeriodSetDescriptor.make({3}, [(2, 2, ())], certified=True))
    assert big.graph.n > 64
    out.append((big, 7))
    cases = []
    for lg, N in out:
        products = reference_products(lg, N)
        nonnil = {w: not is_nilpotent(M) for w, M in products.items()}
        cases.append((lg, N, products, nonnil))
    return tuple(cases)


class TestRelationEngine:
    """The interned-row relation engine against 0/1 matrix products."""

    def test_against_matrix_products(self):
        for lg, N, products, nonnil in engine_cases():
            lyndon = []
            for w, M in sorted(products.items()):
                pairs = {
                    (i, j) for i, row in enumerate(M) for j, x in enumerate(row) if x
                }
                rel = sofic.word_relation(lg, w)
                assert decode(lg, rel) == pairs, (lg.to_json(), w)
                sources, row_ids = rel
                assert list(sources) == sorted(set(sources))
                assert len(row_ids) == len(sources) and 0 not in row_ids
                rows = lg.relations.row_masks(row_ids)
                assert sofic.relation_has_cycle(sources, rows) == nonnil[w], (lg.to_json(), w)
                assert lg.relations.has_cycle(rel) == nonnil[w]
                assert periodic_point_in_shift(lg, w) == nonnil[w]
                if (
                    nonnil[w]
                    and least_rotation_period(w) == len(w)
                    and min_rotation(w) == w
                ):
                    lyndon.append(w)
            found = list(sofic._lyndon_words_in_shift(lg, N))
            assert [w for (w, _rid) in found] == lyndon, lg.to_json()
            for w, rid in found:
                assert lg.relations.relations[rid] == sofic.word_relation(lg, w)

    def test_relation_ids_against_matrix_products(self):
        # one id per relation: two words share an id exactly when their
        # label-matrix products are equal, the id's relation is the word's,
        # its cycle answer is the product's, and stepping the id of w's
        # prefix by w's last symbol reaches the same id
        for lg, N, products, nonnil in engine_cases():
            engine = lg.relations
            id_of_product = {}
            for w, M in sorted(products.items()):
                rid = engine._word_id(w)
                assert engine.relations[rid] == sofic.word_relation(lg, w)
                assert engine._cycle(rid) == nonnil[w], (lg.to_json(), w)
                assert engine.steps[w[-1]][engine._word_id(w[:-1])] == rid
                key = tuple(map(tuple, M))
                assert id_of_product.setdefault(key, rid) == rid, (lg.to_json(), w)
                assert (rid == 0) == (not any(map(any, M)))
            assert len(set(id_of_product.values())) == len(id_of_product)
            assert engine._word_id(()) == 1
            assert engine.relations[1] == (
                tuple(range(lg.graph.n)), tuple(range(1, lg.graph.n + 1))
            )
            assert engine.relations[0] == sofic.EMPTY_RELATION
            assert len(engine.cycles) == len(engine.relations)

    def test_class_pass_steps_each_relation_once(self, monkeypatch):
        # relations recur across lengths: the class pass steps each
        # (relation id, symbol) pair at most once and looks the rest up
        stepped = []
        step = sofic._RelationTable.__missing__

        def recorded(table, rid):
            stepped.append((id(table), rid))
            return step(table, rid)

        monkeypatch.setattr(sofic._RelationTable, "__missing__", recorded)
        # the torus of {n >= 1}: its many relations recur across lengths
        lg = _torus_realization(PeriodSetDescriptor.make((), [(1, 1, ())], certified=True))
        p, _witnesses = sofic_period_counts(lg, 16)
        assert p[15] > 0
        assert stepped and len(stepped) == len(set(stepped))

    def test_period_counts_against_matrix_products(self):
        # p_n is the number of length-n words whose product is not nilpotent
        for lg, N, _products, nonnil in engine_cases():
            p, _witnesses = sofic_period_counts(lg, N)
            want = [
                sum(1 for w, x in nonnil.items() if len(w) == n and x)
                for n in range(1, N + 1)
            ]
            assert p == want, lg.to_json()

    def test_witnesses_against_reference_class_pass(self):
        # the same classes, met in the same order, give the same witness
        # words, in the same insertion order
        for lg, N, products, nonnil in engine_cases():
            p, witnesses = sofic_period_counts(lg, N)
            ref_p, ref_witnesses = reference_class_pass(lg, N, products, nonnil)
            assert p == ref_p
            assert list(witnesses.items()) == list(ref_witnesses.items()), lg.to_json()

    def test_prefix_relations_against_word_relation(self):
        # words asked for in any order, each one's prefix ids cut back to
        # the prefix it shares with the word before, on the presentation
        # (ids against the engine's) and on each higher layer (relations, as
        # pairs of vertex subsets, against those of the layer graph)
        rng = random.Random(505)
        for _ in range(8):
            lg = random_labeled(rng, max_states=4, alphabet="012")
            alphabet = lg.alphabet
            verts = lg.graph.by_index
            for i in range(1, lg.graph.n + 1):
                if i == 1:
                    engine = lg.relations
                    steps = [engine.steps[a].__getitem__ for a in alphabet]
                    subsets = [(v,) for v in range(lg.graph.n)]
                else:
                    engine, steps, _ids, _comps = sofic._ladder_layer(lg, i)
                    subsets = sofic._layer_tables(lg, i)[0]
                layer = layer_graph(lg, i).lg
                names = [
                    "{" + ",".join(verts[v] for v in U) + "}" for U in subsets
                ]
                layer_names = layer.graph.by_index
                ids, word = [1], ()
                for _ in range(40):
                    w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
                    shared = 0
                    while shared < min(len(w), len(word)) and w[shared] == word[shared]:
                        shared += 1
                    del ids[shared + 1:]
                    sym = [alphabet.index(a) for a in w]
                    rid = sofic._prefix_id(ids, steps, sym, len(w))
                    assert len(ids) == len(w) + 1 and ids[-1] == rid
                    for k in range(len(w) + 1):
                        got = decode(None, engine.relations[ids[k]], engine)
                        want = decode(layer, sofic.word_relation(layer, w[:k]))
                        assert {(names[u], names[v]) for u, v in got} == {
                            (layer_names[u], layer_names[v]) for u, v in want
                        }, (lg.to_json(), i, w[:k])
                    if i == 1:
                        assert rid == lg.relations._word_id(w), (lg.to_json(), w)
                    word = w

    def test_layer_tables_against_layer_graph(self):
        # layer 1's step masks are the presentation's own, and every layer's
        # components are the nontrivial ones of its layer graph (of the
        # presentation, for layer 1) as index-subset masks
        rng = random.Random(707)
        for k in range(24):
            lg = random_labeled(rng, max_states=5)
            if k % 2:
                lg = renamed(lg)
            assert sofic._layer_tables(lg, 1)[1] == lg.step_masks
            verts = lg.graph.by_index
            for i in range(1, lg.graph.n + 2):
                subsets, _masks, comps = sofic._layer_tables(lg, i)
                layer = lg if i == 1 else layer_graph(lg, i).lg
                dec = scc_decompose(layer.graph)
                names = [
                    verts[U[0]] if i == 1 else "{" + ",".join(verts[v] for v in U) + "}"
                    for U in subsets
                ]
                got = [
                    (j, frozenset(names[v] for v in range(len(subsets)) if mask >> v & 1))
                    for j, mask in comps
                ]
                assert got == [(j, dec.components[j]) for j in dec.nontrivial], (
                    lg.to_json(), i,
                )

    def test_cycle_components_against_transitive_closure(self):
        # relations read off layer-graph label-matrix products, carried to
        # the index subsets of _layer_tables, against the layer graph's
        # components holding a vertex on a relation cycle
        rng = random.Random(606)
        cases = [(random_labeled(rng, max_states=6), 4) for _ in range(12)]
        cases += [(random_labeled(rng, max_states=4, alphabet="012"), 3) for _ in range(4)]
        for lg, N in cases:
            verts = lg.graph.by_index
            for i in range(1, lg.graph.n + 1):
                layer = lg if i == 1 else layer_graph(lg, i).lg
                subsets, _masks, comps = sofic._layer_tables(lg, i)
                dec = scc_decompose(layer.graph)
                by_index = layer.graph.by_index
                # layer-graph vertex index -> index subset position
                at = {
                    layer.graph.index[
                        verts[U[0]] if i == 1 else "{" + ",".join(verts[v] for v in U) + "}"
                    ]: k
                    for k, U in enumerate(subsets)
                }
                for w, M in reference_products(layer, N).items():
                    rows = {
                        at[v]: sum(1 << at[y] for y, x in enumerate(row) if x)
                        for v, row in enumerate(M)
                        if any(row)
                    }
                    sources = tuple(sorted(rows))
                    want = {
                        j
                        for v in on_relation_cycle(M)
                        for j, comp in enumerate(dec.components)
                        if by_index[v] in comp
                    }
                    got = sofic._cycle_components(
                        sources, [rows[v] for v in sources], comps
                    )
                    assert got == want, (lg.to_json(), i, w)

    def test_cycle_components_skip_a_component_the_relation_crosses(self):
        # "a" runs A -> A, A -> B1 -> C, C -> C: its relation passes through
        # the component {B1, B2} (a b-cycle) but has no cycle inside it
        lg = build_labeled(
            ["A", "B1", "B2", "C"],
            [
                ("A", "A", "aa", "a"),
                ("A", "B1", "ab", "a"),
                ("B1", "C", "bc", "a"),
                ("C", "C", "cc", "a"),
                ("B1", "B2", "b12", "b"),
                ("B2", "B1", "b21", "b"),
            ],
        )
        dec = scc_decompose(lg.graph)
        comp_of = {v: j for j, comp in enumerate(dec.components) for v in comp}
        sources, row_ids = sofic.word_relation(lg, "a")
        got = sofic._cycle_components(
            sources, lg.relations.row_masks(row_ids), sofic._layer_tables(lg, 1)[2]
        )
        assert got == {comp_of["A"], comp_of["C"]}

    def test_long_chain(self):
        # a path through 3,000 sources in shuffled order, its end pointing
        # at a vertex that is no source: no cycle. Closing the far end back
        # to the start makes one cycle through every source. The search goes
        # as deep as the path, past Python's recursion limit.
        V = 3000
        order = list(range(V))
        random.Random(909).shuffle(order)
        succ = {order[i]: 1 << order[i + 1] for i in range(V - 1)}
        succ[order[-1]] = 1 << V
        sources = tuple(sorted(succ))
        assert not sofic.relation_has_cycle(sources, [succ[v] for v in sources])
        succ[order[-1]] |= 1 << order[0]
        assert sofic.relation_has_cycle(sources, [succ[v] for v in sources])

    def test_class_pass_answers_powers_from_their_roots(self, monkeypatch):
        # u^k has relation R_u^k, which has a cycle exactly when R_u has one:
        # the class pass reads the answer off u's class and never searches
        # the relation of a proper power. The torus of {n >= 10} meets proper
        # powers with live relations below N; its gap chain meets none, so
        # it would not exercise the rule
        lg = _torus_realization(PeriodSetDescriptor.make((), [(1, 10, ())], certified=True))
        N = 12
        searched = set()
        search = sofic._cycle_search

        def recorded(sources, rows, alive):
            searched.add((tuple(sources), tuple(rows)))
            return search(sources, rows, alive)

        monkeypatch.setattr(sofic, "_cycle_search", recorded)
        p, _witnesses = sofic_period_counts(lg, N)
        assert p[N - 1] > 0 and searched
        powers = set()
        for m in range(1, N // 2 + 1):
            for u in itertools.product(lg.alphabet, repeat=m):
                for k in range(2, N // m + 1):
                    sources, row_ids = sofic.word_relation(lg, u * k)
                    if sources:
                        powers.add((sources, lg.relations.row_masks(row_ids)))
        assert powers
        assert not searched & powers

    def test_lyndon_search_respects_budget(self, full_shift_cover, monkeypatch):
        # the one-vertex full 2-shift has 2 + 1 + 2 + 3 Lyndon words up to
        # length 4, reached through 2 + 3 + 5 + 8 relation steps
        words = ["".join(w) for (w, _rid) in sofic._lyndon_words_in_shift(full_shift_cover, 4)]
        assert words == ["0", "0001", "001", "0011", "01", "011", "0111", "1"]
        monkeypatch.setattr(sofic, "WORD_BUDGET", 18)
        assert len(list(sofic._lyndon_words_in_shift(full_shift_cover, 4))) == 8
        monkeypatch.setattr(sofic, "WORD_BUDGET", 17)
        with pytest.raises(ResourceLimitExceeded, match="word sweep"):
            list(sofic._lyndon_words_in_shift(full_shift_cover, 4))

    def test_walk_shared_length_is_common_prefix(self):
        # the walk lists the words of _lyndon_words_in_shift, in order, and
        # each one's shared length is its common prefix with the word before
        rng = random.Random(808)
        cases = [(random_labeled(rng, max_states=5), 9) for _ in range(20)]
        cases += [(random_labeled(rng, max_states=4, alphabet="012"), 6) for _ in range(10)]
        for lg, N in cases:
            sym = [0] * N
            walked, prev = [], ()
            for n, rid, shared in sofic._lyndon_walk(lg, N, sym):
                w = tuple(lg.alphabet[i] for i in sym[:n])
                common = 0
                while common < min(n, len(prev)) and w[common] == prev[common]:
                    common += 1
                assert shared == common, (lg.to_json(), prev, w)
                walked.append((w, rid))
                prev = w
            assert walked == list(sofic._lyndon_words_in_shift(lg, N)), lg.to_json()


class TestSoficLps:
    def test_even_shift(self, even_shift):
        res = sofic_lps_upto(even_shift, 6)
        assert res.support == frozenset({1, 3, 4, 5, 6})
        assert all(
            least_rotation_period(w) == p for (p, w) in res.witnesses
        )

    def test_zero_cycle(self, zero_two_cycle):
        assert sofic_lps_upto(zero_two_cycle, 4).support == frozenset({1})

    def test_full_shift(self, full_shift_cover):
        assert sofic_lps_upto(full_shift_cover, 3).support == frozenset({1, 2, 3})

    @pytest.mark.parametrize("alphabet,N", [("01", 30), ("012", 20)])
    def test_missing_period_witnesses_are_cheap(self, alphabet, N, monkeypatch):
        # one vertex is one relation class per length, whose representative
        # 0...0 witnesses period 1 only; every other period takes its
        # witness 0^(n-1)1 from a search of 2n relation steps, not from one
        # search to depth N that first passes every prenecklace 00...
        lg = build_labeled(
            ["v"], [("v", "v", f"e{a}", a) for a in alphabet]
        )
        monkeypatch.setattr(sofic, "WORD_BUDGET", len(alphabet) * N)
        res = sofic_lps_upto(lg, N)
        assert res.support == frozenset(range(1, N + 1))
        assert dict(res.witnesses) == {
            n: "0" * (n - 1) + "1" if n > 1 else "0" for n in range(1, N + 1)
        }

    def test_counts_match_word_enumeration(self, even_shift):
        # p_n of the even shift: count length-n binary words w with
        # w-periodic extension allowed (independent direct check)
        p, _ = sofic_period_counts(even_shift, 10)
        from itertools import product

        for n in range(1, 11):
            direct = 0
            for w in product("01", repeat=n):
                if periodic_point_in_shift(even_shift, w):
                    direct += 1
            assert p[n - 1] == direct

    def test_witnesses_are_points(self, even_shift, full_shift_cover):
        rng = random.Random(71)
        cases = [(even_shift, 6), (full_shift_cover, 8), (multi_phase_100100(), 12)]
        cases += [(random_labeled(rng, max_states=4), 12) for _ in range(15)]
        for desc in (
            PeriodSetDescriptor.singleton(4),
            PeriodSetDescriptor.make((), [(2, 3, ())], certified=True),
            PeriodSetDescriptor.make({1}, [(3, 2, ())], certified=True),
        ):
            cases.append((realize_sofic(desc), 20))
            if desc.components:
                cases.append((_torus_realization(desc), 20))
        for lg, N in cases:
            res = sofic_lps_upto(lg, N)
            assert res.support, lg.to_json()
            for period, w in res.witnesses:
                assert len(w) == period
                assert least_rotation_period(w) == period
                assert periodic_point_in_shift(lg, w)

    def test_multi_phase_point_found(self):
        res = sofic_lps_upto(multi_phase_100100(), 4)
        assert res.support == frozenset({3})
        assert res.witnesses == ((3, "001"),)

    def test_layered_dag_has_one_fixed_point(self):
        # the open b-walks through the layers number 8^9, but no closed
        # walk uses them, so only the a-loop's fixed point is periodic
        res = sofic_lps_upto(layered_dag(), 12)
        assert res.witnesses == ((1, "a"),)


class TestSoficCaps:
    def test_relation_class_cap(self, even_shift, monkeypatch):
        # the even shift has two relation classes at length 1
        monkeypatch.setattr(sofic, "RELATION_CLASS_CAP", 1)
        with pytest.raises(ResourceLimitExceeded, match="relation-class"):
            sofic_period_counts(even_shift, 4)
        with pytest.raises(ResourceLimitExceeded, match="relation-class"):
            sofic_lps_upto(even_shift, 4)

    def test_word_budget_in_witness_search(self, full_shift_cover, monkeypatch):
        # one vertex: every word of a length shares one relation class whose
        # representative is 0^n, so periods >= 2 need the targeted search
        assert sofic_lps_upto(full_shift_cover, 8).support == frozenset(range(1, 9))
        monkeypatch.setattr(sofic, "WORD_BUDGET", 10)
        with pytest.raises(ResourceLimitExceeded, match="word sweep"):
            sofic_lps_upto(full_shift_cover, 8)

    def test_word_budget_in_layers(self, even_shift, monkeypatch):
        monkeypatch.setattr(sofic, "WORD_BUDGET", 10)
        with pytest.raises(ResourceLimitExceeded, match="word sweep"):
            unique_preimage_lps(even_shift, 6)

    def test_inclusion_pair_cap(self, even_shift, monkeypatch):
        # the inclusion check that certifies irreducibility visits more
        # than one (state, state set) pair on the even shift
        assert determinize_and_minimize(even_shift).minimal
        monkeypatch.setattr(sofic, "INCLUSION_PAIR_CAP", 1)
        with pytest.raises(ResourceLimitExceeded, match="inclusion"):
            determinize_and_minimize(even_shift)

    def test_relation_class_cap_in_receptive_count(self, even_shift, monkeypatch):
        # the even shift's cover has two relation classes at length 1
        dp = determinize_and_minimize(even_shift)
        assert receptive_lps_upto(dp, 4) == frozenset({1, 3, 4})
        monkeypatch.setattr(sofic, "RELATION_CLASS_CAP", 1)
        with pytest.raises(ResourceLimitExceeded, match="relation-class"):
            receptive_lps_upto(dp, 4)


class TestDeterminize:
    def test_even_shift_already_minimal(self, even_shift):
        dp = determinize_and_minimize(even_shift)
        assert dp.minimal and dp.irreducible
        assert len(dp.states) == 2
        assert sofic_lps_upto(dp.lg, 10).support == sofic_lps_upto(even_shift, 10).support

    def test_zero_cycle_collapses(self, zero_two_cycle):
        dp = determinize_and_minimize(zero_two_cycle)
        assert dp.minimal and len(dp.states) == 1
        edges = dp.lg.to_json()["edges"]
        assert len(edges) == 1 and edges[0]["label"] == "0"

    def test_two_disjoint_copies_merge(self, even_shift):
        two = build_labeled(
            ["s0", "s1", "t0", "t1"],
            [
                ("s0", "s0", "a", "1"),
                ("s0", "s1", "b", "0"),
                ("s1", "s0", "c", "0"),
                ("t0", "t0", "d", "1"),
                ("t0", "t1", "e", "0"),
                ("t1", "t0", "f", "0"),
            ],
        )
        dp = determinize_and_minimize(two)
        assert dp.minimal and len(dp.states) == 2
        assert (
            sofic_lps_upto(dp.lg, 8).support
            == sofic_lps_upto(even_shift, 8).support
        )

    def test_right_resolving(self, even_shift):
        dp = determinize_and_minimize(even_shift)
        resolving_moves(dp.lg)  # fails if not right-resolving

    def test_follower_separated(self, even_shift):
        dp = determinize_and_minimize(even_shift)
        moves = resolving_moves(dp.lg)
        # minimality: the two states disagree on some word
        words = ["0", "1", "00", "01", "10", "11"]
        s0, s1 = dp.states
        assert any(
            (read(moves, s0, w) is None) != (read(moves, s1, w) is None) for w in words
        )

    def test_preserves_lps_random(self):
        rng = random.Random(53)
        for _ in range(12):
            lg = random_labeled(rng, max_states=3)
            dp = determinize_and_minimize(lg)
            assert (
                sofic_lps_upto(dp.lg, 12).support
                == sofic_lps_upto(lg, 12).support
            )

    def test_inclusion_check_against_breadth_first_reference(self):
        # on minimized class automata of random presentations, for every
        # state set: a breadth-first search over (state, frozenset) pairs
        # for a word readable from some state but not within the set
        def covered(states, trans, alphabet, comp):
            seen = {(q, frozenset(comp)) for q in states}
            frontier = list(seen)
            while frontier:
                nxt = []
                for q, s in frontier:
                    for a in alphabet:
                        if (q, a) not in trans:
                            continue
                        sn = frozenset(
                            trans[(c, a)] for c in s
                            if (c, a) in trans and trans[(c, a)] in comp
                        )
                        if not sn:
                            return False
                        if (trans[(q, a)], sn) not in seen:
                            seen.add((trans[(q, a)], sn))
                            nxt.append((trans[(q, a)], sn))
                frontier = nxt
            return True

        rng = random.Random(909)
        checked = {True: 0, False: 0}
        for k in range(40):
            lg = random_labeled(rng, 4, "01" if k % 2 else "012").essential()
            trans, states = sofic._subset_automaton(lg)
            states, trans = sofic._trim_automaton(states, trans)
            classes, qtrans = sofic._minimize_partial(states, trans, lg.alphabet)
            for size in range(1, min(len(classes), 5) + 1):
                for comp in itertools.combinations(classes, size):
                    want = covered(classes, qtrans, lg.alphabet, set(comp))
                    got = sofic._language_covered_by(classes, qtrans, lg.alphabet, set(comp))
                    assert got == want, (lg.to_json(), comp)
                    checked[want] += 1
        assert checked[True] and checked[False]

    def test_reducible_shift_flagged(self):
        # disjoint union of the one-point shifts of 0^inf and 1^inf:
        # reducible as a shift (not transitive)
        lg = build_labeled(
            ["z", "o"],
            [("z", "z", "a", "0"), ("o", "o", "b", "1")],
        )
        dp = determinize_and_minimize(lg)
        assert not dp.minimal
        assert (
            sofic_lps_upto(dp.lg, 6).support == sofic_lps_upto(lg, 6).support
        )


class TestSynchronizing:
    def test_even_shift_length_one(self, even_shift):
        dp = determinize_and_minimize(even_shift)
        assert "1" in synchronizing_words_upto(dp, 1)

    def test_even_shift_length_two(self, even_shift):
        dp = determinize_and_minimize(even_shift)
        words = synchronizing_words_upto(dp, 2)
        assert {"10", "01", "11"} <= set(words)
        assert "00" not in words

    def test_full_shift_all_length_one(self, full_shift_cover):
        dp = determinize_and_minimize(full_shift_cover)
        words = synchronizing_words_upto(dp, 1)
        assert set(words) == {"0", "1"}

    def test_rejects_non_minimal(self, even_shift):
        dp = determinize_and_minimize(even_shift)
        fake = DeterministicPresentation(dp.lg, False, True)
        with pytest.raises(ValueError):
            synchronizing_words_upto(fake, 2)


def bounded_synchronizing_definition(dp, w, max_len=8, max_k=8):
    """Cross-check: exist synchronizing v1, v2 with v1 w^k v2 allowed for
    all k <= max_k."""
    sync = synchronizing_words_upto(dp, max_len)
    moves = resolving_moves(dp.lg)

    def allowed(word):
        return any(read(moves, q, word) is not None for q in dp.states)

    for v1 in sync:
        for v2 in sync:
            if all(allowed(v1 + "".join(w) * k + v2) for k in range(1, max_k + 1)):
                return True
    return False


class TestReceptive:
    def test_even_100(self, even_shift):
        dp = determinize_and_minimize(even_shift)
        cert = is_receptive(dp, "100")
        assert cert.receptive and cert.state is not None

    def test_even_0(self, even_shift):
        dp = determinize_and_minimize(even_shift)
        assert not is_receptive(dp, "0").receptive

    def test_full_shift_01(self, full_shift_cover):
        dp = determinize_and_minimize(full_shift_cover)
        assert is_receptive(dp, "01").receptive

    def test_rejects_purely_periodic(self, even_shift):
        dp = determinize_and_minimize(even_shift)
        with pytest.raises(ValueError):
            is_receptive(dp, "0101")

    def test_agreement_with_synchronizing_definition(self, even_shift, golden_cover):
        for lg in (even_shift, golden_cover):
            dp = determinize_and_minimize(lg)
            for n in range(1, 7):
                from itertools import product

                for w in product("01", repeat=n):
                    if least_rotation_period(w) != n:
                        continue
                    cycle_answer = is_receptive(dp, w).receptive
                    bounded = bounded_synchronizing_definition(dp, w, 6, 8)
                    assert cycle_answer == bounded

    def test_receptive_lps_even(self, even_shift):
        dp = determinize_and_minimize(even_shift)
        assert receptive_lps_upto(dp, 6) == frozenset({1, 3, 4, 5, 6})

    def test_receptive_lps_three_cycle(self):
        lg = build_labeled(
            ["x", "y", "z"],
            [("x", "y", "1", "a"), ("y", "z", "2", "b"), ("z", "x", "3", "c")],
        )
        dp = determinize_and_minimize(lg)
        assert receptive_lps_upto(dp, 6) == frozenset({3})

    def test_receptive_lps_golden(self, golden_cover):
        dp = determinize_and_minimize(golden_cover)
        assert receptive_lps_upto(dp, 5) == frozenset({1, 2, 3, 4, 5})

    def test_receptive_lps_is_closed_primitive_words_random(self):
        # on random minimal covers, against every primitive word of each
        # length read along the cover's edges
        rng = random.Random(88)
        covers = 0
        for alphabet in ("01", "012"):
            for _ in range(30):
                dp = determinize_and_minimize(random_labeled(rng, 4, alphabet))
                if not (dp.minimal and dp.irreducible):
                    continue
                covers += 1
                moves = resolving_moves(dp.lg)
                closed = {
                    n
                    for n in range(1, 9)
                    for w in itertools.product(dp.lg.alphabet, repeat=n)
                    if least_rotation_period(w) == n
                    and any(read(moves, q, w) == q for q in dp.states)
                }
                assert receptive_lps_upto(dp, 8) == frozenset(closed), dp.lg.to_json()
        assert covers >= 20

    def test_structure_within_certified_threshold(self, even_shift, golden_cover):
        # contained in d*N with at most an initial-segment complement
        from periodlab.graph_core import component_period, scc_decompose

        for lg in (even_shift, golden_cover):
            dp = determinize_and_minimize(lg)
            rec = receptive_lps_upto(dp, 30)
            dec = scc_decompose(dp.lg.graph)
            d = component_period(dp.lg.graph, dec.components[0])
            assert all(n % d == 0 for n in rec)
            multiples = [n for n in range(d, 31, d)]
            missing = [n for n in multiples if n not in rec]
            present = [n for n in multiples if n in rec]
            # no gaps above the first solid run start
            if present:
                start = min(
                    n for n in present if all(
                        m in rec for m in range(n, 31, d)
                    )
                )
                assert all(m < start for m in missing)


class TestLayers:
    def test_layer_one_reproduces(self, even_shift):
        l1 = layer_graph(even_shift, 1)
        base = {
            (s, t, lab)
            for (s, t, e) in even_shift.graph.edges
            for lab in [even_shift.label_map[e]]
        }
        lifted = {
            (s.strip("{}"), t.strip("{}"), lab)
            for (s, t, e) in l1.lg.graph.edges
            for lab in [l1.lg.label_map[e]]
        }
        assert base == lifted

    def test_zero_cycle_layer_two(self, zero_two_cycle):
        l2 = layer_graph(zero_two_cycle, 2)
        data = l2.lg.to_json()
        assert data["vertices"] == ["{a,b}"]
        assert len(data["edges"]) == 1 and data["edges"][0]["label"] == "0"

    def test_even_shift_layer_two(self, even_shift):
        l2 = layer_graph(even_shift, 2)
        edges = l2.lg.to_json()["edges"]
        assert len(edges) == 1
        assert edges[0]["label"] == "0"
        assert edges[0]["from"] == edges[0]["to"] == "{s0,s1}"

    def test_oversized_layer_empty(self, zero_two_cycle):
        l3 = layer_graph(zero_two_cycle, 3)
        assert l3.lg.graph.n == 0

    def test_edges_against_bijections(self):
        # U -a-> V exactly when some bijection U -> V sends each u along an
        # a-edge, found by trying every ordering of V
        rng = random.Random(717)
        for k in range(16):
            lg = random_labeled(rng, 5, "01" if k % 2 else "012")
            if k % 3 == 0:
                lg = renamed(lg)
            arrows = {(s, lg.label_map[e], t) for (s, t, e) in lg.graph.edges}
            for i in range(1, lg.graph.n + 1):
                subsets = list(itertools.combinations(lg.graph.by_index, i))
                want = {
                    (U, a, V)
                    for U in subsets
                    for V in subsets
                    for a in lg.alphabet
                    if any(
                        all((u, a, v) in arrows for u, v in zip(U, order))
                        for order in itertools.permutations(V)
                    )
                }
                layer = layer_graph(lg, i)
                assert layer.subsets == tuple(subsets)
                name = {"{" + ",".join(U) + "}": U for U in subsets}
                got = {
                    (name[s], layer.lg.label_map[e], name[t])
                    for (s, t, e) in layer.lg.graph.edges
                }
                assert got == want, (lg.to_json(), i)
                assert len(layer.lg.graph.edges) == len(got)


class TestUniquePreimage:
    def test_zero_cycle(self, zero_two_cycle):
        dec = unique_preimage_lps(zero_two_cycle, 4)
        assert dec.support_map() == {(2, 0): frozenset({1})}
        assert dec.union == frozenset({1})

    def test_even_shift(self, even_shift):
        dec = unique_preimage_lps(even_shift, 6)
        m = dec.support_map()
        assert m[(1, 0)] == frozenset({1, 3, 4, 5, 6})
        assert m[(2, 0)] == frozenset({1})
        assert dec.union == sofic_lps_upto(even_shift, 6).support

    def test_full_shift(self, full_shift_cover):
        dec = unique_preimage_lps(full_shift_cover, 8)
        assert dec.support_map() == {(1, 0): frozenset(range(1, 9))}

    def test_decomposition_matches_lps(self, even_shift, zero_two_cycle, golden_cover):
        rng = random.Random(61)
        graphs = [even_shift, zero_two_cycle, golden_cover]
        graphs += [random_labeled(rng, max_states=3) for _ in range(8)]
        for lg in graphs:
            dec = unique_preimage_lps(lg, 10)
            assert dec.union == sofic_lps_upto(lg, 10).support

    def test_against_brute_force_reference(self, even_shift, zero_two_cycle, golden_cover):
        rng = random.Random(61)
        cases = [(lg, 8) for lg in (even_shift, zero_two_cycle, golden_cover)]
        cases += [(random_labeled(rng, 5), 8) for _ in range(80)]
        cases += [(random_labeled(rng, 4, "012"), 6) for _ in range(30)]
        cases += [(multi_phase_100100(), 8)]
        cases += [(renamed(random_labeled(rng, 5)), 8) for _ in range(20)]
        layered = 0
        for lg, N in cases:
            dec = unique_preimage_lps(lg, N)
            assert (dec.supports, dec.witnesses) == reference_layer_decomposition(lg, N), (
                lg.to_json()
            )
            layered += any(layer > 1 for (_p, _w, layer, _j) in dec.witnesses)
        assert layered >= 20

    def test_separation_bound(self, even_shift, zero_two_cycle, golden_cover):
        # a witness's layer is at most the number of vertices on cycles of
        # its relation on the presentation, which is at most its image size
        rng = random.Random(62)
        graphs = [even_shift, zero_two_cycle, golden_cover, multi_phase_100100()]
        graphs += [random_labeled(rng, 6) for _ in range(40)]
        tight = 0
        for lg in graphs:
            for (_period, word, layer, _j) in unique_preimage_lps(lg, 8).witnesses:
                M = [[0] * lg.graph.n for _ in range(lg.graph.n)]
                for v, y in decode(lg, sofic.word_relation(lg, word)):
                    M[v][y] = 1
                on_cycles = len(on_relation_cycle(M))
                image = sum(1 for y in range(lg.graph.n) if any(row[y] for row in M))
                assert layer <= on_cycles <= image, (lg.to_json(), word)
                tight += layer > 1 and layer == image
        assert tight

    def test_witness_fields(self, even_shift):
        dec = unique_preimage_lps(even_shift, 5)
        for (period, word, layer, comp) in dec.witnesses:
            assert least_rotation_period(word) == period
            assert layer >= 1 and comp >= 0
