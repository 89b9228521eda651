import random

import pytest

from periodlab.graph_core import (
    Cycle,
    DirectedMultigraph,
    ResourceLimitExceeded,
    basepoint_return_counts,
    closed_walk_counts,
    component_period,
    component_walk_counts,
    contract_chains,
    core_max_walk_counts,
    disjoint_union,
    enumerate_closed_paths,
    essential_subgraph,
    first_return_loops,
    lyndon_closed_path_counts,
    matrix_power,
    max_walk_counts,
    return_tail_start,
    scc_decompose,
    subdivide_edges,
    trace_power,
)

from conftest import attached_cycles_graph_5_2, build_graph, cycle_graph, random_graph


def reachable(g, start):
    adj = {v: set() for v in g.vertices}
    for s, t, _ in g.edges:
        adj[s].add(t)
    seen = {start}
    stack = [start]
    while stack:
        for t in adj[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


class TestScc:
    def test_single_cycle(self):
        dec = scc_decompose(cycle_graph(3))
        assert len(dec.components) == 1
        assert dec.is_trivial == (False,)

    def test_bridge(self):
        g = build_graph(
            ["a", "b", "c", "d", "e"],
            [
                ("a", "b", "1"),
                ("b", "a", "2"),
                ("b", "c", "3"),
                ("c", "d", "4"),
                ("d", "e", "5"),
                ("e", "c", "6"),
            ],
        )
        dec = scc_decompose(g)
        assert sorted(sorted(c) for c in dec.components) == [
            ["a", "b"],
            ["c", "d", "e"],
        ]
        assert dec.is_trivial == (False, False)
        assert dec.condensation_edges == frozenset({(0, 1)})

    def test_attached_cycles_single_component(self):
        # brute-force reachability: every vertex reaches every other
        g = attached_cycles_graph_5_2()
        for v in g.vertices:
            assert reachable(g, v) == set(g.vertices)
        dec = scc_decompose(g)
        assert len(dec.components) == 1
        assert not dec.is_trivial[0]

    def test_condensation_acyclic(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng, max_vertices=6, max_edges=10)
            dec = scc_decompose(g)
            # topological sort of the condensation must succeed
            n = len(dec.components)
            indeg = [0] * n
            for _, b in dec.condensation_edges:
                indeg[b] += 1
            order = [i for i in range(n) if indeg[i] == 0]
            seen = 0
            while order:
                i = order.pop()
                seen += 1
                for a, b in dec.condensation_edges:
                    if a == i:
                        indeg[b] -= 1
                        if indeg[b] == 0:
                            order.append(b)
            assert seen == n

    def test_empty_graph(self):
        dec = scc_decompose(build_graph([], []))
        assert dec.components == ()


class TestPeriod:
    def test_four_cycle(self):
        g = cycle_graph(4)
        dec = scc_decompose(g)
        assert component_period(g, dec.components[0]) == 4

    def test_two_self_loops(self):
        g = build_graph(["v"], [("v", "v", "a"), ("v", "v", "b")])
        assert component_period(g, {"v"}) == 1

    def test_golden_mean_from_cycle_oracle(self, golden_mean):
        # gcd of enumerated cycle lengths
        from math import gcd

        paths = enumerate_closed_paths(golden_mean, 6)
        g = 0
        for n, cycles in paths.items():
            if cycles:
                g = gcd(g, n)
        assert g == 1
        assert component_period(golden_mean, {"a", "b"}) == 1

    def test_trivial_component_rejected(self):
        g = build_graph(["a", "b"], [("a", "b", "e")])
        with pytest.raises(ValueError):
            component_period(g, {"a"})

    def test_matches_cycle_gcd_on_random_graphs(self):
        from math import gcd

        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(
                rng, max_vertices=8, max_edges=10, horizon=12, budget=40_000
            )
            dec = scc_decompose(g)
            paths = enumerate_closed_paths(g, 12)
            for i in dec.nontrivial:
                comp = dec.components[i]
                lengths = [
                    len(c)
                    for n in paths
                    for c in paths[n]
                    if c.start in comp
                ]
                if not lengths:
                    continue
                expect = 0
                for L in lengths:
                    expect = gcd(expect, L)
                assert component_period(g, comp) == expect


class TestTracePower:
    def test_full_two_shift(self, full_two_shift):
        assert trace_power(full_two_shift, 10) == 1024

    def test_golden_mean(self, golden_mean):
        assert [trace_power(golden_mean, n) for n in range(1, 6)] == [1, 3, 4, 7, 11]

    def test_three_cycle(self):
        g = cycle_graph(3)
        assert trace_power(g, 4) == 0
        assert trace_power(g, 6) == 3

    def test_counts_match_enumeration(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(rng, max_vertices=5, max_edges=8, horizon=8)
            paths = enumerate_closed_paths(g, 8)
            for n in range(1, 9):
                assert trace_power(g, n) == len(paths[n])

    def test_additive_over_disjoint_union(self, golden_mean):
        g = disjoint_union([golden_mean, cycle_graph(3)])
        for n in range(1, 9):
            assert trace_power(g, n) == trace_power(golden_mean, n) + trace_power(
                cycle_graph(3), n
            )

    def test_walk_counts_agree(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_graph(rng, max_vertices=6, max_edges=10, horizon=10)
            assert closed_walk_counts(g, 10) == [
                trace_power(g, n) for n in range(1, 11)
            ]

    def test_component_series_on_weighted_core(self, golden_mean):
        dec = scc_decompose(golden_mean)
        assert component_walk_counts(golden_mean, dec.components[0], 5) == [
            1,
            3,
            4,
            7,
            11,
        ]


class TestEnumerate:
    def test_three_cycle(self):
        paths = enumerate_closed_paths(cycle_graph(3), 3)
        assert [len(paths[n]) for n in (1, 2, 3)] == [0, 0, 3]
        assert {c.start for c in paths[3]} == set(cycle_graph(3).vertices)

    def test_golden_counts(self, golden_mean):
        paths = enumerate_closed_paths(golden_mean, 4)
        assert [len(paths[n]) for n in range(1, 5)] == [1, 3, 4, 7]

    def test_acyclic(self):
        g = build_graph(["a", "b"], [("a", "b", "e")])
        paths = enumerate_closed_paths(g, 4)
        assert all(not v for v in paths.values())

    def test_resource_limit_distinct_from_empty(self, full_two_shift):
        with pytest.raises(ResourceLimitExceeded):
            enumerate_closed_paths(full_two_shift, 20, max_total=100)

    def test_visit_budget(self):
        # every walk visited closes, but the 100 starts of a 100-cycle
        # visit 100 walks each for one path: 50 * max_total runs out first
        with pytest.raises(ResourceLimitExceeded, match="visit budget"):
            enumerate_closed_paths(cycle_graph(100), 100, max_total=100)
        paths = enumerate_closed_paths(cycle_graph(100), 100, max_total=200)
        assert len(paths[100]) == 100

    def test_dead_ends_cost_nothing(self):
        # a self-loop feeding an 8-layer, 4-wide DAG that never returns: 4^8
        # walks leave r for every closed path, so an unpruned search runs
        # past the visit budget
        vertices = ["r"] + [f"x{i}.{j}" for i in range(8) for j in range(4)]
        edges = [("r", "r", "loop")] + [("r", f"x0.{j}", f"in{j}") for j in range(4)]
        for i in range(7):
            for j in range(4):
                for k in range(4):
                    edges.append((f"x{i}.{j}", f"x{i + 1}.{k}", f"f{i}.{j}.{k}"))
        g = build_graph(vertices, edges)
        paths = enumerate_closed_paths(g, 12, max_total=100)
        assert [len(paths[n]) for n in range(1, 13)] == [1] * 12
        assert [len(paths[n]) for n in range(1, 13)] == [
            trace_power(g, n) for n in range(1, 13)
        ]
        assert paths[5] == [Cycle("r", ("loop",) * 5)]

    def test_order_matches_unpruned_search(self):
        def unpruned(g, N):
            out = {n: [] for n in range(1, N + 1)}

            def walk(s, v, path):
                for t, eid in g.out_adj[v]:
                    path.append(eid)
                    if t == s:
                        out[len(path)].append(Cycle(g.by_index[s], tuple(path)))
                    if len(path) < N:
                        walk(s, t, path)
                    path.pop()

            for s in range(g.n):
                walk(s, s, [])
            return out

        rng = random.Random(41)
        for _ in range(25):
            g = random_graph(rng, max_vertices=6, max_edges=10, horizon=9)
            assert enumerate_closed_paths(g, 9) == unpruned(g, 9)

    def test_least_period_of_cycle(self):
        assert Cycle("a", ("x", "y", "x", "y")).least_period() == 2
        assert Cycle("a", ("x", "y", "z")).least_period() == 3


class TestLyndonOrbits:
    """``lyndon_closed_path_counts`` against the listing of every closed
    path and against dense matrix powers."""

    def test_random_graphs(self):
        rng = random.Random(23)
        N = 10
        shapes = {"self_loop": 0, "parallel": 0, "components": 0, "acyclic": 0}
        for _ in range(120):
            g = random_graph(rng, max_vertices=6, max_edges=10, horizon=N)
            L = lyndon_closed_path_counts(g, N)
            p = [
                sum(e * L[e - 1] for e in range(1, n + 1) if n % e == 0)
                for n in range(1, N + 1)
            ]
            q = [n * L[n - 1] for n in range(1, N + 1)]
            paths = enumerate_closed_paths(g, N)
            assert p == [len(paths[n]) for n in range(1, N + 1)]
            assert q == [
                sum(c.least_period() == n for c in paths[n]) for n in range(1, N + 1)
            ]
            assert p == [trace_power(g, n) for n in range(1, N + 1)]
            pairs = [(s, t) for (s, t, _) in g.edges]
            shapes["self_loop"] += any(s == t for s, t in pairs)
            shapes["parallel"] += len(set(pairs)) < len(pairs)
            nontrivial = len(scc_decompose(g).nontrivial)
            shapes["components"] += nontrivial >= 2
            shapes["acyclic"] += nontrivial == 0
        assert all(count >= 5 for count in shapes.values()), shapes

    def test_dead_ends_cost_nothing(self):
        # the self-loop feeding a DAG that never returns, as in
        # TestEnumerate.test_dead_ends_cost_nothing: one orbit, of length 1
        vertices = ["r"] + [f"x{i}.{j}" for i in range(8) for j in range(4)]
        edges = [("r", "r", "loop")] + [("r", f"x0.{j}", f"in{j}") for j in range(4)]
        for i in range(7):
            for j in range(4):
                for k in range(4):
                    edges.append((f"x{i}.{j}", f"x{i + 1}.{k}", f"f{i}.{j}.{k}"))
        g = build_graph(vertices, edges)
        assert lyndon_closed_path_counts(g, 12, max_total=1) == [1] + [0] * 11

    def test_visit_budget(self):
        # in a 100-cycle only the start at the least edge closes into a
        # Lyndon word; the start at edge k visits 100 - k walks, 5050 in all
        with pytest.raises(ResourceLimitExceeded, match="visit budget"):
            lyndon_closed_path_counts(cycle_graph(100), 100, max_total=100)
        counts = lyndon_closed_path_counts(cycle_graph(100), 100, max_total=101)
        assert counts == [0] * 99 + [1]

    def test_max_total(self, full_two_shift):
        # binary Lyndon words of length 1..8: 2, 1, 2, 3, 6, 9, 18, 30
        assert lyndon_closed_path_counts(full_two_shift, 8, max_total=71) == [
            2, 1, 2, 3, 6, 9, 18, 30,
        ]
        with pytest.raises(ResourceLimitExceeded, match="more than 70 Lyndon"):
            lyndon_closed_path_counts(full_two_shift, 8, max_total=70)


class TestTransforms:
    def test_subdivide_scales_lengths(self, golden_mean):
        # orbits of length n become orbits of length 3n (3x the basepoints)
        g2 = subdivide_edges(golden_mean, 3)
        for n in range(1, 13):
            expect = 3 * trace_power(golden_mean, n // 3) if n % 3 == 0 else 0
            assert trace_power(g2, n) == expect

    def test_essential_trims_strands(self):
        g = build_graph(
            ["a", "b", "c"],
            [("a", "a", "loop"), ("a", "b", "out"), ("c", "a", "in")],
        )
        ess = essential_subgraph(g)
        assert ess.vertices == ("a",)

    def test_json_round_trip(self, golden_mean):
        assert DirectedMultigraph.from_json(golden_mean.to_json()) == golden_mean

    def test_dot_contains_edges(self, golden_mean):
        dot = golden_mean.to_dot()
        assert '"a" -> "b"' in dot and dot.startswith("digraph")

    def test_dot_round_trip(self, golden_mean):
        assert DirectedMultigraph.from_dot(golden_mean.to_dot()) == golden_mean

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(ValueError):
            build_graph(["a"], [("a", "a", "e"), ("a", "a", "e")])

    def test_dangling_edge_rejected(self):
        with pytest.raises(ValueError):
            build_graph(["a"], [("a", "b", "e")])


def test_concurrent_use_is_safe(golden_mean):
    # pure functions over immutable values: concurrent analyses of shared
    # inputs agree with the sequential results
    from concurrent.futures import ThreadPoolExecutor

    from periodlab.sft_counting import count_table, lps_descriptor_sft

    expected_table = count_table(golden_mean, 12)
    expected_desc = lps_descriptor_sft(golden_mean)
    with ThreadPoolExecutor(max_workers=8) as pool:
        tables = list(pool.map(lambda _: count_table(golden_mean, 12), range(16)))
        descs = list(pool.map(lambda _: lps_descriptor_sft(golden_mean), range(16)))
    assert all(t == expected_table for t in tables)
    assert all(d == expected_desc for d in descs)


class TestCoreWalkCaps:
    """``core_max_walk_counts`` on a component's weighted core against
    ``max_walk_counts`` over the whole component."""

    @staticmethod
    def check(g):
        dec = scc_decompose(g)
        for i in dec.nontrivial:
            comp = dec.components[i]
            core, core_edges = contract_chains(g, comp)
            assert core_max_walk_counts(core, core_edges, 160) == max_walk_counts(
                g, comp, 160
            )
        return len(dec.nontrivial)

    def test_random_graphs(self):
        rng = random.Random(97)
        assert sum(self.check(random_graph(rng)) for _ in range(40)) >= 30

    def test_realizations(self):
        from periodlab.realize import realize_irreducible_sft
        from periodlab.sft_counting import PeriodSetDescriptor

        for d in (1, 2, 3, 4, 6):
            for finite, tau in (((), 2), ((2,), 5), ((1, 3), 7)):
                desc = PeriodSetDescriptor.make(
                    [d * f for f in finite], [(d, tau, ())], certified=True
                )
                assert self.check(realize_irreducible_sft(desc)) == 1


class TestCoreWalks:
    """The weighted-core window DP against engines that do not use it:
    dense matrix powers of the component and the zeta determinant."""

    @staticmethod
    def check_returns(g, N=40):
        dec = scc_decompose(g)
        checked = 0
        for i in dec.nontrivial:
            comp = dec.components[i]
            sub = build_graph(
                sorted(comp), [e for e in g.edges if e[0] in comp and e[1] in comp]
            )
            powers = [matrix_power(sub.adjacency, n) for n in range(N + 1)]
            core, core_edges = contract_chains(g, comp)
            for base in core:
                b = sub.index[base]
                assert basepoint_return_counts(core, core_edges, base, N) == [
                    m[b][b] for m in powers
                ]
                checked += 1
        return checked

    def test_basepoint_returns_against_matrix_powers(self):
        rng = random.Random(4242)
        graphs = [random_graph(rng) for _ in range(300)]
        assert sum(self.check_returns(g) for g in graphs) >= 300
        # chains of weight 2 and 3 on a sample
        subdivided = [subdivide_edges(g, d) for g in graphs[:300:30] for d in (2, 3)]
        assert sum(self.check_returns(g) for g in subdivided) >= 10

    def test_long_weights_against_zeta(self, golden_mean):
        from periodlab.realize import realize_irreducible_sft
        from periodlab.sft_counting import PeriodSetDescriptor
        from periodlab.zeta import log_derivative_series, zeta_of_graph

        six = realize_irreducible_sft(
            PeriodSetDescriptor.make((), [(6, 7, ())], certified=True)
        )
        assert six.n == 497
        for g in (six, subdivide_edges(golden_mean, 50)):
            p = closed_walk_counts(g, 60)
            assert p == log_derivative_series(zeta_of_graph(g), 60)
            assert any(p)


class TestReturnSearches:
    """``first_return_loops`` and ``return_tail_start`` at every core vertex
    of a component, against closed paths listed by brute force and against
    the return counts of the transfer DP."""

    @staticmethod
    def first_return_lengths(g, base, paths):
        # closed paths from base that do not pass base in between
        target = {eid: t for (_s, t, eid) in g.edges}
        return sorted(
            len(c)
            for n in paths
            for c in paths[n]
            if c.start == base
            and all(target[eid] != base for eid in c.edge_ids[:-1])
        )

    def check(self, g):
        dec = scc_decompose(g)
        # two shortest first-return loops: at most 2|V| - 1 edges each
        paths = enumerate_closed_paths(g, 2 * g.n) if dec.nontrivial else {}
        checked = 0
        for i in dec.nontrivial:
            comp = dec.components[i]
            d = component_period(g, comp)
            core, core_edges = contract_chains(g, comp)
            for base in core:
                loops = first_return_loops(core, core_edges, base)
                lengths = self.first_return_lengths(g, base, paths)
                assert list(loops) == lengths[:2]
                assert (len(loops) == 1) == (len(core_edges) == 1)
                w0 = return_tail_start(core, core_edges, base, d, loops[0])
                assert w0 % d == 0 and w0 >= d
                counts = basepoint_return_counts(core, core_edges, base, w0 + 2 * loops[0])
                assert all(counts[n] for n in range(w0, len(counts), d))
                assert w0 == d or not counts[w0 - d]
                checked += 1
        return checked

    def test_random_graphs(self):
        rng = random.Random(4242)
        assert sum(self.check(random_graph(rng)) for _ in range(300)) >= 300

    def test_cases(self):
        cases = [
            cycle_graph(5),
            attached_cycles_graph_5_2(),
            subdivide_edges(attached_cycles_graph_5_2(), 3),
            # parallel self-loops: two distinct loops of the same length
            build_graph(["v"], [("v", "v", "0"), ("v", "v", "1")]),
            # a 2-cycle and a 3-cycle through v
            build_graph(
                ["v", "a", "b", "c"],
                [("v", "a", "va"), ("a", "v", "av"), ("v", "b", "vb"),
                 ("b", "c", "bc"), ("c", "v", "cv")],
            ),
        ]
        # core vertices checked per case
        assert [self.check(g) for g in cases] == [1, 2, 2, 1, 1]

    def test_one_vertex_core_is_the_coin_problem(self):
        # returns at one vertex whose loops have lengths 6, 10 and 15 are
        # their sums; 29 is the largest number that is not one
        loops = [("v", "v", w) for w in (6, 10, 15)]
        assert first_return_loops(["v"], loops, "v") == (6, 10)
        assert return_tail_start(["v"], loops, "v", 1, 6) == 30
