import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab.graph_core import (
    enumerate_closed_paths,
    subdivide_edges,
    trace_power,
)
from periodlab.sft_counting import (
    CountTable,
    ForbiddenWordSpec,
    PeriodSetDescriptor,
    count_table,
    descriptors_equal_sets,
    higher_block_recode,
    lps_descriptor_sft,
    ps_descriptor,
)

from conftest import (
    attached_cycles_graph_5_2,
    build_graph,
    cycle_graph,
    random_graph,
)


def oracle_least_period_counts(g, N):
    """Closed paths classified by the least period of their edge sequence."""
    paths = enumerate_closed_paths(g, N)
    return [
        sum(1 for c in paths[n] if c.least_period() == n)
        for n in range(1, N + 1)
    ]


def count_primitive_words(alphabet_size, n):
    """Binary/k-ary strings of length n that are not proper powers."""
    total = 0
    for w in product(range(alphabet_size), repeat=n):
        p = n
        for d in range(1, n):
            if n % d == 0 and all(w[i] == w[i % d] for i in range(n)):
                p = d
                break
        if p == n:
            total += 1
    return total


class TestHigherBlock:
    def test_golden_mean_spec(self, golden_mean):
        spec = ForbiddenWordSpec.build("01", ["11"])
        g = higher_block_recode(spec)
        assert g.n == 2 and len(g.edges) == 3
        oracle = enumerate_closed_paths(g, 4)
        assert [len(oracle[n]) for n in range(1, 5)] == [1, 3, 4, 7]
        assert [trace_power(g, n) for n in range(1, 5)] == [
            trace_power(golden_mean, n) for n in range(1, 5)
        ]

    def test_full_shift(self):
        g = higher_block_recode(ForbiddenWordSpec.build("01", []))
        assert [trace_power(g, n) for n in range(1, 5)] == [2, 4, 8, 16]

    def test_empty_shift(self):
        g = higher_block_recode(ForbiddenWordSpec.build("01", ["0", "1"]))
        assert g.n == 0

    def test_longer_words(self):
        # no "101": check against a direct forbidden-word oracle on points
        spec = ForbiddenWordSpec.build("01", ["101"])
        g = higher_block_recode(spec)
        for n in range(1, 8):
            allowed = 0
            for w in product("01", repeat=n):
                doubled = "".join(w) * 3
                if "101" not in doubled:
                    allowed += 1
            assert trace_power(g, n) == allowed

    def test_conjugacy_invariance(self, golden_mean):
        spec = ForbiddenWordSpec.build("01", ["11"])
        g = higher_block_recode(spec)
        assert count_table(g, 20) == count_table(golden_mean, 20)


class TestCountTable:
    def test_full_two_shift(self, full_two_shift):
        t = count_table(full_two_shift, 3)
        assert t.p == (2, 4, 8)
        assert t.q == (2, 2, 6)
        # brute-force classification of binary words by least period
        for n in range(1, 4):
            assert t.q_at(n) == count_primitive_words(2, n)

    def test_golden_mean(self, golden_mean):
        t = count_table(golden_mean, 4)
        assert t.p == (1, 3, 4, 7)
        assert t.q == (1, 2, 3, 4)
        assert list(t.q) == oracle_least_period_counts(golden_mean, 4)

    def test_three_cycle(self):
        t = count_table(cycle_graph(3), 6)
        assert t.q == (0, 0, 3, 0, 0, 0)

    def test_mobius_consistency_random(self):
        rng = random.Random(23)
        from periodlab.arith import divisors

        for _ in range(20):
            g = random_graph(rng, max_vertices=6, max_edges=9, horizon=12)
            t = count_table(g, 20)
            for n in range(1, 21):
                assert t.p_at(n) == sum(t.q_at(k) for k in divisors(n))

    def test_csv(self, golden_mean):
        csv = count_table(golden_mean, 2).to_csv()
        assert csv.splitlines() == ["n,p,q", "1,1,1", "2,3,2"]


class TestDescriptorCanonical:
    def test_extras_drain_and_pull_down(self):
        d = PeriodSetDescriptor.make((), [(1, 8, {1, 2, 3, 4, 5, 6, 7})])
        assert d.to_json()["components"] == [
            {"d": 1, "threshold": 1, "extras": []}
        ]
        assert not d.finite_part

    def test_worked_canonical_form(self):
        d = PeriodSetDescriptor.make((), [(1, 5, {2})], certified=True)
        assert d.to_json() == {
            "finite": [2],
            "components": [{"d": 1, "threshold": 5, "extras": []}],
            "certified": True,
        }

    def test_subsumption(self):
        d = PeriodSetDescriptor.make((), [(2, 3, ()), (4, 2, ()), (2, 5, ())])
        assert [
            (c.scale, c.threshold) for c in d.components
        ] == [(2, 3)]

    def test_finite_absorbed_by_component(self):
        d = PeriodSetDescriptor.make({6, 7}, [(2, 3, ())])
        assert d.finite_part == frozenset({7})

    def test_equality_is_semantic(self):
        a = PeriodSetDescriptor.make({2, 4}, [(2, 3, ())])
        b = PeriodSetDescriptor.make((), [(2, 1, ())])
        assert descriptors_equal_sets(a, b)
        c = PeriodSetDescriptor.make({2}, [(2, 3, ())])
        assert not descriptors_equal_sets(b, c)

    def test_membership(self):
        d = PeriodSetDescriptor.make({5}, [(3, 2, ())])
        assert [n for n in range(1, 13) if n in d] == [5, 6, 9, 12]

    def test_json_round_trip(self):
        d = PeriodSetDescriptor.make({5}, [(3, 2, ())], certified=True)
        assert PeriodSetDescriptor.from_json(d.to_json()) == d

    def test_gcd_of_members(self):
        from math import gcd

        assert PeriodSetDescriptor.empty().gcd() == 0
        rng = random.Random(83)
        for _ in range(200):
            comps = [
                (rng.randint(1, 6), rng.randint(1, 5), ())
                for _ in range(rng.randint(0, 2))
            ]
            finite = rng.sample(range(1, 40), rng.randint(0, 3))
            d = PeriodSetDescriptor.make(finite, comps)
            expect = 0
            for n in d.members_upto(d.structural_bound() + 2 * d.tail_lcm() + 1):
                expect = gcd(expect, n)
            assert d.gcd() == expect, d.to_json()

    def test_sft_shape_against_membership_sweep(self):
        from math import gcd

        assert PeriodSetDescriptor.empty().sft_shape() is None
        rng = random.Random(509)
        seen = set()
        for _ in range(400):
            comps = []
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                t = rng.randint(1, 7)
                extras = rng.sample(range(1, t), rng.randint(0, t - 1))
                comps.append((rng.choice((1, 1, 2, 3, 4, 6)), t, extras))
            finite = rng.sample(range(1, 25), rng.randint(0, 3))
            d = PeriodSetDescriptor.make(finite, comps)
            if d.is_empty:
                continue
            bound, L = d.structural_bound(), d.tail_lcm()
            g = 0
            for n in d.members_upto(bound + 2 * L):
                g = gcd(g, n)
            # past the bound membership repeats with period L, so the tail
            # is every multiple of g iff L of them past the bound are members
            H = bound + 2 * g * L
            members = d.members_upto(H)
            member = set(members)
            shape = d.sft_shape()
            seen.add(None if shape is None else shape[0])
            if len(members) == 1:
                assert shape == ("singleton", members[0]), d.to_json()
                continue
            if not all(n in member for n in range(g * (bound // g + 1), H + 1, g)):
                assert shape is None, d.to_json()
                continue
            N = bound // g + 1
            while N > 1 and g * (N - 1) in member:
                N -= 1
            F = tuple(n // g for n in members if n < g * N)
            assert shape == ("scaled_cofinite", g, N, F), d.to_json()
            assert members == [g * f for f in F] + list(range(g * N, H + 1, g))
        assert seen == {None, "singleton", "scaled_cofinite"}

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_scale_composes(self, a, b):
        from periodlab.classification import descriptor_scale

        d = PeriodSetDescriptor.make({3}, [(2, 4, ()), (5, 2, ())])
        left = descriptor_scale(descriptor_scale(d, a), b)
        right = descriptor_scale(d, a * b)
        assert descriptors_equal_sets(left, right)


class TestPsDescriptor:
    def test_d_cycle(self):
        d = ps_descriptor(cycle_graph(4))
        assert d.to_json()["components"] == [
            {"d": 4, "threshold": 1, "extras": []}
        ]
        assert d.certified

    def test_disjoint_cycles(self):
        from periodlab.graph_core import disjoint_union

        g = disjoint_union([cycle_graph(2), cycle_graph(3)])
        d = ps_descriptor(g)
        expect = PeriodSetDescriptor.make((), [(2, 1, ()), (3, 1, ())])
        assert descriptors_equal_sets(d, expect)

    def test_golden_mean_all_naturals(self, golden_mean):
        d = ps_descriptor(golden_mean)
        for n in range(1, 31):
            assert d.contains(n) == (trace_power(golden_mean, n) > 0)
        assert descriptors_equal_sets(
            d, PeriodSetDescriptor.make((), [(1, 1, ())])
        )

    def test_membership_matches_traces_random(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_graph(rng, max_vertices=5, max_edges=8, horizon=10)
            d = ps_descriptor(g)
            for n in range(1, 31):
                assert d.contains(n) == (trace_power(g, n) > 0)

    def test_multiplicative_monotonicity(self):
        rng = random.Random(37)
        for _ in range(15):
            g = random_graph(rng, max_vertices=5, max_edges=8, horizon=10)
            d = ps_descriptor(g)
            members = d.members_upto(20)
            for n in members:
                for kn in range(2 * n, 41, n):
                    assert d.contains(kn)

    def test_empty_graph(self):
        assert ps_descriptor(build_graph([], [])).is_empty


class TestLpsDescriptor:
    def test_five_cycle_singleton(self):
        d = lps_descriptor_sft(cycle_graph(5))
        assert d.finite_part == frozenset({5}) and not d.components

    def test_golden_mean(self, golden_mean):
        d = lps_descriptor_sft(golden_mean)
        t = count_table(golden_mean, 30)
        for n in range(1, 31):
            assert d.contains(n) == (t.q_at(n) > 0)
        assert descriptors_equal_sets(
            d, PeriodSetDescriptor.make((), [(1, 1, ())])
        )

    def test_attached_cycles_graph(self):
        g = attached_cycles_graph_5_2()
        d = lps_descriptor_sft(g)
        assert d.to_json() == {
            "finite": [2],
            "components": [{"d": 1, "threshold": 5, "extras": []}],
            "certified": True,
        }
        # oracle: least-period classification of closed paths up to 24
        oracle = oracle_least_period_counts(g, 24)
        for n in range(1, 25):
            assert d.contains(n) == (oracle[n - 1] > 0)

    def test_membership_matches_counts_random(self):
        rng = random.Random(41)
        for _ in range(15):
            g = random_graph(rng, max_vertices=5, max_edges=8, horizon=10)
            d = lps_descriptor_sft(g)
            t = count_table(g, 36)
            for n in range(1, 37):
                assert d.contains(n) == (t.q_at(n) > 0)

    def test_scaling_by_subdivision(self, golden_mean):
        from periodlab.classification import descriptor_scale

        base = lps_descriptor_sft(golden_mean)
        for d in (2, 3):
            scaled = lps_descriptor_sft(subdivide_edges(golden_mean, d))
            assert descriptors_equal_sets(scaled, descriptor_scale(base, d))

    def test_certified_flag(self, golden_mean):
        assert lps_descriptor_sft(golden_mean).certified
