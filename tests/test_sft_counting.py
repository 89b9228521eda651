import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab import sft_counting as sc
from periodlab.graph_core import (
    component_period,
    component_walk_counts,
    enumerate_closed_paths,
    scc_decompose,
    subdivide_edges,
    trace_power,
)
from periodlab.realize import realize_irreducible_sft, realize_reducible_sft
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

    def test_mobius_invert_against_mobius_sum(self):
        from periodlab.arith import divisors, mobius

        rng = random.Random(59)
        for _ in range(60):
            p = [rng.randint(-50, 50) for _ in range(rng.randint(0, 60))]
            assert sc.mobius_invert(p) == [
                sum(mobius(n // k) * p[k - 1] for k in divisors(n))
                for n in range(1, len(p) + 1)
            ]

    def test_mobius_invert_cap(self, monkeypatch):
        from periodlab import arith
        from periodlab.arith import ResourceLimitExceeded

        monkeypatch.setattr(arith, "MOBIUS_CAP", 5)
        assert sc.mobius_invert([1] * 5) == [1, 0, 0, 0, 0]
        with pytest.raises(ResourceLimitExceeded, match="mobius"):
            sc.mobius_invert([1] * 6)

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


def _certificates(g):
    """Growth certificates of g's nontrivial components that are not single
    cycles, built on the same return structure as the embedding check's."""
    dec = scc_decompose(g)
    out = []
    for i in dec.nontrivial:
        component = dec.components[i]
        d = component_period(g, component)
        core, core_edges, base, w0, loops = sc._return_structure(g, component, d)
        if len(loops) == 2:
            out.append(sc.growth_certificate(component, d, core, core_edges, base, w0))
    return out


def _certificate_corpus():
    rng = random.Random(2718)
    graphs = [random_graph(rng) for _ in range(20)]
    for finite, d, tau in (((), 1, 3), ((2,), 1, 4), ((), 2, 3), ((3,), 3, 2)):
        graphs.append(realize_irreducible_sft(
            PeriodSetDescriptor.make(finite, [(d, tau, ())], certified=True)))
    graphs.append(realize_reducible_sft(
        PeriodSetDescriptor.make((5,), [(2, 3, ()), (3, 2, ())], certified=True)))
    certs = [c for g in graphs for c in _certificates(g)]
    assert len(certs) >= 12
    return certs


def _start(cert):
    """The least multiple of d above w', where both searches start."""
    return (cert.w_prime // cert.d + 1) * cert.d


class TestThresholdSearch:
    """n* against the 2j-th-power inequality of the growth certificate,
    written out here in full as an independent reference."""

    @staticmethod
    def q_bound_2j(cert, n, margin):
        # lam^(n-w') (rho_low - 1) > margin m W^((n+2)/(2j)), raised to 2j
        j2, k = 2 * cert.j_upper, n - cert.w_prime
        lhs = cert.x ** (j2 * k) * (cert.y - 2**16) ** j2
        rhs = (margin * cert.m) ** j2 * cert.walk_cap ** (n + 2) * 2 ** (8 * j2 * k + 16 * j2)
        return lhs > rhs

    @staticmethod
    def q_bound_relaxed(cert, n, margin):
        # the same with W^(1/(2j)) replaced by the step bound Z
        lam, rho_low = Fraction(cert.x, 2**8), Fraction(cert.y, 2**16)
        Z = Fraction(cert.z, cert.z_denom)
        return lam ** (n - cert.w_prime) * (rho_low - 1) > margin * cert.m * Z ** (n + 2)

    def test_step_bound_is_a_ceiling_root_below_the_growth(self):
        for cert in _certificate_corpus():
            j2, Dz = 2 * cert.j_upper, cert.z_denom
            assert cert.z**j2 >= cert.walk_cap * Dz**j2 > (cert.z - 1) ** j2
            assert cert.x * Dz > cert.z * 2**8

    def test_q_threshold_certified_and_least(self):
        for cert in _certificate_corpus():
            d, n0 = cert.d, _start(cert)
            for margin in (1, 2):
                n_star = sc.solve_q_positive_threshold(cert, margin)
                assert n_star >= n0 and n_star % d == 0
                for n in (n_star, n_star + d, n_star + 5 * d):
                    assert self.q_bound_2j(cert, n, margin)
                    assert self.q_bound_relaxed(cert, n, margin)
                if n_star > n0:
                    assert not self.q_bound_relaxed(cert, n_star - d, margin)

    def test_growth_dominates_certified_and_least(self):
        for cert in _certificate_corpus():
            d, n0, x = cert.d, _start(cert), cert.x
            for j_other in (1, 2, 5):
                cap = max(1, x**j_other // (3 * 2 ** (8 * j_other)))
                if x**j_other <= cap * 2 ** (8 * j_other):
                    continue
                base = 3
                n_dom = sc.solve_growth_dominates(cert, base, cap, j_other)
                assert n_dom >= n0 and n_dom % d == 0

                def parent(n):
                    # lam^(n-w') > 2 base cap^(n / j_other), raised to j_other
                    k = n - cert.w_prime
                    return x ** (j_other * k) > (2 * base) ** j_other * cap**n * 2 ** (8 * j_other * k)

                u, Du = sc._step_bound(cap, j_other, x)

                def relaxed(n):
                    return Fraction(x, 2**8) ** (n - cert.w_prime) > 2 * base * Fraction(u, Du) ** n

                for n in (n_dom, n_dom + d, n_dom + 5 * d):
                    assert parent(n) and relaxed(n)
                if n_dom > n0:
                    assert not relaxed(n_dom - d)

    def test_growth_rates_that_do_not_separate(self, golden_mean):
        (cert,) = _certificates(golden_mean)
        cap = cert.x**3 // 2**24 + 1
        with pytest.raises(sc.CertificationError, match="do not separate"):
            sc.solve_growth_dominates(cert, 1, cap, 3)

    def test_search_cap(self, golden_mean, monkeypatch):
        (cert,) = _certificates(golden_mean)
        steps = (sc.solve_q_positive_threshold(cert) - _start(cert)) // cert.d
        assert steps > 1
        monkeypatch.setattr(sc, "THRESHOLD_SEARCH_CAP", steps)
        assert (sc.solve_q_positive_threshold(cert) - _start(cert)) // cert.d == steps
        for cap in (steps - 1, 1):
            monkeypatch.setattr(sc, "THRESHOLD_SEARCH_CAP", cap)
            with pytest.raises(sc.CertificationError, match="THRESHOLD_SEARCH_CAP"):
                sc.solve_q_positive_threshold(cert)

    def test_realization_with_slow_certified_growth(self):
        # 497 vertices; the certified step growth 261/256 barely exceeds the
        # walk bound, so the growth certificate's n* = 10380 sits far above
        # the true tail start, which the loop threshold does not need
        target = PeriodSetDescriptor.make((), [(6, 7, ())], certified=True)
        g = realize_irreducible_sft(target)
        assert g.n == 497
        (cert,) = _certificates(g)
        assert sc.solve_q_positive_threshold(cert) == 10380
        assert lps_descriptor_sft(g) == target


def _loop_thresholds(g):
    """(component, d, tau) for g's nontrivial components that are not
    single cycles, tau = (w0 + a + b) / d as lps_descriptor_sft takes it."""
    dec = scc_decompose(g)
    out = []
    for i in dec.nontrivial:
        component = dec.components[i]
        d = component_period(g, component)
        _, _, _, w0, loops = sc._return_structure(g, component, d)
        if len(loops) == 2:
            out.append((component, d, (w0 + sum(loops)) // d))
    return out


class TestLoopThreshold:
    """Exact q_{d k} > 0 at and just past tau = (w0 + a + b) / d: two
    distinct first-return loops on top of a return of length >= w0 give a
    closed walk that is no proper power."""

    @staticmethod
    def check(g):
        checked = 0
        for component, d, tau in _loop_thresholds(g):
            q = sc.mobius_invert(component_walk_counts(g, component, d * (tau + 8)))
            assert all(q[d * k - 1] > 0 for k in range(tau, tau + 9)), (d, tau)
            checked += 1
        return checked

    def test_random_graphs(self):
        rng = random.Random(4242)
        assert sum(self.check(random_graph(rng)) for _ in range(300)) >= 100

    def test_realizations(self):
        targets = [
            PeriodSetDescriptor.make(finite, [(d, tau, ())], certified=True)
            for finite, d, tau in (
                ((), 1, 3), ((2,), 1, 4), ((), 2, 3), ((3,), 3, 2), ((), 6, 7),
            )
        ]
        graphs = [realize_irreducible_sft(t) for t in targets]
        graphs.append(realize_reducible_sft(
            PeriodSetDescriptor.make((5,), [(2, 3, ()), (3, 2, ())], certified=True)))
        assert graphs[4].n == 497
        assert sum(self.check(g) for g in graphs) == 7

    def test_two_and_three_loops(self):
        # a = 2, b = 3 and w0 = 2 give tau = 7; q_4 = q_6 = 0, since every
        # closed walk of length 4 or 6 is a power of one loop, so a
        # threshold taken as w0 + 2a = 6 would be wrong
        g = build_graph(
            ["v", "a", "b", "c"],
            [("v", "a", "va"), ("a", "v", "av"), ("v", "b", "vb"),
             ("b", "c", "bc"), ("c", "v", "cv")],
        )
        ((_, d, tau),) = _loop_thresholds(g)
        assert (d, tau) == (1, 7)
        assert [q > 0 for q in count_table(g, 7).q] == [
            False, True, True, False, True, False, True,
        ]
        assert lps_descriptor_sft(g) == PeriodSetDescriptor.make(
            (2, 3, 5), [(1, 7, ())], certified=True
        )
