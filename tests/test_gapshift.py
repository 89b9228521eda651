import random

import pytest

from periodlab.classification import descriptor_equal
from periodlab.gapshift import (
    AlmostSumClosure,
    GapSet,
    GapShapeError,
    almost_sum_closure,
    classify_gap,
    gap_chain_size,
    gap_lps,
    gap_realize,
    gap_to_labeled_graph,
)
from periodlab.sft_counting import PeriodSetDescriptor
from periodlab.sofic import determinize_and_minimize, sofic_lps_upto


def naive_almost_sum_closure(gens, N):
    """Direct recursion over multisets with at least two distinct values."""
    gens = sorted(set(gens))
    out = set(g for g in gens if g <= N)
    seen = set()

    def rec(i, total, distinct):
        if (i, total, distinct) in seen:
            return
        seen.add((i, total, distinct))
        if len(distinct) >= 2:
            out.add(total)
        for j in range(i, len(gens)):
            if total + gens[j] <= N:
                rec(j, total + gens[j], distinct | {gens[j]})

    rec(0, 0, frozenset())
    return out


class TestGapSet:
    def test_membership(self):
        s = GapSet.make({1, 3}, [(6, 4)])
        assert [m for m in range(15) if s.contains(m)] == [1, 3, 6, 10, 14]

    def test_normalization_drops_subsumed(self):
        s = GapSet.make({6}, [(0, 2), (4, 4)])
        assert s.progressions == ((0, 2),)
        assert not s.finite

    def test_cofinite(self):
        assert GapSet.make({0}, [(2, 1)]).is_cofinite()
        assert not GapSet.make((), [(0, 2)]).is_cofinite()

    def test_json_round_trip(self):
        s = GapSet.make({0, 2}, [(4, 2)])
        assert GapSet.from_json(s.to_json()) == s


class TestClassify:
    def test_singleton_sft(self):
        assert classify_gap(GapSet.make({1}, ())) == "SFT"

    def test_evens_sofic(self):
        assert classify_gap(GapSet.make((), [(0, 2)])) == "sofic_not_SFT"

    def test_cofinite_sft(self):
        assert classify_gap(GapSet.make({0}, [(2, 1)])) == "SFT"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_gap(GapSet.make((), ()))


class TestAlmostSumClosure:
    def test_singleton(self):
        asc = almost_sum_closure([2], 12)
        assert asc.members == frozenset({2})
        assert asc.descriptor.finite_part == frozenset({2})

    def test_two_three(self):
        asc = almost_sum_closure([2, 3], 12)
        assert sorted(asc.members) == [2, 3, 5, 7, 8, 9, 10, 11, 12]

    def test_one_two(self):
        asc = almost_sum_closure([1, 2], 6)
        assert sorted(asc.members) == [1, 2, 3, 4, 5, 6]

    def test_matches_naive_random(self):
        rng = random.Random(83)
        for _ in range(12):
            k = rng.randint(1, 5)
            gens = sorted(rng.sample(range(1, 40), k))
            asc = almost_sum_closure(gens, 120)
            assert asc.members == frozenset(naive_almost_sum_closure(gens, 120))

    def test_descriptor_certified_structure(self):
        rng = random.Random(89)
        from math import gcd

        for _ in range(10):
            k = rng.randint(2, 5)
            gens = sorted(rng.sample(range(1, 30), k))
            if len(set(gens)) < 2:
                continue
            asc = almost_sum_closure(gens, 200)
            g = 0
            for x in gens:
                g = gcd(g, x)
            # descriptor is gcd * (cofinite) and matches exact membership
            for n in range(1, 201):
                assert asc.descriptor.contains(n) == (n in asc.members)
            assert all(n % g == 0 for n in asc.members)

    def test_infinite_gap_set_input(self):
        odds = GapSet.make((), [(1, 2)])
        asc = almost_sum_closure(odds, 12)
        assert sorted(asc.members) == [1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            almost_sum_closure([], 5)


class TestGapLps:
    def test_singleton_gap(self):
        assert gap_lps(GapSet.make({1}, ())).finite_part == frozenset({2})

    def test_evens(self):
        desc = gap_lps(GapSet.make((), [(0, 2)]))
        expect = PeriodSetDescriptor.make({1}, [(1, 3, ())], certified=True)
        assert descriptor_equal(desc, expect)

    def test_zero_one(self):
        desc = gap_lps(GapSet.make({0, 1}, ()))
        assert descriptor_equal(
            desc, PeriodSetDescriptor.make((), [(1, 1, ())])
        )

    def test_cross_validation_with_presentation(self):
        cases = [
            GapSet.make({1}, ()),
            GapSet.make((), [(0, 2)]),
            GapSet.make({0, 1}, ()),
            GapSet.make({2, 3}, ()),
            GapSet.make({1}, [(3, 2)]),
        ]
        for s in cases:
            desc = gap_lps(s)
            lg = gap_to_labeled_graph(s)
            got = sofic_lps_upto(lg, 20).support
            assert got == frozenset(desc.members_upto(20)), s.to_json()


class TestGapRealize:
    def test_singleton(self):
        s = gap_realize(PeriodSetDescriptor.singleton(4))
        assert s.finite == frozenset({3})
        assert descriptor_equal(gap_lps(s), PeriodSetDescriptor.singleton(4))

    def test_block_construction_bound(self):
        q = almost_sum_closure([2, 3], 40).descriptor
        s = gap_realize(q)
        assert s.is_finite_set
        assert max(s.finite) == 2 * 7 - 1  # doubling block ends at 2*d*N - 1
        assert descriptor_equal(gap_lps(s), q)

    def test_with_one(self):
        q = PeriodSetDescriptor.make({1}, [(1, 3, ())], certified=True)
        s = gap_realize(q)
        assert not s.is_finite_set
        assert descriptor_equal(gap_lps(s), q)

    def test_rejects_non_closed_with_witness(self):
        with pytest.raises(GapShapeError) as err:
            gap_realize(PeriodSetDescriptor.make({2, 3}, (), certified=True))
        assert err.value.witness == (2, 3)

    def test_coprime_scales_witness_without_sweep(self):
        # the tail lcm of 997, 991 and 983 is about 9.7e8; the first two
        # members already miss their sum
        import time

        q = PeriodSetDescriptor.make((), [(d, 1, ()) for d in (997, 991, 983)], certified=True)
        start = time.perf_counter()
        with pytest.raises(GapShapeError) as err:
            gap_realize(q)
        assert time.perf_counter() - start < 5
        assert err.value.witness == (983, 991)

    def test_far_witness(self):
        # 15 + 874160 is the first missing sum: the members are listed from
        # the two progressions, not found by testing every number below
        q = PeriodSetDescriptor.make((), [(3, 5, ()), (980, 891, ())], certified=True)
        with pytest.raises(GapShapeError) as err:
            gap_realize(q)
        assert err.value.witness == (15, 874160)

    def test_witness_against_pair_sweep(self):
        # a witness is a pair of distinct members whose sum is missing, and
        # there is none exactly when no such pair lies below the periodic
        # tail's second period
        from periodlab.gapshift import _closure_witness

        rng = random.Random(41)
        for _ in range(200):
            finite = rng.sample(range(1, 20), rng.randint(0, 3))
            comps = [(rng.randint(1, 6), rng.randint(1, 6), ()) for _ in range(rng.randint(0, 2))]
            q = PeriodSetDescriptor.make(finite, comps, certified=True)
            if q.is_empty:
                continue
            members = q.members_upto(q.structural_bound() + 2 * q.tail_lcm())
            missing = [
                (x, y) for i, x in enumerate(members) for y in members[i + 1:]
                if not q.contains(x + y)
            ]
            witness = _closure_witness(q)
            assert (witness is None) == (not missing), q.to_json()
            if witness is not None:
                x, y = witness
                assert x < y and q.contains(x) and q.contains(y)
                assert not q.contains(x + y)

    def test_round_trip_corpus(self):
        rng = random.Random(97)
        descriptors = []
        for _ in range(12):
            k = rng.randint(1, 4)
            gens = sorted(rng.sample(range(1, 15), k))
            descriptors.append(almost_sum_closure(gens, 60).descriptor)
        for base in descriptors[:6]:
            if not base.contains(1) and not base.is_finite:
                descriptors.append(
                    PeriodSetDescriptor.make(
                        set(base.finite_part) | {1},
                        base.components,
                        certified=True,
                    )
                )
        for q in descriptors:
            s = gap_realize(q)
            assert descriptor_equal(gap_lps(s), q), q.to_json()
            assert len(s.progressions) <= 1  # so its chain is right-resolving


class TestGapPresentation:
    def test_singleton_two_states(self):
        lg = gap_to_labeled_graph(GapSet.make({1}, ()))
        assert lg.graph.n == 2

    def test_evens_is_even_shift(self, even_shift):
        lg = gap_to_labeled_graph(GapSet.make((), [(0, 2)]))
        dp = determinize_and_minimize(lg)
        assert dp.minimal and len(dp.states) == 2
        assert (
            sofic_lps_upto(lg, 12).support
            == sofic_lps_upto(even_shift, 12).support
        )

    def test_chain_against_gap_lps(self):
        # the chain's least periods up to 16 are gap_lps's; it has
        # c + sum(r) states, and with at most one progression no state
        # reads a symbol along two edges
        rng = random.Random(11)
        for _ in range(300):
            finite = rng.sample(range(0, 10), rng.randint(0, 3))
            progressions = [
                (rng.randint(0, 6), rng.randint(1, 4))
                for _ in range(rng.randint(0 if finite else 1, 2))
            ]
            s = GapSet.make(finite, progressions)
            lg = gap_to_labeled_graph(s)
            c = max([1] + [m + 1 for m in s.finite] + [a for a, _ in s.progressions])
            size = c + sum(r for _, r in s.progressions)
            assert lg.graph.n == gap_chain_size(s) == size
            got = sofic_lps_upto(lg, 16).support
            assert got == frozenset(gap_lps(s).members_upto(16)), s.to_json()
            if len(s.progressions) <= 1:
                reads = [(src, lg.label_map[e]) for (src, _dst, e) in lg.graph.edges]
                assert len(reads) == len(set(reads)), s.to_json()

    def test_zero_one_golden_equivalent(self, golden_cover):
        lg = gap_to_labeled_graph(GapSet.make({0, 1}, ()))
        assert (
            sofic_lps_upto(lg, 10).support
            == sofic_lps_upto(golden_cover, 10).support
            == frozenset(range(1, 11))
        )
