import random

import pytest

from periodlab.arith import ResourceLimitExceeded, least_rotation_period
from periodlab.classification import descriptor_equal
from periodlab.gapshift import GapShapeError, gap_realize, gap_to_labeled_graph
from periodlab.graph_core import enumerate_closed_paths, scc_decompose
from periodlab.realize import (
    LpsRequest,
    ShapeError,
    _is_multiplicatively_closed,
    _torus_realization,
    realize_arbitrary,
    realize_irreducible_sft,
    realize_period_set,
    realize_reducible_sft,
    realize_sofic,
)
from periodlab.sft_counting import (
    PeriodSetDescriptor,
    lps_descriptor_sft,
)
from periodlab.sofic import sofic_lps_upto


class TestIrreducibleSft:
    def test_singleton_three(self):
        g = realize_irreducible_sft(PeriodSetDescriptor.singleton(3))
        assert g.n == 3 and len(g.edges) == 3
        assert lps_descriptor_sft(g).finite_part == frozenset({3})

    def test_worked_two_and_five_up(self):
        desc = PeriodSetDescriptor.make({2}, [(1, 5, ())], certified=True)
        g = realize_irreducible_sft(desc)
        dec = scc_decompose(g)
        assert len(dec.components) == 1 and not dec.is_trivial[0]
        # brute-force least periods up to 24
        paths = enumerate_closed_paths(g, 24)
        lps = {
            n for n in range(1, 25) if any(c.least_period() == n for c in paths[n])
        }
        assert lps == {2} | set(range(5, 25))
        assert descriptor_equal(lps_descriptor_sft(g), desc)

    def test_scaled_all_evens(self):
        desc = PeriodSetDescriptor.make((), [(2, 1, ())], certified=True)
        g = realize_irreducible_sft(desc)
        assert descriptor_equal(lps_descriptor_sft(g), desc)

    def test_empty_exception_set_rewrite(self):
        # pure tail {n >= 4}: F is empty and gets rewritten to {4}
        desc = PeriodSetDescriptor.make((), [(1, 4, ())], certified=True)
        g = realize_irreducible_sft(desc)
        assert descriptor_equal(lps_descriptor_sft(g), desc)
        dec = scc_decompose(g)
        assert len(dec.components) == 1

    def test_long_tail_round_trip(self):
        # {n >= 100}: a small graph whose least periods start far out
        desc = PeriodSetDescriptor.make((), [(1, 100, ())], certified=True)
        assert descriptor_equal(lps_descriptor_sft(realize_irreducible_sft(desc)), desc)

    def test_rejects_general_shape(self):
        desc = PeriodSetDescriptor.make((), [(2, 1, ()), (3, 1, ())])
        with pytest.raises(ShapeError) as err:
            realize_irreducible_sft(desc)
        assert err.value.suggestion == "reducible_sft"

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            realize_irreducible_sft(PeriodSetDescriptor.empty())


class TestReducibleSft:
    def test_two_singletons(self):
        desc = PeriodSetDescriptor.make({3, 5}, (), certified=True)
        g = realize_reducible_sft(desc)
        assert descriptor_equal(lps_descriptor_sft(g), desc)
        assert len(scc_decompose(g).components) == 2

    def test_singleton_plus_scaled(self):
        desc = PeriodSetDescriptor.make({4}, [(3, 1, ())], certified=True)
        g = realize_reducible_sft(desc)
        assert descriptor_equal(lps_descriptor_sft(g), desc)

    def test_two_scaled_tails(self):
        desc = PeriodSetDescriptor.make((), [(2, 1, ()), (3, 1, ())], certified=True)
        g = realize_reducible_sft(desc)
        assert descriptor_equal(lps_descriptor_sft(g), desc)

    def test_singleton_plus_long_scaled_tail(self):
        desc = PeriodSetDescriptor.make({1}, [(2, 100, ())], certified=True)
        g = realize_reducible_sft(desc)
        assert descriptor_equal(lps_descriptor_sft(g), desc)

    def test_seeded_round_trips(self):
        rng = random.Random(103)
        for _ in range(10):
            finite = set(rng.sample(range(1, 10), rng.randint(0, 2)))
            comps = []
            for _ in range(rng.randint(0, 2)):
                comps.append((rng.randint(1, 4), rng.randint(1, 6), ()))
            desc = PeriodSetDescriptor.make(finite, comps, certified=True)
            if desc.is_empty:
                continue
            g = realize_reducible_sft(desc)
            assert descriptor_equal(lps_descriptor_sft(g), desc), desc.to_json()


class TestSofic:
    def test_singleton_one(self):
        lg = realize_sofic(PeriodSetDescriptor.singleton(1))
        data = lg.to_json()
        assert len(data["vertices"]) == 1
        assert data["edges"][0]["label"] == "1"
        assert sofic_lps_upto(lg, 4).support == frozenset({1})

    def test_singleton_d(self):
        lg = realize_sofic(PeriodSetDescriptor.singleton(4))
        assert sofic_lps_upto(lg, 8).support == frozenset({4})

    def test_worked_instance(self):
        # {6, 8, 10, ...} is almost sum-closed, so realize_sofic gives it a
        # gap chain; the torus construction still realizes it
        desc = PeriodSetDescriptor.make((), [(2, 3, ())], certified=True)
        lg = _torus_realization(desc)
        res = sofic_lps_upto(lg, 40)
        assert res.support == frozenset(desc.members_upto(40))
        # the ten-cycle leftover is carried by a dedicated cycle section
        assert any(v.startswith("C10.") for v in lg.graph.vertices)
        labels = [
            lg.label_map[e] for (_s, _t, e) in sorted(lg.graph.edges)
            if e.startswith("C10.")
        ]
        assert len(labels) == 20  # (1 0^9) repeated twice

    def test_irreducible(self):
        # every realization, gap chain or torus, is strongly connected
        rng = random.Random(31)
        requests = [PeriodSetDescriptor.make((), [(2, 3, ())], certified=True)]
        while len(requests) < 60:
            finite = set(rng.sample(range(1, 9), rng.randint(0, 2)))
            comps = [(rng.randint(1, 3), rng.randint(1, 4), ())]
            if rng.random() < 0.3:
                comps.append((rng.randint(1, 3), rng.randint(1, 4), ()))
            if rng.random() < 0.2:
                finite, comps = {rng.randint(1, 9)}, []
            requests.append(PeriodSetDescriptor.make(finite, comps, certified=True))
        chains = 0
        for desc in requests:
            try:
                gap_realize(desc)
                chains += 1
            except GapShapeError:
                pass
            lg = realize_sofic(desc)
            dec = scc_decompose(lg.graph)
            assert len(dec.components) == 1 and not dec.is_trivial[0], desc.to_json()
            got = sofic_lps_upto(lg, 16).support
            assert got == frozenset(desc.members_upto(16)), desc.to_json()
        assert 0 < chains < len(requests)

    def test_all_naturals(self):
        desc = PeriodSetDescriptor.make((), [(1, 1, ())], certified=True)
        lg = realize_sofic(desc)
        assert sofic_lps_upto(lg, 40).support == frozenset(range(1, 41))

    def test_rejects_finite_non_singleton(self):
        with pytest.raises(ShapeError):
            realize_sofic(PeriodSetDescriptor.make({2, 4}, (), certified=True))

    def test_vertex_cap(self, monkeypatch):
        # 3 * {n >= 4} | {5}: one torus section and ten cycle sections for
        # the leftovers, 739 vertices with the shared root. The rest are gap
        # chains: {4} is a 4-state path (gap {3}), {1} | 2 * {n >= 2} a
        # 3-state path and a 2-cycle (gaps {3, 5, 7, ...})
        from periodlab import realize

        for desc, size in (
            (PeriodSetDescriptor.make({5}, [(3, 4, ())], certified=True), 739),
            (PeriodSetDescriptor.singleton(4), 4),
            (PeriodSetDescriptor.make({1}, [(2, 2, ())], certified=True), 5),
        ):
            monkeypatch.setattr(realize, "REALIZE_VERTEX_CAP", size)
            assert realize_sofic(desc).graph.n == size
            monkeypatch.setattr(realize, "REALIZE_VERTEX_CAP", size - 1)
            with pytest.raises(ResourceLimitExceeded, match=f"have {size} vertices"):
                realize_sofic(desc)

    def test_torus_marker_words(self):
        # words 1^(2i)0 and 1^(2i+1)0 appear on a path iff it runs through
        # torus section i (scanned over the labeled edges of each section)
        desc = PeriodSetDescriptor.make((), [(2, 3, ())], certified=True)
        lg = _torus_realization(desc)
        res = sofic_lps_upto(lg, 20)
        for period, w in res.witnesses:
            doubled = w * 2
            visits_torus = "110" in doubled or "1110" in doubled
            # markers 11 / 111 delimited by zeros only arise from u/v words
            assert visits_torus == ("11" in doubled)

    def test_gap_chain_or_torus(self):
        # sets gap_realize accepts get the gap shift's chain; {n >= 16}
        # takes the 32 zero counts 0..31 (gaps {15, ..., 31}). {3, 10, 12,
        # 14, ...} misses 3 + 10 and keeps the 977-vertex torus
        tail = PeriodSetDescriptor.make((), [(1, 16, ())], certified=True)
        lg = realize_sofic(tail)
        assert lg.graph.n == 32
        assert lg.to_json() == gap_to_labeled_graph(gap_realize(tail)).to_json()
        assert sofic_lps_upto(lg, 40).support == frozenset(range(16, 41))
        other = PeriodSetDescriptor.make({3}, [(2, 5, ())], certified=True)
        with pytest.raises(GapShapeError):
            gap_realize(other)
        lg = realize_sofic(other)
        assert lg.graph.n == 977
        assert lg.to_json() == _torus_realization(other).to_json()


class TestArbitrary:
    def test_finite_set(self):
        h = realize_arbitrary([1, 3])
        assert h.branch == "finite"
        assert h.periodic_points_upto(5) == [(1, "1"), (3, "100")]

    def test_odds(self):
        h = realize_arbitrary(lambda n: n % 2 == 1, infinite=True, horizon=64)
        assert h.branch == "one_in_s"
        periods = [p for (p, _w) in h.periodic_points_upto(9)]
        assert periods == [1, 1, 3, 5, 7, 9]  # includes the all-zeros point

    def test_one_not_in_s(self):
        h = realize_arbitrary(
            lambda n: n == 2 or n >= 5, infinite=True, horizon=64
        )
        assert h.branch == "one_not_in_s"
        assert h.generator_word(5) == "11010"
        periods = {p for (p, _w) in h.periodic_points_upto(15)}
        assert periods == {2} | set(range(5, 16))

    def test_powers_of_two(self):
        h = realize_arbitrary(
            lambda n: n & (n - 1) == 0, infinite=True, horizon=64
        )
        periods = {p for (p, _w) in h.periodic_points_upto(15)}
        assert periods == {1, 2, 4, 8}

    def test_generators_primitive(self):
        h = realize_arbitrary(
            lambda n: n == 2 or n >= 5, infinite=True, horizon=40
        )
        for k in h.elements:
            w = h.generator_word(k)
            assert len(w) == k and least_rotation_period(w) == k

    def test_marker_occurs_once_at_start(self):
        h = realize_arbitrary(
            lambda n: n in (3, 7) or n >= 10, infinite=True, horizon=40
        )
        assert h.branch == "one_not_in_s"
        for k in h.elements:
            if k == h.elements[0]:
                continue
            w = h.generator_word(k)
            assert w.count("110") == 1 and w.startswith("110")

    def test_word_membership(self):
        h = realize_arbitrary(
            lambda n: n == 2 or n >= 5, infinite=True, horizon=64
        )
        assert h.word_occurs("11010")
        assert h.word_occurs("0101")
        assert h.word_occurs("111")  # wrap of 1 u1^g 1 against the next start
        assert not h.word_occurs("1111")
        odds = realize_arbitrary(lambda n: n % 2 == 1, infinite=True, horizon=64)
        assert odds.word_occurs("000000")
        assert odds.word_occurs("00100")
        assert odds.word_occurs("11")  # the fixed point of all ones
        assert not odds.word_occurs("110")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            realize_arbitrary([])


class TestTableFormInvariant:
    def test_irreducible_outputs_fit_transitive_cell(self):
        from periodlab.classification import TableOneForm, matches_table_form

        rng = random.Random(113)
        for _ in range(8):
            d = rng.randint(1, 3)
            tau = rng.randint(1, 6)
            n_f = rng.randint(0, min(2, tau - 1))
            members = {d * e for e in rng.sample(range(1, max(tau, 2)), n_f)}
            desc = PeriodSetDescriptor.make(members, [(d, tau, ())], certified=True)
            g = realize_irreducible_sft(desc)
            got = lps_descriptor_sft(g)
            assert matches_table_form(got, TableOneForm("transitive", "SFT"))


class TestPeriodSetVariant:
    def test_multiplicatively_closed_realized(self):
        desc = PeriodSetDescriptor.make((), [(2, 1, ())], certified=True)
        lg = realize_period_set(desc)
        res = sofic_lps_upto(lg, 24)
        periods = set()
        for m in res.support:
            periods.update(range(m, 25, m))
        assert periods == set(desc.members_upto(24))

    def test_rejects_non_closed(self):
        desc = PeriodSetDescriptor.make({2}, [(1, 5, ())], certified=True)
        # 2 is a member but 4 is not: not a period set
        with pytest.raises(ShapeError):
            realize_period_set(desc)

    def test_closure_against_membership_sweep(self):
        """The closure test reads the scales; the reference sweeps every
        member's multiples through one full period of the tail."""
        rng = random.Random(7)
        closed = 0
        for _ in range(3000):
            comps = []
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                t = rng.randint(1, 7)
                extras = rng.sample(range(1, t), rng.randint(0, t - 1))
                comps.append((rng.choice((1, 2, 3, 4, 5, 6, 8)), t, extras))
            desc = PeriodSetDescriptor.make(rng.sample(range(1, 30), rng.randint(0, 3)), comps)
            bound, L = desc.structural_bound(), desc.tail_lcm()
            expect = all(
                desc.contains(k * m)
                for m in desc.members_upto(bound)
                for k in range(2, bound // m + L + 2)
            )
            assert _is_multiplicatively_closed(desc) == expect, desc.to_json()
            closed += expect
        assert 300 < closed < 2700


class TestRequests:
    def test_target_validation(self):
        desc = PeriodSetDescriptor.make({2}, [(1, 5, ())], certified=True)
        LpsRequest(desc, "irreducible_sft").validate()  # semantic d*(cofinite)
        with pytest.raises(ShapeError):
            LpsRequest(
                PeriodSetDescriptor.make({3, 5}, (), certified=True),
                "irreducible_sofic",
            ).validate()
        with pytest.raises(ValueError):
            LpsRequest(desc, "nonsense")
