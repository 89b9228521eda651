import random

import pytest

from periodlab.classification import (
    SharkovskiiTail,
    TableOneForm,
    descriptor_equal,
    descriptor_member,
    descriptor_scale,
    descriptor_union,
    is_sharkovskii_tail,
    krieger_check,
    matches_table_form,
    sharkovskii_less,
)
from periodlab.sft_counting import (
    PeriodSetDescriptor,
    lps_descriptor_sft,
)
from periodlab.graph_core import subdivide_edges

from conftest import build_graph, cycle_graph


class TestDescriptorAlgebra:
    def test_scale_singleton(self):
        assert descriptor_scale(
            PeriodSetDescriptor.singleton(3), 2
        ).finite_part == frozenset({6})

    def test_union_membership(self):
        u = descriptor_union(
            PeriodSetDescriptor.make((), [(2, 1, ())]),
            PeriodSetDescriptor.make((), [(3, 1, ())]),
        )
        assert [descriptor_member(u, n) for n in (6, 7, 8)] == [True, False, True]

    def test_scale_matches_subdivision(self, golden_mean):
        base = lps_descriptor_sft(golden_mean)
        scaled = descriptor_scale(base, 2)
        direct = lps_descriptor_sft(subdivide_edges(golden_mean, 2))
        assert descriptor_equal(scaled, direct)

    def test_union_keeps_certified_only_if_both(self):
        a = PeriodSetDescriptor.make({1}, (), certified=True)
        b = PeriodSetDescriptor.make({2}, (), certified=False)
        assert not descriptor_union(a, b).certified
        assert descriptor_union(a, a).certified


class TestTableForms:
    def test_singleton_one_mixing(self):
        assert matches_table_form(
            PeriodSetDescriptor.singleton(1), TableOneForm("mixing", "SFT")
        )

    def test_cofinite_mixing(self):
        d = PeriodSetDescriptor.make({2}, [(1, 5, ())])
        assert matches_table_form(d, TableOneForm("mixing", "SFT"))

    def test_singleton_two_not_mixing(self):
        assert not matches_table_form(
            PeriodSetDescriptor.singleton(2), TableOneForm("mixing", "SFT")
        )

    def test_general_row_accepts_everything_nonempty(self):
        d = PeriodSetDescriptor.make({2}, [(1, 5, ())])
        assert matches_table_form(d, TableOneForm("general", "SFT"))
        assert not matches_table_form(
            PeriodSetDescriptor.empty(), TableOneForm("general", "SFT")
        )

    def test_transitive_sft_scaled_cofinite(self):
        d = PeriodSetDescriptor.make((), [(3, 3, ())])
        assert matches_table_form(d, TableOneForm("transitive", "SFT"))
        d2 = PeriodSetDescriptor.make({3}, [(3, 3, ())])  # 3N minus {6}
        assert matches_table_form(d2, TableOneForm("transitive", "SFT"))

    def test_transitive_sft_rejects_mixed_scales(self):
        d = PeriodSetDescriptor.make((), [(2, 1, ()), (3, 1, ())])
        assert not matches_table_form(d, TableOneForm("transitive", "SFT"))

    def test_starred_cells_force_singletons(self):
        two = PeriodSetDescriptor.make({3, 5}, ())
        assert not matches_table_form(two, TableOneForm("transitive", "sofic"))
        assert matches_table_form(
            PeriodSetDescriptor.singleton(4), TableOneForm("transitive", "FP")
        )
        assert TableOneForm("transitive", "sofic").star
        assert not TableOneForm("transitive", "SFT").star

    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError):
            TableOneForm("odd", "SFT")


class TestSharkovskii:
    def test_cited_pairs(self):
        assert sharkovskii_less(3, 5)
        assert sharkovskii_less(9, 6)
        assert sharkovskii_less(8, 4)
        assert not sharkovskii_less(4, 8)

    def test_equal_rejected(self):
        with pytest.raises(ValueError):
            sharkovskii_less(4, 4)

    def test_strict_total_order_on_200(self):
        for m in range(1, 201):
            for n in range(1, 201):
                if m == n:
                    continue
                assert sharkovskii_less(m, n) != sharkovskii_less(n, m)

    def test_three_first_one_last(self):
        assert all(sharkovskii_less(3, n) for n in range(2, 201) if n != 3)
        assert all(sharkovskii_less(n, 1) for n in range(2, 201))

    def test_transitivity_sampled(self):
        rng = random.Random(71)
        for _ in range(300):
            a, b, c = rng.sample(range(1, 201), 3)
            if sharkovskii_less(a, b) and sharkovskii_less(b, c):
                assert sharkovskii_less(a, c)

    def test_tails_pass(self):
        for s in (1, 2, 3, 5, 6, 12, 48):
            tail = SharkovskiiTail.from_value(s)
            assert is_sharkovskii_tail(tail.members_upto(128), 128).ok
        pot = SharkovskiiTail.powers_of_two()
        assert is_sharkovskii_tail(pot.members_upto(128), 128).ok

    def test_singleton_one(self):
        assert is_sharkovskii_tail({1}, 64).ok

    def test_five_one_fails_with_seven(self):
        check = is_sharkovskii_tail({5, 1}, 64)
        assert not check.ok
        assert check.witness_present == 5
        assert check.witness_missing == 7


class TestKrieger:
    def test_two_cycle_into_golden(self, golden_mean):
        v = krieger_check(cycle_graph(2), golden_mean, 10)
        assert v.kind == "pass_at_desk_scale"
        assert v.detail["certified_all_n"] is True

    def test_one_walk_dp_per_graph(self, golden_mean, monkeypatch):
        # the tables to N and on to the crossover are one walk DP per graph
        from periodlab import sft_counting

        calls = []
        count = sft_counting.closed_walk_counts

        def recorded(g, N):
            calls.append((g, N))
            return count(g, N)

        monkeypatch.setattr(sft_counting, "closed_walk_counts", recorded)
        x = cycle_graph(2)
        v = krieger_check(x, golden_mean, 10)
        assert v.detail["certified_all_n"] is True
        crossover = v.detail["certified_from"]
        assert crossover > 10
        assert calls == [(x, crossover), (golden_mean, crossover)]

    def test_full_shift_fails_entropy(self, golden_mean, full_two_shift):
        v = krieger_check(full_two_shift, golden_mean, 10)
        assert v.kind == "entropy_fail"
        assert v.reason == "reverse_inequality_certified"

    def test_equal_entropy_not_strict(self, golden_mean):
        v = krieger_check(golden_mean, golden_mean, 10)
        assert v.kind == "entropy_fail"
        assert v.reason == "strict_inequality_not_certified"

    def test_equal_cycles_fail_strictness(self):
        v = krieger_check(cycle_graph(3), cycle_graph(3), 10)
        assert v.kind == "entropy_fail"
        assert v.reason == "strict_inequality_not_certified"

    def test_non_mixing_target_rejected(self, golden_mean):
        from periodlab.graph_core import subdivide_edges

        # period-2 irreducible target with real entropy: strictness holds,
        # the mixing precondition still rejects
        target = subdivide_edges(golden_mean, 2)
        with pytest.raises(ValueError):
            krieger_check(cycle_graph(2), target, 5)

    def test_period_fail_witness(self, golden_mean):
        # three fixed points cannot embed into golden mean (q_1 = 1)
        g = build_graph(
            ["a", "b", "c"],
            [("a", "a", "1"), ("b", "b", "2"), ("c", "c", "3")],
        )
        v = krieger_check(g, golden_mean, 8)
        assert v.kind == "period_fail"
        assert v.witness_n == 1

    def test_verdict_json(self, golden_mean):
        v = krieger_check(cycle_graph(2), golden_mean, 6)
        data = v.to_json()
        assert data["verdict"] == "pass_at_desk_scale"
        assert "entropy_certificate" in data
