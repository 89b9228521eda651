"""Acceptance suite: every criterion as one test, exact arithmetic, zero
tolerance. Each test prints a pass line with its elapsed time (run with
``pytest tests/test_acceptance.py -v -s`` to see them)."""

import random
import time
from fractions import Fraction
from itertools import product

from periodlab.classification import (
    SharkovskiiTail,
    TableOneForm,
    descriptor_equal,
    is_sharkovskii_tail,
    krieger_check,
    matches_table_form,
    sharkovskii_less,
)
from periodlab.gapshift import (
    GapSet,
    almost_sum_closure,
    gap_lps,
    gap_realize,
    gap_to_labeled_graph,
)
from periodlab.graph_core import (
    DirectedMultigraph,
    closed_walk_counts,
    component_period,
    enumerate_closed_paths,
    essential_subgraph,
    scc_decompose,
)
from periodlab.realize import (
    realize_arbitrary,
    realize_irreducible_sft,
    realize_reducible_sft,
    realize_sofic,
)
from periodlab.sft_counting import (
    PeriodSetDescriptor,
    count_table,
    lps_descriptor_sft,
    ps_descriptor,
)
from periodlab.sofic import (
    determinize_and_minimize,
    is_receptive,
    receptive_lps_upto,
    sofic_lps_upto,
    unique_preimage_lps,
)
from periodlab.zeta import (
    p_sequence_rational,
    recurrence_from_rational,
    zeta_of_graph,
)

from conftest import build_labeled, random_labeled


def _report(name, started):
    print(f"PASS {name} ({time.monotonic() - started:.1f} s)")


def seeded_graph_corpus(seed=2024, count=100, max_vertices=6, max_edges=12,
                        horizon=12, budget=30_000):
    """Seeded random multigraphs whose total closed-path count up to the
    horizon stays within the brute-force budget (resampled otherwise, so the
    oracle stays tractable)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nv = rng.randint(1, max_vertices)
        ne = rng.randint(0, max_edges)
        vertices = [f"v{i}" for i in range(nv)]
        edges = []
        for k in range(ne):
            edges.append(
                (f"v{rng.randrange(nv)}", f"v{rng.randrange(nv)}", f"e{k}")
            )
        g = DirectedMultigraph.build(vertices, edges)
        if sum(closed_walk_counts(g, horizon)) <= budget:
            out.append(g)
    return out


_CORPUS = None


def corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = seeded_graph_corpus()
    return _CORPUS


def test_criterion_1_counting_correctness():
    started = time.monotonic()
    for g in corpus():
        table = count_table(g, 12)
        paths = enumerate_closed_paths(g, 12)
        for n in range(1, 13):
            assert table.p_at(n) == len(paths[n])
            assert table.q_at(n) == sum(
                1 for c in paths[n] if c.least_period() == n
            )
    _report("criterion 1: counting correctness on 100 seeded graphs", started)


def test_criterion_2_lps_shape_and_agreement():
    started = time.monotonic()
    for g in corpus():
        desc = lps_descriptor_sft(g)
        assert desc.certified
        horizon = 3 * max(
            [c.scale * c.threshold for c in desc.components]
            + [max(desc.finite_part, default=1), 4]
        )
        table = count_table(g, horizon)
        for n in range(1, horizon + 1):
            assert desc.contains(n) == (table.q_at(n) > 0)
        if desc.is_empty:
            continue  # empty shifts carry no classification claim
        ess = essential_subgraph(g)
        dec = scc_decompose(ess)
        irreducible = (
            ess.n > 0
            and len(dec.components) == 1
            and not dec.is_trivial[0]
        )
        mixing = irreducible and component_period(ess, dec.components[0]) == 1
        row = "mixing" if mixing else ("transitive" if irreducible else "general")
        assert matches_table_form(desc, TableOneForm(row, "SFT")), (
            row,
            desc.to_json(),
        )
    _report("criterion 2: certified LPS descriptors and table shapes", started)


def test_criterion_3_ps_membership_and_monotonicity():
    started = time.monotonic()
    for g in corpus():
        desc = ps_descriptor(g)
        p = closed_walk_counts(g, 60)
        for n in range(1, 61):
            assert desc.contains(n) == (p[n - 1] > 0)
        for n in range(1, 61):
            if desc.contains(n):
                for kn in range(2 * n, 61, n):
                    assert desc.contains(kn)
    _report("criterion 3: period-set membership to 60 + monotonicity", started)


def _exp_truncation(pn, N):
    e = [Fraction(1)] + [Fraction(0)] * N
    for k in range(1, N + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += pn[j - 1] * e[k - j]
        e[k] = acc / k
    return e


def _graph_of_matrix(m):
    n = len(m)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    k = 0
    for i in range(n):
        for j in range(n):
            if m[i][j]:
                edges.append((f"v{i}", f"v{j}", f"e{k}"))
                k += 1
    return DirectedMultigraph.build(vertices, edges)


def _check_zeta_matrix(g):
    p40 = closed_walk_counts(g, 40)
    z = zeta_of_graph(g)
    assert _exp_truncation(p40[:12], 12) == z.series(13)
    rec = recurrence_from_rational(p_sequence_rational(z))
    terms = rec.terms(40)
    for n in range(1, 41):
        assert terms[n] == p40[n - 1]


def test_criterion_4_zeta_consistency():
    started = time.monotonic()
    total = 0
    for n in range(1, 5):
        for bits in product((0, 1), repeat=n * n):
            m = [list(bits[i * n : (i + 1) * n]) for i in range(n)]
            _check_zeta_matrix(_graph_of_matrix(m))
            total += 1
    rng = random.Random(404)
    for _ in range(50):
        m = [[rng.randint(0, 1) for _ in range(5)] for _ in range(5)]
        _check_zeta_matrix(_graph_of_matrix(m))
        total += 1
    _report(f"criterion 4: zeta consistency on {total} matrices", started)


def test_criterion_5_layer_decomposition():
    started = time.monotonic()
    even = build_labeled(
        ["s0", "s1"],
        [("s0", "s0", "a", "1"), ("s0", "s1", "b", "0"), ("s1", "s0", "c", "0")],
    )
    zero2 = build_labeled(
        ["a", "b"], [("a", "b", "e1", "0"), ("b", "a", "e2", "0")]
    )
    golden = build_labeled(
        ["q0", "q1"],
        [("q0", "q0", "a", "0"), ("q0", "q1", "b", "1"), ("q1", "q0", "c", "0")],
    )
    graphs = [even, zero2, golden]
    rng = random.Random(777)
    graphs += [random_labeled(rng, max_states=4) for _ in range(20)]
    for lg in graphs:
        dec = unique_preimage_lps(lg, 14)
        assert dec.union == sofic_lps_upto(lg, 14).support
    _report("criterion 5: layer decomposition union equals LPS (N=14)", started)


def test_criterion_6_gap_shifts():
    started = time.monotonic()
    rng = random.Random(555)
    from test_gapshift import naive_almost_sum_closure

    for _ in range(50):
        k = rng.randint(1, 5)
        gens = sorted(rng.sample(range(1, 60), k))
        asc = almost_sum_closure(gens, 200)
        assert asc.members == frozenset(naive_almost_sum_closure(gens, 200))
    evens = GapSet.make((), [(0, 2)])
    desc = gap_lps(evens)
    expect = PeriodSetDescriptor.make({1}, [(1, 3, ())], certified=True)
    assert descriptor_equal(desc, expect)
    presentation = gap_to_labeled_graph(evens)
    assert sofic_lps_upto(presentation, 20).support == frozenset(
        desc.members_upto(20)
    )
    built = 0
    attempts = 0
    while built < 25:
        attempts += 1
        k = rng.randint(1, 4)
        gens = sorted(rng.sample(range(1, 16), k))
        q = almost_sum_closure(gens, 60).descriptor
        if built % 3 == 2 and not q.contains(1) and not q.is_finite:
            q = PeriodSetDescriptor.make(
                set(q.finite_part) | {1},
                [(c.scale, c.threshold, c.extras) for c in q.components],
                certified=True,
            )
        s = gap_realize(q)
        assert descriptor_equal(gap_lps(s), q), q.to_json()
        built += 1
        assert attempts < 200
    _report("criterion 6: gap-shift closure, LPS, and 25 round trips", started)


def test_criterion_7_realization_round_trips():
    started = time.monotonic()
    rng = random.Random(909)
    # 50 SFT requests: d <= 4, thresholds <= 9, |F| <= 3
    for i in range(50):
        d = rng.randint(1, 4)
        tau = rng.randint(1, 9)
        n_f = rng.randint(0, 3)
        reducible = i % 2 == 1
        if reducible:
            finite = set(rng.sample(range(1, 10), n_f))
            comps = [(d, tau, ())]
            if rng.random() < 0.5:
                comps.append((rng.randint(1, 4), rng.randint(1, 9), ()))
            desc = PeriodSetDescriptor.make(finite, comps, certified=True)
            g = realize_reducible_sft(desc)
        else:
            exceptions = sorted(rng.sample(range(1, tau), min(n_f, tau - 1)))
            members = {d * e for e in exceptions}
            desc = PeriodSetDescriptor.make(members, [(d, tau, ())], certified=True)
            g = realize_irreducible_sft(desc)
            dec = scc_decompose(g)
            assert len(dec.components) == 1 and not dec.is_trivial[0]
        assert descriptor_equal(lps_descriptor_sft(g), desc), desc.to_json()
    # 15 sofic requests including the worked {6, 8, 10, ...} instance
    requests = [PeriodSetDescriptor.make((), [(2, 3, ())], certified=True)]
    while len(requests) < 15:
        comps = [(rng.randint(1, 3), rng.randint(1, 4), ())]
        if rng.random() < 0.3:
            comps.append((rng.randint(1, 3), rng.randint(1, 4), ()))
        finite = set(rng.sample(range(1, 8), rng.randint(0, 2)))
        desc = PeriodSetDescriptor.make(finite, comps, certified=True)
        requests.append(desc)
    for desc in requests:
        lg = realize_sofic(desc)
        got = sofic_lps_upto(lg, 40).support
        assert got == frozenset(desc.members_upto(40)), desc.to_json()
    worked = requests[0]
    lg = realize_sofic(worked)
    assert any(v.startswith("C10.") for v in lg.graph.vertices)  # 10 needs a cycle section
    # arbitrary realizations reproduce S on [1, 15]
    cases = [
        (lambda n: n % 2 == 1, True, "odds"),
        ([1, 3], False, "{1,3}"),
        (lambda n: n == 2 or n >= 5, True, "{2,5,6,7,...}"),
        (lambda n: n & (n - 1) == 0, True, "powers of two"),
    ]
    for spec, infinite, _name in cases:
        handle = (
            realize_arbitrary(spec, infinite=infinite, horizon=64)
            if callable(spec)
            else realize_arbitrary(spec)
        )
        got = {p for (p, _w) in handle.periodic_points_upto(15)}
        if callable(spec):
            want = {n for n in range(1, 16) if spec(n)}
        else:
            want = {n for n in spec if n <= 15}
        assert got == want
    _report("criterion 7: realization round trips (SFT, sofic, arbitrary)", started)


def test_criterion_8_sharkovskii():
    started = time.monotonic()
    from periodlab.classification import _sharkovskii_key

    # trichotomy and antisymmetry, exhaustively on [1, 200]
    for m in range(1, 201):
        for n in range(1, 201):
            if m != n:
                assert sharkovskii_less(m, n) != sharkovskii_less(n, m)
    # transitivity: the comparison agrees with a total sort key, and the
    # sorted chain is pairwise increasing
    ordered = sorted(range(1, 201), key=_sharkovskii_key)
    for i, m in enumerate(ordered):
        for n in ordered[i + 1 :]:
            assert sharkovskii_less(m, n)
    tails = [SharkovskiiTail.from_value(s) for s in (1, 2, 3, 5, 6, 12, 96)]
    tails.append(SharkovskiiTail.powers_of_two())
    for tail in tails:
        assert is_sharkovskii_tail(tail.members_upto(128), 128).ok
    check = is_sharkovskii_tail({5, 1}, 128)
    assert not check.ok and check.witness_missing == 7
    _report("criterion 8: Sharkovskii order and tails", started)


def test_criterion_9_receptive_points():
    started = time.monotonic()
    even = build_labeled(
        ["s0", "s1"],
        [("s0", "s0", "a", "1"), ("s0", "s1", "b", "0"), ("s1", "s0", "c", "0")],
    )
    dp = determinize_and_minimize(even)
    assert is_receptive(dp, "100").receptive
    assert not is_receptive(dp, "0").receptive
    rec = receptive_lps_upto(dp, 30)
    dec = scc_decompose(dp.lg.graph)
    d = component_period(dp.lg.graph, dec.components[0])
    assert d == 1 and all(n % d == 0 for n in rec)
    # the complement within d*N sits below the certified threshold of the
    # cover's graph
    from periodlab.sft_counting import _return_structure

    component = dec.components[0]
    _, _, _, w0, loops = _return_structure(dp.lg.graph, component, d)
    tau = (w0 + sum(loops)) // d
    missing = [n for n in range(1, 31) if n % d == 0 and n not in rec]
    assert all(n < d * tau for n in missing)
    assert missing == [2]
    _report("criterion 9: receptive points on the even shift", started)


def test_criterion_10_krieger_checker():
    started = time.monotonic()
    golden = DirectedMultigraph.build(
        ["a", "b"], [("a", "a", "e1"), ("a", "b", "e2"), ("b", "a", "e3")]
    )
    two_cycle = DirectedMultigraph.build(
        ["x", "y"], [("x", "y", "1"), ("y", "x", "2")]
    )
    full2 = DirectedMultigraph.build(["v"], [("v", "v", "0"), ("v", "v", "1")])
    three_cycle = DirectedMultigraph.build(
        ["x", "y", "z"],
        [("x", "y", "1"), ("y", "z", "2"), ("z", "x", "3")],
    )
    v1 = krieger_check(two_cycle, golden, 10)
    assert v1.kind == "pass_at_desk_scale"
    v2 = krieger_check(full2, golden, 10)
    assert v2.kind == "entropy_fail"
    assert v2.reason == "reverse_inequality_certified"
    v3 = krieger_check(three_cycle, three_cycle, 10)
    assert v3.kind == "entropy_fail"
    assert v3.reason == "strict_inequality_not_certified"
    # certified rational bounds separating log 2 from log phi
    from periodlab.classification import _certify_rho_less

    assert _certify_rho_less(golden, full2) is not None
    assert _certify_rho_less(full2, golden) is None
    _report("criterion 10: embeddability verdicts and entropy bounds", started)
