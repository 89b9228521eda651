import random
from fractions import Fraction

import pytest

from periodlab.graph_core import subdivide_edges, trace_power
from periodlab.realize import realize_irreducible_sft
from periodlab.sft_counting import PeriodSetDescriptor, ps_descriptor
from periodlab.zeta import (
    IntPolynomial,
    LinearRecurrence,
    NoPatternFit,
    RationalFunction,
    _log_derivative,
    det_poly_matrix,
    empirical_zero_set,
    log_derivative_series,
    p_sequence_rational,
    poly_divexact,
    recurrence_from_rational,
    zeta_of_graph,
)

from conftest import build_graph, cycle_graph, random_graph


def exp_truncation(pn, N):
    """Degree-N truncation of exp(sum p_n t^n / n), exact Fractions."""
    e = [Fraction(1)] + [Fraction(0)] * N
    for k in range(1, N + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += pn[j - 1] * e[k - j]
        e[k] = acc / k
    return e


def graph_from_matrix(m):
    n = len(m)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    k = 0
    for i in range(n):
        for j in range(n):
            for _ in range(m[i][j]):
                edges.append((f"v{i}", f"v{j}", f"e{k}"))
                k += 1
    return build_graph(vertices, edges)


class TestPolynomials:
    def test_mul_and_divexact(self):
        a = IntPolynomial.make([1, 2, 1])
        b = IntPolynomial.make([1, 1])
        assert poly_divexact(a, b) == b

    def test_inexact_division_raises(self):
        with pytest.raises(ValueError):
            poly_divexact(IntPolynomial.make([1, 1, 1]), IntPolynomial.make([2, 1]))

    def test_trim(self):
        assert IntPolynomial.make([1, 0, 0]).coeffs == (1,)

    def test_planted_common_factor_cancels(self):
        # a non-monic f (leading coefficient +-2, +-3, content up to 3) must
        # cancel completely: the reduced pair is unique
        rng = random.Random(61)

        def poly(deg):
            c = [rng.randint(-4, 4) for _ in range(deg)]
            return IntPolynomial.make(
                [rng.choice((-3, -1, 1, 2))] + c + [rng.choice((-3, -2, 2, 3))]
            )

        for _ in range(150):
            a, b = poly(rng.randint(0, 3)), poly(rng.randint(0, 3))
            f = poly(rng.randint(0, 3)).scale(rng.choice((1, 1, 2, -3)))
            assert RationalFunction.make(a * f, b * f) == RationalFunction.make(a, b)
        reduced = RationalFunction.make(
            IntPolynomial.make([2, -6, 4]), IntPolynomial.make([6, -3, -3])
        )
        # 2(1 - t)(1 - 2t) / 3(1 - t)(2 + t)
        assert reduced == RationalFunction(
            IntPolynomial.make([2, -4]), IntPolynomial.make([6, 3])
        )


class TestZeta:
    def test_full_two_shift(self, full_two_shift):
        z = zeta_of_graph(full_two_shift)
        assert z.to_json() == {"num": [1], "den": [1, -2]}
        pn = [trace_power(full_two_shift, n) for n in range(1, 9)]
        assert exp_truncation(pn, 8) == z.series(9)

    def test_golden_mean(self, golden_mean):
        z = zeta_of_graph(golden_mean)
        assert z.to_json() == {"num": [1], "den": [1, -1, -1]}
        pn = [trace_power(golden_mean, n) for n in range(1, 9)]
        assert exp_truncation(pn, 8) == z.series(9)

    def test_three_cycle(self):
        z = zeta_of_graph(cycle_graph(3))
        assert z.to_json() == {"num": [1], "den": [1, 0, 0, -1]}

    def test_exhaustive_small_matrices(self):
        # all 0/1 matrices up to 2x2, plus a sample of 3x3
        from itertools import product

        for bits in product((0, 1), repeat=4):
            m = [[bits[0], bits[1]], [bits[2], bits[3]]]
            g = graph_from_matrix(m)
            z = zeta_of_graph(g)
            pn = [trace_power(g, n) for n in range(1, 13)]
            assert exp_truncation(pn, 12) == z.series(13)
        rng = random.Random(5)
        for _ in range(20):
            m = [[rng.randint(0, 1) for _ in range(3)] for _ in range(3)]
            g = graph_from_matrix(m)
            z = zeta_of_graph(g)
            pn = [trace_power(g, n) for n in range(1, 13)]
            assert exp_truncation(pn, 12) == z.series(13)

    def test_work_cap(self):
        # the 15,050-vertex realization of {n >= 100}: a 100-vertex core on
        # 15,150 edges, k^3 D^2 = 2.3e14; refused before elimination starts
        import time

        from periodlab.arith import ResourceLimitExceeded

        g = realize_irreducible_sft(PeriodSetDescriptor.make((), [(1, 100, ())], certified=True))
        start = time.perf_counter()
        with pytest.raises(ResourceLimitExceeded, match="ZETA_WORK_CAP"):
            zeta_of_graph(g)
        assert time.perf_counter() - start < 1


def dense_zeta(g):
    """1 / det(I - tA) by Bareiss on the full n x n matrix: the reference
    the per-component core determinant must reproduce."""
    adj = g.adjacency
    m = [
        [IntPolynomial.make([int(i == j), -adj[i][j]]) for j in range(g.n)]
        for i in range(g.n)
    ]
    return RationalFunction.make(IntPolynomial.one(), det_poly_matrix(m))


def ring_with_cycles(ring, attached):
    """A ring of ``ring`` vertices; for each (at, length) in ``attached`` a
    cycle of that length through ring vertex ``at``."""
    verts = [f"r{i}" for i in range(ring)]
    edges = [(f"r{i}", f"r{(i + 1) % ring}", f"r.e{i}") for i in range(ring)]
    for k, (at, length) in enumerate(attached):
        path = [f"r{at}"] + [f"a{k}.{i}" for i in range(1, length)] + [f"r{at}"]
        verts += path[1:-1]
        edges += [(path[i], path[i + 1], f"a{k}.e{i}") for i in range(length)]
    return build_graph(verts, edges)


def doubled_triangle(prefix="x"):
    """A 3-cycle with one doubled edge: det(I - tA) = 1 - 2t^3."""
    v = [f"{prefix}{i}" for i in range(3)]
    return v, [
        (v[0], v[1], f"{prefix}.a"), (v[0], v[1], f"{prefix}.b"),
        (v[1], v[2], f"{prefix}.c"), (v[2], v[0], f"{prefix}.d"),
    ]


def loop_and_five_cycle(prefix="y"):
    """A self-loop and a 5-cycle through one vertex: 1 - t - t^5."""
    v = [f"{prefix}{i}" for i in range(5)]
    edges = [(v[0], v[0], f"{prefix}.loop")]
    edges += [(v[i], v[(i + 1) % 5], f"{prefix}.e{i}") for i in range(5)]
    return v, edges


def bridged_components():
    """The two graphs above joined by a bridge through a trivial vertex."""
    xv, xe = doubled_triangle()
    yv, ye = loop_and_five_cycle()
    bridge = [("x2", "m", "bridge1"), ("m", "y0", "bridge2")]
    return build_graph(xv + ["m"] + yv, xe + bridge + ye)


def loops_and_parallels():
    """Parallel edges, self-loops on chain and branch vertices, and a
    2-cycle of parallel pairs."""
    verts = ["a", "b", "c", "d"]
    edges = [
        ("a", "a", "e0"), ("a", "a", "e1"), ("a", "b", "e2"), ("b", "c", "e3"),
        ("c", "c", "e4"), ("c", "d", "e5"), ("d", "a", "e6"), ("d", "a", "e7"),
        ("b", "d", "e8"), ("d", "b", "e9"), ("d", "b", "e10"),
    ]
    return build_graph(verts, edges)


def golden_mean_graph():
    return build_graph(
        ["a", "b"], [("a", "a", "e1"), ("a", "b", "e2"), ("b", "a", "e3")]
    )


CORE_CASES = {
    "cycle40": lambda: cycle_graph(40),
    "ring20+11": lambda: ring_with_cycles(20, [(0, 11)]),
    "ring25+20": lambda: ring_with_cycles(25, [(7, 20)]),
    "ring30+12+19": lambda: ring_with_cycles(30, [(0, 12), (11, 19)]),
    "ring33+28": lambda: ring_with_cycles(33, [(5, 28)]),
    "subdivided_golden": lambda: subdivide_edges(golden_mean_graph(), 7),
    "realized_2x(n>=3)": lambda: realize_irreducible_sft(
        PeriodSetDescriptor.make((), [(2, 3, ())], certified=True)
    ),
    "loops_and_parallels": loops_and_parallels,
    "bridged_components": bridged_components,
    "dag": lambda: build_graph(
        ["a", "b", "c"], [("a", "b", "1"), ("a", "c", "2"), ("b", "c", "3")]
    ),
    "empty": lambda: build_graph([], []),
}


class TestCoreDeterminant:
    @pytest.mark.parametrize("case", sorted(CORE_CASES))
    def test_matches_dense_determinant(self, case):
        g = CORE_CASES[case]()
        z = zeta_of_graph(g)
        assert z == dense_zeta(g)
        # every n up to 12, plus lengths that close the cases' long cycles
        ns = list(range(1, 13)) + [20, 28, 33, 40, 45, 61]
        series = log_derivative_series(z, ns[-1])
        assert [series[n - 1] for n in ns] == [trace_power(g, n) for n in ns]

    def test_dag_and_empty_are_one(self):
        for case in ("dag", "empty"):
            z = zeta_of_graph(CORE_CASES[case]())
            assert z.to_json() == {"num": [1], "den": [1]}

    def test_cycle_is_one_minus_t_to_the_length(self):
        z = zeta_of_graph(cycle_graph(40))
        assert z.to_json() == {"num": [1], "den": [1] + [0] * 39 + [-1]}

    def test_components_multiply(self):
        z = zeta_of_graph(bridged_components())
        assert z.den == IntPolynomial.make([1, 0, 0, -2]) * IntPolynomial.make(
            [1, -1, 0, 0, 0, -1]
        )
        assert z.den == (
            zeta_of_graph(build_graph(*doubled_triangle())).den
            * zeta_of_graph(build_graph(*loop_and_five_cycle())).den
        )


class TestLogDerivative:
    def test_full_shift(self):
        z = RationalFunction.make([1], [1, -2])
        assert log_derivative_series(z, 4) == [2, 4, 8, 16]

    def test_golden(self, golden_mean):
        z = zeta_of_graph(golden_mean)
        assert log_derivative_series(z, 5) == [1, 3, 4, 7, 11]

    def test_constant_one(self):
        z = RationalFunction.make([1], [1])
        assert log_derivative_series(z, 3) == [0, 0, 0]

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            log_derivative_series(RationalFunction.make([2], [1]), 3)

    def test_matches_traces_random(self):
        rng = random.Random(17)
        for _ in range(10):
            g = random_graph(rng, max_vertices=5, max_edges=8, horizon=8)
            z = zeta_of_graph(g)
            series = log_derivative_series(z, 12)
            assert series == [trace_power(g, n) for n in range(1, 13)]


class TestRecurrence:
    def test_fibonacci(self):
        rec = recurrence_from_rational(RationalFunction.make([1], [1, -1, -1]))
        assert rec.order == 2
        assert rec.coeffs == (Fraction(-1), Fraction(-1))
        assert rec.terms(8) == [1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_order_one(self):
        rec = recurrence_from_rational(RationalFunction.make([1], [1, -2]))
        assert rec.order == 1
        assert rec.terms(5) == [1, 2, 4, 8, 16, 32]

    def test_period_three_with_numerator(self):
        f = RationalFunction.make([1, 1], [1, 0, 0, -1])
        rec = recurrence_from_rational(f)
        assert rec.order == 3
        assert rec.terms(12) == f.series(13)

    def test_reproduces_initial(self):
        f = RationalFunction.make([3, 1, 4], [1, -2, 0, 5])
        rec = recurrence_from_rational(f)
        assert rec.reproduces_initial()
        assert rec.terms(40) == f.series(41)

    def test_integer_and_fraction_paths(self):
        # ints exactly when den(0) = +-1; the same values as a Fraction
        # long division either way
        rng = random.Random(37)
        for b0 in (1, -1, 2, -3):
            for _ in range(5):
                num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
                den = [b0] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
                f = RationalFunction.make(num, den)
                want = []
                for n in range(30):
                    acc = Fraction(f.num.coeff(n))
                    for j in range(1, n + 1):
                        acc -= f.den.coeff(j) * want[n - j]
                    want.append(acc / f.den.at0())
                series = f.series(30)
                rec = recurrence_from_rational(f)
                assert series == want and rec.terms(29) == want
                unit = f.den.at0() in (1, -1)
                assert all(isinstance(v, int if unit else Fraction) for v in series)
                if unit:
                    assert all(isinstance(v, int) for v in rec.terms(29))

    def test_p_sequence_skips_second_reduction(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(rng, max_vertices=6, max_edges=12, horizon=8)
            z = zeta_of_graph(g)
            f = _log_derivative(z)
            assert p_sequence_rational(z) == RationalFunction.make(
                f.num.shift(1), f.den
            )

    def test_reproduces_beyond_numerator_random(self):
        rng = random.Random(29)
        for _ in range(10):
            g = random_graph(rng, max_vertices=4, max_edges=6, horizon=8)
            z = zeta_of_graph(g)
            f = p_sequence_rational(z)
            rec = recurrence_from_rational(f)
            terms = rec.terms(40)
            for n in range(1, 41):
                assert terms[n] == trace_power(g, n)


class TestEmpiricalZeroSet:
    def test_multiples_of_three(self):
        rec = recurrence_from_rational(RationalFunction.make([1], [1, 0, 0, -1]))
        # positions 1..N of the series of 1/(1-t^3): support 3N
        pat = empirical_zero_set(rec, 24)
        assert pat.period == 3 and pat.residues == frozenset({0})
        desc = pat.descriptor
        assert desc is not None and not desc.certified
        assert desc.to_json()["components"] == [
            {"d": 3, "threshold": 1, "extras": []}
        ]

    def test_positive_sequence_all_naturals(self):
        rec = LinearRecurrence(
            2, (Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(1)), 2
        )
        pat = empirical_zero_set(rec, 16)
        desc = pat.descriptor
        assert desc is not None
        assert desc.to_json()["components"] == [
            {"d": 1, "threshold": 1, "extras": []}
        ]

    def test_alternating_keeps_residue_form(self):
        rec = LinearRecurrence(
            2, (Fraction(0), Fraction(-1)), (Fraction(0), Fraction(1)), 2
        )
        pat = empirical_zero_set(rec, 20)
        assert pat.period == 2 and pat.residues == frozenset({1})
        assert pat.members_upto(9) == [1, 3, 5, 7, 9]
        # odd numbers are not closed under index multiplication: no d(N+k)
        # conversion exists, the residue pattern is the result
        assert pat.descriptor is None

    def test_no_fit_reported(self):
        # zeros at 1, 5, 17: support not eventually periodic with r <= N/4
        init = tuple(
            Fraction((n - 1) * (n - 5) * (n - 17)) for n in range(4)
        )
        rec = LinearRecurrence(
            4, (Fraction(-4), Fraction(6), Fraction(-4), Fraction(1)), init, 4
        )
        with pytest.raises(NoPatternFit):
            empirical_zero_set(rec, 20)

    def test_agrees_with_ps_descriptor(self):
        rng = random.Random(43)
        for _ in range(10):
            g = random_graph(rng, max_vertices=4, max_edges=6, horizon=8)
            if g.n == 0 or trace_power(g, 1) + trace_power(g, 2) + trace_power(g, 3) == 0:
                continue
            z = zeta_of_graph(g)
            rec = recurrence_from_rational(p_sequence_rational(z))
            try:
                pat = empirical_zero_set(rec, 48)
            except NoPatternFit:
                continue
            desc = ps_descriptor(g)
            for n in range(1, 49):
                assert pat.contains(n) == desc.contains(n)
