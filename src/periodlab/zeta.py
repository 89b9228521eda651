"""Rational zeta functions of edge shifts and recurrence extraction.

The zeta function of an edge shift is 1 / det(I - tA). Its denominator is
computed per strongly connected component on the component's weighted core
(chains of forced vertices contracted to weighted edges, see
``graph_core.contract_chains``): a small matrix I - B(t) whose entries are
integer polynomials, reduced by fraction-free Bareiss elimination.

All arithmetic here is exact: integer polynomials, exact determinants,
rational functions reduced by a gcd over the integers (a primitive
pseudo-remainder sequence), and power series in ints (Fractions when the
denominator's constant term is not +-1). No floating point
anywhere in this module, since zero-testing of sequence terms must be
exact. A component whose elimination would pass ``ZETA_WORK_CAP`` raises
:class:`ResourceLimitExceeded` before it starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import ResourceLimitExceeded, lcm
from .graph_core import DirectedMultigraph, contract_chains, scc_decompose
from .sft_counting import PeriodSetDescriptor


# bound on k**3 * D**2 for one component, with k its weighted-core size and D
# its edge count: Bareiss takes k**3 steps, each a product of polynomials of
# degree at most D (which bounds every minor's degree)
ZETA_WORK_CAP = 10**10


class NoPatternFit(Exception):
    """The observed support admits no eventually-periodic fit within bounds."""


# -- integer polynomials ------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, constant term first, trailing zeros trimmed."""

    coeffs: tuple[int, ...]

    @classmethod
    def make(cls, coeffs) -> "IntPolynomial":
        c = list(int(x) for x in coeffs)
        while c and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def at0(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial.make(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial.make(
            [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.make(out)

    def scale(self, k: int):
        return IntPolynomial.make([k * c for c in self.coeffs])

    def shift(self, k: int):
        """Multiply by t**k."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def derivative(self):
        return IntPolynomial.make(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g or 1


def poly_divexact(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """Exact polynomial quotient; raises if den does not divide num."""
    if den.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero:
        return IntPolynomial.zero()
    run = list(num.coeffs)
    d = list(den.coeffs)
    dn = len(d) - 1
    lead = d[-1]
    qn = len(run) - 1 - dn
    if qn < 0:
        raise ValueError("inexact polynomial division")
    q = [0] * (qn + 1)
    for i in range(qn, -1, -1):
        c = run[i + dn]
        if c % lead:
            raise ValueError("inexact polynomial division")
        q[i] = c // lead
        if q[i]:
            for j, dj in enumerate(d):
                run[i + j] -= q[i] * dj
    if any(run):
        raise ValueError("inexact polynomial division")
    return IntPolynomial.make(q)


def _primitive(c: list) -> list:
    """Coefficients divided by their content, leading coefficient positive."""
    g = 0
    for x in c:
        g = gcd(g, x)
    if c[-1] < 0:
        g = -g
    return [x // g for x in c]


def _int_poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """gcd of two nonzero polynomials over Z[t], with content 1 and a
    positive leading coefficient: a primitive pseudo-remainder sequence,
    so the arithmetic stays in integers."""
    a, b = _primitive(list(a.coeffs)), _primitive(list(b.coeffs))
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return IntPolynomial.one()
        lead = b[-1]
        while len(a) >= len(b):
            f = a[-1]
            off = len(a) - len(b)
            a = [lead * x for x in a]
            for i, c in enumerate(b):
                a[off + i] -= f * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, (_primitive(a) if a else [])
    return IntPolynomial(tuple(a))


# -- rational functions -------------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """Reduced integer-cleared rational function; denominator nonzero at 0."""

    num: IntPolynomial
    den: IntPolynomial

    @classmethod
    def make(cls, num, den) -> "RationalFunction":
        num = num if isinstance(num, IntPolynomial) else IntPolynomial.make(num)
        den = den if isinstance(den, IntPolynomial) else IntPolynomial.make(den)
        if den.is_zero or den.at0() == 0:
            raise ValueError("denominator must be nonzero at 0")
        if num.is_zero:
            return cls(IntPolynomial.zero(), IntPolynomial.one())
        g = _int_poly_gcd(num, den)
        if g.degree > 0:
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
        c = gcd(num.content(), den.content())
        num = poly_divexact(num, IntPolynomial.make([c]))
        den = poly_divexact(den, IntPolynomial.make([c]))
        if den.at0() < 0:
            num, den = -num, -den
        return cls(num, den)

    def series(self, N: int) -> list:
        """First N coefficients of the power-series expansion, exact: ints
        when den(0) = +-1 (then 1 / den(0) = den(0)), Fractions otherwise."""
        b0 = self.den.at0()
        inv = b0 if b0 in (1, -1) else Fraction(1, b0)
        den = [(j, bj) for j, bj in enumerate(self.den.coeffs) if j and bj]
        out = []
        for n in range(N):
            acc = self.num.coeff(n)
            for j, bj in den:
                if j > n:
                    break
                acc -= bj * out[n - j]
            out.append(acc * inv)
        return out

    def at0(self) -> Fraction:
        return Fraction(self.num.at0(), self.den.at0())

    def to_json(self) -> dict:
        return {"num": list(self.num.coeffs), "den": list(self.den.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "RationalFunction":
        return cls.make(data["num"], data["den"])


def det_poly_matrix(m: list) -> IntPolynomial:
    """Determinant of a square IntPolynomial matrix by fraction-free
    (Bareiss) elimination; all divisions are exact."""
    n = len(m)
    if n == 0:
        return IntPolynomial.one()
    a = [row[:] for row in m]
    sign = 1
    prev = IntPolynomial.one()
    for k in range(n - 1):
        if a[k][k].is_zero:
            pivot = next(
                (i for i in range(k + 1, n) if not a[i][k].is_zero), None
            )
            if pivot is None:
                return IntPolynomial.zero()
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = poly_divexact(
                    a[k][k] * a[i][j] - a[i][k] * a[k][j], prev
                )
            a[i][k] = IntPolynomial.zero()
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return -result if sign < 0 else result


def zeta_of_graph(g: DirectedMultigraph) -> RationalFunction:
    """Zeta function of the edge shift of ``g``: 1 / det(I - tA), exactly.

    det(I - tA) is block-triangular over the condensation, so it is the
    product of one determinant per strongly connected component; trivial
    components contribute 1. Within a component, contracting a chain vertex
    (one in-edge, one out-edge, pivot exactly 1) is a Schur complement that
    leaves the determinant unchanged, so each factor is det(I - B(t)) on the
    weighted core, with B(t)_uv the sum of t**w over core edges u -> v.
    A component whose work bound passes ``ZETA_WORK_CAP`` is refused.
    """
    dec = scc_decompose(g)
    det = IntPolynomial.one()
    for i in dec.nontrivial:
        core, core_edges = contract_chains(g, dec.components[i])
        k = len(core)
        work = k**3 * sum(w for _u, _v, w in core_edges) ** 2
        if work > ZETA_WORK_CAP:
            raise ResourceLimitExceeded(
                f"zeta elimination work k^3 D^2 = {work} exceeds ZETA_WORK_CAP = {ZETA_WORK_CAP}"
            )
        idx = {v: j for j, v in enumerate(core)}
        rows = [[[int(a == b)] for b in range(k)] for a in range(k)]
        for u, v, w in core_edges:
            entry = rows[idx[u]][idx[v]]
            entry.extend([0] * (w + 1 - len(entry)))
            entry[w] -= 1
        m = [[IntPolynomial.make(c) for c in row] for row in rows]
        det = det * det_poly_matrix(m)
    return RationalFunction.make(IntPolynomial.one(), det)


def log_derivative_series(z: RationalFunction, N: int) -> list:
    """Coefficients p_1..p_N of z'/z, exact (see ``RationalFunction.series``).

    Requires z(0) = 1 (the zeta normalization); for zeta functions of graphs
    the values are the integer closed-walk counts.
    """
    if z.at0() != 1:
        raise ValueError("zeta normalization requires z(0) = 1")
    f = _log_derivative(z)
    return f.series(N)


def _log_derivative(z: RationalFunction) -> RationalFunction:
    num = z.num.derivative() * z.den - z.den.derivative() * z.num
    return RationalFunction.make(num, z.num * z.den)


def p_sequence_rational(z: RationalFunction) -> RationalFunction:
    """t * z'/z: the generating function whose t^n coefficient is p_n."""
    f = _log_derivative(z)
    # f is reduced and f.den(0) != 0, so t never divides f.den: t * f is
    # already reduced and needs no second gcd.
    return RationalFunction(f.num.shift(1), f.den)


# -- linear recurrences -------------------------------------------------------


@dataclass(frozen=True)
class LinearRecurrence:
    """a_n = -(b_1 a_{n-1} + ... + b_m a_{n-m}) for n >= valid_from,
    with the stored initial terms a_0, a_1, ...

    The order is minimal for the represented sequence when built from a
    reduced rational function.
    """

    order: int
    coeffs: tuple  # b_1..b_m: ints when den(0) = +-1, else Fractions
    initial: tuple  # a_0..a_s, of the same kind
    valid_from: int

    def terms(self, N: int) -> list:
        """a_0..a_N, exact (ints or Fractions, like the stored terms)."""
        out = list(self.initial[: N + 1])
        rec = [(i, b) for i, b in enumerate(self.coeffs, start=1) if b]
        for n in range(len(out), N + 1):
            acc = 0
            for i, b in rec:
                if i > n:
                    break
                acc -= b * out[n - i]
            out.append(acc)
        return out

    def reproduces_initial(self) -> bool:
        for n in range(max(self.valid_from, 1), len(self.initial)):
            acc = 0
            for i, b in enumerate(self.coeffs, start=1):
                if n - i >= 0:
                    acc -= b * self.initial[n - i]
            if acc != self.initial[n]:
                return False
        return True


def recurrence_from_rational(f: RationalFunction) -> LinearRecurrence:
    """Read the recurrence off the denominator of a reduced rational
    generating function: order = deg(den), coefficients b_i = den_i / den_0;
    forward iteration reproduces the series beyond the numerator degree.
    With den_0 = +-1 the coefficients and terms are ints."""
    b0 = f.den.at0()
    m = 0 if f.den.is_zero else f.den.degree
    inv = b0 if b0 in (1, -1) else Fraction(1, b0)
    coeffs = tuple(f.den.coeff(i) * inv for i in range(1, m + 1))
    num_deg = -1 if f.num.is_zero else f.num.degree
    valid_from = num_deg + 1
    keep = max(valid_from, m, 1)
    initial = tuple(f.series(keep))
    return LinearRecurrence(m, coeffs, initial, valid_from)


# -- empirical zero-set fitting ----------------------------------------------


@dataclass(frozen=True)
class EmpiricalZeroPattern:
    """Fitted eventually-periodic support of a recurrent sequence over
    positions n = 1, 2, ... Never certified: this is an observation, and the
    general zero-set problem is out of reach.

    Residue classes (mod ``period``) hold from ``threshold`` on; below it
    membership is the explicit ``low`` set.
    """

    period: int
    threshold: int
    residues: frozenset
    low: frozenset
    horizon: int

    certified = False

    def contains(self, n: int) -> bool:
        if n < 1:
            return False
        if n < self.threshold:
            return n in self.low
        return n % self.period in self.residues

    def members_upto(self, N: int) -> list:
        return [n for n in range(1, N + 1) if self.contains(n)]

    def is_monotone_upto(self, H: int) -> bool:
        """n in S implies k*n in S, verified on [1, H]."""
        for n in range(1, H + 1):
            if self.contains(n):
                for kn in range(2 * n, H + 1, n):
                    if not self.contains(kn):
                        return False
        return True

    @property
    def descriptor(self):
        """Uncertified PeriodSetDescriptor, when the pattern is closed under
        index multiplication (the reduction to d*N-form needs it); else None.
        """
        r, K = self.period, self.threshold
        check_h = max(4 * (K + r), 4 * self.horizon)
        if not self.is_monotone_upto(check_h):
            return None
        comps = []
        for c in sorted(self.residues):
            d = r if c == 0 else gcd(c, r)
            tau = max(1, -(-K // d))
            comps.append((d, tau, ()))
        candidate = PeriodSetDescriptor.make((), comps, certified=False)
        finite = {
            n
            for n in range(1, K)
            if self.contains(n) and not candidate.contains(n)
        }
        candidate = PeriodSetDescriptor.make(finite, comps, certified=False)
        bound = max(candidate.structural_bound(), K) + lcm(
            candidate.tail_lcm(), r
        )
        for n in range(1, bound + 1):
            if candidate.contains(n) != self.contains(n):
                return None
        return candidate

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "threshold": self.threshold,
            "residues": sorted(self.residues),
            "low": sorted(self.low),
            "horizon": self.horizon,
            "certified": False,
        }


def empirical_zero_set(rec: LinearRecurrence, N: int) -> EmpiricalZeroPattern:
    """Fit the smallest eventually-periodic pattern (period r <= N/4) to the
    support of a_1..a_N; the complement of the fitted set is the empirical
    zero set. Raises :class:`NoPatternFit` when nothing fits — the fit never
    silently extrapolates past an inconsistency.
    """
    if N < 4 * max(rec.order, 1):
        raise ValueError("horizon too small: need N >= 4 * order")
    seq = rec.terms(N)
    obs = [False] * (N + 1)
    for n in range(1, N + 1):
        obs[n] = seq[n] != 0
    for r in range(1, N // 4 + 1):
        for K in range(1, N // 2 + 1):
            if all(obs[n] == obs[n + r] for n in range(K, N - r + 1)):
                residues = frozenset(
                    n % r for n in range(K, min(K + r, N + 1)) if obs[n]
                )
                low = frozenset(n for n in range(1, K) if obs[n])
                return EmpiricalZeroPattern(r, K, residues, low, N)
    raise NoPatternFit(f"no eventually-periodic support with period <= {N // 4}")
