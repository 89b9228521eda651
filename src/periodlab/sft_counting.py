"""Periodic-point and least-period counting for edge shifts.

Produces exact count tables (p_n, q_n) and *certified* descriptors of the
period set {n : p_n > 0} and the least-period set supp(q_n). A certified
descriptor is correct for every n, not just below a horizon. One pass per
nontrivial component (:func:`sft_components`) finds its period, the return
lengths at a basepoint of its weighted core and its exact walk counts. A
Dijkstra over (vertex, length mod the shortest return) finds where the
returns fill every multiple of the period, which is the period-set tail,
and two distinct first-return loops on top of it make every longer multiple
a least period. The exact counts decide everything below either tail, and
up to a count table's horizon. Growth certificates (superadditive
basepoint return counts against walk-count upper bounds) compare two
systems' counts beyond a crossover for the embedding check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from . import arith
from .arith import ResourceLimitExceeded, iroot, lcm
from .graph_core import (
    DirectedMultigraph,
    basepoint_return_counts,
    component_period,
    component_walk_counts,
    contract_chains,
    closed_walk_counts,
    core_max_walk_counts,
    essential_subgraph,
    first_return_loops,
    return_tail_start,
    scc_decompose,
)

_ROOT_DENOM = 1 << 16
RECODE_BLOCK_CAP = 1 << 16  # (L-1)-blocks higher_block_recode may list


class CertificationError(Exception):
    """A growth certificate or threshold could not be established within
    internal caps."""


# -- forbidden-word specs and higher-block recoding ---------------------------


@dataclass(frozen=True)
class ForbiddenWordSpec:
    """A shift of finite type given by its alphabet and forbidden words."""

    alphabet: tuple[str, ...]
    forbidden: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        if not all(isinstance(a, str) for a in self.alphabet):
            raise ValueError("alphabet symbols must be strings")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet symbol")
        seen = set()
        for w in self.forbidden:
            if len(w) < 1:
                raise ValueError("forbidden words must have length >= 1")
            if any(a not in self.alphabet for a in w):
                raise ValueError(f"forbidden word {w!r} uses unknown symbols")
            if w in seen:
                raise ValueError(f"duplicate forbidden word {w!r}")
            seen.add(w)

    @classmethod
    def build(cls, alphabet, forbidden) -> "ForbiddenWordSpec":
        return cls(
            tuple(alphabet), tuple(tuple(w) for w in forbidden)
        )


def _contains_forbidden(block, forbidden) -> bool:
    for w in forbidden:
        k = len(w)
        if k <= len(block):
            for i in range(len(block) - k + 1):
                if block[i : i + k] == w:
                    return True
    return False


def higher_block_recode(spec: ForbiddenWordSpec) -> DirectedMultigraph:
    """Graph whose edge shift is conjugate to the SFT defined by ``spec``.

    Vertices are the allowed (L-1)-blocks and edges the allowed L-blocks,
    where L is the longest forbidden-word length (at least 2). Conjugacy
    preserves p_n and q_n for every n. Forbidding every length-1 word yields
    the empty graph (the empty shift). Raises
    :class:`ResourceLimitExceeded` before listing any block when there are
    more than ``RECODE_BLOCK_CAP`` candidate (L-1)-blocks.
    """
    L = max([2] + [len(w) for w in spec.forbidden])
    candidates = len(spec.alphabet) ** (L - 1)
    if candidates > RECODE_BLOCK_CAP:
        raise ResourceLimitExceeded(
            f"higher-block recode would list {len(spec.alphabet)}^{L - 1} = "
            f"{candidates} blocks, more than RECODE_BLOCK_CAP = {RECODE_BLOCK_CAP}"
        )
    blocks = [()]
    for _ in range(L - 1):
        blocks = [b + (a,) for b in blocks for a in spec.alphabet]
    vertices = ["".join(b) for b in blocks if not _contains_forbidden(b, spec.forbidden)]
    vset = set(vertices)
    edges = []
    for v in vertices:
        prefix = tuple(v)
        for a in spec.alphabet:
            block = prefix + (a,)
            if _contains_forbidden(block, spec.forbidden):
                continue
            target = "".join(block[1:])
            if target in vset:
                edges.append((v, target, "".join(block)))
    return essential_subgraph(DirectedMultigraph.build(vertices, edges))


# -- count tables -------------------------------------------------------------


@dataclass(frozen=True)
class CountTable:
    """Exact sequences p_1..p_N and q_1..q_N, with p_n = sum_{k|n} q_k."""

    N: int
    p: tuple[int, ...]
    q: tuple[int, ...]

    @classmethod
    def from_p(cls, p) -> "CountTable":
        """The table of p_1..p_N, with q by Möbius inversion."""
        q = mobius_invert(p)
        for n, qn in enumerate(q, start=1):
            if qn < 0:
                raise AssertionError(f"negative q_{n}; counting bug")
        return cls(len(p), tuple(p), tuple(q))

    def p_at(self, n: int) -> int:
        return self.p[n - 1]

    def q_at(self, n: int) -> int:
        return self.q[n - 1]

    def to_csv(self) -> str:
        lines = ["n,p,q"]
        for i in range(self.N):
            lines.append(f"{i + 1},{self.p[i]},{self.q[i]}")
        return "\n".join(lines)


def mobius_invert(p: list) -> list:
    """q_n = sum_{k|n} mu(n/k) p_k, for n = 1..len(p), by a sieve.

    Since p_n = sum_{k|n} q_k, q starts as p and each q_e, final once every
    proper divisor of e has been subtracted, is subtracted from every
    multiple of e. Capped at ``arith.MOBIUS_CAP``, read at call time; the
    error names the first n past the cap.
    """
    N = len(p)
    cap = arith.MOBIUS_CAP
    if N > cap:
        raise ResourceLimitExceeded(
            f"mobius horizon cap exceeded: {cap + 1} > {cap}"
        )
    q = list(p)
    for e in range(1, N // 2 + 1):
        qe = q[e - 1]
        if qe:
            for m in range(2 * e - 1, N, e):
                q[m] -= qe
    return q


def count_table(g: DirectedMultigraph, N: int) -> CountTable:
    """Exact p (closed-walk counts) and q (Möbius inversion) up to N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return CountTable.from_p(closed_walk_counts(g, N))


# -- period-set descriptors ---------------------------------------------------


@dataclass(frozen=True)
class DescriptorComponent:
    """The set scale * {n : n >= threshold}. In a descriptor built by
    :meth:`PeriodSetDescriptor.make` the threshold is the least one the
    whole set allows."""

    scale: int
    threshold: int

    def contains(self, n: int) -> bool:
        return n % self.scale == 0 and n // self.scale >= self.threshold


@dataclass(frozen=True)
class PeriodSetDescriptor:
    """Exact finite representation of a set F | union of d_i * {n >= t_i}
    (F finite), in a form decided by the set alone (see :meth:`make`), so
    equal sets have equal descriptors and equal JSON.

    ``certified`` means membership agrees with ground truth for all n, not
    just below some horizon.
    """

    finite_part: frozenset
    components: tuple[DescriptorComponent, ...]
    certified: bool

    @classmethod
    def make(cls, finite=(), components=(), certified=False) -> "PeriodSetDescriptor":
        """The canonical descriptor (see :func:`_canonicalize`) of F | union
        of d * ({n >= t} | extras), from :class:`DescriptorComponent` values
        or (d, t, extras) triples. Raises ``ValueError`` on a member, scale
        or threshold below 1, or an extra outside 1 <= e < t."""
        fin, comps = _canonicalize(finite, [
            (c.scale, c.threshold, ()) if isinstance(c, DescriptorComponent) else c
            for c in components
        ])
        return cls(
            frozenset(fin),
            tuple(DescriptorComponent(d, t) for (d, t) in comps),
            bool(certified),
        )

    @classmethod
    def empty(cls, certified=True) -> "PeriodSetDescriptor":
        return cls.make((), (), certified)

    @classmethod
    def singleton(cls, n: int, certified=True) -> "PeriodSetDescriptor":
        return cls.make((n,), (), certified)

    def contains(self, n: int) -> bool:
        if n in self.finite_part:
            return True
        return any(c.contains(n) for c in self.components)

    def __contains__(self, n) -> bool:
        return self.contains(n)

    @property
    def is_empty(self) -> bool:
        return not self.finite_part and not self.components

    @property
    def is_finite(self) -> bool:
        return not self.components

    def members_upto(self, N: int) -> list[int]:
        return [n for n in range(1, N + 1) if self.contains(n)]

    def structural_bound(self) -> int:
        """All membership beyond this bound is tail-periodic."""
        b = max(self.finite_part, default=0)
        for c in self.components:
            b = max(b, c.scale * c.threshold)
        return b

    def tail_lcm(self) -> int:
        out = 1
        for c in self.components:
            out = lcm(out, c.scale)
        return out

    def sft_shape(self):
        """The set's irreducible-SFT form: ('singleton', d) for {d},
        ('scaled_cofinite', g, N, F) for g * (F | {N, N+1, ...}) with g the
        gcd of the members and N least, or None when it is neither.

        Read off the canonical form: every member is a multiple of g and
        every large multiple of g is a member exactly when the form has one
        component, of scale g, and g divides every finite member."""
        if not self.components:
            if len(self.finite_part) == 1:
                return ("singleton", min(self.finite_part))
            return None
        c, *rest = self.components
        if rest or any(n % c.scale for n in self.finite_part):
            return None
        return (
            "scaled_cofinite",
            c.scale,
            c.threshold,
            tuple(sorted(n // c.scale for n in self.finite_part)),
        )

    def to_json(self) -> dict:
        return {
            "finite": sorted(self.finite_part),
            "components": [
                {"d": c.scale, "threshold": c.threshold, "extras": []}
                for c in self.components
            ],
            "certified": self.certified,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PeriodSetDescriptor":
        return cls.make(
            data.get("finite", ()),
            [(c["d"], c["threshold"], c.get("extras", ())) for c in data.get("components", ())],
            data.get("certified", False),
        )


def _canonicalize(finite, comps: list):
    """The form of F | union of d * ({n >= t} | extras), decided by the set.

    A cyclic subgroup of Z/LZ that lies inside a union of subgroups lies
    inside one of them, so the scales whose large multiples are all members
    are the multiples of the input scales, and the divisibility-minimal
    input scales are the set's own. Each keeps its least input threshold,
    walked down while the multiple below is a member. The finite part is
    the members no kept component covers: input and extra members, and the
    members of a dropped component below its cover's tail."""
    finite = {int(x) for x in finite}
    tails = {}
    for d, t, extras in comps:
        d, t = int(d), int(t)
        if d < 1 or t < 1:
            raise ValueError("component needs scale >= 1 and threshold >= 1")
        for e in map(int, extras):
            if not 1 <= e < t:
                raise ValueError("extras must lie strictly below the threshold")
            finite.add(d * e)
        tails[d] = min(t, tails.get(d, t))
    if any(n < 1 for n in finite):
        raise ValueError("finite members must be >= 1")

    def covered(n, by):
        return any(n % d == 0 and n // d >= t for d, t in by.items())

    kept = {}
    for d, t in tails.items():
        if not any(e != d and d % e == 0 for e in tails):
            while t > 1 and (d * (t - 1) in finite or covered(d * (t - 1), tails)):
                t -= 1
            kept[d] = t
    for d, t in tails.items():
        if d not in kept:
            cover = min(e * s for e, s in kept.items() if d % e == 0)
            finite.update(range(d * t, cover, d))
    return {n for n in finite if not covered(n, kept)}, sorted(kept.items())


def descriptors_equal_sets(a: PeriodSetDescriptor, b: PeriodSetDescriptor) -> bool:
    """Exact set equality, decided by a sweep up to the joint periodic tail;
    the tests' reference for the canonical form."""
    bound = max(a.structural_bound(), b.structural_bound())
    period = lcm(a.tail_lcm(), b.tail_lcm())
    horizon = bound + period
    return all(a.contains(n) == b.contains(n) for n in range(1, horizon + 1))


# -- certified descriptors ----------------------------------------------------


@dataclass(frozen=True)
class SftComponent:
    """One nontrivial component, analysed once: its period d, weighted core
    and basepoint, the lengths of the one or two shortest first-return loops
    there, the exact start w0 of the full d-multiple tail of basepoint
    return lengths, and its closed-walk counts p_1..p_L."""

    component: frozenset
    d: int
    core: list
    core_edges: list
    base: object
    loops: tuple
    w0: int
    counts: tuple


def sft_components(g: DirectedMultigraph, N: int = 0) -> list[SftComponent]:
    """The record of every nontrivial component, counted up to
    L = max(N, w0 + a + b - d): every length below either certified
    threshold, and the horizon N."""
    dec = scc_decompose(g)
    out = []
    for i in dec.nontrivial:
        component = dec.components[i]
        d = component_period(g, component)
        core, core_edges = contract_chains(g, component)
        base = core[0]
        loops = first_return_loops(core, core_edges, base)
        w0 = return_tail_start(core, core_edges, base, d, loops[0])
        counts = component_walk_counts(g, component, max(N, w0 + sum(loops) - d))
        out.append(SftComponent(component, d, core, core_edges, base, loops, w0, tuple(counts)))
    return out


def sft_analysis(g: DirectedMultigraph, N: int = 0):
    """(p_1..p_N, period-set descriptor, least-period-set descriptor) of the
    edge shift of ``g``, from one pass over :func:`sft_components`. Each
    component of period d contributes d * ({n >= tau} | extras), the extras
    read off its exact counts below tau (Möbius-inverted for least
    periods), and a single c-cycle contributes the least period c."""
    p = [0] * N
    periods, finite, least = [], set(), []
    for c in sft_components(g, N):
        d, counts = c.d, c.counts
        for n in range(N):
            p[n] += counts[n]
        tau = c.w0 // d
        periods.append((d, tau, {k for k in range(1, tau) if counts[d * k - 1] > 0}))
        if len(c.loops) == 1:
            finite.add(c.loops[0])
            continue
        tau = (c.w0 + sum(c.loops)) // d
        q = mobius_invert(counts[: d * (tau - 1)])
        if any(x < 0 for x in q):
            raise AssertionError("negative least-period count")
        least.append((d, tau, {k for k in range(1, tau) if q[d * k - 1] > 0}))
    return (
        p,
        PeriodSetDescriptor.make((), periods, certified=True),
        PeriodSetDescriptor.make(finite, least, certified=True),
    )


def ps_descriptor(g: DirectedMultigraph) -> PeriodSetDescriptor:
    """Certified descriptor of {n : tr(A^n) > 0}, assembled per component.

    Inside a component with period d, every closed-walk length is a multiple
    of d, basepoint returns give a certified all-multiples tail from w0 on,
    so tau = w0 / d, and an exact sweep below the tail start decides the
    rest.
    """
    return sft_analysis(g)[1]


def _floor_root_scaled(value: int, k: int, denom: int = _ROOT_DENOM) -> int:
    """Largest x with (x / denom) ** k <= value."""
    return iroot(value * denom**k, k)


_STEP_DENOM = 1 << 8  # coarse denominator for per-step growth factors
_BOUND_DENOM = 1 << 32  # first denominator tried for a rational step bound
THRESHOLD_SEARCH_CAP = 500_000  # multiples of d a threshold search may pass
GROWTH_RETURN_CAP = 8192  # return length a growth certificate may count to


@dataclass(frozen=True)
class GrowthCertificate:
    """Certified growth data for one non-cycle irreducible component.

    The certified facts are:
      p_n >= (x / 2^8)^(n - w_prime)    for multiples n >= w_prime of d
      rho >= y / 2^16 > 1               (Perron-root lower bound)
      rho^j_upper <= walk_cap           (from max length-j walk counts)
      (z / z_denom)^(2 j_upper) >= walk_cap and x / 2^8 > z / z_denom
    so the step bound Z = z / z_denom is a rational upper bound on
    walk_cap^(1 / (2 j_upper)) that the certified growth per step exceeds.
    Summed p-tails are dominated by powers of Z, and q-positivity
    thresholds follow from exact integer inequalities in n.
    """

    m: int
    d: int
    w_prime: int
    x: int
    y: int
    j_upper: int
    walk_cap: int
    z: int
    z_denom: int


def _step_bound(value: int, k: int, x: int) -> tuple[int, int]:
    """(z, D) with (z / D)^k >= value and x / 2^8 > z / D.

    z is the ceiling root iroot(value * D^k - 1, k) + 1. D starts at 2^32
    and is squared until the bound drops below x / 2^8, which happens
    whenever x^k > value * 2^(8k), since z / D - value^(1/k) < 1 / D."""
    D = _BOUND_DENOM
    while True:
        z = iroot(value * D**k - 1, k) + 1
        if x * D > z * _STEP_DENOM:
            return z, D
        D *= D


def growth_certificate(component, d, core, core_edges, base, w0) -> GrowthCertificate:
    """Build the certificate, choosing the growth base K and the walk-bound
    exponent j by float preselection (only the final integer inequalities
    certify anything, so the selection is free to be heuristic). The step
    bound Z is then fitted between walk_cap^(1/(2j)) and x / 2^8."""
    m = len(component)
    Dx, Dy = _STEP_DENOM, _ROOT_DENOM
    walk_caps = core_max_walk_counts(core, core_edges, 160)
    best_j, best_wlog = None, None
    for j in range(1, len(walk_caps) + 1):
        wlog = log2(walk_caps[j - 1]) / j
        if best_wlog is None or wlog < best_wlog - 1e-12:
            best_j, best_wlog = j, wlog
    W = walk_caps[best_j - 1]
    k_cap = max(8 * d, 96)
    while True:
        counts = basepoint_return_counts(core, core_edges, base, k_cap)
        K, best_clog = None, 0.0
        for k in range(d, k_cap + 1, d):
            if counts[k] >= 2:
                clog = log2(counts[k]) / k
                if clog > best_clog:
                    K, best_clog = k, clog
        x = _floor_root_scaled(counts[K], K, Dx) if K is not None else None
        y = None
        for k in range(d, k_cap + 1, d):
            if counts[k] > m:
                cand = _floor_root_scaled(counts[k] // m, k, Dy)
                if cand > Dy:
                    y = cand
                    break
        if (
            x is not None
            and x > Dx
            and y is not None
            and x ** (2 * best_j) > W * Dx ** (2 * best_j)
        ):
            z, Dz = _step_bound(W, 2 * best_j, x)
            return GrowthCertificate(m, d, w0 + K, x, y, best_j, W, z, Dz)
        k_cap *= 2
        if k_cap > GROWTH_RETURN_CAP:
            raise CertificationError(
                f"return growth too slow to certify below "
                f"GROWTH_RETURN_CAP = {GROWTH_RETURN_CAP}"
            )


def _least_multiple_where(holds, n0: int, d: int) -> int:
    """Least n = n0 + d*k with holds(n), for a predicate that stays true
    once true along the multiples of d. Doubles k from 1 until holds(n)
    does, then bisects the last gap. CertificationError when the answer
    lies more than THRESHOLD_SEARCH_CAP multiples of d above n0."""
    if holds(n0):
        return n0
    lo, hi = 0, 1  # holds fails at n0 + d*lo
    while not holds(n0 + d * hi):
        if hi >= THRESHOLD_SEARCH_CAP:
            raise CertificationError(
                f"threshold search exceeded THRESHOLD_SEARCH_CAP = "
                f"{THRESHOLD_SEARCH_CAP} multiples of {d}"
            )
        lo, hi = hi, min(2 * hi, THRESHOLD_SEARCH_CAP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(n0 + d * mid):
            hi = mid
        else:
            lo = mid
    return n0 + d * hi


def solve_q_positive_threshold(cert: GrowthCertificate, margin: int = 1) -> int:
    """Least multiple n* > w' of d such that for all multiples n >= n* of d:
        lam^(n - w') * (rho_low - 1) > margin * m * Z^(n + 2),
    with lam = x / 2^8, rho_low = y / 2^16 and Z = z / z_denom the step
    bound. Z^(n+2) >= W^((n+2)/(2j)) bounds the summed p-tail of the
    proper divisors of n, so at margin 1 this makes q_n > 0; larger margins
    leave room to dominate another system's counts.

    Cleared of denominators the inequality is an integer one whose two
    sides grow by (x * z_denom)^d and (z * 2^8)^d per step, and
    x * z_denom > z * 2^8: once it holds it holds for every later
    multiple, so n* is found by doubling plus bisection.
    """
    Dx, Dy = _STEP_DENOM, _ROOT_DENOM
    d, w, z, Dz = cert.d, cert.w_prime, cert.z, cert.z_denom
    grow, bound = cert.x * Dz, z * Dx
    lhs0 = (cert.y - Dy) * Dz ** (w + 2)
    rhs0 = margin * cert.m * Dy * z ** (w + 2)

    def holds(n):
        return lhs0 * grow ** (n - w) > rhs0 * bound ** (n - w)

    return _least_multiple_where(holds, (w // d + 1) * d, d)


def solve_growth_dominates(cert: GrowthCertificate, bound_base: int, bound_cap: int, j_other: int) -> int:
    """Least multiple n0 > w' of d such that for all multiples n >= n0 of d:
        lam^(n - w') > 2 * bound_base * U^n,
    with lam = x / 2^8 and U = u / u_denom a rational upper bound on
    bound_cap^(1 / j_other) below lam (see ``_step_bound``). Since
    U^n >= bound_cap^(n / j_other), the certified lower growth then
    dominates another graph's walk-count upper bound. Requires
    lam^j_other > bound_cap (else CertificationError). The cleared integer
    inequality is monotone in n and is searched like
    ``solve_q_positive_threshold``'s.
    """
    Dx = _STEP_DENOM
    d, w, x = cert.d, cert.w_prime, cert.x
    if bound_cap < 1:
        bound_cap = 1
    if x**j_other <= bound_cap * Dx**j_other:
        raise CertificationError("growth rates do not separate")
    u, Du = _step_bound(bound_cap, j_other, x)
    grow, bound = x * Du, u * Dx
    lhs0 = Du**w
    rhs0 = 2 * bound_base * u**w

    def holds(n):
        return lhs0 * grow ** (n - w) > rhs0 * bound ** (n - w)

    return _least_multiple_where(holds, (w // d + 1) * d, d)


def lps_descriptor_sft(g: DirectedMultigraph) -> PeriodSetDescriptor:
    """Certified descriptor of supp(q_n) for the edge shift of ``g``.

    Per nontrivial component: a single cycle of length c contributes {c};
    otherwise the component has period d and contributes d * (cofinite) with
    exact exceptions below the threshold tau = (w0 + a + b) / d, where
    a <= b are the lengths of two distinct first-return loops u, v at the
    basepoint and every multiple m >= w0 of d is a return length. A return
    walk of length m factors uniquely into first-return loops (they form a
    code); adding u and v and grouping equal loops next to each other gives
    a closed walk of length a + b + m whose loop sequence has two distinct
    loops, each in one run, so it is no proper power and q_n > 0 for every
    multiple n >= w0 + a + b. Results are united and canonicalized.
    """
    return sft_analysis(g)[2]
