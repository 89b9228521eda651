"""S-gap shifts: binary shifts where two 1s may be separated by m zeros
exactly when m lies in the gap set S.

The gap-set type only represents eventually periodic sets (finite part plus
arithmetic tails), which is precisely the sofic range; non-sofic gap shifts
are out of scope at the type level. Least-period sets are computed through
the almost sum-closure of S + 1, with a certified cofinite tail, and every
admissible least-period set is realized by an explicit gap set, built from
the d * (F | {N, N+1, ...}) form that
:meth:`PeriodSetDescriptor.sft_shape` reads off the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import lcm
from .graph_core import DirectedMultigraph, return_tail_start
from .sft_counting import PeriodSetDescriptor
from .sofic import LabeledGraph


class GapShapeError(ValueError):
    """The requested least-period set is not of a gap-realizable shape."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class GapSet:
    """Finite or eventually periodic subset of the nonnegative integers:
    an explicit finite part plus arithmetic progressions (a, r) standing for
    {a, a + r, a + 2r, ...}."""

    finite: frozenset
    progressions: tuple  # (first term a >= 0, difference r >= 1)

    @classmethod
    def make(cls, finite=(), progressions=()) -> "GapSet":
        fin = {int(x) for x in finite}
        if any(x < 0 for x in fin):
            raise ValueError("gap values must be nonnegative")
        progs = []
        for a, r in progressions:
            a, r = int(a), int(r)
            if a < 0 or r < 1:
                raise ValueError("progression needs a >= 0 and r >= 1")
            progs.append((a, r))
        progs.sort()
        kept = []
        for i, (a, r) in enumerate(progs):
            sub = any(
                (a2 <= a and r % r2 == 0 and (a - a2) % r2 == 0)
                for j, (a2, r2) in enumerate(progs)
                if i != j and not (j > i and (a2, r2) == (a, r))
            )
            if not sub:
                kept.append((a, r))
        fin = {
            x
            for x in fin
            if not any(x >= a and (x - a) % r == 0 for (a, r) in kept)
        }
        return cls(frozenset(fin), tuple(kept))

    def contains(self, m: int) -> bool:
        if m < 0:
            return False
        if m in self.finite:
            return True
        return any(m >= a and (m - a) % r == 0 for (a, r) in self.progressions)

    @property
    def is_finite_set(self) -> bool:
        return not self.progressions

    @property
    def is_empty(self) -> bool:
        return not self.finite and not self.progressions

    def elements_upto(self, N: int) -> list:
        return [m for m in range(N + 1) if self.contains(m)]

    def min_element(self) -> int:
        best = min(self.finite, default=None)
        for a, _ in self.progressions:
            best = a if best is None else min(best, a)
        if best is None:
            raise ValueError("empty gap set")
        return best

    def is_cofinite(self) -> bool:
        """Cofinite in the nonnegative integers."""
        if not self.progressions:
            return False
        period = 1
        for _, r in self.progressions:
            period = lcm(period, r)
        start = max(
            [max(self.finite, default=0)] + [a for (a, _) in self.progressions]
        )
        return all(self.contains(m) for m in range(start, start + period + 1))

    def shift(self, delta: int) -> "GapSet":
        """Element-wise translate by delta (must stay nonnegative)."""
        return GapSet.make(
            {x + delta for x in self.finite},
            [(a + delta, r) for (a, r) in self.progressions],
        )

    def to_json(self) -> dict:
        return {
            "finite": sorted(self.finite),
            "progressions": [{"a": a, "r": r} for (a, r) in self.progressions],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GapSet":
        s = cls.make(
            data.get("finite", ()),
            [(p["a"], p["r"]) for p in data.get("progressions", ())],
        )
        if s.is_empty:
            raise ValueError("gap set must be nonempty")
        return s


def classify_gap(s: GapSet) -> str:
    """'SFT' iff the gap set is finite or cofinite, else 'sofic_not_SFT'.

    Every representable gap set is eventually periodic, hence sofic.
    """
    if s.is_empty:
        raise ValueError("gap set must be nonempty")
    if s.is_finite_set or s.is_cofinite():
        return "SFT"
    return "sofic_not_SFT"


# -- almost sum-closure ---------------------------------------------------------


@dataclass(frozen=True)
class AlmostSumClosure:
    """Exact members up to a horizon plus a certified descriptor of the whole
    almost sum-closure (single elements, and sums with two distinct terms)."""

    horizon: int
    members: frozenset
    descriptor: PeriodSetDescriptor


def _gen_elements(s, bound: int) -> list:
    if isinstance(s, GapSet):
        return [x for x in s.elements_upto(bound) if x >= 1]
    return sorted({int(x) for x in s if 1 <= int(x) <= bound})


def _gcd_of(s) -> int:
    if isinstance(s, GapSet):
        g = 0
        for x in s.finite:
            g = gcd(g, x)
        for a, r in s.progressions:
            g = gcd(gcd(g, a), r)
        return g
    g = 0
    for x in s:
        g = gcd(g, x)
    return g


def _is_singleton(s) -> bool:
    if isinstance(s, GapSet):
        return s.is_finite_set and len(s.finite) == 1
    return len(set(s)) == 1


def almost_sum_closure(s, N: int) -> AlmostSumClosure:
    """Members of the almost sum-closure up to N (exact, by reachability DP)
    together with a certified descriptor: a singleton for singleton input,
    else gcd(s) * (cofinite) with all exceptions certified below the tail.
    """
    if isinstance(s, GapSet):
        if s.is_empty:
            raise ValueError("input set must be nonempty")
        if not s.is_finite_set and min(r for (_, r) in s.progressions) < 1:
            raise ValueError("bad progression")
        if s.contains(0):
            raise ValueError("almost sum-closure needs positive integers")
    else:
        s = sorted({int(x) for x in s})
        if not s:
            raise ValueError("input set must be nonempty")
        if s[0] < 1:
            raise ValueError("almost sum-closure needs positive integers")
    if _is_singleton(s):
        x = min(s.finite) if isinstance(s, GapSet) else s[0]
        members = frozenset({x}) if x <= N else frozenset()
        return AlmostSumClosure(
            N, members, PeriodSetDescriptor.singleton(x, certified=True)
        )
    g = _gcd_of(s)
    # two smallest distinct elements plus a finite subset achieving gcd g
    # (widen the probe window until both exist; the certified tail below
    # needs the generator gcd to be exactly g)
    probe = max(N, 4)
    while True:
        gens = _gen_elements(s, probe)
        sub, acc = [], 0
        for e in gens:
            sub.append(e)
            acc = gcd(acc, e)
            if acc == g:
                break
        if len(gens) >= 2 and acc == g:
            break
        probe *= 2
        if probe > 10**7:
            raise ValueError("could not collect generators achieving the gcd")
    x0, y0 = gens[0], gens[1]
    gens_for_tail = sorted(set(sub + [x0, y0]))
    # every multiple of g from tail0 on is a sum of generators: the return
    # lengths of a one-vertex core whose loops are the generators
    loops = [("v", "v", e) for e in gens_for_tail]
    tail0 = return_tail_start(["v"], loops, "v", g, gens_for_tail[0])
    tail = tail0 + x0 + y0  # n >= tail: n - x0 - y0 is a semigroup member
    horizon = max(N, tail)
    members_all = _asc_members(s, horizon)
    tau = -(-tail // g)
    extras = {k for k in range(1, tau) if g * k in members_all}
    desc = PeriodSetDescriptor.make(
        set(), [(g, tau, extras)], certified=True
    )
    members = frozenset(m for m in members_all if m <= N)
    return AlmostSumClosure(N, members, desc)


def _asc_members(s, M: int) -> set:
    """Exact almost-sum-closure membership up to M via bitmask reachability."""
    elems = _gen_elements(s, M)
    reach = 1  # bit i set iff i is a sum of (possibly zero) generators
    for e in elems:
        prev = 0
        cur = reach
        while cur != prev:
            prev = cur
            cur |= (cur << e) & ((1 << (M + 1)) - 1)
        reach = cur
    out = set(elems)
    mask = (1 << (M + 1)) - 1
    pair_hits = 0
    for i, x in enumerate(elems):
        for y in elems[i + 1 :]:
            if x + y > M:
                break
            pair_hits |= (reach << (x + y)) & mask
    for m in range(1, M + 1):
        if (pair_hits >> m) & 1:
            out.add(m)
    return out


# -- least-period sets of gap shifts -------------------------------------------


def gap_lps(s: GapSet) -> PeriodSetDescriptor:
    """Least-period set of the S-gap shift: the almost sum-closure of S + 1,
    plus the fixed point of all zeros (period 1) when S is infinite."""
    if s.is_empty:
        raise ValueError("gap set must be nonempty")
    shifted = s.shift(1)
    if s.is_finite_set and len(s.finite) == 1:
        return PeriodSetDescriptor.singleton(min(s.finite) + 1, certified=True)
    asc = almost_sum_closure(shifted, 1)
    desc = asc.descriptor
    if not s.is_finite_set:
        desc = PeriodSetDescriptor.make(
            set(desc.finite_part) | {1},
            [(c.scale, c.threshold, c.extras) for c in desc.components],
            certified=True,
        )
    return desc


def gap_realize(q: PeriodSetDescriptor) -> GapSet:
    """Gap set whose shift has least-period set q.

    Admissible shapes: a singleton {n} (gap {n-1}); an almost sum-closed
    d * (cofinite) set (finite gap set via the doubling block
    {dN, d(N+1), ..., 2dN}); or such a set together with {1} (infinite gap
    set d*R - 1). Anything else is rejected with a closure witness.
    """
    if q.is_empty:
        raise GapShapeError("empty least-period set is not realizable")
    if q.is_finite:
        if len(q.finite_part) == 1:
            n = min(q.finite_part)
            if n < 1:
                raise GapShapeError("least periods are positive")
            return GapSet.make({n - 1}, ())
        raise GapShapeError(
            "finite least-period sets of gap shifts are singletons",
            witness=_closure_witness(q),
        )
    with_one = q.contains(1)
    body = q
    if with_one:
        comps = []
        for c in q.components:
            if c.contains(1):
                comps.append((1, 2, ()))  # drop 1, keep {2, 3, ...}
            else:
                comps.append((c.scale, c.threshold, c.extras))
        body = PeriodSetDescriptor.make(
            set(q.finite_part) - {1}, comps, certified=q.certified
        )
    witness = _closure_witness(body)
    if witness is not None:
        raise GapShapeError(
            f"set is not almost sum-closed: {witness[0]} + {witness[1]} missing",
            witness=witness,
        )
    # an infinite almost sum-closed set holds x + y + (any sum of its
    # members), so every large multiple of its gcd d: an SFT shape
    _, d, N, F = body.sft_shape()
    low = [d * f - 1 for f in F]
    if with_one:
        # S = dR - 1, infinite
        return GapSet.make(low, [(d * N - 1, d)])
    # the doubling block {dN, ..., 2dN} closes the tail under sums
    return GapSet.make(low + [d * k - 1 for k in range(N, 2 * N + 1)], ())


def _closure_witness(desc: PeriodSetDescriptor):
    """A pair x != y in the set with x + y missing, or None when almost
    sum-closed.

    Exact: past the structural bound membership is periodic with the tail
    lcm L, so every pair of members is equivalent (membership of the sum
    included) to a pair of representatives below bound + 2L.
    """
    if desc.is_empty:
        return None
    bound = desc.structural_bound()
    L = desc.tail_lcm()
    members = desc.members_upto(bound + 2 * L)
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            if not desc.contains(x + y):
                return (x, y)
    return None


# -- labeled-graph presentation --------------------------------------------------


def gap_to_labeled_graph(s: GapSet) -> LabeledGraph:
    """Standard presentation of the S-gap shift: a root vertex, a 0-labeled
    path of length m returning by a 1-labeled edge for each finite gap m,
    and for each progression a 0-path into a shared 0-cycle realizing the
    period, with a 1-labeled return."""
    if s.is_empty:
        raise ValueError("gap set must be nonempty")
    vertices = ["root"]
    edges = []
    labels = {}

    def add_edge(src, dst, eid, lab):
        edges.append((src, dst, eid))
        labels[eid] = lab

    for m in sorted(s.finite):
        prev = "root"
        for j in range(1, m + 1):
            v = f"f{m}.{j}"
            vertices.append(v)
            add_edge(prev, v, f"f{m}.z{j}", "0")
            prev = v
        add_edge(prev, "root", f"f{m}.one", "1")
    for a, r in s.progressions:
        prev = "root"
        for j in range(1, a + 1):
            v = f"p{a}.{r}.{j}"
            vertices.append(v)
            add_edge(prev, v, f"p{a}.{r}.z{j}", "0")
            prev = v
        entry = prev
        loop_prev = entry
        for j in range(1, r):
            v = f"p{a}.{r}.c{j}"
            vertices.append(v)
            add_edge(loop_prev, v, f"p{a}.{r}.cz{j}", "0")
            loop_prev = v
        add_edge(loop_prev, entry, f"p{a}.{r}.cz{r}", "0")
        add_edge(entry, "root", f"p{a}.{r}.one", "1")
    g = DirectedMultigraph.build(vertices, edges)
    return LabeledGraph.build(g, labels)
