"""Constructions realizing admissible least-period sets.

Four builders: an irreducible SFT for a singleton or a scaled cofinite set
(cycle with attached cycles, then edge subdivision); a reducible SFT for
general descriptors (disjoint union of the irreducible pieces); an
irreducible binary sofic shift for a singleton or anything with a cofinite
part (the gap shift's chain presentation when the set, less 1, is almost
sum-closed; otherwise torus sections for the scaled tails and cycle sections
for finitely many leftovers, glued at a root); and, for arbitrary subsets of
the naturals, a subshift handle generating the defining orbit family (the
object is generally not sofic, so no finite presentation exists and the
handle exposes exactly the computable surface: generator words, periodic
points, word membership).

:func:`check_target_shape` is the one admissibility test; every construction
rejects through it. The irreducible-SFT shape, a singleton {d} or
g * (F | {N, N+1, ...}), is :meth:`PeriodSetDescriptor.sft_shape`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import ResourceLimitExceeded, lcm, least_rotation_period
from .gapshift import GapShapeError, gap_chain_size, gap_realize, gap_to_labeled_graph
from .graph_core import DirectedMultigraph, disjoint_union, subdivide_edges
from .sft_counting import PeriodSetDescriptor
from .sofic import LabeledGraph

TARGETS = (
    "irreducible_sft",
    "reducible_sft",
    "irreducible_sofic",
    "arbitrary_subshift",
    "period_set_variant",
)

# largest sofic realization built, in vertices, summed from the planned
# sections before any is built; the CLI's round-trip check of a realization
# costs far more than building it, and grows faster than its size
REALIZE_VERTEX_CAP = 30_000


class ShapeError(ValueError):
    """Request does not fit the admissible shapes of its construction or
    check; the CLI reports it as a shape rejection (exit 3)."""

    def __init__(self, message, suggestion=None):
        super().__init__(message)
        self.suggestion = suggestion


@dataclass(frozen=True)
class LpsRequest:
    descriptor: PeriodSetDescriptor
    target: str

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ShapeError(
                f"unknown target {self.target!r}; expected one of {', '.join(TARGETS)}"
            )

    def validate(self):
        check_target_shape(self.descriptor, self.target)


def check_target_shape(desc: PeriodSetDescriptor, target: str):
    if desc.is_empty:
        raise ShapeError("empty least-period sets are not realizable")
    if target == "irreducible_sft":
        if desc.sft_shape() is None:
            raise ShapeError(
                "irreducible SFT least-period sets are a singleton {d} or "
                "d * (cofinite); this set is neither",
                suggestion="reducible_sft",
            )
    elif target == "irreducible_sofic":
        if desc.is_finite and len(desc.finite_part) != 1:
            raise ShapeError(
                "a finite least-period set of an irreducible sofic shift "
                "must be a singleton; need at least one cofinite part",
                suggestion="reducible_sft",
            )
    elif target == "period_set_variant":
        if not _is_multiplicatively_closed(desc):
            raise ShapeError(
                "period sets are closed under multiples; this set is not",
                suggestion="arbitrary_subshift",
            )
        if desc.is_finite and len(desc.finite_part) != 1:
            raise ShapeError(
                "period-set realization goes through the sofic construction; "
                "need a singleton or a cofinite part",
            )


# -- irreducible SFT -------------------------------------------------------------


def _attached_cycles_graph(N: int, F) -> DirectedMultigraph:
    """Mixing graph with least periods F | {N, N+1, ...}: an N-cycle, an
    f-cycle at the j-th N-cycle vertex for the j-th f in F, and (N+i)-cycles
    on the interior vertices of the smallest attached cycle."""
    F = sorted(F)
    if not F or F[-1] >= N:
        raise ValueError("need exceptional lengths strictly below the tail start")
    vertices = [f"n{i}" for i in range(N)]
    edges = [(f"n{i}", f"n{(i + 1) % N}", f"ring.{i}") for i in range(N)]
    f1 = F[0]
    f1_vertices = None
    for j, f in enumerate(F):
        anchor = f"n{j}"
        chain = [anchor]
        prev = anchor
        for p in range(1, f):
            v = f"f{f}.{p}"
            vertices.append(v)
            edges.append((prev, v, f"f{f}.e{p}"))
            chain.append(v)
            prev = v
        edges.append((prev, anchor, f"f{f}.e{f}"))
        if f == f1:
            f1_vertices = chain
    for i in range(1, f1):
        anchor = f1_vertices[i]
        prev = anchor
        length = N + i
        for p in range(1, length):
            v = f"g{length}.{p}"
            vertices.append(v)
            edges.append((prev, v, f"g{length}.e{p}"))
            prev = v
        edges.append((prev, anchor, f"g{length}.e{length}"))
    return DirectedMultigraph.build(vertices, edges)


def realize_irreducible_sft(desc: PeriodSetDescriptor) -> DirectedMultigraph:
    """Irreducible SFT whose least-period set equals ``desc``.

    A singleton {d} becomes a simple d-cycle. A set g * (F | {N, N+1, ...})
    (``desc.sft_shape()``) becomes the attached-cycles graph for F and N
    with every edge subdivided into g edges. An empty F is rewritten to F = {N} with tail start N + 1,
    which keeps the coprime cycle pair that makes the unscaled graph mixing.
    """
    check_target_shape(desc, "irreducible_sft")
    shape = desc.sft_shape()
    if shape[0] == "singleton":
        d = shape[1]
        return DirectedMultigraph.build(
            [f"c{i}" for i in range(d)],
            [(f"c{i}", f"c{(i + 1) % d}", f"c.e{i}") for i in range(d)],
        )
    _, g, N, F = shape
    if not F:
        F, N = (N,), N + 1
    core = _attached_cycles_graph(N, F)
    return subdivide_edges(core, g)


def realize_reducible_sft(desc: PeriodSetDescriptor) -> DirectedMultigraph:
    """Disjoint union of irreducible realizations, one per finite singleton
    and one per scaled cofinite component."""
    check_target_shape(desc, "reducible_sft")
    pieces = []
    for n in sorted(desc.finite_part):
        pieces.append(realize_irreducible_sft(PeriodSetDescriptor.singleton(n)))
    for c in desc.components:
        pieces.append(realize_irreducible_sft(PeriodSetDescriptor.make((), [c])))
    return disjoint_union(pieces)


# -- irreducible binary sofic ------------------------------------------------------


def _torus_section(i: int, t: int, u: str, v: str):
    """t-by-t torus of u-paths (second coordinate) and v-paths (first
    coordinate); returns (vertices, edges, labels, root)."""
    vertices = []
    edges = []
    labels = {}
    node = lambda n, m: f"T{i}.{n}.{m}"
    for n in range(t):
        for m in range(t):
            vertices.append(node(n, m))
    for n in range(t):
        for m in range(t):
            src = node(n, m)
            for tag, word, dst in (
                ("u", u, node(n, (m + 1) % t)),
                ("v", v, node((n + 1) % t, m)),
            ):
                prev = src
                for p, ch in enumerate(word):
                    eid = f"T{i}.{tag}.{n}.{m}.{p}"
                    if p == len(word) - 1:
                        nxt = dst
                    else:
                        nxt = f"T{i}.{tag}.{n}.{m}.w{p}"
                        vertices.append(nxt)
                    edges.append((prev, nxt, eid))
                    labels[eid] = ch
                    prev = nxt
    return vertices, edges, labels, node(0, 0)


def _cycle_section(j: int, reps: int):
    """Simple cycle of length reps * j labeled (1 0^(j-1)) repeated."""
    word = "1" + "0" * (j - 1)
    total = reps * j
    vertices = [f"C{j}.{p}" for p in range(total)]
    edges = []
    labels = {}
    for p in range(total):
        eid = f"C{j}.e{p}"
        edges.append((f"C{j}.{p}", f"C{j}.{(p + 1) % total}", eid))
        labels[eid] = word[p % j]
    return vertices, edges, labels, f"C{j}.0"


def _torus_least_periods(lu: int, lv: int, limit: int) -> set:
    """Least periods realized inside one torus section, up to limit: the two
    path lengths themselves plus every mixed combination a*lu + b*lv with
    a, b >= 1 (pure powers repeat a shorter word, so a lone generator only
    contributes its own length)."""
    out = set()
    if lu <= limit:
        out.add(lu)
    if lv <= limit:
        out.add(lv)
    a = 1
    while a * lu + lv <= limit:
        b = 1
        while a * lu + b * lv <= limit:
            out.add(a * lu + b * lv)
            b += 1
        a += 1
    return out


def realize_sofic(desc: PeriodSetDescriptor) -> LabeledGraph:
    """Irreducible sofic shift over {0, 1} whose least-period set is ``desc``.

    A set :func:`gap_realize` accepts (a singleton, or an almost sum-closed
    set with or without 1) gets its gap shift's chain presentation,
    :func:`gap_to_labeled_graph`, of c + sum of r vertices. Every other set
    gets the torus construction, :func:`_torus_realization`. Raises
    :class:`ResourceLimitExceeded` before building anything when the result
    would have more than ``REALIZE_VERTEX_CAP`` vertices.
    """
    check_target_shape(desc, "irreducible_sofic")
    try:
        s = gap_realize(desc)
    except GapShapeError:
        return _torus_realization(desc)
    _check_realize_size(gap_chain_size(s))
    return gap_to_labeled_graph(s)


def _torus_realization(desc: PeriodSetDescriptor) -> LabeledGraph:
    """Torus presentation of a set with a cofinite part.

    Scaled tails d*(N + k) are carried by torus sections over the words
    u_i = 1^(2i) 0^(d_i (k_i+1) - 2i) and v_i = 1^(2i+1) 0^(d_i (k_i+2) - 2i - 1);
    the finitely many set members no torus covers get cycle sections labeled
    by repeated 1 0^(j-1); all section roots are identified. The size grows
    like the fourth power of the tail start. Raises
    :class:`ResourceLimitExceeded` before building any section when the
    result would have more than ``REALIZE_VERTEX_CAP`` vertices, and before
    sweeping for leftovers when the tori alone would.
    """
    pool = set(desc.finite_part)
    comps = []  # (d_i, k_i) with tail {d(k+1), d(k+2), ...}
    for idx, c in enumerate(sorted(desc.components, key=lambda c: (c.scale, c.threshold)), start=1):
        d, k = c.scale, c.threshold - 1
        while d * (k + 1) <= 2 * idx:
            pool.add(d * (k + 1))
            k += 1
        comps.append((d, k))
    d_star = 1
    for d, _ in comps:
        d_star = lcm(d_star, d)
    peak = max(d * (k + 1) for (d, k) in comps)
    k_star = 1
    while d_star * (k_star + 1) < peak:
        k_star += 1
    floor, step = d_star * (k_star + 1), d_star

    def in_target(x):
        return x >= floor and x % step == 0

    # each section is planned, with its vertex count, before any is built
    plan = []
    words = []
    for idx, (d, k) in enumerate(comps, start=1):
        u = "1" * (2 * idx) + "0" * (d * (k + 1) - 2 * idx)
        v = "1" * (2 * idx + 1) + "0" * (d * (k + 2) - 2 * idx - 1)
        t = 2
        while not (in_target(t * len(u)) and in_target(t * len(v))):
            t += 1
            if t > 4 * d_star * (k_star + 2):
                raise AssertionError("no valid torus multiplicity found")
        plan.append((_torus_section, (idx, t, u, v), t * t * (len(u) + len(v) - 1)))
        words.append((len(u), len(v)))
    # the tori alone may pass the cap, and the sweep for leftovers below
    # grows like the fourth power of the tail start
    _check_realize_size(_planned_size(plan))
    bound = max(
        [d * (k + 1) * (k + 2) for (d, k) in comps] + [max(pool, default=0)]
    )
    covered = set()
    for (d, _k), (lu, lv) in zip(comps, words):
        covered |= _torus_least_periods(lu, lv, bound)
    leftovers = sorted(
        s for s in range(1, bound + 1) if desc.contains(s) and s not in covered
    )
    for j in leftovers:
        c = 2
        minimum = 2 * len(comps) + 2 if j == 1 else 2
        c = max(c, minimum)
        while not in_target(c * j):
            c += 1
            if c * j > 8 * (floor + step) * (j + 1):
                raise AssertionError("no valid cycle multiplicity found")
        plan.append((_cycle_section, (j, c), c * j))
    _check_realize_size(_planned_size(plan))
    vertices, edges, labels = ["root"], [], {}
    for build, args, _size in plan:
        sec_vertices, sec_edges, sec_labels, root = build(*args)
        rename = {root: "root"}
        for v in sec_vertices:
            if v != root:
                vertices.append(v)
        for src, dst, eid in sec_edges:
            edges.append((rename.get(src, src), rename.get(dst, dst), eid))
        labels.update(sec_labels)
    return LabeledGraph.build(DirectedMultigraph.build(vertices, edges), labels)


def _planned_size(plan) -> int:
    """Vertex count of the planned sections once every section's root is
    the one shared root."""
    return 1 + sum(size - 1 for _build, _args, size in plan)


def _check_realize_size(vertices: int) -> None:
    """Refuse a sofic realization of more than REALIZE_VERTEX_CAP vertices,
    before any section is built."""
    if vertices > REALIZE_VERTEX_CAP:
        raise ResourceLimitExceeded(
            f"the sofic realization would have {vertices} vertices, more than "
            f"REALIZE_VERTEX_CAP = {REALIZE_VERTEX_CAP}"
        )


# -- arbitrary least-period sets ------------------------------------------------


@dataclass(frozen=True)
class ArbitrarySubshiftHandle:
    """Orbit-closure realization of an arbitrary set of least periods.

    ``branch`` is 'finite', 'one_in_s', or 'one_not_in_s'. ``elements``
    holds the set ascending up to ``horizon`` (all of it when finite).
    Generator words are 1 0^(k-1) when 1 is in the set or the set is
    finite; otherwise 1 u_1^g u', with u' a strict prefix of u_1, which
    keeps the marker 110 unique to the start of each generator.
    """

    branch: str
    elements: tuple
    horizon: int

    @property
    def is_infinite(self) -> bool:
        return self.branch != "finite"

    def generator_word(self, k: int) -> str:
        if k not in set(self.elements):
            raise ValueError(f"{k} is not in the realized set")
        if self.branch in ("finite", "one_in_s"):
            return "1" + "0" * (k - 1)
        k1 = self.elements[0]
        if k == k1:
            return "1" + "0" * (k1 - 1)
        u1 = "1" + "0" * (k1 - 1)
        reps, rem = divmod(k - 1, k1)
        return "1" + u1 * reps + u1[:rem]

    def generator_words(self, max_len: int) -> list:
        return [self.generator_word(k) for k in self.elements if k <= max_len]

    def periodic_points_upto(self, N: int) -> list:
        """(least period, repeating word) pairs; includes the all-zeros
        fixed point exactly when the set is infinite and contains 1."""
        if N > self.horizon:
            raise ValueError("beyond the handle's enumeration horizon")
        out = [(k, self.generator_word(k)) for k in self.elements if k <= N]
        if self.branch == "one_in_s" and self.is_infinite:
            out.append((1, "0"))
        return sorted(out)

    def word_occurs(self, w) -> bool:
        """Does w occur in the subshift? Exact for |w| at most a third of
        the horizon (occurrence happens inside some generator orbit; the
        closure adds points but no new finite words)."""
        w = "".join(str(a) for a in w)
        if 3 * len(w) > self.horizon:
            raise ValueError("word too long for this handle's horizon")
        if not w:
            return True
        for k in self.elements:
            u = self.generator_word(k)
            reps = -(-len(w) // len(u)) + 1
            if w in u * reps:
                return True
        if self.is_infinite and self.branch == "one_in_s":
            # limits supply arbitrarily long zero runs around a lone 1
            if set(w) == {"0"}:
                return True
            if w.count("1") == 1:
                return True
        return False

    def to_json(self, max_words: int = 12) -> dict:
        return {
            "branch": self.branch,
            "horizon": self.horizon,
            "elements": list(self.elements[:max_words]),
            "generators": [
                self.generator_word(k) for k in self.elements[:max_words]
            ],
        }


def realize_arbitrary(S, *, infinite: bool | None = None, horizon: int = 256) -> ArbitrarySubshiftHandle:
    """Handle for a shift space whose least-period set is exactly S.

    S is an explicit ascending collection of positive integers or a
    membership oracle (callable); a callable requires ``infinite`` and is
    enumerated up to ``horizon``.
    """
    if callable(S):
        if infinite is None:
            raise ValueError("membership oracles need the infinite flag")
        elements = tuple(n for n in range(1, horizon + 1) if S(n))
    else:
        elements = tuple(sorted({int(x) for x in S}))
        if infinite is None:
            infinite = False
        horizon = max(horizon, elements[-1] if elements else 0)
    if not elements:
        raise ShapeError(f"the realized set has no member up to {horizon}")
    if elements[0] < 1:
        raise ShapeError("least periods are positive")
    if not infinite:
        branch = "finite"
    elif elements[0] == 1:
        branch = "one_in_s"
    else:
        branch = "one_not_in_s"
    handle = ArbitrarySubshiftHandle(branch, elements, horizon)
    for k in elements[: min(len(elements), 64)]:
        w = handle.generator_word(k)
        if least_rotation_period(w) != len(w):
            raise AssertionError("generator word must be primitive")
    return handle


# -- period-set realization remark -------------------------------------------------


def _is_multiplicatively_closed(desc: PeriodSetDescriptor) -> bool:
    """n in S implies k n in S, read off the scales. A component's members
    are closed under multiples. A finite member m needs a scale d | m: with L
    the tail lcm, m * (1 + kL) is a multiple of no scale that does not
    divide m. Its multiples from d * t on are then members, so only those
    below need checking."""
    for m in desc.finite_part:
        covers = [c.scale * c.threshold for c in desc.components if m % c.scale == 0]
        if not covers or not all(desc.contains(x) for x in range(2 * m, min(covers), m)):
            return False
    return True


def realize_period_set(desc: PeriodSetDescriptor) -> LabeledGraph:
    """Sofic shift whose *period set* (not least periods) is ``desc``;
    admissible exactly when the set is closed under multiples, in which case
    the least-period realization also realizes the period set."""
    check_target_shape(desc, "period_set_variant")
    return realize_sofic(desc)
