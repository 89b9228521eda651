"""Descriptor algebra, least-period-set shape tests, the Sharkovskii
ordering, and the desk-scale embeddability checker.

The embeddability verdicts are deliberately non-committal: entropy is
compared through certified rational bounds on Perron roots and least-period
counts are compared exactly on a finite horizon, so a positive verdict is
``pass_at_desk_scale`` unless the growth separation certifies the
comparison for every n (reported in the verdict detail).

The Table 1 shape tests read the SFT cells off
:meth:`PeriodSetDescriptor.sft_shape`, the package's one decision of the
g * (F | {N, N+1, ...}) form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph_core import (
    DirectedMultigraph,
    closed_walk_counts,
    component_period,
    essential_subgraph,
    max_walk_counts,
    scc_decompose,
)
from .realize import ShapeError
from .sft_counting import (
    _STEP_DENOM,
    CertificationError,
    PeriodSetDescriptor,
    count_table,
    growth_certificate,
    sft_components,
    solve_growth_dominates,
    solve_q_positive_threshold,
)

# -- descriptor algebra --------------------------------------------------------


def descriptor_union(a: PeriodSetDescriptor, b: PeriodSetDescriptor) -> PeriodSetDescriptor:
    return PeriodSetDescriptor.make(
        set(a.finite_part) | set(b.finite_part),
        list(a.components) + list(b.components),
        certified=a.certified and b.certified,
    )


def descriptor_scale(a: PeriodSetDescriptor, d: int) -> PeriodSetDescriptor:
    if d < 1:
        raise ValueError("scale must be >= 1")
    return PeriodSetDescriptor.make(
        {d * n for n in a.finite_part},
        [(d * c.scale, c.threshold, ()) for c in a.components],
        certified=a.certified,
    )


def descriptor_member(a: PeriodSetDescriptor, n: int) -> bool:
    return a.contains(n)


def descriptor_equal(a: PeriodSetDescriptor, b: PeriodSetDescriptor) -> bool:
    """Set equality (the certified flags are not compared): equal sets have
    equal canonical forms."""
    return a.finite_part == b.finite_part and a.components == b.components


# -- Table 1 shape predicates ---------------------------------------------------

ROWS = ("mixing", "transitive", "general")
COLUMNS = ("SFT", "sofic", "FP")


@dataclass(frozen=True)
class TableOneForm:
    """One cell of the least-period-set classification table. The starred
    cells additionally force finite sets to be singletons."""

    row: str
    column: str

    def __post_init__(self):
        if self.row not in ROWS or self.column not in COLUMNS:
            raise ValueError("unknown table cell")

    @property
    def star(self) -> bool:
        return self.row == "transitive" and self.column in ("sofic", "FP")


def matches_table_form(desc: PeriodSetDescriptor, cell: TableOneForm) -> bool:
    """Set-level shape test for one classification cell.

    mixing SFT/sofic/FP: {1} or a cofinite subset of N, i.e. an SFT shape
    (``desc.sft_shape()``) with g = 1. transitive SFT: any SFT shape, a
    singleton {d} or d * (cofinite). transitive sofic/FP: finite sets must be
    singletons. general: any nonempty set of the descriptor form qualifies.
    """
    if desc.is_empty:
        return False
    if cell.row == "general":
        return True
    if cell.row == "mixing":
        shape = desc.sft_shape()
        return shape is not None and shape[1] == 1
    if cell.column == "SFT":
        return desc.sft_shape() is not None
    return not desc.is_finite or len(desc.finite_part) == 1


# -- Sharkovskii ordering --------------------------------------------------------


def _sharkovskii_key(x: int):
    if x < 1:
        raise ValueError("positive integers only")
    a = 0
    while x % 2 == 0:
        a += 1
        x //= 2
    if x > 1:
        return (0, a, x)
    return (1, -a)


def sharkovskii_less(m: int, n: int) -> bool:
    """Strict precedence: odd-part-bearing numbers by (2-adic valuation,
    odd part), then pure powers of two by descending exponent, ending at 1."""
    if m == n:
        raise ValueError("sharkovskii_less requires distinct arguments")
    return _sharkovskii_key(m) < _sharkovskii_key(n)


@dataclass(frozen=True)
class SharkovskiiTail:
    """Either every integer from some point on in the ordering, or the
    special tail of all powers of two."""

    kind: str  # "from" | "powers_of_two"
    start: int = 0

    @classmethod
    def from_value(cls, s: int) -> "SharkovskiiTail":
        if s < 1:
            raise ValueError("start must be positive")
        return cls("from", s)

    @classmethod
    def powers_of_two(cls) -> "SharkovskiiTail":
        return cls("powers_of_two")

    def contains(self, n: int) -> bool:
        if self.kind == "powers_of_two":
            return n >= 1 and n & (n - 1) == 0
        return n == self.start or (
            n != self.start and sharkovskii_less(self.start, n)
        )

    def members_upto(self, N: int) -> set:
        return {n for n in range(1, N + 1) if self.contains(n)}


@dataclass(frozen=True)
class TailCheck:
    ok: bool
    witness_present: int | None = None
    witness_missing: int | None = None


def is_sharkovskii_tail(members, N: int) -> TailCheck:
    """Exhaustively check the tail property on [1, N]: whenever n is in the
    set and n precedes m, then m must be in the set. The first gap in
    ordering position is reported as the witness."""
    s = {n for n in members if 1 <= n <= N}
    ordered = sorted(range(1, N + 1), key=_sharkovskii_key)
    for n in sorted(s, key=_sharkovskii_key):
        pos = ordered.index(n)
        for m in ordered[pos + 1 :]:
            if m not in s:
                return TailCheck(False, n, m)
        break  # everything after the first member was checked
    return TailCheck(True)


# -- Krieger-condition checker ----------------------------------------------------


@dataclass(frozen=True)
class KriegerVerdict:
    kind: str  # entropy_fail | period_fail | pass_at_desk_scale
    reason: str
    horizon: int
    witness_n: int | None = None
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "verdict": self.kind,
            "reason": self.reason,
            "horizon": self.horizon,
        }
        if self.witness_n is not None:
            out["witness_n"] = self.witness_n
        out.update(self.detail)
        return out


def _is_mixing(g: DirectedMultigraph) -> bool:
    ess = essential_subgraph(g)
    if ess.n == 0:
        return False
    dec = scc_decompose(ess)
    if len(dec.components) != 1 or dec.is_trivial[0]:
        return False
    return component_period(ess, dec.components[0]) == 1


def _certify_rho_less(gx, gy, depth: int = 40):
    """Certify rho(A_x) < rho(A_y) via integer cross-power comparisons of
    walk-count upper bounds (x side) and trace lower bounds (y side).
    Returns (j, k) on success, None if not certified within depth. An
    empty X has walk counts 0, so the first k with p_k(Y) > 0 certifies."""
    ux = max_walk_counts(gx, set(gx.vertices), depth)
    ty = closed_walk_counts(gy, depth)
    my = gy.n
    for k in range(1, depth + 1):
        if ty[k - 1] <= 0:
            continue
        for j in range(1, depth + 1):
            # (ux_j)^(1/j) < (ty_k / my)^(1/k)
            if ux[j - 1] ** k * my**j < ty[k - 1] ** j:
                return (j, k)
    return None


def krieger_check(
    x: DirectedMultigraph, y: DirectedMultigraph, N: int
) -> KriegerVerdict:
    """Desk-scale check of the embedding conditions: certified strict
    entropy inequality h(X) < h(Y), then exact comparison q_n(X) <= q_n(Y)
    for n <= N. The target presentation must be mixing.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    less = _certify_rho_less(x, y)
    if less is None:
        # strictness fails regardless of the target's mixing property
        reverse = _certify_rho_less(y, x)
        reason = (
            "reverse_inequality_certified"
            if reverse is not None
            else "strict_inequality_not_certified"
        )
        return KriegerVerdict("entropy_fail", reason, N)
    if not _is_mixing(y):
        raise ShapeError("target presentation must be mixing")
    # one walk DP per graph, on to the crossover when there is one; q is
    # compared in increasing n, so n <= N is still decided first
    crossover = _try_certify_all_n(x, y)
    horizon = N if crossover is None else max(N, crossover)
    tx = count_table(x, horizon)
    ty = count_table(y, horizon)
    for n in range(1, horizon + 1):
        if tx.q_at(n) > ty.q_at(n):
            return KriegerVerdict(
                "period_fail",
                "least_period_count_exceeds_target",
                N,
                witness_n=n,
                detail={"q_x": str(tx.q_at(n)), "q_y": str(ty.q_at(n))},
            )
    detail = {
        "entropy_certificate": {"j": less[0], "k": less[1]},
        "certified_all_n": crossover is not None,
    }
    if crossover is not None:
        detail["certified_from"] = crossover
    return KriegerVerdict("pass_at_desk_scale", "conditions_hold", N, detail=detail)


def _try_certify_all_n(x, y, depth: int = 64):
    """Try to certify q_n(X) <= q_n(Y) for every n beyond a computable
    crossover: beyond it the mixing target satisfies
    q_n(Y) >= lam^(n-w')/2 >= p_n(X) via its growth certificate. Returns the
    crossover (exact comparison is still needed up to it) or None."""
    if not scc_decompose(x).nontrivial:
        return 1  # X has no periodic points at all
    (c,) = sft_components(essential_subgraph(y))
    if len(c.loops) == 1:
        return None  # finite orbit target never dominates
    try:
        cert = growth_certificate(c.component, 1, c.core, c.core_edges, c.base, c.w0)
        n_pos = solve_q_positive_threshold(cert, margin=2)
        ux = max_walk_counts(x, set(x.vertices), depth)
        j_other = None
        for j in range(1, depth + 1):
            if cert.x**j > max(ux[j - 1], 1) * _STEP_DENOM**j:
                j_other = j
                break
        if j_other is None:
            return None
        n_dom = solve_growth_dominates(
            cert, x.n, max(ux[j_other - 1], 1), j_other
        )
    except CertificationError:
        return None
    return max(n_pos, n_dom)
