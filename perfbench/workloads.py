"""Job runners (timed) and their checks (untimed), per input class.

A runner takes the periodlab modules and one job's plain data, builds the
input objects, carries them through the workload's pipeline and returns the
library's answer. ``summarize`` turns that answer into plain data outside
the timed region, and ``check`` compares the summary with a reference that
does not use the fast path under test: dense matrix powers
(``graph_core.trace_power``), the exponential identity, the requested
descriptor, a second engine (the layer decomposition against the witness
sweep), or the CLI's own oracle agreement fields. A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from corpus import ZETA_SERIES, ZETA_TERMS


def _graph(lib, data):
    vertices, edges = data
    return lib.graph_core.DirectedMultigraph.build(vertices, edges)


def _labeled(lib, data):
    vertices, edges = data
    g = lib.graph_core.DirectedMultigraph.build(vertices, [(s, t, e) for (s, t, e, _a) in edges])
    return lib.sofic.LabeledGraph.build(g, {e: a for (_s, _t, e, a) in edges})


def _descriptor(lib, finite, comps):
    return lib.sft_counting.PeriodSetDescriptor.make(
        finite, [(d, t, ()) for (d, t) in comps], certified=True)


def least_period(word) -> int:
    """Least p dividing len(word) with word a repetition of its p-prefix."""
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word == word[:p] * (n // p):
            return p
    return n


def mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


# -- zeta --------------------------------------------------------------------


def run_zeta(lib, data):
    zt = lib.zeta
    g = _graph(lib, data["graph"])
    z = zt.zeta_of_graph(g)
    rec = zt.recurrence_from_rational(zt.p_sequence_rational(z))
    return z, rec.terms(ZETA_TERMS), z.series(ZETA_SERIES)


def summarize_zeta(lib, answer):
    z, terms, series = answer
    return {"num": z.num.coeffs, "den": z.den.coeffs, "terms": terms, "series": series}


def exp_truncation(p: list, K: int) -> list:
    """Coefficients e_0..e_K of exp(sum p_n t^n / n): e_k = (1/k) sum_j p_j e_{k-j}."""
    e = [Fraction(1)] + [Fraction(0)] * K
    for k in range(1, K + 1):
        e[k] = sum(p[j - 1] * e[k - j] for j in range(1, k + 1)) / k
    return e


def _check_zeta(lib, data, s, sample):
    g = _graph(lib, data["graph"])
    terms, series = s["terms"], s["series"]
    problems = []
    if len(terms) != ZETA_TERMS + 1 or len(series) != ZETA_SERIES:
        return ["wrong term or series length"]
    if terms[0] != 0:
        problems.append("p_0 != 0")
    for n in sample:
        want = lib.graph_core.trace_power(g, n)
        if terms[n] != want:
            problems.append(f"recurrence term {n} = {terms[n]}, trace_power gives {want}")
    if any(Fraction(t).denominator != 1 for t in terms):
        problems.append("non-integer recurrence term")
    if exp_truncation(terms[1:ZETA_SERIES], ZETA_SERIES - 1) != series:
        problems.append("zeta series breaks the exponential identity")
    return problems


def check_small_matrix(lib, data, s):
    return _check_zeta(lib, data, s, range(1, ZETA_TERMS + 1))


def check_realization_graph(lib, data, s):
    return _check_zeta(lib, data, s, (1, 2, 3, 4, ZETA_SERIES - 1, ZETA_TERMS))


# -- sofic -------------------------------------------------------------------


def _witness_problems(s):
    problems = []
    for period, word in s["witnesses"]:
        if least_period(word) != period or len(word) != period:
            problems.append(f"witness {word!r} does not have least period {period}")
    return problems


def run_presentation(lib, data):
    sf = lib.sofic
    lg = _labeled(lib, data["labeled"])
    N = data["N"]
    return (sf.sofic_lps_upto(lg, N), sf.determinize_and_minimize(lg),
            sf.unique_preimage_lps(lg, N))


def summarize_presentation(lib, answer):
    res, dp, dec = answer
    return {"support": sorted(res.support), "witnesses": list(res.witnesses),
            "cover": dp.lg.to_json(), "layers": sorted(dec.union)}


def check_presentation(lib, data, s):
    problems = _witness_problems(s)
    if s["layers"] != s["support"]:
        problems.append(f"layer union {s['layers']} != LPS support {s['support']}")
    cover = lib.sofic.LabeledGraph.from_json(s["cover"])
    if cover.graph.n:
        again = sorted(lib.sofic.sofic_lps_upto(cover, data["N"]).support)
        if again != s["support"]:
            problems.append(f"deterministic cover has LPS {again} != {s['support']}")
    elif s["support"]:
        problems.append("empty cover for a nonempty shift")
    return problems


def run_realize_sofic(lib, data):
    desc = _descriptor(lib, data["finite"], data["components"])
    lg = lib.realize.realize_sofic(desc)
    return lg, lib.sofic.sofic_lps_upto(lg, data["N"])


def summarize_realize_sofic(lib, answer):
    lg, res = answer
    return {"vertices": lg.graph.n, "support": sorted(res.support),
            "witnesses": list(res.witnesses)}


def check_realize_sofic(lib, data, s):
    want = _descriptor(lib, data["finite"], data["components"]).members_upto(data["N"])
    problems = _witness_problems(s)
    if s["support"] != want:
        problems.append(f"support {s['support']} != requested {want}")
    return problems


def run_gap_set(lib, data):
    gs = lib.gapshift
    s = gs.GapSet.make(data["finite"], data["progressions"])
    kind = gs.classify_gap(s)
    desc = gs.gap_lps(s)
    lg = gs.gap_to_labeled_graph(s)
    res = lib.sofic.sofic_lps_upto(lg, data["N"])
    back = gs.gap_lps(gs.gap_realize(desc))
    dec = lib.sofic.unique_preimage_lps(lg, data["N"]) if lg.graph.n <= 8 else None
    return kind, desc, res, back, dec


def summarize_gap_set(lib, answer):
    kind, desc, res, back, dec = answer
    return {"kind": kind, "lps": desc.to_json(), "support": sorted(res.support),
            "witnesses": list(res.witnesses), "round_trip": back.to_json(),
            "layers": None if dec is None else sorted(dec.union)}


def gap_kind(finite, progressions) -> str:
    """'SFT' when the gap set is finite or cofinite, else 'sofic_not_SFT'."""
    if not progressions:
        return "SFT"
    # past the finite gaps and the progression starts, membership repeats
    # with the lcm of the differences
    start = max([max(finite, default=0) + 1] + [a for a, _ in progressions])
    period = lcm(*(r for _, r in progressions))
    cofinite = all(
        any(m >= a and (m - a) % r == 0 for a, r in progressions)
        for m in range(start, start + period)
    )
    return "SFT" if cofinite else "sofic_not_SFT"


def check_gap_set(lib, data, s):
    PSD = lib.sft_counting.PeriodSetDescriptor
    desc = PSD.from_json(s["lps"])
    want = desc.members_upto(data["N"])
    problems = _witness_problems(s)
    if s["support"] != want:
        problems.append(f"presentation support {s['support']} != gap_lps {want}")
    if not lib.classification.descriptor_equal(PSD.from_json(s["round_trip"]), desc):
        problems.append("gap_realize round trip changed the least-period set")
    if s["layers"] is not None and s["layers"] != s["support"]:
        problems.append(f"layer union {s['layers']} != LPS support {s['support']}")
    kind = gap_kind(set(data["finite"]), data["progressions"])
    if s["kind"] != kind:
        problems.append(f"classified {s['kind']}, expected {kind}")
    return problems


# -- cli ---------------------------------------------------------------------


def run_cli(lib, data):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = lib.cli.main(list(data["argv"]))
    return code, buf.getvalue()


def summarize_cli(lib, answer):
    code, out = answer
    report = json.loads(out)
    report.pop("timing_ms", None)
    return {"code": code, "report": report}


def q_full_shift(m: int, n: int) -> int:
    return sum(mobius(n // d) * m**d for d in range(1, n + 1) if n % d == 0)


def check_cli(lib, data, s):
    if s["code"] != 0:
        return [f"exit code {s['code']}: {s['report']}"]
    report = s["report"]
    problems = []
    if "embed-check" in data["argv"]:
        # a k-cycle has entropy 0 and q_k = k; the full m-shift has
        # entropy log m and q_n(m) >= n for every n, so both conditions hold
        k, m = data["cycle"], data["shift"]
        expect = "pass_at_desk_scale" if q_full_shift(m, k) >= k else "period_fail"
        if report["outputs"]["verdict"]["verdict"] != expect:
            problems.append(f"verdict {report['outputs']['verdict']} != {expect}")
        return problems
    agreement = report.get("oracle_agreement") or {}
    flags = {k: v for k, v in agreement.items() if isinstance(v, bool) or v is None}
    if not flags:
        problems.append("report carries no agreement field")
    for key, value in flags.items():
        if value is not True:
            problems.append(f"{key} = {value}")
    return problems


@dataclass(frozen=True)
class InputClass:
    run: Callable
    summarize: Callable
    check: Callable


CLASSES = {
    "small_matrix": InputClass(run_zeta, summarize_zeta, check_small_matrix),
    "realization_graph": InputClass(run_zeta, summarize_zeta, check_realization_graph),
    "presentation": InputClass(run_presentation, summarize_presentation, check_presentation),
    "realize_sofic": InputClass(run_realize_sofic, summarize_realize_sofic, check_realize_sofic),
    "gap_set": InputClass(run_gap_set, summarize_gap_set, check_gap_set),
}
CLI_CLASSES = (
    "analyze_graph", "analyze_forbidden", "analyze_labeled", "analyze_gap", "layers",
    "realize_irreducible_sft", "realize_reducible_sft", "realize_irreducible_sofic",
    "realize_arbitrary_subshift", "realize_period_set_variant", "embed_check",
)
CLASSES.update({name: InputClass(run_cli, summarize_cli, check_cli) for name in CLI_CLASSES})


def materialize_cli(jobs: list, workdir: str) -> list:
    """Write each CLI job's input files under ``workdir`` and point its argv
    at them."""
    out = []
    for cls, data in jobs:
        for name, payload in data["files"].items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        argv = [os.path.join(workdir, a) if a in data["files"] else a for a in data["argv"]]
        out.append((cls, {**data, "argv": argv}))
    return out
