"""Command-line front end: batch analysis, realization, and verification.

Exit codes: 0 success, 2 parse error (a malformed input, or a usage error
such as an option the subcommand does not take), 3 shape rejection (a
ShapeError; any other ValueError is a bug), 4 oracle disagreement (always a
bug, never swallowed), 5 resource limit exceeded (a named cap was hit), 6
internal error (any other exception; a bug), 7 output closed (stdout's
reader went away, as in ``| head``; nothing is written to stderr). Reports are
deterministic given identical inputs and flags, except for the timing
field.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

from .arith import ResourceLimitExceeded
from .classification import descriptor_equal, krieger_check
from .gapshift import GapSet, classify_gap, gap_lps, gap_to_labeled_graph
from .graph_core import (
    DEFAULT_PATH_BUDGET,
    DirectedMultigraph,
    lyndon_closed_path_counts,
)
from .realize import (
    LpsRequest,
    ShapeError,
    realize_arbitrary,
    realize_irreducible_sft,
    realize_period_set,
    realize_reducible_sft,
    realize_sofic,
)
from .sft_counting import (
    ForbiddenWordSpec,
    PeriodSetDescriptor,
    CountTable,
    higher_block_recode,
    lps_descriptor_sft,
    sft_analysis,
)
from .sofic import LabeledGraph, sofic_lps_upto, unique_preimage_lps

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_ORACLE = 4
EXIT_RESOURCE = 5
EXIT_INTERNAL = 6
EXIT_OUTPUT_CLOSED = 7

DEFAULT_ORACLE_CAP = 20
# largest number a descriptor or gap-set input may hold: the numbers set the
# cycle lengths, path lengths and torus sides of what is built from them
INPUT_NUMBER_CAP = 1_000
# largest labeled-graph presentation whose analysis is cross-checked by the
# layer decomposition: layer vertices are state subsets
LAYER_CHECK_MAX_STATES = 8


class ParseFailure(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors (an unknown option, a missing
    or mistyped value) raise :class:`ParseFailure`, so they are reported as
    JSON with exit 2 like any other parse error. Its subparsers share the
    class."""

    def error(self, message):
        raise ParseFailure(f"{self.prog}: {message}")


class OracleDisagreement(Exception):
    pass


@dataclass
class RunReport:
    command: str
    input_digest: str
    horizon: int
    outputs: dict = field(default_factory=dict)
    oracle_agreement: dict = field(default_factory=dict)
    timing_ms: float = 0.0

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "input_digest": self.input_digest,
            "horizon": self.horizon,
            "outputs": self.outputs,
            "oracle_agreement": self.oracle_agreement,
            "timing_ms": self.timing_ms,
        }


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


_escape = json.encoder.encode_basestring_ascii


def _json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte. With
    ``indent`` set the stdlib runs its pure-Python encoder; here only the
    containers are written in Python and strings go through the C escaper.
    Separators are shared between the parts, as the stdlib's are."""
    out: list = []
    _write_json(obj, out.append, "\n")
    return "".join(out)


def _write_json(obj, put, pad: str) -> None:
    if isinstance(obj, str):
        put(_escape(obj))
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, float):
        put(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = pad + "  "
        sep, comma = "[" + inner, "," + inner
        for item in obj:
            put(sep)
            _write_json(item, put, inner)
            sep = comma
        put(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = pad + "  "
        sep, comma = "{" + inner, "," + inner
        for key, value in sorted(obj.items()):
            put(sep)
            # json.dumps turns int, float, bool and None keys into strings
            put(_escape(key if isinstance(key, str) else json.dumps(key)))
            put(": ")
            _write_json(value, put, inner)
            sep = comma
        put(pad + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _load_json(path: str):
    def no_constant(name):
        raise ParseFailure(f"{path}: {name} is not a JSON number")

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw, json.loads(raw.decode("utf-8"), parse_constant=no_constant)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseFailure(f"{path}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseFailure(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _from_data(build, *args):
    """Build an input object from decoded JSON. Missing fields, wrong types
    and dangling references are malformed input, so they exit as parse
    errors."""
    try:
        return build(*args)
    except KeyError as exc:
        raise ParseFailure(f"malformed input: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseFailure(f"malformed input: {exc}") from exc


def _check_numbers(numbers) -> None:
    """Refuse an input number above INPUT_NUMBER_CAP as a resource limit,
    before anything is built from it."""
    big = max(numbers, default=0)
    if big > INPUT_NUMBER_CAP:
        raise ResourceLimitExceeded(
            f"input number {big} exceeds INPUT_NUMBER_CAP = {INPUT_NUMBER_CAP}"
        )


def _descriptor_input(data) -> PeriodSetDescriptor:
    """A descriptor input, its numbers checked before its canonical form is
    built: the cost of the form grows with its thresholds."""
    comps = data.get("components", ())
    numbers = [*data.get("finite", ()), *(c[k] for c in comps for k in ("d", "threshold"))]
    _check_numbers(map(int, numbers))
    return PeriodSetDescriptor.from_json(data)


def detect_kind(data) -> str:
    if not isinstance(data, dict):
        raise ParseFailure("top-level JSON value must be an object")
    if "alphabet" in data and "forbidden" in data:
        return "forbidden_words"
    if "finite" in data and ("progressions" in data or "components" not in data):
        if "components" in data or "certified" in data:
            return "descriptor"
        return "gap_set"
    if "components" in data:
        return "descriptor"
    if "vertices" in data and "edges" in data:
        edges = data["edges"]
        if not isinstance(edges, list) or not all(
            isinstance(e, dict) for e in edges
        ):
            raise ParseFailure("edges must be a list of objects")
        if edges and all("label" in e for e in edges):
            return "labeled_graph"
        return "graph"
    raise ParseFailure(
        "unrecognized input; expected a graph, labeled graph, gap set, "
        "forbidden-word spec, or descriptor object"
    )


def _oracle_counts(g: DirectedMultigraph, N: int):
    """Brute-force closed-path counts and least-period classification, from
    one Lyndon closed path per periodic orbit: q_n = n * L_n and p_n is the
    sum of e * L_e over the divisors e of n."""
    L = lyndon_closed_path_counts(g, N)
    q = [n * count for n, count in enumerate(L, start=1)]
    p = [0] * N
    for e, orbit_points in enumerate(q, start=1):
        for n in range(e, N + 1, e):
            p[n - 1] += orbit_points
    return p, q


def _analyze_graph(g: DirectedMultigraph, N: int, cap: int, report: RunReport):
    p, ps, lps = sft_analysis(g, N)
    table = CountTable.from_p(p)
    oracle_n = min(N, cap)
    # p_1 + ... + p_n is the number of closed paths the oracle would list;
    # past the budget its enumeration would only fail at the cap, later
    paths = sum(table.p[:oracle_n])
    if paths > DEFAULT_PATH_BUDGET:
        raise ResourceLimitExceeded(
            f"the oracle would enumerate {paths} closed paths up to n={oracle_n}, "
            f"more than the path budget DEFAULT_PATH_BUDGET = {DEFAULT_PATH_BUDGET}"
        )
    op, oq = _oracle_counts(g, oracle_n)
    p_ok = list(table.p[:oracle_n]) == op
    q_ok = list(table.q[:oracle_n]) == oq
    ps_ok = all(ps.contains(n) == (table.p_at(n) > 0) for n in range(1, N + 1))
    lps_ok = all(lps.contains(n) == (table.q_at(n) > 0) for n in range(1, N + 1))
    report.outputs["count_table_csv"] = table.to_csv()
    report.outputs["ps_descriptor"] = ps.to_json()
    report.outputs["lps_descriptor"] = lps.to_json()
    report.outputs["witnesses"] = [
        {"period": n, "count": table.q_at(n)}
        for n in range(1, N + 1)
        if table.q_at(n) > 0
    ]
    report.oracle_agreement = {
        "p_counts": p_ok,
        "q_counts": q_ok,
        "ps_membership": ps_ok,
        "lps_membership": lps_ok,
        "oracle_horizon": oracle_n,
    }
    if not (p_ok and q_ok and ps_ok and lps_ok):
        raise OracleDisagreement("graph analysis disagrees with brute force")
    return table


def _analyze_labeled(lg: LabeledGraph, N: int, cap: int, report: RunReport):
    res = sofic_lps_upto(lg, N)
    report.outputs["lps_support"] = sorted(res.support)
    report.outputs["witnesses"] = res.to_json()
    layer_n = min(N, cap)
    if lg.graph.n > LAYER_CHECK_MAX_STATES:
        report.oracle_agreement = {
            "layer_union": None,
            "layer_check": "skipped_large_presentation",
            "oracle_horizon": layer_n,
        }
        return
    dec = unique_preimage_lps(lg, layer_n)
    union_ok = dec.union == frozenset(
        n for n in res.support if n <= layer_n
    )
    report.outputs["layers"] = [
        {"layer": i, "component": j, "periods": sorted(periods)}
        for ((i, j), periods) in dec.supports
    ]
    report.oracle_agreement = {
        "layer_union": union_ok,
        "oracle_horizon": layer_n,
    }
    if not union_ok:
        raise OracleDisagreement("layer decomposition disagrees with the LPS")


def _analyze_gap(s: GapSet, N: int, cap: int, report: RunReport):
    kind = classify_gap(s)
    desc = gap_lps(s)
    lg = gap_to_labeled_graph(s)
    oracle_n = min(N, cap)
    res = sofic_lps_upto(lg, oracle_n)
    agree = res.support == frozenset(desc.members_upto(oracle_n))
    report.outputs["classification"] = kind
    report.outputs["lps_descriptor"] = desc.to_json()
    report.outputs["presentation"] = lg.to_json()
    report.oracle_agreement = {
        "presentation_lps": agree,
        "oracle_horizon": oracle_n,
    }
    if not agree:
        raise OracleDisagreement("gap LPS disagrees with its presentation")


def cmd_analyze(args) -> RunReport:
    cap = _oracle_cap(args)
    raw, data = _load_json(args.input)
    report = RunReport("analyze", _digest(raw), args.horizon)
    kind = detect_kind(data)
    report.outputs["input_kind"] = kind
    if kind == "graph":
        g = _from_data(DirectedMultigraph.from_json, data)
        table = _analyze_graph(g, args.horizon, cap, report)
        if args.format == "csv":
            report.outputs["rendered"] = table.to_csv()
        elif args.format == "dot":
            report.outputs["rendered"] = g.to_dot()
    elif kind == "forbidden_words":
        spec = _from_data(
            ForbiddenWordSpec.build, data["alphabet"], data["forbidden"]
        )
        g = higher_block_recode(spec)
        report.outputs["recoded_graph"] = g.to_json()
        _analyze_graph(g, args.horizon, cap, report)
    elif kind == "labeled_graph":
        lg = _from_data(LabeledGraph.from_json, data)
        _analyze_labeled(lg, args.horizon, cap, report)
        if args.format == "dot":
            report.outputs["rendered"] = lg.to_dot()
    elif kind == "gap_set":
        s = _from_data(GapSet.from_json, data)
        _check_numbers([*s.finite, *(x for pair in s.progressions for x in pair)])
        _analyze_gap(s, args.horizon, cap, report)
    else:
        raise ParseFailure(f"analyze does not accept {kind} input")
    return report


def cmd_layers(args) -> RunReport:
    raw, data = _load_json(args.input)
    if detect_kind(data) != "labeled_graph":
        raise ParseFailure("layers needs a labeled-graph input")
    lg = _from_data(LabeledGraph.from_json, data)
    report = RunReport("layers", _digest(raw), args.horizon)
    dec = unique_preimage_lps(lg, args.horizon)
    res = sofic_lps_upto(lg, args.horizon)
    report.outputs["layers"] = [
        {"layer": i, "component": j, "periods": sorted(periods)}
        for ((i, j), periods) in dec.supports
    ]
    report.outputs["witnesses"] = dec.to_json()
    report.outputs["lps_support"] = sorted(res.support)
    ok = dec.union == res.support
    report.oracle_agreement = {"layer_union": ok}
    if not ok:
        raise OracleDisagreement("layer decomposition disagrees with the LPS")
    return report


def cmd_realize(args) -> RunReport:
    raw, data = _load_json(args.input)
    if detect_kind(data) != "descriptor":
        raise ParseFailure("realize needs a descriptor input")
    desc = _from_data(_descriptor_input, data)
    report = RunReport("realize", _digest(raw), args.horizon)
    request = LpsRequest(desc, args.target)
    request.validate()
    artifact: dict
    if args.target == "irreducible_sft":
        g = realize_irreducible_sft(desc)
        got = lps_descriptor_sft(g)
        verdict = descriptor_equal(got, desc)
        artifact = g.to_json()
        rendered = g.to_dot() if args.format == "dot" else None
    elif args.target == "reducible_sft":
        g = realize_reducible_sft(desc)
        got = lps_descriptor_sft(g)
        verdict = descriptor_equal(got, desc)
        artifact = g.to_json()
        rendered = g.to_dot() if args.format == "dot" else None
    elif args.target == "irreducible_sofic":
        lg = realize_sofic(desc)
        res = sofic_lps_upto(lg, args.horizon)
        verdict = res.support == frozenset(desc.members_upto(args.horizon))
        artifact = lg.to_json()
        rendered = lg.to_dot() if args.format == "dot" else None
    elif args.target == "period_set_variant":
        lg = realize_period_set(desc)
        res = sofic_lps_upto(lg, args.horizon)
        periods = set()
        for m in res.support:
            periods.update(range(m, args.horizon + 1, m))
        verdict = periods == set(desc.members_upto(args.horizon))
        artifact = lg.to_json()
        rendered = lg.to_dot() if args.format == "dot" else None
    else:  # arbitrary_subshift
        infinite = not desc.is_finite
        handle = realize_arbitrary(
            desc.contains, infinite=infinite, horizon=max(args.horizon, 64)
        )
        pts = handle.periodic_points_upto(min(args.horizon, handle.horizon))
        got = {p for (p, _) in pts}
        want = set(desc.members_upto(min(args.horizon, handle.horizon)))
        if infinite and desc.contains(1):
            want.add(1)
        verdict = got == want
        artifact = handle.to_json()
        rendered = None
    report.outputs["artifact"] = artifact
    if rendered:
        report.outputs["rendered"] = rendered
    report.outputs["round_trip"] = verdict
    report.oracle_agreement = {"round_trip": verdict}
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            if args.format == "dot" and rendered:
                fh.write(rendered)
            else:
                fh.write(_json_text(artifact) + "\n")
    if not verdict:
        raise OracleDisagreement("realization round trip failed")
    return report


def cmd_embed_check(args) -> RunReport:
    raw_x, data_x = _load_json(args.x)
    raw_y, data_y = _load_json(args.y)
    if detect_kind(data_x) != "graph" or detect_kind(data_y) != "graph":
        raise ParseFailure("embed-check needs two graph inputs")
    gx = _from_data(DirectedMultigraph.from_json, data_x)
    gy = _from_data(DirectedMultigraph.from_json, data_y)
    report = RunReport("embed-check", _digest(raw_x + raw_y), args.horizon)
    verdict = krieger_check(gx, gy, args.horizon)
    report.outputs["verdict"] = verdict.to_json()
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.
    Each subcommand registers only the options it reads."""
    parser = _ArgumentParser(
        prog="periodlab",
        description="Exact period and least-period analysis of shift spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help, with_input=True):
        p = sub.add_parser(name, help=help)
        if with_input:
            p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--horizon", "-N", type=int, default=12)
        return p

    p = subcommand("analyze", "count tables, descriptors, oracles")
    p.add_argument("--format", choices=("json", "csv", "dot"), default="json")
    p.add_argument(
        "--oracle-cap",
        type=int,
        default=None,
        help="max horizon for brute-force path enumeration (default: "
        f"$PERIODLAB_ORACLE_CAP, else {DEFAULT_ORACLE_CAP})",
    )
    p = subcommand("realize", "construct a shift with a given LPS")
    p.add_argument("--target", required=True, help="construction target")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--output", help="artifact output path")
    p = subcommand("embed-check", "desk-scale embedding conditions", with_input=False)
    p.add_argument("x", help="graph JSON for the embedded shift")
    p.add_argument("y", help="graph JSON for the mixing target")
    subcommand("layers", "unique-preimage layer decomposition")
    return parser


def _oracle_cap(args) -> int:
    """--oracle-cap, else $PERIODLAB_ORACLE_CAP, else the default; read at
    each call, so the environment of the call decides. Below 1 is a parse
    error."""
    cap = args.oracle_cap
    if cap is None:
        raw = os.environ.get("PERIODLAB_ORACLE_CAP", str(DEFAULT_ORACLE_CAP))
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ParseFailure(f"PERIODLAB_ORACLE_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ParseFailure(f"--oracle-cap must be >= 1, got {cap}")
    return cap


def _silence_stdout() -> None:
    """Point stdout's file descriptor at os.devnull, so the interpreter's
    flush at exit finds a sink and reports no second broken pipe."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # no descriptor: nothing left to flush
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        _silence_stdout()
        return EXIT_OUTPUT_CLOSED


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        start = time.monotonic()
        if args.horizon < 1:
            raise ParseFailure(f"--horizon must be >= 1, got {args.horizon}")
        if args.command == "analyze":
            report = cmd_analyze(args)
        elif args.command == "realize":
            report = cmd_realize(args)
        elif args.command == "embed-check":
            report = cmd_embed_check(args)
        else:
            report = cmd_layers(args)
    except ParseFailure as exc:
        print(json.dumps({"error": "parse", "detail": str(exc)}))
        return EXIT_PARSE
    except ShapeError as exc:
        payload = {"error": "shape", "detail": str(exc)}
        suggestion = getattr(exc, "suggestion", None)
        if suggestion:
            payload["suggestion"] = suggestion
        print(json.dumps(payload, sort_keys=True))
        return EXIT_SHAPE
    except OracleDisagreement as exc:
        print(json.dumps({"error": "oracle_disagreement", "detail": str(exc)}))
        return EXIT_ORACLE
    except ResourceLimitExceeded as exc:
        print(json.dumps({"error": "resource_limit", "detail": str(exc)}))
        return EXIT_RESOURCE
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"error": "internal", "detail": detail}))
        sys.stderr.write(traceback.format_exc())
        return EXIT_INTERNAL
    report.timing_ms = round((time.monotonic() - start) * 1000.0, 3)
    print(_json_text(report.to_json()))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
