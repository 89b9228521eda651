"""Outside-in tracing of periodlab: wrap public functions, record spans.

The tracer never edits periodlab's source. :meth:`Tracer.install` replaces
every public function and public class method of the traced modules with a
timing wrapper and rebinds every ``from .x import f`` copy held by another
periodlab module, so that no call goes around a wrapper.
:meth:`Tracer.uninstall` puts the originals back.

A span is recorded only while a job is open (:meth:`Tracer.job`); outside
it the wrappers call straight through. Spans are kept in memory as
(name, start, end, parent, job) in flat arrays, up to ``SPAN_CAP`` of them,
and written by :meth:`Tracer.write_spans` when the run ends. Self time
(span time minus the time of its child spans), call counts and the counts
derived from return values are aggregated as each span closes, so they stay
exact even past the span cap.
"""

from __future__ import annotations

import inspect
import json
from array import array
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

MODULES = (
    "arith",
    "graph_core",
    "sft_counting",
    "zeta",
    "sofic",
    "gapshift",
    "realize",
    "classification",
    "cli",
)

SPAN_CAP = 500_000


def _paths(result) -> int:
    return sum(len(v) for v in result.values())


# Work counts read off return values: span name -> (count name, function).
COUNTERS = {
    "sft_counting.solve_q_positive_threshold": (
        "sft_counting.solve_q_positive_threshold.n_star", int),
    "graph_core.contract_chains": (
        "graph_core.contract_chains.core_vertices", lambda r: len(r[0])),
    "graph_core.enumerate_closed_paths": (
        "graph_core.enumerate_closed_paths.paths", _paths),
    "sofic.determinize_and_minimize": (
        "sofic.determinize_and_minimize.states", lambda r: r.lg.graph.n),
    "zeta.zeta_of_graph": (
        "zeta.den_degree", lambda r: len(r.den.coeffs) - 1),
    "sofic.sofic_lps_upto": (
        "sofic.witnesses", lambda r: len(r.witnesses)),
}

# Counts kept only when the span runs under the named ancestor span.
NESTED_COUNTERS = {
    ("graph_core.enumerate_closed_paths", "sofic.sofic_lps_upto"): (
        "sofic.paths_swept", _paths),
}


def public_bindings(module, short: str):
    """(owner, attribute, raw object, span name) for every public function
    and public class method defined in ``module``."""
    out = []
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, attr, obj, f"{short}.{attr}"))
        elif inspect.isclass(obj):
            for meth, raw in sorted(vars(obj).items()):
                if meth.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                    out.append((obj, meth, raw, f"{short}.{attr}.{meth}"))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.open: list[int] = []  # spans of each name currently open
        self.counts: dict[str, int] = {}
        # span arrays, index-aligned
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.dropped = 0
        self.stack: list[list] = []  # [span index or -1, child seconds]
        self.job_id = -1
        self.active = False
        self._restore: list = []

    # -- wrapping ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name in self.name_id:
            raise ValueError(f"{name} wrapped twice")
        self.name_id[name] = len(self.names)
        self.names.append(name)
        self.self_s.append(0.0)
        self.calls.append(0)
        self.open.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        """Timing wrapper for ``fn`` recording spans under ``name``."""
        nid = self._intern(name)
        counter = COUNTERS.get(name)
        nested = [
            (anc, cname, f)
            for (inner, anc), (cname, f) in NESTED_COUNTERS.items()
            if inner == name
        ]
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            idx = len(tracer.span_start)
            if idx < SPAN_CAP:
                # the span's slot is taken on entry so children can name it
                tracer.span_name.append(nid)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                tracer.span_parent.append(stack[-1][0] if stack else -1)
                tracer.span_job.append(tracer.job_id)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            tracer.open[nid] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.open[nid] -= 1
                dur = end - start
                tracer.self_s[nid] += dur - frame[1]
                tracer.calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    tracer.span_start[idx] = start
                    tracer.span_end[idx] = end
            if counter is not None:
                cname, f = counter
                tracer.counts[cname] = tracer.counts.get(cname, 0) + f(result)
            for anc, cname, f in nested:
                anc_id = tracer.name_id.get(anc)
                if anc_id is not None and tracer.open[anc_id]:
                    tracer.counts[cname] = tracer.counts.get(cname, 0) + f(result)
            return result

        wrapper.__perfbench_traced__ = name
        return wrapper

    def install(self, package_modules: dict):
        """Wrap the public bindings of every module and rebind copies.

        ``package_modules`` maps short module names to the imported periodlab
        modules; the package itself sits under ``""`` and is only searched
        for copies.
        """
        if self._restore:
            raise RuntimeError("tracer already installed")
        originals = {}  # id(function) -> wrapper
        for short, module in package_modules.items():
            if not short:
                continue
            for owner, attr, raw, name in public_bindings(module, short):
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                    originals[id(raw)] = (raw, wrapped)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        for module in package_modules.values():
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore = []

    @contextmanager
    def job(self, job_id: int):
        """Record spans for the calls made inside this block."""
        if self.stack:
            raise RuntimeError("job opened inside an open span")
        self.job_id = job_id
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.stack = []

    # -- results ----------------------------------------------------------

    def table(self) -> dict:
        """name -> {"self_s", "calls"} for every wrapped binding."""
        return {
            name: {"self_s": self.self_s[i], "calls": self.calls[i]}
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path_stem: str) -> dict:
        """Write the kept spans as ``<stem>.bin`` (five little-endian arrays:
        name id int32, start float64, end float64, parent int32, job int32)
        and ``<stem>.json`` (names and layout). Returns the header."""
        header = {
            "spans": len(self.span_start),
            "dropped": self.dropped,
            "names": self.names,
            "arrays": ["name:i4", "start:f8", "end:f8", "parent:i4", "job:i4"],
        }
        with open(path_stem + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_job):
                arr.tofile(fh)
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        return header


def self_times_from_spans(names, starts, ends, parents) -> dict:
    """Self time per name from raw spans: each span's duration minus the
    durations of its direct children."""
    child = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict = {}
    for i, n in enumerate(names):
        out[n] = out.get(n, 0.0) + (ends[i] - starts[i]) - child[i]
    return out
