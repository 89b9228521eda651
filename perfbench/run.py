"""periodlab benchmark: seeded workloads, timed from outside the library.

Run from the root of a periodlab checkout:

    python3 perfbench/run.py --workload library --seed 1 --seconds 56 --trace 0

Workloads: ``library`` and ``cli`` (see ``corpus.py``).
One process runs one workload, single-threaded. Set-up imports periodlab
afresh and generates the seeded corpus, seven times, and reports the median
as ``setup_s``. The timed phase then cycles through the corpus until
``--seconds`` of wall time have passed and every job has run at least
three times; each job builds its inputs from plain data, so no run of a
job reuses objects or cached properties of another. ``job_ms.p50``,
``job_ms.p90`` and ``jobs_per_s`` are taken over each job's median time
across its runs, which damps the host's slowdowns and speed-ups that last
shorter than half the phase.
Every answer is checked outside the timed region: on the first pass
against an independent reference, on later passes against the checked
first answer. A job that raises or answers wrongly counts as failed; it is
never skipped or retried.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
untraced pass and one traced pass over the corpus and prints the per-layer
metrics (self time, calls and work counts of every wrapped periodlab
function, and the tracing overhead).

The last stdout line is the result object. The line before it is the run
record, also written to ``perfbench/out/`` with, for traced runs, the
spans. Without ``src/periodlab`` the run exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3

END_TO_END = ("job_ms.p50", "job_ms.p90", "jobs_per_s", "setup_s", "peak_rss_mb")
UNITS = {"job_ms.p50": "ms", "job_ms.p90": "ms", "jobs_per_s": "1/s",
         "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: "<span name>.self_s", "<span name>.calls", or a count
# from tracing.COUNTERS, plus the derived ones computed in per_layer().
SELF_TIMES = (
    "sft_counting.solve_q_positive_threshold", "sft_counting.growth_certificate",
    "sft_counting.lps_descriptor_sft", "sft_counting.ps_descriptor",
    "sft_counting.mobius_invert", "sft_counting.higher_block_recode", "arith.mobius",
    "graph_core.component_walk_counts", "graph_core.closed_walk_counts",
    "graph_core.max_walk_counts", "graph_core.basepoint_return_attained",
    "graph_core.basepoint_return_counts", "graph_core.scc_decompose",
    "graph_core.contract_chains", "graph_core.enumerate_closed_paths",
    "arith.least_rotation_period", "sofic.sofic_lps_upto", "sofic.sofic_period_counts",
    "sofic.determinize_and_minimize", "sofic.unique_preimage_lps", "sofic.layer_graph",
    "gapshift.gap_lps", "gapshift.almost_sum_closure", "gapshift.gap_to_labeled_graph",
    "gapshift.gap_realize", "zeta.det_poly_matrix", "zeta.p_sequence_rational",
    "zeta.recurrence_from_rational", "zeta.LinearRecurrence.terms",
    "zeta.RationalFunction.series", "realize.realize_irreducible_sft",
    "realize.realize_reducible_sft", "realize.realize_sofic", "realize.realize_arbitrary",
    "realize.realize_period_set", "classification.descriptor_equal",
    "classification.krieger_check", "cli.main",
)
CALLS = ("arith.least_rotation_period", "zeta.poly_divexact")
COUNTS = (
    "sft_counting.solve_q_positive_threshold.n_star",
    "graph_core.contract_chains.core_vertices",
    "graph_core.enumerate_closed_paths.paths",
    "sofic.determinize_and_minimize.states",
    "zeta.den_degree",
)
DERIVED = ("sofic.witnesses_per_path", "trace.overhead_ratio", "trace.wall_s",
           "trace.wrapped_self_s", "trace.bench_self_s")


def per_layer_names() -> list:
    return ([f"{n}.self_s" for n in SELF_TIMES]
            + [f"{m}.self_s" for m in tracing.MODULES]
            + [f"{n}.calls" for n in CALLS] + list(COUNTS) + list(DERIVED))


# -- set-up ------------------------------------------------------------------


class Lib:
    """The periodlab package and its submodules, as one import left them."""

    def __init__(self):
        self.package = importlib.import_module("periodlab")
        self.modules = {"": self.package}
        for short in tracing.MODULES:
            self.modules[short] = importlib.import_module(f"periodlab.{short}")
            setattr(self, short, self.modules[short])


def fresh_import() -> Lib:
    for name in [m for m in sys.modules if m == "periodlab" or m.startswith("periodlab.")]:
        del sys.modules[name]
    return Lib()


def setup(workload: str, seed: int, workdir: str):
    """Import periodlab afresh and build the corpus; returns the import and
    corpus times of every repeat and the last repeat's library and jobs."""
    import_times, corpus_times = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        lib = fresh_import()
        imported = perf_counter()
        jobs = corpus.CORPORA[workload](seed)
        if workload == "cli":
            jobs = workloads.materialize_cli(jobs, workdir)
        import_times.append(imported - start)
        corpus_times.append(perf_counter() - imported)
    return import_times, corpus_times, lib, jobs


# -- running and checking ----------------------------------------------------


class Checker:
    """Verifies answers outside the timed region and tallies failures."""

    def __init__(self, lib, jobs):
        self.lib = lib
        self.jobs = jobs
        self.first: dict = {}  # job index -> checked summary
        self.attempted = 0
        self.failures: list = []

    def fail(self, index: int, problem: str):
        cls = self.jobs[index][0]
        if len(self.failures) < 50:
            self.failures.append({"job": index, "class": cls, "problem": problem[:500]})
        else:
            self.failures.append(None)

    def verify(self, index: int, answer) -> None:
        cls, data = self.jobs[index]
        kind = workloads.CLASSES[cls]
        try:
            summary = kind.summarize(self.lib, answer)
            if index in self.first:
                problems = [] if summary == self.first[index] else ["answer differs from the checked first answer"]
            else:
                problems = kind.check(self.lib, data, summary)
                if not problems:
                    self.first[index] = summary
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"check raised {exc!r}"]
        if problems:
            self.fail(index, "; ".join(problems))

    def run(self, index: int, hook=None):
        """Run one job; returns its wall time in seconds, or None if it
        raised. ``hook`` wraps the timed call (used for tracing)."""
        cls, data = self.jobs[index]
        runner = workloads.CLASSES[cls].run
        self.attempted += 1
        try:
            if hook is None:
                start = perf_counter()
                answer = runner(self.lib, data)
                elapsed = perf_counter() - start
            else:
                with hook(index):
                    start = perf_counter()
                    answer = runner(self.lib, data)
                    elapsed = perf_counter() - start
        except Exception as exc:
            self.fail(index, f"raised {exc!r}")
            return None
        self.verify(index, answer)
        return elapsed

    @property
    def failed(self) -> int:
        return len(self.failures)


def nearest_rank(sorted_values: list, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_phase(checker: Checker, seconds: float) -> dict:
    """Cycles through the corpus, checks included, until ``seconds`` of wall
    time have passed and every job has run MIN_PASSES times; the last pass
    may stop part-way. Returns job index -> wall times of its runs."""
    samples: dict = {}
    n = len(checker.jobs)
    wall0 = perf_counter()
    k = 0
    while k < MIN_PASSES * n or perf_counter() - wall0 < seconds:
        elapsed = checker.run(k % n)
        if elapsed is not None:
            samples.setdefault(k % n, []).append(elapsed)
        k += 1
    return samples


def end_to_end(samples: dict, setup_times) -> dict:
    """Percentiles and throughput over per-job medians across passes."""
    per_job = sorted(statistics.median(times) for times in samples.values())
    values = {
        "job_ms.p50": statistics.median(per_job) * 1e3,
        "job_ms.p90": nearest_rank(per_job, 0.9) * 1e3,
        "jobs_per_s": len(per_job) / sum(per_job),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": UNITS[name]} for name in END_TO_END}


def traced_phase(checker: Checker, lib: Lib, out_stem: str):
    """One untraced pass, then a traced pass over the whole corpus, so the
    per-layer sums always cover the same jobs."""
    untraced = {}
    for index in range(len(checker.jobs)):
        elapsed = checker.run(index)
        if elapsed is not None:
            untraced[index] = elapsed
    tracer = tracing.Tracer()
    tracer.install(lib.modules)
    traced = {}
    try:
        for index in range(len(checker.jobs)):
            elapsed = checker.run(index, hook=tracer.job)
            if elapsed is not None:
                traced[index] = elapsed
    finally:
        tracer.uninstall()
    header = tracer.write_spans(out_stem)
    return per_layer(tracer, untraced, traced), tracer, header, len(traced)


def per_layer(tracer: tracing.Tracer, untraced: dict, traced: dict) -> dict:
    table = tracer.table()
    values = {}
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = table[name]["self_s"]
    for module in tracing.MODULES:
        values[f"{module}.self_s"] = sum(
            row["self_s"] for name, row in table.items() if name.split(".")[0] == module)
    for name in CALLS:
        values[f"{name}.calls"] = table[name]["calls"]
    for name in COUNTS:
        values[name] = tracer.counts.get(name, 0)
    swept = tracer.counts.get("sofic.paths_swept", 0)
    values["sofic.witnesses_per_path"] = (
        tracer.counts.get("sofic.witnesses", 0) / swept if swept else 0.0)
    both = [i for i in traced if i in untraced]
    wall = sum(traced[i] for i in both)
    values["trace.overhead_ratio"] = wall / sum(untraced[i] for i in both) if both else 0.0
    # Every wrapped span lies inside a traced job, so the residual is the
    # time jobs spent outside periodlab's public bindings: the runners' own
    # glue, or a call that goes around a wrapper. The tests bound it.
    values["trace.wall_s"] = sum(traced.values())
    values["trace.wrapped_self_s"] = sum(row["self_s"] for row in table.values())
    values["trace.bench_self_s"] = values["trace.wall_s"] - values["trace.wrapped_self_s"]
    return {name: {"value": values[name], "unit": unit_of(name)} for name in per_layer_names()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_path")):
        return "ratio"
    return "count"


# -- run record --------------------------------------------------------------


def git_sha(root: str) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(root, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.CORPORA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "periodlab", "__init__.py")):
        print(f"perfbench: no periodlab package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        import_times, corpus_times, lib, jobs = setup(args.workload, args.seed, workdir)
        setup_times = [a + b for a, b in zip(import_times, corpus_times)]
        if not os.path.abspath(lib.package.__file__).startswith(src + os.sep):
            print(f"perfbench: periodlab imported from {lib.package.__file__}, not {src}",
                  file=sys.stderr)
            return 2
        gc.collect()
        gc.freeze()
        checker = Checker(lib, jobs)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": git_sha(root),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "corpus": {"jobs": len(jobs), "per_class": corpus.describe(jobs),
                       "parameters": corpus.PARAMETERS[args.workload],
                       "seed_changes": "vertex and edge names, job order"},
            "setup_s_samples": setup_times,
            "setup_import_s_samples": import_times,
            "setup_corpus_s_samples": corpus_times,
        }
        if args.trace:
            stem = os.path.join(out_dir, f"spans-{args.workload}")
            metrics, tracer, header, traced_jobs = traced_phase(checker, lib, stem)
            record["traced_jobs"] = traced_jobs
            record["functions"] = tracer.table()
            record["counts"] = tracer.counts
            record["spans"] = {"kept": header["spans"], "dropped": header["dropped"],
                               "file": os.path.relpath(stem + ".bin", root)}
        else:
            samples = timed_phase(checker, args.seconds)
            metrics = end_to_end(samples, setup_times)
            jobs_timed = len(samples)
            record["passes_per_job"] = sorted({len(t) for t in samples.values()})
            record["samples"] = {"job_ms.p50": jobs_timed, "job_ms.p90": jobs_timed,
                                 "beyond_p90": jobs_timed - math.ceil(0.9 * jobs_timed),
                                 "jobs_per_s": jobs_timed, "setup_s": len(setup_times),
                                 "peak_rss_mb": 1}
        record["attempted"] = checker.attempted
        record["failed"] = checker.failed
        record["failed_ratio"] = checker.failed / checker.attempted
        record["failures"] = [f for f in checker.failures if f is not None]
        record["metrics"] = metrics
        with open(os.path.join(out_dir, f"record-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("record " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
