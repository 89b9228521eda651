"""Tests of the benchmark itself: self-time accounting, wrapping coverage,
that the correctness checks catch a wrong answer, corpus determinism, and
that BENCHMARK.json names exactly the metrics the benchmark prints.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NESTED_SOURCE = '''
import time

def inner(delay):
    time.sleep(delay)
    return delay

def outer():
    time.sleep(0.01)
    return inner(0.02) + inner(0.03)

class Box:
    def twice(self):
        return outer() + outer()
'''


def synthetic_module():
    mod = types.ModuleType("synthetic.nested")
    exec(NESTED_SOURCE, mod.__dict__)
    return mod


def test_self_time_is_parent_minus_children():
    mod = synthetic_module()
    tracer = tracing.Tracer()
    tracer.install({"": mod, "nested": mod})
    try:
        with tracer.job(0):
            mod.Box().twice()
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.span_name]
    starts, ends, parents = tracer.span_start, tracer.span_end, tracer.span_parent
    assert names.count("nested.outer") == 2 and names.count("nested.inner") == 4
    for i, name in enumerate(names):
        if name != "nested.outer":
            continue
        children = [j for j, p in enumerate(parents) if p == i]
        assert [names[j] for j in children] == ["nested.inner", "nested.inner"]
        span = ends[i] - starts[i]
        child = sum(ends[j] - starts[j] for j in children)
        assert span - child == pytest.approx(0.01, abs=0.008)
    from_spans = tracing.self_times_from_spans(names, starts, ends, parents)
    table = tracer.table()
    for name, value in from_spans.items():
        assert table[name]["self_s"] == pytest.approx(value, abs=1e-9)
    assert table["nested.inner"]["calls"] == 4
    # self times of all spans add up to the root spans' duration
    root = [i for i, p in enumerate(parents) if p == -1]
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(
        sum(ends[i] - starts[i] for i in root), abs=1e-9)
    # outside a job the wrappers record nothing
    mod.outer()
    assert len(tracer.span_start) == len(names)


def _periodlab_bindings(lib):
    """Every public function binding and public class method reachable
    from a periodlab module."""
    out = []
    for mod in lib.modules.values():
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            owner = getattr(obj, "__module__", "") or ""
            if not owner.startswith("periodlab"):
                continue
            if isinstance(obj, types.FunctionType):
                out.append((f"{mod.__name__}.{attr}", obj))
            elif isinstance(obj, type):
                for meth, raw in vars(obj).items():
                    if meth.startswith("_"):
                        continue
                    if isinstance(raw, (staticmethod, classmethod)):
                        out.append((f"{obj.__qualname__}.{meth}", raw.__func__))
                    elif isinstance(raw, types.FunctionType):
                        out.append((f"{obj.__qualname__}.{meth}", raw))
    return out


def test_every_public_periodlab_binding_is_wrapped():
    lib = run.fresh_import()
    tracer = tracing.Tracer()
    tracer.install(lib.modules)
    try:
        bindings = _periodlab_bindings(lib)
        unwrapped = [name for name, fn in bindings if not hasattr(fn, "__perfbench_traced__")]
        assert not unwrapped
        # copies made by `from .x import f` are the wrapper, not the original
        assert lib.sft_counting.closed_walk_counts is lib.graph_core.closed_walk_counts
        assert lib.cli.lps_descriptor_sft is lib.sft_counting.lps_descriptor_sft
        assert len(bindings) > 150
        for name in run.SELF_TIMES:
            assert name in tracer.name_id, name
    finally:
        tracer.uninstall()
    assert not any(hasattr(fn, "__perfbench_traced__") for _, fn in _periodlab_bindings(lib))


GOLDEN = {"graph": (["a", "b"], [("a", "a", "e1"), ("a", "b", "e2"), ("b", "a", "e3")])}


def test_wrong_answer_raises_failed_ratio(monkeypatch):
    lib = run.fresh_import()
    jobs = [("small_matrix", GOLDEN), ("small_matrix", GOLDEN)]
    honest = run.Checker(lib, jobs)
    for index in range(len(jobs)):
        assert honest.run(index) is not None
    assert honest.failed == 0

    real = workloads.CLASSES["small_matrix"]

    def off_by_one(lib, data):
        z, terms, series = real.run(lib, data)
        terms = list(terms)
        terms[7] += 1
        return z, terms, series

    monkeypatch.setitem(workloads.CLASSES, "small_matrix",
                        workloads.InputClass(off_by_one, real.summarize, real.check))
    wrong = run.Checker(lib, jobs)
    for index in range(len(jobs)):
        wrong.run(index)
    assert wrong.attempted == 2 and wrong.failed == 2
    assert wrong.failed / wrong.attempted > 0
    assert "recurrence term 7" in wrong.failures[0]["problem"]


@pytest.mark.parametrize("workload", sorted(corpus.CORPORA))
def test_corpus_is_seeded(workload):
    make = corpus.CORPORA[workload]
    first, again, other = make(1), make(1), make(2)
    assert first == again
    assert first != other
    assert corpus.describe(first) == corpus.describe(other)
    assert len(first) >= 100
    # the seed renames and reorders; the inputs' structure is the same
    strip = json.dumps(sorted(first, key=repr)).replace("seed1_", "")
    assert strip == json.dumps(sorted(other, key=repr)).replace("seed2_", "")


@pytest.mark.parametrize("workload", sorted(corpus.CORPORA))
def test_second_seed_checks_out_and_traced_time_is_accounted_for(workload, tmp_path):
    """The cheapest two jobs of every class, for seed 2, pass their checks
    untraced and traced, and the wrapped self times cover all but a sliver
    of the traced wall time: the rest is the runners' own glue, so a hot
    call that went around a wrapper would show here."""
    lib = run.fresh_import()
    jobs = corpus.CORPORA[workload](2)
    if workload == "cli":
        jobs = workloads.materialize_cli(jobs, str(tmp_path))
    picked, seen = [], {}
    for index, (cls, data) in enumerate(jobs):
        if seen.get(cls, 0) < 2 and cls != "realization_graph":
            seen[cls] = seen.get(cls, 0) + 1
            picked.append(jobs[index])
    checker = run.Checker(lib, picked)
    metrics, _, _, traced_jobs = run.traced_phase(checker, lib, str(tmp_path / "spans"))
    assert checker.failures == []
    assert checker.attempted == 2 * len(picked) and traced_jobs == len(picked)
    wall = metrics["trace.wall_s"]["value"]
    residual = metrics["trace.bench_self_s"]["value"]
    assert wall > 0
    assert -1e-9 <= residual <= 0.05 * wall


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(corpus.CORPORA)
    metrics = run.end_to_end({0: [0.01, 0.02, 0.03], 1: [0.2, 0.2, 0.3]}, [0.1, 0.2])
    for m in spec["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in run.per_layer_names():
        assert run.unit_of(name) == units[name]


def test_nearest_rank_leaves_ten_beyond_p90():
    values = sorted(range(100))
    p90 = run.nearest_rank(values, 0.9)
    assert sum(1 for v in values if v > p90) == 10
