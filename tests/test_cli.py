import copy
import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from periodlab.cli import (
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_SHAPE,
    LAYER_CHECK_MAX_STATES,
    _json_text,
    detect_kind,
    main,
)


GOLDEN = {
    "vertices": ["a", "b"],
    "edges": [
        {"id": "e1", "from": "a", "to": "a"},
        {"id": "e2", "from": "a", "to": "b"},
        {"id": "e3", "from": "b", "to": "a"},
    ],
}
EVEN = {
    "vertices": ["s0", "s1"],
    "edges": [
        {"id": "a", "from": "s0", "to": "s0", "label": "1"},
        {"id": "b", "from": "s0", "to": "s1", "label": "0"},
        {"id": "c", "from": "s1", "to": "s0", "label": "0"},
    ],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture(autouse=True)
def reports_match_stdlib_json(monkeypatch):
    """Every report and artifact written here is also encoded by
    json.dumps(sort_keys=True, indent=2), which the writer must match byte
    for byte."""
    from periodlab import cli

    def checked(obj):
        text = _json_text(obj)
        assert text == json.dumps(obj, sort_keys=True, indent=2)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)


class TestDetectKind:
    def test_kinds(self):
        assert detect_kind(GOLDEN) == "graph"
        assert detect_kind(EVEN) == "labeled_graph"
        assert detect_kind({"finite": [1], "progressions": []}) == "gap_set"
        assert detect_kind({"alphabet": ["0", "1"], "forbidden": [["1", "1"]]}) == "forbidden_words"
        assert detect_kind({"finite": [3], "components": []}) == "descriptor"


class TestAnalyze:
    def test_golden_mean_graph(self, tmp_path, capsys):
        path = write(tmp_path, "gm.json", GOLDEN)
        code, report = run(capsys, ["analyze", "--input", path, "--horizon", "10"])
        assert code == EXIT_OK
        assert report["outputs"]["count_table_csv"].splitlines()[1:5] == [
            "1,1,1",
            "2,3,2",
            "3,4,3",
            "4,7,4",
        ]
        assert all(report["oracle_agreement"].values())
        lps = report["outputs"]["lps_descriptor"]
        assert lps["components"] == [{"d": 1, "threshold": 1, "extras": []}]

    def test_even_shift(self, tmp_path, capsys):
        path = write(tmp_path, "even.json", EVEN)
        code, report = run(capsys, ["analyze", "--input", path, "--horizon", "6"])
        assert code == EXIT_OK
        assert report["outputs"]["lps_support"] == [1, 3, 4, 5, 6]

    def test_layer_check_cap(self, tmp_path, capsys):
        # a ring of k states with one "1" edge and a "0" loop: the layer
        # cross-check runs on 8 states and is skipped on 9
        assert LAYER_CHECK_MAX_STATES == 8
        for k in (8, 9):
            ring = {
                "vertices": [f"s{i}" for i in range(k)],
                "edges": [
                    {"id": f"r{i}", "from": f"s{i}", "to": f"s{(i + 1) % k}",
                     "label": "1" if i == 0 else "0"}
                    for i in range(k)
                ] + [{"id": "loop", "from": "s0", "to": "s0", "label": "0"}],
            }
            path = write(tmp_path, f"ring{k}.json", ring)
            code, report = run(capsys, ["analyze", "--input", path, "--horizon", "10"])
            assert code == EXIT_OK
            agreement = report["oracle_agreement"]
            if k == 8:
                assert agreement["layer_union"] is True
                assert "layer_check" not in agreement and report["outputs"]["layers"]
            else:
                assert agreement["layer_union"] is None
                assert agreement["layer_check"] == "skipped_large_presentation"
                assert "layers" not in report["outputs"]

    def test_gap_set(self, tmp_path, capsys):
        path = write(tmp_path, "gap.json", {"finite": [1], "progressions": []})
        code, report = run(capsys, ["analyze", "--input", path, "--horizon", "6"])
        assert code == EXIT_OK
        assert report["outputs"]["lps_descriptor"]["finite"] == [2]

    def test_gap_set_with_two_long_progressions(self, tmp_path, capsys):
        # one 0-cycle per progression: 1 + 997 + 991 states, where a single
        # cycle would need lcm(997, 991) = 988,027
        payload = {"finite": [], "progressions": [{"a": 0, "r": 997}, {"a": 0, "r": 991}]}
        path = write(tmp_path, "gap.json", payload)
        code, report = run(capsys, ["analyze", "--input", path])
        assert code == EXIT_OK
        assert report["oracle_agreement"]["presentation_lps"] is True
        assert len(report["outputs"]["presentation"]["vertices"]) == 1 + 997 + 991

    def test_forbidden_words(self, tmp_path, capsys):
        path = write(
            tmp_path, "fw.json", {"alphabet": ["0", "1"], "forbidden": [["1", "1"]]}
        )
        code, report = run(capsys, ["analyze", "--input", path, "--horizon", "8"])
        assert code == EXIT_OK
        assert report["outputs"]["count_table_csv"].splitlines()[1] == "1,1,1"

    def test_one_pass_per_component(self, tmp_path, capsys, monkeypatch):
        # the golden mean and a 3-cycle, joined by a one-way edge: the walk
        # DP and each return search run once per component, counted through
        # both modules that call them
        from periodlab import graph_core, sft_counting

        calls = {}

        def counting(name, real):
            def counted(*args):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)

            return counted

        for name in ("component_walk_counts", "first_return_loops", "return_tail_start"):
            counted = counting(name, getattr(graph_core, name))
            for module in (graph_core, sft_counting):
                monkeypatch.setattr(module, name, counted)
        two = copy.deepcopy(GOLDEN)
        two["vertices"] += ["x", "y", "z"]
        two["edges"] += [
            {"id": "f1", "from": "x", "to": "y"},
            {"id": "f2", "from": "y", "to": "z"},
            {"id": "f3", "from": "z", "to": "x"},
            {"id": "j", "from": "b", "to": "x"},
        ]
        path = write(tmp_path, "two.json", two)
        code, report = run(capsys, ["analyze", "--input", path, "--horizon", "9"])
        assert code == EXIT_OK
        assert calls == dict.fromkeys(calls, 2) and len(calls) == 3
        assert report["outputs"]["ps_descriptor"]["components"] == [
            {"d": 1, "threshold": 1, "extras": []}
        ]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, payload = run(capsys, ["analyze", "--input", str(bad)])
        assert code == EXIT_PARSE
        assert payload["error"] == "parse"
        assert "line" in payload["detail"]

    def test_edge_missing_field_is_parse_error(self, tmp_path, capsys):
        broken = {"vertices": ["a"], "edges": [{"id": "e1", "from": "a"}]}
        path = write(tmp_path, "broken.json", broken)
        code, payload = run(capsys, ["analyze", "--input", path])
        assert code == EXIT_PARSE
        assert payload["error"] == "parse"
        assert "to" in payload["detail"]

    def test_edges_not_objects_is_parse_error(self, tmp_path, capsys):
        for edges in ([1], 5):
            path = write(tmp_path, "edges.json", {"vertices": ["a"], "edges": edges})
            code, payload = run(capsys, ["analyze", "--input", path])
            assert code == EXIT_PARSE
            assert payload["error"] == "parse"

    def test_dangling_vertex_is_parse_error(self, tmp_path, capsys):
        dangling = {
            "vertices": ["a"],
            "edges": [{"id": "e1", "from": "a", "to": "ghost"}],
        }
        path = write(tmp_path, "dangling.json", dangling)
        code, payload = run(capsys, ["analyze", "--input", path])
        assert code == EXIT_PARSE
        assert payload["error"] == "parse"
        assert "missing vertex" in payload["detail"]

    def test_malformed_values_are_parse_errors(self, tmp_path, capsys):
        cases = [
            ({"vertices": [1, 2], "edges": [{"id": "e", "from": 1, "to": 2}]}, "strings"),
            ({"alphabet": [0, "1"], "forbidden": []}, "strings"),
            ({"finite": [], "progressions": []}, "nonempty"),
        ]
        for payload, detail in cases:
            path = write(tmp_path, "bad.json", payload)
            code, out = run(capsys, ["analyze", "--input", path])
            assert code == EXIT_PARSE, payload
            assert detail in out["detail"]
        # Python's json module reads NaN and Infinity, which JSON has not
        path = tmp_path / "inf.json"
        path.write_text('{"finite": [Infinity], "progressions": []}')
        code, out = run(capsys, ["analyze", "--input", str(path)])
        assert code == EXIT_PARSE
        assert "Infinity is not a JSON number" in out["detail"]

    def test_zero_horizon_is_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "gm.json", GOLDEN)
        code, payload = run(capsys, ["analyze", "--input", path, "--horizon", "0"])
        assert code == EXIT_PARSE
        assert payload["error"] == "parse"
        assert "--horizon" in payload["detail"]
        code, payload = run(capsys, ["analyze", "--input", path, "--oracle-cap", "0"])
        assert code == EXIT_PARSE
        assert "--oracle-cap" in payload["detail"]

    def test_deep_oracle(self, tmp_path, capsys):
        # the oracle's search is as deep as min(horizon, --oracle-cap), which
        # a recursive search could not reach
        loop = {"vertices": ["v"], "edges": [{"id": "a", "from": "v", "to": "v"}]}
        path = write(tmp_path, "loop.json", loop)
        code, report = run(
            capsys,
            ["analyze", "--input", path, "--horizon", "3000", "--oracle-cap", "3000"],
        )
        assert code == EXIT_OK
        agreement = report["oracle_agreement"]
        assert agreement.pop("oracle_horizon") == 3000
        assert agreement and all(v is True for v in agreement.values())

    @pytest.mark.parametrize("field", ["p", "q"])
    def test_oracle_disagreement_exit_code(self, tmp_path, capsys, monkeypatch, field):
        # the golden mean's p_3 = 4 or q_3 = 3, raised by one, stays
        # positive, so only the comparison with the oracle's counts fails
        from periodlab.sft_counting import CountTable

        from_p = CountTable.from_p

        def skewed_table(cls, p):
            table = from_p(p)
            values = list(getattr(table, field))
            values[2] += 1
            return dataclasses.replace(table, **{field: tuple(values)})

        monkeypatch.setattr(CountTable, "from_p", classmethod(skewed_table))
        path = write(tmp_path, "gm.json", GOLDEN)
        code = main(["analyze", "--input", path, "--horizon", "6"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_ORACLE
        assert [json.loads(line) for line in lines] == [
            {
                "error": "oracle_disagreement",
                "detail": "graph analysis disagrees with brute force",
            }
        ]

    def test_determinism(self, tmp_path, capsys):
        path = write(tmp_path, "gm.json", GOLDEN)
        code1, r1 = run(capsys, ["analyze", "--input", path, "--horizon", "8"])
        code2, r2 = run(capsys, ["analyze", "--input", path, "--horizon", "8"])
        r1.pop("timing_ms")
        r2.pop("timing_ms")
        assert code1 == code2 == EXIT_OK and r1 == r2

    def test_csv_and_dot_formats(self, tmp_path, capsys):
        path = write(tmp_path, "gm.json", GOLDEN)
        code, report = run(
            capsys, ["analyze", "--input", path, "--horizon", "4", "--format", "csv"]
        )
        assert code == EXIT_OK
        assert report["outputs"]["rendered"].startswith("n,p,q")
        code, report = run(
            capsys, ["analyze", "--input", path, "--horizon", "4", "--format", "dot"]
        )
        assert code == EXIT_OK
        assert report["outputs"]["rendered"].startswith("digraph")


class TestRealize:
    def test_singleton_irreducible(self, tmp_path, capsys):
        path = write(tmp_path, "d3.json", {"finite": [3], "components": [], "certified": True})
        out = tmp_path / "out.dot"
        code, report = run(
            capsys,
            [
                "realize",
                "--input",
                path,
                "--target",
                "irreducible_sft",
                "--format",
                "dot",
                "--output",
                str(out),
            ],
        )
        assert code == EXIT_OK
        assert report["outputs"]["round_trip"] is True
        assert out.read_text().startswith("digraph")

    def test_large_scale_round_trip(self, tmp_path, capsys):
        # 1000 * {n >= 1}: one component of period 1000
        payload = {"components": [{"d": 1000, "threshold": 1}]}
        path = write(tmp_path, "d1000.json", payload)
        code, report = run(
            capsys, ["realize", "--input", path, "--target", "irreducible_sft"]
        )
        assert code == EXIT_OK and report["outputs"]["round_trip"] is True

    def test_shape_rejection_exit_code(self, tmp_path, capsys):
        path = write(
            tmp_path, "two.json", {"finite": [3, 5], "components": [], "certified": True}
        )
        code, payload = run(
            capsys, ["realize", "--input", path, "--target", "irreducible_sft"]
        )
        assert code == EXIT_SHAPE
        assert payload["suggestion"] == "reducible_sft"
        code, report = run(
            capsys, ["realize", "--input", path, "--target", "reducible_sft"]
        )
        assert code == EXIT_OK and report["outputs"]["round_trip"] is True

    def test_sofic_round_trip(self, tmp_path, capsys):
        payload = {
            "finite": [],
            "components": [{"d": 2, "threshold": 3, "extras": []}],
            "certified": True,
        }
        path = write(tmp_path, "evens.json", payload)
        code, report = run(
            capsys,
            [
                "realize",
                "--input",
                path,
                "--target",
                "irreducible_sofic",
                "--horizon",
                "40",
            ],
        )
        assert code == EXIT_OK and report["outputs"]["round_trip"] is True

    def test_unknown_target_is_a_shape_rejection(self, tmp_path, capsys):
        path = write(tmp_path, "d3.json", {"finite": [3], "components": []})
        code, payload = run(
            capsys, ["realize", "--input", path, "--target", "torus"]
        )
        assert code == EXIT_SHAPE
        assert payload["error"] == "shape"
        assert "unknown target 'torus'" in payload["detail"]

    def test_no_member_within_the_handle_horizon(self, tmp_path, capsys):
        # at INPUT_NUMBER_CAP the number is accepted, and the arbitrary
        # subshift's handle, enumerated to 64, holds no member
        from periodlab.cli import INPUT_NUMBER_CAP

        path = write(tmp_path, "far.json", {"finite": [INPUT_NUMBER_CAP], "components": []})
        code, payload = run(
            capsys, ["realize", "--input", path, "--target", "arbitrary_subshift"]
        )
        assert code == EXIT_SHAPE
        assert "no member up to 64" in payload["detail"]

    def test_input_number_cap(self, tmp_path, capsys):
        from periodlab.cli import INPUT_NUMBER_CAP

        big = INPUT_NUMBER_CAP + 1
        cases = [
            (
                ["realize", "--target", "irreducible_sft"],
                {"finite": [], "components": [{"d": 2, "threshold": big}]},
                big,
            ),
            (["analyze"], {"finite": [1], "progressions": [{"a": 2, "r": big}]}, big),
            (
                # refused before the canonical form lists the evens below 10**9
                ["realize", "--target", "reducible_sft"],
                {"components": [{"d": 1, "threshold": 10**9}, {"d": 2, "threshold": 1}]},
                10**9,
            ),
        ]
        for argv, payload, number in cases:
            path = write(tmp_path, "big.json", payload)
            code, out = run(capsys, argv + ["--input", path])
            assert code == EXIT_RESOURCE
            assert out["error"] == "resource_limit"
            assert f"input number {number} exceeds INPUT_NUMBER_CAP" in out["detail"]

    def test_realize_vertex_cap(self, tmp_path, capsys):
        # sets that miss a sum of two members need the torus, and both
        # sofic targets refuse one before building a section:
        # {3} | 2 * {n >= 14} (no 3 + 28) would take 35,513 vertices and
        # 3 * {n >= 1} | 2 * {n >= 14}, closed under multiples (no 3 + 28),
        # 33,030
        tail = {"d": 2, "threshold": 14}
        cases = (
            ("irreducible_sofic", [3], [tail], 35513),
            ("period_set_variant", [], [{"d": 3, "threshold": 1}, tail], 33030),
        )
        for target, finite, components, size in cases:
            path = write(tmp_path, "torus14.json", {"finite": finite, "components": components})
            code, out = run(capsys, ["realize", "--input", path, "--target", target])
            assert code == EXIT_RESOURCE
            assert out["error"] == "resource_limit"
            assert f"{size} vertices" in out["detail"]
            assert "REALIZE_VERTEX_CAP = 30000" in out["detail"]

    def test_torus_vertex_cap_before_the_leftover_sweep(self, tmp_path, capsys):
        # 2 * {n >= 1} | 3 * {n >= T} misses 2 + 3T; at T = 160 the two tori
        # alone take 133,447 vertices and are refused before the sweep for
        # leftovers, which grows like T^4; at T = 40 the tori fit and the
        # leftover cycles pass the cap
        import time

        for threshold, size in ((160, 133447), (40, 1399939)):
            payload = {"components": [{"d": 2, "threshold": 1}, {"d": 3, "threshold": threshold}]}
            path = write(tmp_path, "torus.json", payload)
            start = time.perf_counter()
            code, out = run(capsys, ["realize", "--input", path, "--target", "irreducible_sofic"])
            assert time.perf_counter() - start < 5
            assert code == EXIT_RESOURCE
            assert f"{size} vertices" in out["detail"]
            assert "REALIZE_VERTEX_CAP = 30000" in out["detail"]

    def test_realize_gap_chain_vertex_cap(self, tmp_path, capsys):
        # 1000 * {n >= 1000} is almost sum-closed; its gap chain would take
        # the 2,000,000 zero counts below the doubling block's last gap
        path = write(tmp_path, "d1000.json", {"components": [{"d": 1000, "threshold": 1000}]})
        code, out = run(capsys, ["realize", "--input", path, "--target", "irreducible_sofic"])
        assert code == EXIT_RESOURCE
        assert out["error"] == "resource_limit"
        assert "2000000 vertices" in out["detail"]
        assert "REALIZE_VERTEX_CAP = 30000" in out["detail"]

    def test_realize_tail100_gap_chain(self, tmp_path, capsys):
        # {n >= 100} is the gap shift of {99, ..., 199}: a 200-state chain,
        # counted back to a horizon past its first 1-edges
        path = write(tmp_path, "tail100.json", {"components": [{"d": 1, "threshold": 100}]})
        argv = ["realize", "--input", path, "--target", "irreducible_sofic", "--horizon", "120"]
        code, report = run(capsys, argv)
        assert code == EXIT_OK and report["outputs"]["round_trip"] is True
        assert len(report["outputs"]["artifact"]["vertices"]) == 200

    def test_sofic_round_trip_below_the_cap(self, tmp_path, capsys):
        # {3} | 2 * {n >= 13} takes a 27,031-vertex torus; its least periods
        # are counted back up to the horizon, and the artifact file holds
        # the same graph
        payload = {"finite": [3], "components": [{"d": 2, "threshold": 13}]}
        path = write(tmp_path, "torus13.json", payload)
        artifact = tmp_path / "artifact.json"
        argv = ["realize", "--input", path, "--target", "irreducible_sofic", "--horizon", "12"]
        code, report = run(capsys, argv + ["--output", str(artifact)])
        assert code == EXIT_OK and report["outputs"]["round_trip"] is True
        assert len(report["outputs"]["artifact"]["vertices"]) == 27031
        assert json.loads(artifact.read_text()) == report["outputs"]["artifact"]

    def test_coprime_scales_read_off_the_form(self, tmp_path, capsys):
        # the tail lcm of 997, 991 and 983 is about 9.7e8; no step may
        # sweep to it
        import time

        payload = {"components": [{"d": d, "threshold": 1} for d in (997, 991, 983)]}
        path = write(tmp_path, "coprime.json", payload)
        start = time.perf_counter()
        code, report = run(capsys, ["realize", "--input", path, "--target", "reducible_sft"])
        assert time.perf_counter() - start < 10
        assert code == EXIT_OK and report["outputs"]["round_trip"] is True
        start = time.perf_counter()
        code, out = run(capsys, ["realize", "--input", path, "--target", "period_set_variant"])
        assert time.perf_counter() - start < 10
        assert code == EXIT_RESOURCE
        assert "REALIZE_VERTEX_CAP = 30000" in out["detail"]

    def test_members_below_one_are_parse_errors(self, tmp_path, capsys):
        for finite in ([-7], [0, 3]):
            path = write(tmp_path, "low.json", {"finite": finite, "components": []})
            for target in ("irreducible_sft", "reducible_sft"):
                code, out = run(capsys, ["realize", "--input", path, "--target", target])
                assert code == EXIT_PARSE
                assert out["error"] == "parse"
                assert "finite members must be >= 1" in out["detail"]

    def test_arbitrary_target(self, tmp_path, capsys):
        path = write(
            tmp_path, "arb.json", {"finite": [1, 3], "components": [], "certified": True}
        )
        code, report = run(
            capsys,
            ["realize", "--input", path, "--target", "arbitrary_subshift", "-N", "15"],
        )
        assert code == EXIT_OK
        assert report["outputs"]["artifact"]["branch"] == "finite"


class TestEmbedCheck:
    def test_pass_at_desk_scale(self, tmp_path, capsys):
        c2 = {
            "vertices": ["x", "y"],
            "edges": [
                {"id": "1", "from": "x", "to": "y"},
                {"id": "2", "from": "y", "to": "x"},
            ],
        }
        px = write(tmp_path, "c2.json", c2)
        py = write(tmp_path, "gm.json", GOLDEN)
        code, report = run(capsys, ["embed-check", px, py, "--horizon", "10"])
        assert code == EXIT_OK
        assert report["outputs"]["verdict"]["verdict"] == "pass_at_desk_scale"

    def test_equal_cycles_fail_strictness(self, tmp_path, capsys):
        c3 = {
            "vertices": ["x", "y", "z"],
            "edges": [
                {"id": "1", "from": "x", "to": "y"},
                {"id": "2", "from": "y", "to": "z"},
                {"id": "3", "from": "z", "to": "x"},
            ],
        }
        px = write(tmp_path, "a.json", c3)
        py = write(tmp_path, "b.json", c3)
        code, report = run(capsys, ["embed-check", px, py, "--horizon", "5"])
        assert code == EXIT_OK
        assert report["outputs"]["verdict"]["verdict"] == "entropy_fail"

    def test_non_mixing_rejected(self, tmp_path, capsys):
        # strict entropy gap but a period-2 target: the mixing check rejects
        doubled_golden = {
            "vertices": ["a", "b", "m1", "m2", "m3"],
            "edges": [
                {"id": "l1", "from": "a", "to": "m1"},
                {"id": "l2", "from": "m1", "to": "a"},
                {"id": "p1", "from": "a", "to": "m2"},
                {"id": "p2", "from": "m2", "to": "b"},
                {"id": "q1", "from": "b", "to": "m3"},
                {"id": "q2", "from": "m3", "to": "a"},
            ],
        }
        c2 = {
            "vertices": ["x", "y"],
            "edges": [
                {"id": "1", "from": "x", "to": "y"},
                {"id": "2", "from": "y", "to": "x"},
            ],
        }
        px = write(tmp_path, "x.json", c2)
        py = write(tmp_path, "y.json", doubled_golden)
        code, payload = run(capsys, ["embed-check", px, py, "--horizon", "5"])
        assert code == EXIT_SHAPE

    def test_empty_x_certificate_is_first_positive_trace(self, tmp_path, capsys):
        # Y: a 2-cycle and a 3-cycle through v, mixing with p_1 = 0 and
        # p_2 = 2, so the certificate 0 < p_k(Y) needs k = 2
        y = {
            "vertices": ["v", "a", "b", "c"],
            "edges": [
                {"id": "va", "from": "v", "to": "a"},
                {"id": "av", "from": "a", "to": "v"},
                {"id": "vb", "from": "v", "to": "b"},
                {"id": "bc", "from": "b", "to": "c"},
                {"id": "cv", "from": "c", "to": "v"},
            ],
        }
        px = write(tmp_path, "x.json", {"vertices": [], "edges": []})
        py = write(tmp_path, "y.json", y)
        code, report = run(capsys, ["embed-check", px, py, "--horizon", "6"])
        assert code == EXIT_OK
        verdict = report["outputs"]["verdict"]
        assert verdict["verdict"] == "pass_at_desk_scale"
        assert verdict["entropy_certificate"] == {"j": 1, "k": 2}

    def test_empty_x_into_entropy_zero_target(self, tmp_path, capsys):
        # both shifts are empty as shifts (Y has no cycle): h(X) < h(Y)
        # fails, which is reported before Y's mixing property is looked at
        y = {"vertices": ["a", "b"], "edges": [{"id": "ab", "from": "a", "to": "b"}]}
        px = write(tmp_path, "x.json", {"vertices": [], "edges": []})
        py = write(tmp_path, "y.json", y)
        code, report = run(capsys, ["embed-check", px, py, "--horizon", "5"])
        assert code == EXIT_OK
        verdict = report["outputs"]["verdict"]
        assert verdict["verdict"] == "entropy_fail"
        assert verdict["reason"] == "strict_inequality_not_certified"


class TestLayers:
    def test_even_shift_layers(self, tmp_path, capsys):
        path = write(tmp_path, "even.json", EVEN)
        code, report = run(capsys, ["layers", "--input", path, "--horizon", "6"])
        assert code == EXIT_OK
        layers = {
            (entry["layer"], entry["component"]): entry["periods"]
            for entry in report["outputs"]["layers"]
        }
        assert layers[(1, 0)] == [1, 3, 4, 5, 6]
        assert layers[(2, 0)] == [1]


class TestEnvironment:
    def test_oracle_cap_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PERIODLAB_ORACLE_CAP", "4")
        path = write(tmp_path, "gm.json", GOLDEN)
        code, report = run(capsys, ["analyze", "--input", path, "--horizon", "10"])
        assert code == EXIT_OK
        assert report["oracle_agreement"]["oracle_horizon"] == 4
        # the flag wins over the environment, and the parser, built once,
        # reads neither at build time
        code, report = run(
            capsys,
            ["analyze", "--input", path, "--horizon", "10", "--oracle-cap", "6"],
        )
        assert report["oracle_agreement"]["oracle_horizon"] == 6
        monkeypatch.delenv("PERIODLAB_ORACLE_CAP")
        code, report = run(capsys, ["analyze", "--input", path, "--horizon", "30"])
        assert report["oracle_agreement"]["oracle_horizon"] == 20

    def test_oracle_cap_env_not_an_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PERIODLAB_ORACLE_CAP", "many")
        path = write(tmp_path, "gm.json", GOLDEN)
        code, payload = run(capsys, ["analyze", "--input", path, "--horizon", "4"])
        assert code == EXIT_PARSE
        assert payload["error"] == "parse"
        assert "PERIODLAB_ORACLE_CAP" in payload["detail"]

    def test_resource_limit_exit_code(self, tmp_path, capsys):
        dense = {
            "vertices": ["v"],
            "edges": [
                {"id": f"e{i}", "from": "v", "to": "v"} for i in range(12)
            ],
        }
        path = write(tmp_path, "dense.json", dense)
        code, payload = run(
            capsys,
            ["analyze", "--input", path, "--horizon", "9", "--oracle-cap", "9"],
        )
        assert code == EXIT_RESOURCE
        assert payload["error"] == "resource_limit"
        # refused from p_1 + ... + p_9 = 12 + ... + 12^9, before enumerating
        assert "5628851292 closed paths up to n=9" in payload["detail"]
        assert "DEFAULT_PATH_BUDGET = 2000000" in payload["detail"]

    def test_oracle_path_budget_boundary(self, tmp_path, capsys, monkeypatch):
        from periodlab import cli

        # the golden mean has p_1 + ... + p_10 = 319 closed paths
        path = write(tmp_path, "gm.json", GOLDEN)
        argv = ["analyze", "--input", path, "--horizon", "10"]
        monkeypatch.setattr(cli, "DEFAULT_PATH_BUDGET", 319)
        code, report = run(capsys, argv)
        assert code == EXIT_OK and report["oracle_agreement"]["p_counts"] is True
        monkeypatch.setattr(cli, "DEFAULT_PATH_BUDGET", 318)
        code, payload = run(capsys, argv)
        assert code == EXIT_RESOURCE
        assert "319 closed paths up to n=10" in payload["detail"]


class TestResourceLimits:
    def test_threshold_search_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        from periodlab import sft_counting

        # the cap bounds only the growth certificate of embed-check's
        # all-n crossover; analyze certifies its tails by return lengths
        # and loops, so a cap far below the golden mean's n* = 209 changes
        # nothing there, and embed-check reports the crossover uncertified
        c2 = {
            "vertices": ["x", "y"],
            "edges": [
                {"id": "1", "from": "x", "to": "y"},
                {"id": "2", "from": "y", "to": "x"},
            ],
        }
        gm = write(tmp_path, "gm.json", GOLDEN)
        px = write(tmp_path, "c2.json", c2)
        analyze = ["analyze", "--input", gm, "--horizon", "6"]
        embed = ["embed-check", px, gm, "--horizon", "10"]
        reports = []
        for cap in (sft_counting.THRESHOLD_SEARCH_CAP, 8):
            monkeypatch.setattr(sft_counting, "THRESHOLD_SEARCH_CAP", cap)
            code, report = run(capsys, analyze)
            assert code == EXIT_OK
            report.pop("timing_ms")
            reports.append(report)
            code, report = run(capsys, embed)
            assert code == EXIT_OK
            verdict = report["outputs"]["verdict"]
            assert verdict["verdict"] == "pass_at_desk_scale"
            assert verdict["certified_all_n"] is (cap != 8)
        assert reports[0] == reports[1]

    def test_mobius_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        from periodlab import arith
        from periodlab.cli import EXIT_RESOURCE

        monkeypatch.setattr(arith, "MOBIUS_CAP", 5)
        path = write(tmp_path, "gm.json", GOLDEN)
        code, payload = run(capsys, ["analyze", "--input", path, "--horizon", "8"])
        assert code == EXIT_RESOURCE
        assert payload["error"] == "resource_limit"
        assert "mobius" in payload["detail"]

    def test_walk_dp_cap_exit_code(self, tmp_path, capsys):
        import time

        from periodlab.graph_core import WALK_DP_CAP

        # forbidding 0^14 leaves an 8,191-vertex recode that is all core:
        # its one walk-count DP, to the least-period threshold's n = 39
        # (past the horizon 12), would take 8191 * 16382 * 39 steps
        spec = {"alphabet": ["0", "1"], "forbidden": [["0"] * 14]}
        path = write(tmp_path, "zeros.json", spec)
        start = time.perf_counter()
        code, payload = run(capsys, ["analyze", "--input", path])
        assert time.perf_counter() - start < 10
        assert code == EXIT_RESOURCE
        assert payload["error"] == "resource_limit"
        assert f"{8191 * 16382 * 39} steps" in payload["detail"]
        assert f"WALK_DP_CAP = {WALK_DP_CAP}" in payload["detail"]

    def test_recode_block_cap_exit_code(self, tmp_path, capsys):
        from periodlab.sft_counting import RECODE_BLOCK_CAP

        # a forbidden word of length 40 would need all 2^39 39-blocks
        spec = {"alphabet": ["0", "1"], "forbidden": [["0", "1"] * 20]}
        path = write(tmp_path, "long.json", spec)
        code, payload = run(capsys, ["analyze", "--input", path])
        assert code == EXIT_RESOURCE
        assert payload["error"] == "resource_limit"
        assert f"2^39 = {2**39} blocks" in payload["detail"]
        assert f"RECODE_BLOCK_CAP = {RECODE_BLOCK_CAP}" in payload["detail"]

    def test_layer_max_states_exit_code(self, tmp_path, capsys):
        from periodlab.cli import EXIT_RESOURCE
        from periodlab.sofic import LAYER_MAX_STATES

        n = LAYER_MAX_STATES + 1
        ring = {
            "vertices": [f"r{i}" for i in range(n)],
            "edges": [
                {"id": f"e{i}", "from": f"r{i}", "to": f"r{(i + 1) % n}", "label": "0"}
                for i in range(n)
            ],
        }
        path = write(tmp_path, "ring.json", ring)
        code, payload = run(capsys, ["layers", "--input", path, "--horizon", "4"])
        assert code == EXIT_RESOURCE
        assert payload["error"] == "resource_limit"
        assert f"<= {LAYER_MAX_STATES} states, got {n}" in payload["detail"]

    def test_usage_errors_are_parse_errors(self, tmp_path, capsys):
        # each subcommand takes only the options it reads; anything else,
        # and a mistyped value, is a parse error reported on stdout
        path = write(tmp_path, "even.json", EVEN)
        out_file = tmp_path / "f.json"
        cases = [
            (["analyze", "--input", path, "--bogus"], "unrecognized arguments: --bogus"),
            (["analyze", "--input", path, "--output", str(out_file)], "--output"),
            (["realize", "--input", path, "--horizon", "x"], "invalid int value: 'x'"),
            (["realize", "--input", path, "--target", "irreducible_sft", "--format", "csv"],
             "invalid choice: 'csv'"),
            (["realize", "--input", path], "--target"),
            (["layers", "--input", path, "--oracle-cap", "3", "--format", "csv",
              "--output", str(out_file)], "unrecognized arguments"),
            (["embed-check", path, path, "--format", "dot"], "unrecognized arguments"),
            (["embed-check", path, path, "--oracle-cap", "3"], "unrecognized arguments"),
            (["layers"], "--input"),
            (["verify", "--input", path], "invalid choice: 'verify'"),
            ([], "command"),
        ]
        for argv, detail in cases:
            code = main(argv)
            captured = capsys.readouterr()
            assert code == EXIT_PARSE, argv
            payload = json.loads(captured.out)
            assert payload["error"] == "parse"
            assert detail in payload["detail"], (argv, payload)
            assert captured.err == ""
        assert not out_file.exists()

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        path = write(tmp_path, "gm.json", GOLDEN)
        code, report = run(capsys, ["analyze", "--input", path, "--horizon", "4"])
        assert code == EXIT_OK and "seed" not in report
        code, payload = run(capsys, ["analyze", "--input", path, "--seed", "1"])
        assert code == EXIT_PARSE and payload["error"] == "parse"
        assert "--seed" in payload["detail"]


class TestInternalError:
    def test_unexpected_exception_exit_code(self, tmp_path, capsys, monkeypatch):
        from periodlab import cli

        def broken(args):
            raise RuntimeError("unexpected state")

        monkeypatch.setattr(cli, "cmd_analyze", broken)
        path = write(tmp_path, "gm.json", GOLDEN)
        code = main(["analyze", "--input", path, "--horizon", "4"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL == 6
        assert json.loads(captured.out) == {
            "error": "internal",
            "detail": "RuntimeError: unexpected state",
        }
        # the traceback goes to stderr for diagnosis
        assert captured.err.startswith("Traceback")
        assert "in broken" in captured.err
        assert captured.err.rstrip().endswith("RuntimeError: unexpected state")

    def test_internal_value_error_is_not_a_shape_rejection(
        self, tmp_path, capsys, monkeypatch
    ):
        from periodlab import cli

        def broken(g, N):
            raise ValueError("bug in the count table")

        monkeypatch.setattr(cli, "sft_analysis", broken)
        path = write(tmp_path, "gm.json", GOLDEN)
        code = main(["analyze", "--input", path, "--horizon", "4"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL
        assert json.loads(captured.out) == {
            "error": "internal",
            "detail": "ValueError: bug in the count table",
        }

    def test_witness_assertion_exit_code(self, tmp_path, capsys, monkeypatch):
        # a class representative whose period the exact count misses is a
        # bug in the counting pass, reported as an internal error
        from periodlab import cli, sofic

        def bad_counts(lg, N):
            return [0] * N, {1: "0"}

        monkeypatch.setattr(sofic, "sofic_period_counts", bad_counts)
        path = write(tmp_path, "even.json", EVEN)
        code, payload = run(capsys, ["analyze", "--input", path, "--horizon", "4"])
        assert code == cli.EXIT_INTERNAL
        assert payload["error"] == "internal"
        assert "witnessed period missing" in payload["detail"]


class ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    def test_closed_stdout_exit_code(self, tmp_path, capsys, monkeypatch):
        from periodlab.cli import EXIT_OUTPUT_CLOSED

        path = write(tmp_path, "gm.json", GOLDEN)
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        code = main(["analyze", "--input", path, "--horizon", "6"])
        assert code == EXIT_OUTPUT_CLOSED == 7
        assert capsys.readouterr().err == ""

    def test_closed_stdout_on_an_error_report(self, tmp_path, capsys, monkeypatch):
        from periodlab.cli import EXIT_OUTPUT_CLOSED

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        code = main(["analyze", "--input", str(tmp_path / "missing.json")])
        assert code == EXIT_OUTPUT_CLOSED
        assert capsys.readouterr().err == ""


# -- fuzzing --------------------------------------------------------------------

FUZZ_BASES = [
    ("analyze", GOLDEN),
    ("analyze", EVEN),
    ("analyze", {"finite": [1], "progressions": [{"a": 2, "r": 3}]}),
    ("analyze", {"alphabet": ["0", "1"], "forbidden": [["1", "1"]]}),
    ("realize", {"finite": [3], "components": [], "certified": True}),
    (
        "realize",
        {"finite": [5], "components": [{"d": 2, "threshold": 3, "extras": [1]}]},
    ),
    ("layers", EVEN),
]
FUZZ_TARGETS = [
    "irreducible_sft",
    "reducible_sft",
    "irreducible_sofic",
    "arbitrary_subshift",
    "period_set_variant",
    "no_such_target",
]
WRONG_TYPES = [None, True, "x", 1.5, [], {}, [1], {"a": 1}]
ODD_NUMBERS = [-7, -1, 0, 10**6, 10**12, 2**64]


def json_paths(x, prefix=()):
    """Every position in a JSON value, the value itself first."""
    yield prefix
    if isinstance(x, dict):
        items = x.items()
    elif isinstance(x, list):
        items = enumerate(x)
    else:
        return
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(draw, doc):
    """One mutation: a dropped field or element, a value of the wrong type,
    a negative or huge number, or an edge endpoint naming no vertex."""
    kind = draw(st.sampled_from(["drop", "wrong_type", "number", "dangling"]))
    if kind == "dangling":
        ends = [
            p
            for p in json_paths(doc)
            if len(p) == 3 and p[0] == "edges" and p[2] in ("from", "to")
        ]
        if ends:
            end = draw(st.sampled_from(ends))
            doc["edges"][end[1]][end[2]] = "ghost"
            return doc
        kind = "number"
    paths = list(json_paths(doc))
    if kind == "number":
        # numbers go where numbers are, when there are any
        numeric = [p for p in paths if type(value_at(doc, p)) is int]
        paths = numeric or paths
    path = draw(st.sampled_from(paths))
    if not path:
        return doc if kind == "drop" else draw(st.sampled_from(WRONG_TYPES + ODD_NUMBERS))
    parent = value_at(doc, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "wrong_type":
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))
    else:
        parent[path[-1]] = draw(st.sampled_from(ODD_NUMBERS))
    return doc


class TestFuzz:
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_inputs(self, tmp_path, capsys, data):
        # every mutated input ends in a documented exit code that is not an
        # internal error, with exactly one JSON value on stdout
        command, base = data.draw(st.sampled_from(FUZZ_BASES))
        doc = copy.deepcopy(base)
        for _ in range(data.draw(st.integers(1, 3))):
            doc = mutate(data.draw, doc)
        path = write(tmp_path, "fuzz.json", doc)
        argv = [command, "--input", path, "--horizon", str(data.draw(st.integers(1, 5)))]
        if command == "realize":
            argv += ["--target", data.draw(st.sampled_from(FUZZ_TARGETS))]
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_SHAPE, EXIT_RESOURCE), (argv, doc, out)
        json.loads(out)


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.sampled_from(['"\\\n\t\x00\x7f', "é→😀", " \ud800"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(value=JSON_VALUES)
    def test_matches_stdlib_indented_json(self, value):
        assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_unserializable_value(self):
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            _json_text({"a": [1, {2}]})
