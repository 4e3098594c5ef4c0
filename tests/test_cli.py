import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fntwist import cli
from fntwist.cli import (format_csv, format_flow_json, main, parse_projection, render_svg,
                         sample_flow)
from fntwist import AnnulusCoords, TwistRangeError, core_geodesic, twist_p_form
from util import (first_difference, format_csv_reference, format_flow_json_reference,
                  load_benchmark_module, max_rel, rel_err, svg_points_reference)

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


def csv_text(samples) -> str:
    out = io.StringIO()
    format_csv(samples, out)
    return out.getvalue()


def json_text(coords, t_max, steps, samples) -> str:
    out = io.StringIO()
    format_flow_json(coords, t_max, steps, samples, out)
    return out.getvalue()


class CountingSink:
    """A text stream that keeps only the number of writes and of characters written."""

    def __init__(self):
        self.writes = self.chars = 0

    def write(self, text):
        self.writes += 1
        self.chars += len(text)


class TestTwistCommand:
    def test_dehn_values_json(self, capsys):
        assert run(["twist", "--coords", "1,1,1,1", "--t", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["output"] == pytest.approx([0.25, 1.0, 2.0, 2.0], rel=1e-12)
        assert payload["L"] == pytest.approx(1.9248473002, abs=1e-9)
        assert payload["trace"] == pytest.approx(3.0)
        assert payload["input"] == {"coords": [1.0, 1.0, 1.0, 1.0], "t": 1.0}

    def test_zero_twist(self, capsys):
        assert run(["twist", "--coords", "1,1,1,1", "--t", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["output"] == pytest.approx([1.0, 1.0, 1.0, 1.0], rel=1e-12)

    def test_csv_format(self, capsys):
        assert run(["twist", "--coords", "1,1,1,1", "--t", "1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "X1,X2,X3,X4,L,trace"
        values = [float(v) for v in lines[1].split(",")]
        assert values[:4] == pytest.approx([0.25, 1.0, 2.0, 2.0], rel=1e-12)
        assert out.endswith("\n")

    def test_invalid_coords_exit_one(self, capsys):
        assert run(["twist", "--coords", "1,-1,1,1"]) == 1
        err = capsys.readouterr().err
        assert "X2" in err and "positive" in err

    @pytest.mark.parametrize("argv, message", [
        (["twist", "--coords", "1e200,1e200,1,1", "--t", "0"],
         "holonomy trace is out of range: |trace| = nan is not finite "
         "for X1 = 1e+200, X2 = 1e+200"),
        (["twist", "--coords", "1e300,1e10,1,1", "--t", "0"],
         "holonomy trace is out of range: |trace| = nan is not finite "
         "for X1 = 1e+300, X2 = 10000000000.0"),
        (["twist", "--coords", "1.5e308,0.5,1,1", "--t", "0"],
         "holonomy trace is out of range: |trace| = inf is not finite "
         "for X1 = 1.5e+308, X2 = 0.5"),
        (["twist", "--coords", "1e-200,1e-200,1,1", "--t", "0.1"],
         "holonomy trace is out of range: X1 * X2 = 0.0 is below the smallest normal double "
         "for X1 = 1e-200, X2 = 1e-200"),
        (["twist", "--coords", "3e-162,1e-162,1,1", "--t", "0.1"],
         "holonomy trace is out of range: X1 * X2 = 5e-324 is below the smallest normal double "
         "for X1 = 3e-162, X2 = 1e-162"),
        (["twist", "--coords", "1e200,1,1,1", "--t", "0.1"],
         "core geodesic discriminant overflows for X1 = 1e+200, X2 = 1.0"),
        # X1' = 5.6e-316 is subnormal: it kept too few bits to be returned
        (["twist", "--coords", "1e-300,1e-5,1,1", "--t", "0.05"],
         "twisted coordinates (5.62341323e-316, 17782794100.38929, 1.0, 1.0) left the normal "
         "positive finite range for coords (1e-300, 1e-05, 1.0, 1.0), t = 0.05; "
         "result not representable"),
        (["flow", "--coords", "1e160,1,1,1", "--t", "0.1", "--steps", "2"],
         "core geodesic discriminant overflows for X1 = 1e+160, X2 = 1.0"),
    ], ids=["nan-trace", "nan-trace-overflowed-product", "inf-trace", "underflowed-denominator",
            "subnormal-product", "twist-discriminant", "subnormal-result", "flow-discriminant"])
    def test_out_of_range_quadruple_names_x1_x2(self, capsys, argv, message):
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_not_hyperbolic_names_x1_x2(self, capsys):
        assert run(["twist", "--coords", "1e-12,1e12,1,1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: holonomy is not hyperbolic") and err.count("\n") == 1
        assert "X1 = 1e-12, X2 = 1000000000000.0" in err

    def test_vanishing_axis_gap_exit_one(self, capsys):
        coords = ("6.927466975807279e-260,1.6092792496758436e+53,"
                  "1.6095569403158126e-128,1.3035491324448617e+186")
        assert run(["twist", "--coords", coords, "--t", "-1.246898869987229"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the axis gap vanished") and err.count("\n") == 1
        assert f"({coords.replace(',', ', ')}), t = -1.246898869987229" in err

    def test_subnormal_intermediate_exit_one(self, capsys):
        # x1 * axis_sq * moved * fixed is 4.9e-324; divided, it gave X1' = 1.27e-185, not 6.78e-186
        coords = ("6.240413128754087e-70,5.465619396542107e+78,"
                  "5.74639131112284e+180,4.1834211876723263e+157")
        assert run(["twist", "--coords", coords, "--t", "28.68385713350821"]) == 1
        assert capsys.readouterr() == (
            "", f"error: an intermediate product underflowed for coords "
                f"({coords.replace(',', ', ')}), t = 28.68385713350821; result not representable\n")

    def test_cancelling_axis_gap_exit_zero(self, capsys):
        # p1 rounds to 1 and x1 + p2 to 0; the guarded identity gives the axis gap
        coords = "2.3647617156901504e-12,2.78013075470335e-12,3.2912851745561317e-10,657824.7683302268"
        assert run(["twist", "--coords", coords, "--t", "-8.04826917421387"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and len(json.loads(captured.out)["output"]) == 4

    def test_wrong_arity_exit_one(self, capsys):
        assert run(["twist", "--coords", "1,2,3"]) == 1
        assert "four" in capsys.readouterr().err

    def test_unknown_method_exit_one(self, capsys):
        # p-form is the only production route; --method and the ignored --seed are gone
        assert run(["twist", "--coords", "1,1,1,1", "--method", "closed"]) == 1
        assert run(["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "10",
                    "--seed", "0"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDehnCommand:
    def test_forward(self, capsys):
        assert run(["dehn", "--coords", "1,1,1,1", "--m", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["output"] == pytest.approx([0.25, 1.0, 2.0, 2.0], rel=1e-15)

    def test_inverse(self, capsys):
        assert run(["dehn", "--coords", "0.25,1,2,2", "--m", "-1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["output"] == pytest.approx([1.0, 1.0, 1.0, 1.0], rel=1e-12)

    def test_report_needs_no_axis(self, capsys):
        # the axis endpoints' discriminant overflows at X1 = 1e200; the report reads only L and trace
        assert run(["dehn", "--coords", "1e200,1,1,1", "--m", "-1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # the exact map gives [1, 4e200, 1/2, 1/2]; the translation is 5.2e-14 off, as
        # h = -462 is held to its ulp, 5.7e-14, and sinh h, cosh h turn that into relative error
        exact = load_benchmark_module("reference").dehn_exact((1e200, 1.0, 1.0, 1.0), -1)
        assert max_rel(payload["output"], [float(e) for e in exact]) < 1e-13
        assert payload["trace"] == 2e100

    @pytest.mark.parametrize("m", [170, 200, -170])
    def test_long_count_exits_zero(self, m, capsys):
        # a loop of rational steps underflowed X1 at m = 170 and overflowed (1 + X2)^2 at -170
        assert run(["dehn", "--coords", "1.3,0.7,2,0.5", "--m", str(m)]) == 0
        output = json.loads(capsys.readouterr().out)["output"]
        exact = load_benchmark_module("reference").twist_reference((1.3, 0.7, 2.0, 0.5), float(m))
        assert max_rel(output, [float(e) for e in exact]) < 1e-10

    def test_near_parabolic_input_exits_zero(self, capsys):
        # length_trace refuses this trace, 2 + 1e-12, as too close to 2; the translation serves it
        assert run(["dehn", "--coords", "1e-12,1e12,1,1", "--m", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        reference = load_benchmark_module("reference")
        exact = reference.twist_reference((1e-12, 1e12, 1.0, 1.0), 1.0)
        assert max_rel(payload["output"], [float(e) for e in exact]) < 1e-10
        assert rel_err(payload["L"], reference.core_length((1e-12, 1e12))) < 1e-10
        assert rel_err(payload["trace"], 2.000000000001) < 1e-15

    @pytest.mark.parametrize("m", [10**8, 10**400], ids=["1e8", "1e400"])
    def test_count_beyond_cap_exit_one(self, m, capsys):
        assert run(["dehn", "--coords", "1e-10,1e10,1,1", "--m", str(m)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: |m| * L exceeds 650.0 ") and err.count("\n") == 1
        assert f"(1e-10, 10000000000.0, 1.0, 1.0), m = {m};" in err


class TestFlowCommand:
    def test_csv_artifact(self, tmp_path):
        out = tmp_path / "flow.csv"
        assert run(["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "10",
                    "--out", str(out)]) == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "t,X1,X2,X3,X4,L,trace"
        assert len(lines) == 12  # header + 11 samples
        assert text.endswith("\n")
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[0] == 0.0
        assert first[1:5] == pytest.approx([1.0, 1.0, 1.0, 1.0], rel=1e-12)
        assert last[0] == 1.0
        assert last[1:5] == pytest.approx([0.25, 1.0, 2.0, 2.0], rel=1e-12)
        for line in lines[1:]:
            fields = [float(v) for v in line.split(",")]
            assert all(v > 0.0 for v in fields[1:5])
            assert rel_err(fields[6], 3.0) < 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "10"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_json_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["flow", "--coords", "2,3,0.5,4", "--t", "2", "--steps", "7",
                "--format", "json"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_span_beyond_cap_fails_before_sampling(self, monkeypatch, capsys):
        def unexpected(*_args):
            raise AssertionError("flow sampled a span whose end is out of range")

        monkeypatch.setattr(cli, "twist_from_core", unexpected)
        # L = 1.92..., so t L = 770 at the end of the span, above the cap 650
        assert run(["flow", "--coords", "1,1,1,1", "--t", "400"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: |t| * L = ") and err.count("\n") == 1
        assert "coords (1.0, 1.0, 1.0, 1.0), t = 400.0;" in err

    def test_rejected_sample_names_its_t_and_the_input(self, capsys):
        # the input passes the trace check; its t = 0 sample rounds to within the margin
        argv = ["flow", "--coords", "1.0001e-12,999900000000,1,1", "--t", "1", "--steps", "10"]
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: holonomy is not hyperbolic: |trace| = 2.000000000001 is too close "
                       "to 2 for X1 = 1.0000999999999997e-12, X2 = 999900000000.0004; flow sample "
                       "at t = 0.0 from coords (1.0001e-12, 999900000000.0, 1.0, 1.0)\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rejected_sample_writes_no_file(self, fmt, tmp_path):
        out, svg = tmp_path / f"flow.{fmt}", tmp_path / "flow.svg"
        assert run(["flow", "--coords", "1.0001e-12,999900000000,1,1", "--t", "1",
                    "--format", fmt, "--out", str(out), "--svg", str(svg)]) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_equals_out_file_bytes(self, fmt, tmp_path):
        # several blocks through an unbuffered stdout, where each block is one write(2)
        argv = [sys.executable, "-m", "fntwist.cli", "flow", "--coords", "1,1,1,1", "--t", "1",
                "--steps", str(3 * cli._BLOCK), "--format", fmt]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONUNBUFFERED="1")
        piped = subprocess.run(argv, env=env, capture_output=True, check=True, timeout=60)
        out = tmp_path / f"flow.{fmt}"
        subprocess.run(argv + ["--out", str(out)], env=env, check=True, timeout=60)
        assert piped.stdout == out.read_bytes()
        assert piped.stdout.count(b"\n") > 3 * cli._BLOCK

    def test_readme_example_matches_golden_digests(self, tmp_path):
        golden = ROOT / "benchmarks" / "golden_sha256.json"
        recorded = json.loads(golden.read_text())
        args = ["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "100",
                "--proj", "logX1,logX2"]
        assert run(args + ["--out", str(tmp_path / "flow.csv"),
                           "--svg", str(tmp_path / "flow.svg")]) == 0
        assert run(args + ["--format", "json", "--out", str(tmp_path / "flow.json")]) == 0
        for name in ("flow.csv", "flow.json", "flow.svg"):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == recorded[name], name

    def test_json_schema(self, tmp_path):
        out = tmp_path / "flow.json"
        assert run(["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "4",
                    "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["input"] == {"coords": [1.0, 1.0, 1.0, 1.0], "t_max": 1.0, "steps": 4}
        assert set(payload["invariants"]) == {"L", "trace"}
        assert len(payload["samples"]) == 5
        assert set(payload["samples"][0]) == {"t", "X1", "X2", "X3", "X4", "L", "trace"}

    def test_svg_artifact(self, tmp_path):
        out = tmp_path / "flow.csv"
        svg = tmp_path / "flow.svg"
        assert run(["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "10",
                    "--out", str(out), "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert 'viewBox="0 0 800 600"' in text
        assert "polyline" in text and "magenta" in text
        assert "t=0" in text and "t=1" in text

    def test_custom_projection(self, tmp_path):
        svg = tmp_path / "p.svg"
        assert run(["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "10",
                    "--out", str(tmp_path / "p.csv"), "--svg", str(svg),
                    "--proj", "X1,X3"]) == 0
        assert "X1" in svg.read_text()

    def test_single_step_writes_two_rows(self, capsys):
        assert run(["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3  # header, then the samples at t = 0 and t = 1
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]

    def test_nonpositive_span_flows_from_zero(self, capsys):
        # a zero span is a constant flow; a negative one flows backwards, from t = 0.0, not -0.0
        assert run(["flow", "--coords", "1,1,1,1", "--t", "0", "--steps", "4"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 5 and len(set(rows)) == 1 and rows[0].startswith("0,")
        assert run(["flow", "--coords", "1,1,1,1", "--t", "-1", "--steps", "4"]) == 0
        rows = [[float(v) for v in line.split(",")]
                for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[0] for row in rows] == [0.0, -0.25, -0.5, -0.75, -1.0]
        assert math.copysign(1.0, rows[0][0]) == 1.0
        assert rows[-1][1:5] == pytest.approx([1.0, 4.0, 0.5, 0.5], rel=1e-12)  # dehn_twist at -1
        assert run(["flow", "--coords", "1,1,1,1", "--t", "-1", "--steps", "4",
                    "--format", "json"]) == 0
        assert '"samples": [\n    {\n      "t": 0.0,\n' in capsys.readouterr().out

    @pytest.mark.parametrize("t, message", [
        ("inf", "error: twist parameter must be finite, got inf\n"),  # sample_flow's _growth
        ("nan", "error: twist parameter must be finite, got nan\n"),
    ])
    def test_non_finite_span_exit_one(self, t, message, capsys):
        assert run(["flow", "--coords", "1,1,1,1", "--t", t]) == 1
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_steps_below_one_exit_one(self, steps, capsys):
        assert run(["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", steps]) == 1
        assert capsys.readouterr() == ("", f"error: steps must be at least 1, got {steps}\n")

    def test_bad_projection_usage_error(self, capsys):
        assert run(["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "10",
                    "--proj", "logX9,X1"]) == 1
        assert "projection" in capsys.readouterr().err

    def test_unwritable_path_exit_one(self, capsys):
        assert run(["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "10",
                    "--out", "/nonexistent-dir/x.csv"]) == 1
        assert capsys.readouterr().err


class TestSampleFlow:
    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_raises(self, steps):
        with pytest.raises(ValueError, match=rf"^steps must be at least 1, got {steps}$"):
            sample_flow(AnnulusCoords(1, 1, 1, 1), 1.0, steps)

    @pytest.mark.parametrize("t_max", [-2.0, -0.0, 0.0, 2.0])
    def test_first_sample_is_positive_zero(self, t_max):
        t = sample_flow(AnnulusCoords(1, 1, 1, 1), t_max, 4)[0][0]
        assert t == 0.0 and math.copysign(1.0, t) == 1.0

    def test_span_beyond_cap_raises_before_sampling(self, monkeypatch):
        def unexpected(*_args):
            raise AssertionError("sample_flow twisted a span whose end is out of range")

        monkeypatch.setattr(cli, "twist_from_core", unexpected)
        with pytest.raises(TwistRangeError,
                           match=r"coords \(1\.0, 1\.0, 1\.0, 1\.0\), t = 400\.0;"):
            sample_flow(AnnulusCoords(1, 1, 1, 1), 400.0, 10)

    @pytest.mark.parametrize("t_max, error", [(math.nan, ValueError), (10**400, TwistRangeError)],
                             ids=["nan", "1e400"])
    def test_bad_span_raises_before_sampling(self, monkeypatch, t_max, error):
        def unexpected(*_args):
            raise AssertionError("sample_flow twisted a span it should have rejected")

        monkeypatch.setattr(cli, "twist_from_core", unexpected)
        with pytest.raises(error):
            sample_flow(AnnulusCoords(1, 1, 1, 1), t_max, 10)


class TestFlowAcrossShiftedBranch:
    # the flow-export benchmark's seed-1 start: at t_max = 250 the trajectory
    # crosses |t L| = 300, where the kernel switches to the shifted exponent
    START = AnnulusCoords(0.7021313130275187, 1.0442750112350174,
                          1.9802443731858395, 0.5830781685819689)
    T_MAX, STEPS = 250.0, 2000

    @pytest.fixture(scope="class")
    def samples(self):
        return sample_flow(self.START, self.T_MAX, self.STEPS)

    def test_rows_equal_twist_p_form_exactly(self, samples):
        assert self.T_MAX * core_geodesic(self.START)[0] > 300.0
        assert len(samples) == self.STEPS + 1
        for i, row in enumerate(samples):
            t = i * self.T_MAX / self.STEPS
            point = twist_p_form(self.START, t)
            length, trace, _, _ = core_geodesic(point)
            # every value is a positive finite float or t = 0.0, so == is bit equality
            assert row == (t, *point.as_tuple(), length, trace)

    def test_formatters_equal_reference_bytes(self, samples):
        assert csv_text(samples) == format_csv_reference(samples)
        assert (json_text(self.START, self.T_MAX, self.STEPS, samples)
                == format_flow_json_reference(self.START, self.T_MAX, self.STEPS, samples))

    @pytest.mark.parametrize("proj", ["logX1,logX2", "X3,X4"])
    def test_svg_points_equal_per_point_reference(self, samples, proj):
        axes = parse_projection(proj)
        text = render_svg([(samples, "magenta")], axes)
        points = re.findall(r'<polyline points="([^"]*)"', text)
        assert points == [svg_points_reference(samples, axes)]


# (L, trace) pairs for drawn rows: positive finite floats, each also one ulp off in L or trace
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_PAIRS = st.lists(st.tuples(_POSITIVE, _POSITIVE), min_size=1, max_size=4).map(
    lambda pairs: pairs + [(math.nextafter(a, 1.0), b) for a, b in pairs]
    + [(a, math.nextafter(b, 1.0)) for a, b in pairs])


class TestFormatterBytes:
    # format_csv and format_flow_json format each distinct (L, trace) pair once and reuse it
    START = AnnulusCoords(1, 1, 1, 1)

    def test_long_flow_equals_reference_bytes(self):
        samples = sample_flow(self.START, 1.0, 20000)
        assert len({s[3:5] for s in samples}) > 19000  # X3, X4 move on every row here
        assert first_difference(csv_text(samples), format_csv_reference(samples)) is None
        assert first_difference(json_text(self.START, 1.0, 20000, samples),
                                format_flow_json_reference(self.START, 1.0, 20000, samples)) is None

    @pytest.mark.parametrize("rows", [1, cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1,
                                      2 * cli._BLOCK + 1])
    def test_block_edges_equal_reference_bytes(self, rows):
        samples = sample_flow(self.START, 1.0, 2 * cli._BLOCK + 1)[:rows]
        assert csv_text(samples) == format_csv_reference(samples)
        assert (json_text(self.START, 1.0, rows, samples)
                == format_flow_json_reference(self.START, 1.0, rows, samples))

    @pytest.mark.parametrize("steps", [1, cli._BLOCK, 20000])
    def test_one_write_per_block(self, steps):
        samples = sample_flow(self.START, 1.0, steps)
        bound = -(-len(samples) // cli._BLOCK) + 2  # the header, the blocks, the JSON trailer
        for write in (lambda sink: format_csv(samples, sink),
                      lambda sink: format_flow_json(self.START, 1.0, steps, samples, sink)):
            sink = CountingSink()
            write(sink)
            assert sink.writes <= bound

    def test_json_memory_stays_one_block(self):
        # a document built whole before it is written peaks at about 2.3 times its text
        samples = sample_flow(self.START, 1.0, 20000)
        sink = CountingSink()
        tracemalloc.start()
        try:
            format_flow_json(self.START, 1.0, 20000, samples, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 4_000_000 and peak < 0.25 * sink.chars

    @settings(max_examples=60, deadline=None)
    @given(_PAIRS, st.lists(st.tuples(*[_POSITIVE] * 5), min_size=1, max_size=40),
           st.lists(st.integers(0, 11), min_size=40, max_size=40))
    def test_recurring_pairs_equal_reference_bytes(self, pairs, heads, picks):
        rows = [head + pairs[k % len(pairs)] for head, k in zip(heads, picks)]
        assert csv_text(rows) == format_csv_reference(rows)
        assert (json_text(self.START, 2.0, len(rows), rows)
                == format_flow_json_reference(self.START, 2.0, len(rows), rows))


class TestDrawFlowScript:
    @staticmethod
    def load(monkeypatch, *argv):
        path = ROOT / "scripts" / "draw_flow.py"
        spec = importlib.util.spec_from_file_location("draw_flow", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(sys, "argv", [str(path), *argv])
        return script

    def test_writes_curves_and_reports_rounding_level_drift(self, tmp_path, capsys, monkeypatch):
        path = ROOT / "scripts" / "draw_flow.py"
        spec = importlib.util.spec_from_file_location("draw_flow", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(sys, "argv", [str(path), "--steps", "20", "--out", str(tmp_path)])
        script.main()
        assert len(list(tmp_path.glob("*.csv"))) == 5
        assert [p.name for p in tmp_path.glob("*.svg")] == ["flow_overlay.svg"]
        assert (tmp_path / "flow_overlay.svg").read_text().count("<polyline") == 5
        drifts = [float(d) for d in re.findall(r"max drift (\S+),", capsys.readouterr().out)]
        assert len(drifts) == 5 and max(drifts) < 1e-12

    @pytest.mark.parametrize("flag, value", [("--steps", "0"), ("--steps", "-3"),
                                             ("--t", "nan"), ("--t", "inf")])
    def test_bad_argument_is_a_usage_error(self, flag, value, tmp_path, capsys, monkeypatch):
        # sample_flow refuses it before any file is written, and main prints its one line
        script = self.load(monkeypatch, flag, value, "--out", str(tmp_path / "out"))
        assert script.main() == 1
        message = (f"steps must be at least 1, got {value}" if flag == "--steps"
                   else f"twist parameter must be finite, got {value}")
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_span_beyond_cap_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # the first start has L = 1.92..., so t L = 770 at the end of its span
        script = self.load(monkeypatch, "--t", "400", "--out", str(tmp_path / "out"))
        assert script.main() == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: |t| * L = ")
        assert "coords (1.0, 1.0, 1.0, 1.0), t = 400.0;" in captured.err
        assert not (tmp_path / "out").exists()


class TestProjectionParsing:
    def test_log_pair(self):
        axes = parse_projection("logX1,logX2")
        assert axes == [("logX1", 1, True), ("logX2", 2, True)]

    def test_plain_pair(self):
        assert parse_projection("X3,X4") == [("X3", 3, False), ("X4", 4, False)]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_projection("X1")
        with pytest.raises(ValueError):
            parse_projection("X1,X5")
        with pytest.raises(ValueError, match=r"^invalid projection axis 'x1' "):
            parse_projection("x1,logx2")  # the axis names are X1..X4 and logX1..logX4 only

    def test_render_handles_constant_axis(self):
        # X2 stays at 1 along this flow; the log projection must not divide by zero
        samples = sample_flow(AnnulusCoords(1, 1, 1, 1), 1.0, 10)
        text = render_svg([(samples, "magenta")], parse_projection("logX1,logX2"))
        assert "polyline" in text
        assert "NaN" not in text and "inf" not in text

    def test_render_overlays_curves_in_one_frame(self):
        curves = [(sample_flow(AnnulusCoords(*start), 1.0, 10), stroke)
                  for start, stroke in (((1, 1, 1, 1), "magenta"), ((4, 0.25, 1, 1), "teal"))]
        text = render_svg(curves, parse_projection("logX1,logX2"))
        assert text.count("<polyline") == 2
        assert text.index('stroke="magenta"') < text.index('stroke="teal"')
        assert text.count("<svg") == 1 and text.count('fill="white"') == 1

    # golden.py hashes one curve; these pin two overlaid curves, a constant axis, and a
    # quadruple spanning 21 decades on plain and log axes (ten steps to t = 1 each)
    @pytest.mark.parametrize("starts, proj, digest", [
        ([((1, 1, 1, 1), "magenta"), ((4, 0.25, 1, 1), "teal")], "logX1,logX2",
         "753d09f61648b42c1a67b7b0819748378d52879a6574b3750cc039b333101cae"),
        ([((1, 1, 1, 1), "magenta")], "logX1,logX2",
         "b738def1114686f18c75c6d07d9eacabe0834a87ea58d7d395e4453ccd7a49fa"),
        ([((1e-9, 3e8, 1e10, 1e-11), "magenta")], "X3,X4",
         "e13a5fd9caefbba2f85e06f5d341fc8c28f2a47b6817ac8bee18fd852a06fba0"),
        ([((1e-9, 3e8, 1e10, 1e-11), "magenta")], "logX4,X2",
         "795a70bb67e9a21b89d70949563a0adc9b5f16b4eecc02092a6a305ebb0eb7d3"),
    ], ids=["overlay", "constant-axis", "wide-X3,X4", "wide-logX4,X2"])
    def test_render_bytes_keep_their_digests(self, starts, proj, digest):
        curves = [(sample_flow(AnnulusCoords(*start), 1.0, 10), stroke) for start, stroke in starts]
        text = render_svg(curves, parse_projection(proj))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestVerifyCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert run(["verify", "--samples", "200", "--seed", "42", "--tol", "1e-9"]) == 0
        out = capsys.readouterr().out
        for suite in ("oracle-equivalence", "flow-additivity", "trace-invariance",
                      "dehn-compatibility", "endpoint-round-trip"):
            assert suite in out
        assert "all suites within tolerance" in out

    def test_unachievable_tolerance_exits_two(self, capsys):
        assert run(["verify", "--samples", "50", "--seed", "42", "--tol", "1e-30"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_zero_samples_usage_error(self):
        assert run(["verify", "--samples", "0"]) == 1

    def test_nonpositive_tolerance_usage_error(self):
        assert run(["verify", "--samples", "10", "--tol", "-1"]) == 1

    def test_seed_five_passes_at_default_tolerance(self, capsys):
        assert run(["verify", "--samples", "5000", "--seed", "5"]) == 0
        assert "all suites within tolerance 1e-09" in capsys.readouterr().out

    @pytest.mark.parametrize("seed, report", [
        ("0", "oracle-equivalence       max rel err 4.119e-15  ok\n"
              "flow-additivity          max rel err 3.799e-15  ok\n"
              "trace-invariance         max rel err 5.785e-16  ok\n"
              "dehn-compatibility       max rel err 3.923e-15  ok\n"
              "endpoint-round-trip      max rel err 2.039e-15  ok\n"
              "verify: all suites within tolerance 1e-09 (1000 samples, seed 0)\n"),
        ("5", "oracle-equivalence       max rel err 5.752e-15  ok\n"
              "flow-additivity          max rel err 3.316e-15  ok\n"
              "trace-invariance         max rel err 4.939e-16  ok\n"
              "dehn-compatibility       max rel err 3.347e-15  ok\n"
              "endpoint-round-trip      max rel err 1.722e-15  ok\n"
              "verify: all suites within tolerance 1e-09 (1000 samples, seed 5)\n"),
    ])
    def test_default_report_bytes(self, seed, report, capsys):
        assert run(["verify", "--samples", "1000", "--seed", seed]) == 0
        assert capsys.readouterr().out == report

    # float.hex of each suite's maximum, recorded before the comparison was inlined; the
    # oracle-equivalence values of the last two re-recorded for the Fenchel-Nielsen oracle,
    # and every dehn-compatibility value for the rational walk against the translation
    @pytest.mark.parametrize("samples, seed, expected", [
        (1000, 0, ["0x1.28c87a0965f27p-48", "0x1.11c2c5b549b3fp-48", "0x1.4d7f90b4cbaa2p-51",
                   "0x1.1aabf80a14176p-48", "0x1.25df05c62dc60p-49"]),
        (1000, 5, ["0x1.9e749fb52b481p-48", "0x1.ddd73f1d84865p-49", "0x1.1cb13e6028ff8p-51",
                   "0x1.e268ffde18f63p-49", "0x1.f05a4ed5c5f24p-50"]),
        (1000, 2784682393, ["0x1.43fa5fc59dff1p-47", "0x1.2076f9583946cp-48",
                            "0x1.5bf990b208f26p-51", "0x1.08aaa12f603dap-48",
                            "0x1.013d24a683991p-49"]),
        (5000, 5, ["0x1.11661d8c15f50p-47", "0x1.13e9ed8d0d669p-48", "0x1.6729ff8ee225ap-51",
                   "0x1.3cf1696208369p-48", "0x1.3687f44a48ecep-49"]),
    ])
    def test_suite_values_keep_their_bits(self, samples, seed, expected):
        results = cli.run_verify_suites(samples, seed)
        assert list(results) == ["oracle-equivalence", "flow-additivity", "trace-invariance",
                                 "dehn-compatibility", "endpoint-round-trip"]
        assert [v.hex() for v in results.values()] == expected

    def test_deterministic_report(self, capsys):
        assert run(["verify", "--samples", "60", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert run(["verify", "--samples", "60", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first


positive_doubles = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


def floored_rel_err(a, b):
    # the comparison verify made before it divided by the larger entry
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestVerifyComparison:
    def test_results_below_the_old_floor_keep_their_error(self):
        assert cli._rel_err(1e-305, 2e-305) == 0.5
        assert cli._max_rel((1.0, 1e-305, 1.0, 1.0), (1.0, 2e-305, 1.0, 1.0)) == 0.5

    @given(positive_doubles, positive_doubles)
    @example(1e-300, 5e-324)
    @example(1e-300, 2e-300)
    def test_matches_the_floored_formula_above_its_floor(self, a, b):
        assume(max(a, b) >= 1e-300)
        assert cli._rel_err(a, b) == floored_rel_err(a, b)

    @given(st.lists(st.tuples(positive_doubles, positive_doubles).filter(
        lambda pair: max(pair) >= 1e-300), min_size=4, max_size=4))
    def test_quadruple_error_is_the_largest_floored_error(self, pairs):
        first, second = zip(*pairs)
        assert cli._max_rel(first, second) == max(floored_rel_err(a, b) for a, b in pairs)


class TestParseErrors:
    def test_missing_subcommand(self):
        assert run([]) == 1

    def test_non_numeric_coords(self, capsys):
        # AnnulusCoords converts the fields and names the first that is not a number
        for text, field, value in [("a,b,c,d", "X1", "a"), ("1,abc,1,1", "X2", "abc")]:
            assert run(["twist", "--coords", text]) == 1
            assert capsys.readouterr() == ("", f"error: coordinate {field} must be a number, "
                                               f"got {value!r}\n")

    # --coords text: arbitrary, or four fields of numbers, number-like words and arbitrary text
    @given(st.one_of(st.text(), st.lists(st.one_of(
        st.floats().map(repr), st.sampled_from(["nan", "-inf", "1e999", "1e-400", " 2 ", ""]),
        st.text(max_size=4)), min_size=3, max_size=5).map(",".join)))
    @example("-1,1,1,1")  # argparse takes it for an option, so --coords has no value
    @settings(deadline=None)
    def test_any_coords_text_exits_zero_or_one_with_one_error_line(self, text):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["twist", "--coords", text])
        assert code in (0, 1)
        assert err.getvalue().count("\n") == (code == 1)

    def test_nan_twist_parameter(self, capsys):
        assert run(["twist", "--coords", "1,1,1,1", "--t", "nan"]) == 1
        assert "finite" in capsys.readouterr().err

    def test_range_error_reported(self, capsys):
        length = 1.9248473002384139
        t = str(math.ceil(700.0 / length))
        assert run(["twist", "--coords", "1,1,1,1", "--t", t]) == 1
        assert "not representable" in capsys.readouterr().err
