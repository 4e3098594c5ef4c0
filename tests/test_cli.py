import hashlib
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import pytest

from fntwist import cli
from fntwist.cli import (format_csv, format_flow_json, main, parse_projection, render_svg,
                         sample_flow)
from fntwist import AnnulusCoords, core_geodesic, twist_p_form
from util import format_csv_reference, format_flow_json_reference, rel_err

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


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

    def test_not_hyperbolic_names_x1_x2(self, capsys):
        assert run(["twist", "--coords", "1e-12,1e12,1,1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: holonomy is not hyperbolic") and err.count("\n") == 1
        assert "X1 = 1e-12, X2 = 1000000000000.0" in err

    def test_vanishing_axis_gap_exit_one(self, capsys):
        coords = "2.3647617156901504e-12,2.78013075470335e-12,3.2912851745561317e-10,657824.7683302268"
        assert run(["twist", "--coords", coords, "--t", "-8.04826917421387"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the axis gap vanished") and err.count("\n") == 1
        assert f"({coords.replace(',', ', ')}), t = -8.04826917421387" in err

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

    @pytest.mark.parametrize("m", [170, 200, -170])
    def test_arithmetic_failure_exit_one(self, m, capsys):
        # m = 170 underflows X1 to zero, m = 200 then divides by it,
        # m = -170 overflows (1 + X2)^2
        assert run(["dehn", "--coords", "1.3,0.7,2,0.5", "--m", str(m)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "(1.3, 0.7, 2.0, 0.5)" in err and f"m = {m}" in err


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

        monkeypatch.setattr(cli, "sample_flow", unexpected)
        # L = 1.92..., so t L = 770 at the end of the span, above the cap 650
        assert run(["flow", "--coords", "1,1,1,1", "--t", "400"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --t 400.0 ") and "(1.0, 1.0, 1.0, 1.0)" in err

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

    def test_single_step_usage_error(self, capsys):
        assert run(["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "1"]) == 1
        assert "steps" in capsys.readouterr().err

    def test_nonpositive_span_usage_error(self):
        assert run(["flow", "--coords", "1,1,1,1", "--t", "0", "--steps", "10"]) == 1

    def test_bad_projection_usage_error(self, capsys):
        assert run(["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "10",
                    "--proj", "logX9,X1"]) == 1
        assert "projection" in capsys.readouterr().err

    def test_unwritable_path_exit_one(self, capsys):
        assert run(["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "10",
                    "--out", "/nonexistent-dir/x.csv"]) == 1
        assert capsys.readouterr().err


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
        assert self.T_MAX * core_geodesic(self.START).length > 300.0
        assert len(samples) == self.STEPS + 1
        for i, row in enumerate(samples):
            t = i * self.T_MAX / self.STEPS
            point = twist_p_form(self.START, t)
            core = core_geodesic(point)
            # every value is a positive finite float or t = 0.0, so == is bit equality
            assert row == (t, *point.as_tuple(), core.length, core.trace_abs)

    def test_formatters_equal_reference_bytes(self, samples):
        assert format_csv(samples) == format_csv_reference(samples)
        assert (format_flow_json(self.START, self.T_MAX, self.STEPS, samples)
                == format_flow_json_reference(self.START, self.T_MAX, self.STEPS, samples))


class TestDrawFlowScript:
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

    def test_deterministic_report(self, capsys):
        assert run(["verify", "--samples", "60", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert run(["verify", "--samples", "60", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first


class TestParseErrors:
    def test_missing_subcommand(self):
        assert run([]) == 1

    def test_non_numeric_coords(self, capsys):
        assert run(["twist", "--coords", "a,b,c,d"]) == 1
        assert "numbers" in capsys.readouterr().err

    def test_nan_twist_parameter(self, capsys):
        assert run(["twist", "--coords", "1,1,1,1", "--t", "nan"]) == 1
        assert "finite" in capsys.readouterr().err

    def test_range_error_reported(self, capsys):
        length = 1.9248473002384139
        t = str(math.ceil(700.0 / length))
        assert run(["twist", "--coords", "1,1,1,1", "--t", t]) == 1
        assert "not representable" in capsys.readouterr().err
