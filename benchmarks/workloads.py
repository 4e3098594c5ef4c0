"""The four workloads: one round of each, and the checks of its outputs.

A round is the same list of operations every time, so a run is whole
rounds and its share of failed operations never depends on the seed or
the run length.  Checks compare outputs with the references in
``reference`` (imported only once timing is over, so mpmath stays out of
the measured process's memory) or with properties the method must have.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import inputs

# Relative error every checked output must stay within: the agreement the
# project README states for its routes ("about 1e-10 relative").
BOUND = 1e-10
# correct_digits reads this when every checked output is exact.
_ERROR_FLOOR = 1e-17

VERIFY_SUITES = ("oracle-equivalence", "flow-additivity", "trace-invariance",
                 "dehn-compatibility", "endpoint-round-trip")


@dataclass
class Invocation:
    argv: list
    code: int
    stdout: str
    maxrss_kb: int = 0


class Subprocesses:
    """Runs `fntwist <argv>` as a fresh interpreter on the checkout's sources."""

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=inputs.SRC + (os.pathsep + path if path else ""))

    def run(self, argv) -> Invocation:
        proc = subprocess.Popen([sys.executable, "-m", "fntwist.cli", *argv], cwd=inputs.ROOT,
                                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(argv, proc.returncode, stdout.decode(), usage.ru_maxrss)


class InProcess:
    """Runs `fntwist.cli.main(argv)` in this process, as the traced run does."""

    def run(self, argv) -> Invocation:
        import fntwist.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = fntwist.cli.main(list(argv))
        return Invocation(argv, code, out.getvalue())


@dataclass
class Round:
    """Outcome of one round: what a run adds up and what the checks read."""

    attempted: int
    failed: int
    units: int                 # work done, the numerator of the throughput metrics
    maxrss_kb: int = 0         # largest child RSS; 0 when nothing was spawned
    output_bytes: int = 0
    outputs: object = None
    digest: str = ""
    raw_s: float = 0.0         # wall time of the round's measured segments
    scaled_s: float = 0.0      # the same, scaled by the stopwatch's calibration


@dataclass
class Check:
    problems: list = field(default_factory=list)
    worst: float = 0.0         # worst relative error against a reference
    # kept faults: fixed inputs that come back off the reference every round
    inaccurate_per_round: list = field(default_factory=list)

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)

    def error(self, value, exact, what):
        """Record |value - exact| / |exact| and require it within BOUND."""
        from reference import rel_error

        err = rel_error(value, exact)
        self.worst = max(self.worst, err)
        self.require(err <= BOUND, f"{what}: relative error {err:.3e} exceeds {BOUND:g}")

    @property
    def correct_digits(self) -> float:
        return -math.log10(max(self.worst, _ERROR_FLOOR))


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else c.encode())
    return h.hexdigest()


# ------------------------------------------------------------------ flow-export

class FlowExport:
    """`fntwist flow` over one trajectory across |t L| = 300: CSV plus SVG, then JSON."""

    def __init__(self, seed, runner):
        self.inp = inputs.build_flow_export(seed)
        self.runner = runner
        os.makedirs(os.path.dirname(self.inp.csv), exist_ok=True)

    def round(self, watch) -> Round:
        runs = [watch.measure(self.runner.run, argv) for argv in self.inp.argvs()]
        return Round(len(runs), sum(r.code != 0 for r in runs), 2 * (self.inp.steps + 1),
                     maxrss_kb=max(r.maxrss_kb for r in runs), outputs=runs)

    def after_round(self, rnd: Round):
        files = []
        for path in (self.inp.csv, self.inp.json, self.inp.svg):
            with open(path, "rb") as fp:
                files.append(fp.read())
        rnd.output_bytes = sum(len(f) for f in files) + sum(len(r.stdout) for r in rnd.outputs)
        rnd.digest = _digest(*files)

    def check(self, rounds) -> Check:
        import mpmath
        from reference import dehn_exact, twist_reference

        chk = Check()
        inp = self.inp
        for r in rounds[-1].outputs:
            chk.require(r.code == 0, f"flow {r.argv} exited {r.code}: {r.stdout.strip()}")
        chk.require(len({r.digest for r in rounds}) == 1, "flow files differ between rounds")
        with open(inp.csv) as fp:
            lines = fp.read().splitlines()
        chk.require(lines[0] == "t,X1,X2,X3,X4,L,trace", f"CSV header {lines[0]!r}")
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        chk.require(len(rows) == inp.steps + 1, f"{len(rows)} CSV rows, expected {inp.steps + 1}")
        with open(inp.json) as fp:
            doc = json.load(fp)
        keys = ("t", "X1", "X2", "X3", "X4", "L", "trace")
        json_rows = [tuple(s[k] for k in keys) for s in doc["samples"]]
        chk.require(json_rows == rows, "CSV and JSON values differ")
        chk.require(all(row[0] == i * inp.t_max / inp.steps for i, row in enumerate(rows)),
                    "t is not uniform on [0, t_max]")
        with mpmath.workdps(40):
            x1, x2 = mpmath.mpf(inp.coords[0]), mpmath.mpf(inp.coords[1])
            trace = (x1 * (x2 + 1) + 1) / mpmath.sqrt(x1 * x2)
            length = float(2 * mpmath.acosh(trace / 2))
            trace = float(trace)
        drift = max(max(abs(r[5] - length) / length, abs(r[6] - trace) / trace) for r in rows)
        chk.require(drift <= BOUND, f"L or trace drifts by {drift:.3e} along the flow")
        per_unit = inp.steps // inp.t_max
        for m in inputs.FLOW_DEHN_ROWS:
            row = rows[m * per_unit]
            chk.require(row[0] == m, f"row {m * per_unit} has t = {row[0]}, expected {m}")
            for v, e in zip(row[1:5], dehn_exact(inp.coords, m)):
                chk.error(v, e, f"flow row t={m} against the exact Dehn map")
        for i in inp.sample_rows:
            row = rows[i]
            for v, e in zip(row[1:5], twist_reference(inp.coords, row[0])):
                chk.error(v, e, f"flow row {i} (t={row[0]!r}) against mpmath")
        polyline = ET.parse(inp.svg).getroot().find("{http://www.w3.org/2000/svg}polyline")
        points = polyline.get("points").split() if polyline is not None else []
        chk.require(len(points) == inp.steps + 1,
                    f"SVG polyline has {len(points)} points, expected {inp.steps + 1}")
        return chk


# ---------------------------------------------------------------- verify-suites

class VerifySuites:
    """`fntwist verify` on seeds drawn from the workload seed, plus the kept fault."""

    def __init__(self, seed, runner):
        self.inp = inputs.build_verify_suites(seed)
        self.runner = runner

    def round(self, watch) -> Round:
        runs = [watch.measure(self.runner.run, argv) for argv in self.inp.argvs()]
        samples = sum(int(argv[argv.index("--samples") + 1]) for argv in self.inp.argvs())
        return Round(len(runs), sum(r.code != 0 for r in runs), samples,
                     maxrss_kb=max(r.maxrss_kb for r in runs), outputs=runs)

    def after_round(self, rnd: Round):
        rnd.output_bytes = sum(len(r.stdout) for r in rnd.outputs)
        rnd.digest = _digest(*(f"{r.code}\n{r.stdout}" for r in rnd.outputs))

    def check(self, rounds) -> Check:
        import fntwist
        from lcg import Lcg
        from reference import twist_reference

        chk = Check()
        chk.require(len({r.digest for r in rounds}) == 1, "verify output differs between rounds")
        for run in rounds[-1].outputs:
            argv = run.argv
            tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else 1e-9
            reported = {}
            for line in run.stdout.splitlines():
                parts = line.split()
                if len(parts) == 6 and parts[1:4] == ["max", "rel", "err"]:
                    reported[parts[0]] = (float(parts[4]), parts[5])
            chk.require(tuple(reported) == VERIFY_SUITES, f"{argv}: suites reported {list(reported)}")
            for name, (err, mark) in reported.items():
                # the report rounds to 4 digits: within that rounding either mark is right
                if abs(err - tol) > 1e-3 * tol:
                    chk.require(mark == ("ok" if err <= tol else "FAIL"),
                                f"{argv}: {name} {err} marked {mark}")
            all_ok = all(mark == "ok" for _, mark in reported.values())
            chk.require(run.code == (0 if all_ok else 2),
                        f"{argv}: exit {run.code} with every suite {'ok' if all_ok else 'not ok'}")
        for seed, draws in self.inp.checked_draws.items():
            mine, theirs = Lcg(seed), fntwist.Lcg(seed)
            for k in range(max(draws) + 1):
                coords = tuple(mine.log_uniform(0.1, 10.0) for _ in range(4))
                t = mine.uniform(0.0, 3.0)
                program = fntwist.random_coords(theirs)
                chk.require(program.as_tuple() == coords and theirs.uniform(0.0, 3.0) == t,
                            f"seed {seed} draw {k} differs from the README generator")
                if k in draws:
                    exact = twist_reference(coords, t)
                    for route in (fntwist.twist_p_form, fntwist.twist_closed_form):
                        for v, e in zip(route(fntwist.AnnulusCoords(*coords), t).as_tuple(), exact):
                            chk.error(v, e, f"{route.__name__} on seed {seed} draw {k}")
        return chk


# ----------------------------------------------------------------- kernel-sweep

class KernelSweep:
    """twist_p_form and dehn_twist on raw quadruples, one call per operation."""

    def __init__(self, seed, runner=None):
        self.inp = inputs.build_kernel_sweep(seed)

    def round(self, watch) -> Round:
        outs = watch.measure(self._calls)
        failed = sum(isinstance(o, Exception) for o in outs)
        return Round(len(outs), failed, len(outs) - failed, outputs=outs)

    def _calls(self):
        import fntwist

        coords_cls, p_form, dehn = fntwist.AnnulusCoords, fntwist.twist_p_form, fntwist.dehn_twist
        outs = []
        for c, t in self.inp.twists:
            try:
                outs.append(p_form(coords_cls(*c), t))
            except Exception as exc:  # counted as failed; the checks report it
                outs.append(exc)
        for c, m in self.inp.dehns:
            try:
                outs.append(dehn(coords_cls(*c), m))
            except Exception as exc:
                outs.append(exc)
        for _, c, kind, param in self.inp.fixed:
            try:
                quad = coords_cls(*c)
                outs.append(p_form(quad, param) if kind == "t" else dehn(quad, param))
            except Exception as exc:
                outs.append(exc)
        return outs

    def after_round(self, rnd: Round):
        pass

    def check(self, rounds) -> Check:
        from reference import max_rel_error, twist_reference

        chk = Check()
        outs = rounds[-1].outputs
        for (label, c, _, param), out in zip(self.inp.fixed, outs[-len(self.inp.fixed):]):
            if not isinstance(out, Exception):
                err = max_rel_error(out.as_tuple(), twist_reference(c, param))
                if err > BOUND:
                    chk.inaccurate_per_round.append(f"{label}: relative error {err:.3e}")
        seeded = self.inp.twists + self.inp.dehns
        for (c, param), out in zip(seeded, outs):
            if isinstance(out, Exception):
                chk.require(False, f"seeded input {c}, {param}: {type(out).__name__}: {out}")
                continue
            chk.require(all(math.isfinite(v) and v > 0.0 for v in out.as_tuple()),
                        f"{c}, {param}: result {out} is not a positive quadruple")
        for k in self.inp.checked:
            (c, param), out = seeded[k], outs[k]
            if not isinstance(out, Exception):
                for v, e in zip(out.as_tuple(), twist_reference(c, param)):
                    chk.error(v, e, f"{'twist' if k < len(self.inp.twists) else 'dehn'} {c}, {param}")
        return chk


# ----------------------------------------------------------------- surface-word

class SurfaceWord:
    """A seeded word of apply_local_twist calls on one long vector, then its inverse."""

    def __init__(self, seed, runner=None):
        self.inp = inputs.build_surface_word(seed)

    def round(self, watch) -> Round:
        outs = watch.measure(self._word)
        return Round(len(outs), 0, len(outs), outputs=outs)

    def _word(self):
        import fntwist

        apply = fntwist.apply_local_twist
        v = self.inp.start
        outs = []
        for emb, t in self.inp.word:
            v = apply(v, emb, t)
            outs.append(v)
        for emb, t in reversed(self.inp.word):
            v = apply(v, emb, -t)
            outs.append(v)
        return outs

    def after_round(self, rnd: Round):
        pass

    def check(self, rounds) -> Check:
        from reference import twist_reference

        chk = Check()
        inp = self.inp
        steps = inp.word + [(emb, -t) for emb, t in reversed(inp.word)]
        outs = rounds[-1].outputs
        prev = inp.start
        for k, ((emb, t), cur) in enumerate(zip(steps, outs)):
            idx = emb.as_tuple()
            patched = list(prev.values)
            for i in idx:
                patched[i - 1] = cur.values[i - 1]
            chk.require(tuple(patched) == cur.values, f"twist {k} changed entries outside {idx}")
            quad = [prev.values[i - 1] for i in idx]
            for i, e in zip(idx, twist_reference(quad, t)):
                chk.error(cur.values[i - 1], e, f"twist {k} on {idx}")
            prev = cur
        drift = max(abs(a - b) / b for a, b in zip(outs[-1].values, inp.start.values))
        chk.require(drift <= BOUND, f"word and inverse return the start only to {drift:.3e}")
        return chk


WORKLOADS = {
    "flow-export": FlowExport,
    "verify-suites": VerifySuites,
    "kernel-sweep": KernelSweep,
    "surface-word": SurfaceWord,
}
