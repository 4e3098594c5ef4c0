"""The package's exported names and what importing it costs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fntwist
import fntwist.cli


def test_every_exported_name_resolves():
    assert fntwist.__all__
    for name in fntwist.__all__:
        assert hasattr(fntwist, name), name


def test_geometry_containers_are_gone():
    # core_geodesic and endpoints return plain tuples; the arc table lives in tests/util.py
    for name in ("ARC_QUADRUPLES", "CoreGeodesic", "EndpointConfig"):
        assert not hasattr(fntwist, name), name


def test_boundary_point_type_is_gone():
    # boundary points are floats, with math.inf as the point at infinity
    for name in ("ProjectivePoint", "INFINITY"):
        assert not hasattr(fntwist, name), name
    for name in ("as_point", "ABS_TOL"):
        assert not hasattr(fntwist.mobius, name), name
    assert "__call__" not in vars(fntwist.mobius.MobiusMap)


def test_mobius_names_are_not_exported():
    # the Mobius layer and stratum_map exist to check the twist routes; they stay in their modules
    for name in ("MobiusMap", "cross_ratio", "NonHyperbolicError", "DegenerateCrossRatioError",
                 "stratum_map"):
        assert name not in fntwist.__all__ and name not in dir(fntwist), name


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # each CLI process pays for what `import fntwist.cli` pulls in
    code = ("import sys, fntwist.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "[]\n"


def test_cli_import_leaves_json_out():
    # only writing JSON loads json: CSV flows, verify and benchmark set-up probes skip it;
    # -S keeps site's own imports out of the count
    code = "import sys, fntwist.cli; print('json' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == "False\n"


def test_console_script_resolves():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on; requires-python allows 3.10
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["fntwist"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is fntwist.cli.main
