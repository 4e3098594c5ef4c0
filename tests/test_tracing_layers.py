"""The per-layer tracer of the benchmark finds every name it wraps."""

import sys

import fntwist
import fntwist.cli  # noqa: F401  imports every fntwist module the tracer patches
from util import load_benchmark_module


def test_every_traced_layer_resolves():
    layers = load_benchmark_module("tracing").LAYERS
    assert layers
    for name, module, attr, _ in layers:
        assert callable(getattr(sys.modules[module], attr)), name


def test_every_traced_class_defines_its_own_init():
    # the tracer wraps the __init__ in a class's own dict; an inherited one is not wrapped
    classes = {}
    for _, module, attr, _ in load_benchmark_module("tracing").LAYERS:
        target = getattr(sys.modules[module], attr)
        if isinstance(target, type):
            classes[attr] = target
    assert sorted(classes) == ["AnnulusCoords", "MobiusMap", "SurfaceCoords"]
    for attr, cls in classes.items():
        assert "__init__" in vars(cls), attr


def test_tracer_counts_annulus_coords_constructions():
    # the tracer wraps a class's own __init__ and rebinds functions in fntwist's
    # modules, so both are looked up through the package after install()
    tracer = load_benchmark_module("tracing").Tracer()
    tracer.install()
    try:
        fntwist.twist_p_form(fntwist.AnnulusCoords(2, 0.5, 3, 0.25), 0.7)
    finally:
        tracer.uninstall()
    layers = tracer.aggregate()
    # one construction: twist_p_form builds its result without calling __init__
    assert layers["annulus.AnnulusCoords"][0] == 1
    assert layers["twist.twist_p_form"][0] == 1
