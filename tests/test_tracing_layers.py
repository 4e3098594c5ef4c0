"""The per-layer tracer of the benchmark finds every name it wraps."""

import sys

import fntwist.cli  # noqa: F401  imports every fntwist module the tracer patches
from util import load_benchmark_module


def test_every_traced_layer_resolves():
    layers = load_benchmark_module("tracing").LAYERS
    assert layers
    for name, module, attr, _ in layers:
        assert callable(getattr(sys.modules[module], attr)), name
