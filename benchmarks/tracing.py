"""Spans around fntwist's public functions, installed from outside the package.

A wrapper replaces each traced function at every fntwist module that binds
it, including module-level dicts such as ``cli.METHODS``; a traced class
gets its ``__init__`` wrapped, so every module's binding sees it.  Spans
(name, start, end, parent) are kept in flat arrays and aggregated per
round; a layer's self time is its span's duration minus the durations of
its child spans, which are nested inside it because calls are synchronous.
"""

from __future__ import annotations

import sys
import time
from array import array


def _dehn_steps(args, kwargs):
    """Iterations of the Dehn map: |m|."""
    return abs(args[1] if len(args) > 1 else kwargs["m"])


def _entries(args, kwargs):
    """Coordinates a new SurfaceCoords validates (args[0] is the instance)."""
    return len(args[1] if len(args) > 1 else kwargs["values"])


# (layer name, module, attribute, what the span counts besides calls)
LAYERS = [
    ("cli.sample_flow", "fntwist.cli", "sample_flow", None),
    ("cli.format_csv", "fntwist.cli", "format_csv", None),
    ("cli.format_flow_json", "fntwist.cli", "format_flow_json", None),
    ("cli.render_svg", "fntwist.cli", "render_svg", None),
    ("cli.run_verify_suites", "fntwist.cli", "run_verify_suites", None),
    ("annulus.AnnulusCoords", "fntwist.annulus", "AnnulusCoords", None),
    ("annulus.core_geodesic", "fntwist.annulus", "core_geodesic", None),
    ("annulus.coords_from_endpoints", "fntwist.annulus", "coords_from_endpoints", None),
    ("twist.twist_p_form", "fntwist.twist", "twist_p_form", None),
    ("twist.twist_closed_form", "fntwist.twist", "twist_closed_form", None),
    ("twist.twist_oracle", "fntwist.twist", "twist_oracle", None),
    ("twist.stratum_map", "fntwist.twist", "stratum_map", None),
    ("twist.dehn_twist", "fntwist.twist", "dehn_twist", _dehn_steps),
    ("mobius.MobiusMap", "fntwist.mobius", "MobiusMap", None),
    ("mobius.cross_ratio", "fntwist.mobius", "cross_ratio", None),
    ("sampling.random_coords", "fntwist.sampling", "random_coords", None),
    ("surface.apply_local_twist", "fntwist.surface", "apply_local_twist", None),
    ("surface.SurfaceCoords", "fntwist.surface", "SurfaceCoords", _entries),
]


class Tracer:
    def __init__(self):
        self.names = [name for name, *_ in LAYERS]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self._stack = [-1]
        self._undo = []
        self.kept = None

    def clear(self):
        """Set the recorded spans aside for write(); the wrappers keep recording."""
        columns = (self.name, self.parent, self.start, self.end, self.amount)
        self.kept = [array(c.typecode, c) for c in columns]
        for c in columns:
            del c[:]
        self._stack[:] = [-1]

    def _wrap(self, index, fn, amount):
        name, parent, start, end, amounts, stack = (
            self.name, self.parent, self.start, self.end, self.amount, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(name)
            name.append(index)
            parent.append(stack[-1])
            amounts.append(amount(args, kwargs) if amount else 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                start[span] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every layer at every fntwist module that binds it."""
        self.clear()
        modules = [m for k, m in sys.modules.items() if k == "fntwist" or k.startswith("fntwist.")]
        for index, (_, module, attr, amount) in enumerate(LAYERS):
            target = getattr(sys.modules[module], attr)
            if isinstance(target, type):
                init = target.__init__
                target.__init__ = self._wrap(index, init, amount)
                self._undo.append((setattr, target, "__init__", init))
                continue
            wrapper = self._wrap(index, target, amount)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapper)
                        self._undo.append((setattr, mod, key, target))
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is target:
                                value[dkey] = wrapper
                                self._undo.append((dict.__setitem__, value, dkey, target))

    def uninstall(self):
        for action, obj, key, value in reversed(self._undo):
            action(obj, key, value)
        self._undo = []

    def aggregate(self):
        """{layer: (calls, self seconds, amount)} over the spans recorded since clear()."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        amount = [0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
            amount[k] += self.amount[i]
        return {layer: (calls[k], self_s[k], amount[k]) for k, layer in enumerate(self.names)}

    def write(self, path):
        """The spans set aside by the last clear() as CSV, parent -1 at the top."""
        name, parent, start, end, amount = self.kept
        with open(path, "w") as fp:
            fp.write("span,layer,start_s,end_s,parent,amount\n")
            for i in range(len(name)):
                fp.write(f"{i},{self.names[name[i]]},{start[i]:.9f},{end[i]:.9f},"
                         f"{parent[i]},{amount[i]}\n")
