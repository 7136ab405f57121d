"""Per-layer spans recorded from outside the program.

A Tracer wraps the public functions of each bochnerlab module (layer)
and the matching methods of its target and domain classes.  Modules
bind each other's functions with ``from .x import y``, so every module
attribute that holds a wrapped function is replaced, as is the CLI's
command table.  Each span records its call count and self time (span
time minus the time of the spans it encloses).  A call nested inside a
span of the same name (ProductSpheres delegating to its Sphere factors)
is part of the outer span and is not counted again.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# module -> public names; a name the module does not define as a
# function is looked up as a method of the classes defined there
LAYERS = {
    "flow": ("run_flow", "flow_step", "image_diameter"),
    "targets": (
        "tangent_projector",
        "closest_point",
        "second_fundamental",
        "sectional_batch",
        "sec_max_over_region",
    ),
    "maps": (
        "jacobian_field",
        "tension_field",
        "hessian_field",
        "energy_density_field",
        "total_energy",
        "catalog_map",
        "load_map",
        "save_map",
    ),
    "domains": ("laplace_beltrami", "pad", "ricci_min"),
    "numerics": ("gen_eigh", "orthonormal_pair"),
    "bochner": (
        "compute_bochner",
        "ricci_term_field",
        "target_term_field",
        "target_term_diagonal_field",
        "integral_identity_residual",
    ),
    "rigidity": ("build_report", "equality_diagnostics", "theorem_consistency_scan"),
    "io_utils": ("write_csv", "json_dumps"),
    "cli": ("cmd_verify", "cmd_report", "cmd_flow", "cmd_consistency"),
}

PACKAGE = "bochnerlab"
PEAK_MEMORY = "flow.image_diameter"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _flow_step(args, kwargs, out):
    dt_in = _arg(args, kwargs, 1, "dt")
    return {"flow.halvings": math.log2(dt_in / out[1])}


def _run_flow(args, kwargs, out):
    return {"flow.steps": out[1].steps}


def _projector(args, kwargs, out):
    return {"targets.tangent_projector.bytes": out.nbytes}


def _sectional(args, kwargs, out):
    return {"targets.sectional_batch.planes": np.size(out)}


def _region(args, kwargs, out):
    pts = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "points")))
    return {"targets.sec_max_over_region.points": pts.shape[0]}


def _csv(args, kwargs, out):
    return {
        "io_utils.write_csv.rows": len(_arg(args, kwargs, 2, "rows")),
        "io_utils.write_csv.bytes": os.path.getsize(_arg(args, kwargs, 0, "path")),
    }


# span name -> hook(args, kwargs, result) returning counter increments
EXTRAS = {
    "flow.flow_step": _flow_step,
    "flow.run_flow": _run_flow,
    "targets.tangent_projector": _projector,
    "targets.sectional_batch": _sectional,
    "targets.sec_max_over_region": _region,
    "io_utils.write_csv": _csv,
}
EXTRA_NAMES = (
    "flow.steps",
    "flow.halvings",
    "flow.image_diameter.peak_mb",
    "targets.tangent_projector.bytes",
    "targets.sectional_batch.planes",
    "targets.sec_max_over_region.points",
    "io_utils.write_csv.rows",
    "io_utils.write_csv.bytes",
)


def span_names():
    return [f"{mod}.{name}" for mod, names in LAYERS.items() for name in names]


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def metric_units():
    """Every per-layer metric a traced run reports, with its unit, in order."""
    names = []
    for span in span_names():
        names += [span + ".calls", span + ".self_s"]
    return {name: _unit(name) for name in names + list(EXTRA_NAMES)}


class Tracer:
    """Span recorder; use as a context manager around the traced calls."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)
        self.missing = []
        self._stack = []  # per open span: [time covered by its child spans]
        self._active = set()
        self._patches = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn):
        hook = EXTRAS.get(name)
        peak = name == PEAK_MEMORY

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if name in self._active:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            self._active.add(name)
            own_trace = peak and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                if own_trace:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = name + ".peak_mb"
                    self.extra[key] = max(self.extra[key], mb)
                self._stack.pop()
                self._active.discard(name)
                self.calls[name] += 1
                self.self_s[name] += dur - frame[0]
                if self._stack:
                    self._stack[-1][0] += dur
            if hook:
                for key, inc in hook(args, kwargs, out).items():
                    self.extra[key] += inc
            return out

        return span

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        cli = importlib.import_module(PACKAGE + ".cli")
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        wrapped = {}  # id(original) -> wrapper
        for mod_name, names in LAYERS.items():
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if mod is None:
                self.missing += [f"{mod_name}.{name}" for name in names]
                continue
            for name in names:
                span = f"{mod_name}.{name}"
                fn = mod.__dict__.get(name)
                if inspect.isfunction(fn):
                    wrapped[id(fn)] = self._wrap(span, fn)
                    continue
                found = False
                for cls in vars(mod).values():
                    if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                            and inspect.isfunction(cls.__dict__.get(name))):
                        self._set(cls, name, self._wrap(span, cls.__dict__[name]))
                        found = True
                if not found:
                    self.missing.append(span)
        # every module-level binding of a wrapped function
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and inspect.isfunction(val):
                    self._set(mod, attr, wrapped[id(val)])
        # the CLI dispatches through a table built at import
        table = getattr(cli, "_COMMANDS", {})
        for key, val in list(table.items()):
            if id(val) in wrapped:
                self._patches.append((table, key, val))
                table[key] = wrapped[id(val)]
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- report --------------------------------------------------------------

    def metrics(self):
        """Per-layer values, keyed and ordered as metric_units()."""
        out = {}
        for span in span_names():
            out[span + ".calls"] = self.calls[span]
            out[span + ".self_s"] = self.self_s[span]
        for key in EXTRA_NAMES:
            val = self.extra[key]
            out[key] = val if key.endswith("_mb") else int(round(val))
        return out
