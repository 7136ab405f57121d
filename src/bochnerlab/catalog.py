"""Text descriptors for manifolds and analytic maps.

Grammar: ``kind`` or ``kind:key=val,key=val`` with numeric values, e.g.
``torus:a=1,b=1``, ``sphere:r=2``, ``ellipsoid:a=1,b=1,c=2``,
``prodspheres:r1=1,r2=2``, ``euclid:m=3``, ``cap:amplitude=0.3``.
Unknown kinds, unknown keys, non-finite values and non-integer
dimensions are rejected.
"""

from __future__ import annotations

import math

from .domains import FlatTorus2, RoundSphere2
from .errors import UsageError
from .targets import Ellipsoid, Euclidean, FlatTorusEmb, ProductSpheres, Sphere


def parse_descriptor(text):
    """Split 'kind:key=val,...' into (kind, {key: float})."""
    text = text.strip()
    if not text:
        raise UsageError("empty descriptor")
    kind, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise UsageError(f"malformed descriptor item {item!r} in {text!r}")
            try:
                value = float(val)
            except ValueError as exc:
                raise UsageError(f"non-numeric value in {item!r}") from exc
            if not math.isfinite(value):
                raise UsageError(f"non-finite value in {item!r}")
            params[key.strip()] = value
    return kind.strip().lower(), params


def _take(params, key, default=None):
    if key in params:
        return params.pop(key)
    if default is None:
        raise UsageError(f"missing required key {key!r}")
    return default


def _take_int(params, key, default):
    value = _take(params, key, default)
    if value != int(value):
        raise UsageError(f"{key!r} must be an integer, got {value:g}")
    return int(value)


def _done(kind, params):
    if params:
        raise UsageError(f"unknown keys {sorted(params)} for {kind!r}")


def parse_domain(text, n1=64, n2=None):
    """Build a domain manifold from a descriptor, at the given resolution.

    Without n2 the domain's own rule (ChartGrid.N2_PER_N1) sets it.
    """
    kind, params = parse_descriptor(text)
    if kind == "torus":
        a = _take(params, "a", 1.0)
        b = _take(params, "b", 1.0)
        _done(kind, params)
        return FlatTorus2(a=a, b=b, n1=n1, n2=n2)
    if kind == "sphere":
        r = _take(params, "r", 1.0)
        _done(kind, params)
        return RoundSphere2(r=r, n1=n1, n2=n2)
    raise UsageError(f"unknown domain kind {kind!r}")


def parse_target(text):
    """Build a target manifold from a descriptor."""
    kind, params = parse_descriptor(text)
    if kind == "euclid":
        m = _take_int(params, "m", 3.0)
        _done(kind, params)
        return Euclidean(m=m)
    if kind == "sphere":
        r = _take(params, "r", 1.0)
        k = _take_int(params, "k", 2.0)
        _done(kind, params)
        return Sphere(k=k, r=r)
    if kind == "torusemb":
        radii = []
        i = 1
        while f"rho{i}" in params:
            radii.append(params.pop(f"rho{i}"))
            i += 1
        if not radii:
            radii = [1.0, 1.0]
        _done(kind, params)
        return FlatTorusEmb(radii=tuple(radii))
    if kind == "ellipsoid":
        a = _take(params, "a", 1.0)
        b = _take(params, "b", 1.0)
        c = _take(params, "c", 2.0)
        _done(kind, params)
        return Ellipsoid(a=a, b=b, c=c)
    if kind == "prodspheres":
        r1 = _take(params, "r1", 1.0)
        r2 = _take(params, "r2", 2.0)
        _done(kind, params)
        return ProductSpheres(r1=r1, r2=r2)
    raise UsageError(f"unknown target kind {kind!r}")
