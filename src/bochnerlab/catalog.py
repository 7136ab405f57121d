"""Text descriptors for manifolds and analytic maps.

Grammar: ``kind`` or ``kind:key=val,key=val`` with numeric values, e.g.
``torus:a=1,b=1``, ``sphere:r=2``, ``ellipsoid:a=1,b=1,c=2``,
``prodspheres:r1=1,r2=2``, ``euclid:m=3``, ``cap:amplitude=0.3``.

Every family (domains, targets, catalog maps) is a table of kinds, and
`build` makes each kind from its table entry: a builder and its keys
with their defaults.  A domain or target kind is its class, and its
keys and defaults are the class's dataclass fields, less the ones the
caller passes itself (a domain's grid size n1, n2); the catalog maps'
table sits next to their builders in `maps`.  A key whose default is an
int takes integer values only.  The one special case is ``torusemb``,
whose circle radii are the consecutive keys ``rho1, ..., rhoN`` (the
class's default radii when none is given); a key after a gap is unknown.
Unknown kinds, unknown keys, non-finite values, non-integer values of
integer keys and targets in more than MAX_AMBIENT_DIM ambient
dimensions are rejected.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .domains import FlatTorus2, RoundSphere2
from .errors import UsageError
from .targets import Ellipsoid, Euclidean, FlatTorusEmb, ProductSpheres, Sphere

# every node field of a map holds m floats per node, so a larger ambient
# dimension only exhausts memory (the catalog's targets need at most 6)
MAX_AMBIENT_DIM = 64


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


def _by_kind(*classes):
    # a class's descriptor keys are its dataclass fields, with their defaults
    return {cls.kind: (cls, {f.name: f.default for f in fields(cls)}) for cls in classes}


DOMAINS = _by_kind(FlatTorus2, RoundSphere2)
TARGETS = _by_kind(Euclidean, Sphere, FlatTorusEmb, Ellipsoid, ProductSpheres)


def build(family, table, kind, params, **fixed):
    """Build a `kind` of `family` from its `table` entry, (builder,
    {key: default}).

    The descriptor's params override the defaults; `fixed` holds the
    builder's other arguments, which are not descriptor keys.
    """
    if kind not in table:
        raise UsageError(f"unknown {family} kind {kind!r}")
    builder, defaults = table[kind]
    keys = {k: v for k, v in defaults.items() if k not in fixed}
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise UsageError(f"unknown keys {unknown} for {family} {kind!r}")
    args = {**keys, **params}
    for key, default in keys.items():
        if isinstance(default, int):
            if args[key] != int(args[key]):
                raise UsageError(f"{key!r} must be an integer, got {args[key]:g}")
            args[key] = int(args[key])
    return builder(**args, **fixed)


def parse_domain(text, n1=64, n2=None):
    """Build a domain manifold from a descriptor, at the given resolution.

    Without n2 the domain's own rule (ChartGrid.N2_PER_N1) sets it.
    """
    return build("domain", DOMAINS, *parse_descriptor(text), n1=n1, n2=n2)


def parse_target(text):
    """Build a target manifold from a descriptor."""
    return build_target(*parse_descriptor(text))


def build_target(kind, params):
    """Build a target manifold from a parsed descriptor (kind, params).

    A non-finite value is refused here as `parse_descriptor` refuses it,
    for the params a caller builds itself (a scan's sweep values).
    """
    bad = sorted(key for key, value in params.items() if not math.isfinite(value))
    if bad:
        raise UsageError(f"non-finite value for {bad} of target {kind!r}")
    fixed = {}
    if kind == FlatTorusEmb.kind:
        # radii from rho1, rho2, ... up to the first gap
        params = dict(params)
        radii = []
        while f"rho{len(radii) + 1}" in params:
            radii.append(params.pop(f"rho{len(radii) + 1}"))
        fixed["radii"] = tuple(radii) or FlatTorusEmb.radii
    target = build("target", TARGETS, kind, params, **fixed)
    if target.m > MAX_AMBIENT_DIM:
        raise UsageError(
            f"{kind!r} target has an ambient dimension above MAX_AMBIENT_DIM = {MAX_AMBIENT_DIM}"
        )
    return target
