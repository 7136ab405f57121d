"""Descriptors: every kind of every family is parsed, defaulted and
validated by the one build path of `catalog`."""

import numpy as np
import pytest

from bochnerlab.catalog import parse_domain, parse_target
from bochnerlab.domains import FlatTorus2, RoundSphere2
from bochnerlab.errors import UsageError
from bochnerlab.maps import (
    cap_map,
    catalog_map,
    constant_map,
    holomorphic_map,
    identity_sphere_map,
    radial_scaling_map,
)
from bochnerlab.targets import Ellipsoid, Euclidean, FlatTorusEmb, ProductSpheres, Sphere

SPHERE = RoundSphere2(r=1.0, n1=8)
TORUS = FlatTorus2(a=1.0, b=1.0, n1=8)
S2 = Sphere(k=2, r=1.0)


def domain(text):
    return parse_domain(text, 8)


def sphere_map(text):
    return catalog_map(text, SPHERE, S2).values


def torus_map(text):
    return catalog_map(text, TORUS, S2).values


# family: (build from a descriptor, {kind: what the bare kind builds});
# the defaults are spelled out, so that a changed default fails here
FAMILIES = {
    "domain": (domain, {
        "torus": lambda: FlatTorus2(a=1.0, b=1.0, n1=8),
        "sphere": lambda: RoundSphere2(r=1.0, n1=8),
    }),
    "target": (parse_target, {
        "euclid": lambda: Euclidean(m=3),
        "sphere": lambda: Sphere(k=2, r=1.0),
        "torusemb": lambda: FlatTorusEmb(radii=(1.0, 1.0)),
        "ellipsoid": lambda: Ellipsoid(a=1.0, b=1.0, c=2.0),
        "prodspheres": lambda: ProductSpheres(r1=1.0, r2=2.0),
    }),
    "sphere map": (sphere_map, {
        "constant": lambda: constant_map(SPHERE, S2).values,
        "identity": lambda: identity_sphere_map(SPHERE, S2).values,
        "scaling": lambda: radial_scaling_map(SPHERE, S2).values,
        "holomorphic": lambda: holomorphic_map(SPHERE, S2, 2).values,
    }),
    "torus map": (torus_map, {
        "cap": lambda: cap_map(TORUS, S2, 0.3).values,
    }),
}
KINDS = [(family, kind) for family, (_, kinds) in FAMILIES.items() for kind in kinds]


@pytest.mark.parametrize("family, kind", KINDS)
def test_bare_kind_builds_the_defaults(family, kind):
    build, kinds = FAMILIES[family]
    got, want = build(kind), kinds[kind]()
    if isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("family, kind", KINDS)
def test_unknown_key_is_a_usage_error(family, kind):
    build, _ = FAMILIES[family]
    with pytest.raises(UsageError, match="unknown keys"):
        build(f"{kind}:nosuchkey=1")


@pytest.mark.parametrize("family", FAMILIES)
def test_unknown_kind_is_a_usage_error(family):
    build, _ = FAMILIES[family]
    with pytest.raises(UsageError, match="unknown"):
        build("moebius")


@pytest.mark.parametrize(
    "build, text",
    [(domain, "sphere:n1=16"), (parse_target, "torusemb:radii=2"),
     (parse_target, "euclid:kind=1")],
    ids=["grid-size", "radii-field", "class-attribute"],
)
def test_only_descriptor_fields_are_keys(build, text):
    # the grid size and the radii tuple are passed by the build itself,
    # and a class attribute is no field
    with pytest.raises(UsageError, match="unknown keys"):
        build(text)


@pytest.mark.parametrize(
    "build, text",
    [(parse_target, "euclid:m=2.5"), (parse_target, "sphere:k=2.5"),
     (sphere_map, "holomorphic:k=2.5")],
    ids=["euclid-m", "sphere-k", "holomorphic-k"],
)
def test_fractional_integer_key_is_a_usage_error(build, text):
    with pytest.raises(UsageError, match="must be an integer"):
        build(text)


def test_integer_keys_build_integers():
    # a float k would write itself as k=3.0 into every output
    assert type(parse_target("euclid:m=4").m) is int
    assert parse_target("sphere:k=3").descriptor() == "sphere:r=1,k=3"


@pytest.mark.parametrize("text", ["torusemb:rho1=1,rho3=2", "torusemb:rho2=1"])
def test_torusemb_radii_have_no_gap(text):
    with pytest.raises(UsageError, match="unknown keys"):
        parse_target(text)


def test_torusemb_radii_are_the_consecutive_keys():
    tgt = parse_target("torusemb:rho3=0.5,rho1=1,rho2=2")
    assert tgt == FlatTorusEmb(radii=(1.0, 2.0, 0.5))
