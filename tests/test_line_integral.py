"""Line integrals of fields along parametric paths."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyan import ContractError, PolyNumber, builtin_algebra, line_integral, multiply
from polyan.fields import (
    DiffConfig,
    Path,
    componentwise_exp_field,
    constant_field,
    identity_field,
    monomial_field,
    polyline_path,
    rectangle_loop,
    straight_path,
)

A = np.array([1.0, 2.0, 3.0, 4.0])


def test_constant_field_integrates_to_product(h4_e, rng):
    c = h4_e.element([0.5, -1.0, 2.0, 0.25])
    x0 = rng.uniform(-1, 1, 4)
    x1 = rng.uniform(-1, 1, 4)
    expected = multiply(c, h4_e.element(x1 - x0), h4_e)
    for path in (straight_path(x0, x1), polyline_path([x0, rng.uniform(-1, 1, 4), x1])):
        val = line_integral(constant_field(c.coords), path, h4_e)
        assert np.max(np.abs(val.coords - expected.coords)) < 1e-10


def test_identity_field_is_path_independent(h4_psi):
    straight = straight_path(np.zeros(4), A)
    bent = polyline_path([np.zeros(4), np.array([1.0, 2.0, 0.0, 0.0]), A])
    v1 = line_integral(identity_field(4), straight, h4_psi)
    v2 = line_integral(identity_field(4), bent, h4_psi)
    assert np.max(np.abs(v1.coords - [0.5, 2.0, 4.5, 8.0])) < 1e-8
    assert np.max(np.abs(v2.coords - [0.5, 2.0, 4.5, 8.0])) < 1e-8


def test_nonanalytic_field_is_path_dependent(h4_psi):
    # first component equal to the second coordinate; its loop integral
    # encloses area instead of cancelling
    field = monomial_field(4, 0, [0, 1, 0, 0])
    chord = straight_path(np.zeros(4), A)
    bent = polyline_path([np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), A])
    v1 = line_integral(field, chord, h4_psi)
    v2 = line_integral(field, bent, h4_psi)
    assert np.max(np.abs(v1.coords - v2.coords)) > 1e-3

    loop = rectangle_loop(np.zeros(4), np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
    circulation = line_integral(field, loop, h4_psi)
    assert abs(circulation.coords[0]) > 1e-3


def test_analytic_field_loop_integral_vanishes(h4_psi):
    loop = rectangle_loop(np.zeros(4), np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
    val = line_integral(identity_field(4), loop, h4_psi)
    assert np.max(np.abs(val.coords)) < 1e-10


def test_quadrature_order_is_four(h4_psi):
    w = np.array([0.5, -0.3, 0.2, 0.4])
    curved = Path(
        lambda t: t[..., None] * A + np.sin(math.pi * t)[..., None] * w,
        velocity=lambda t: A + math.pi * np.cos(math.pi * t)[..., None] * w,
    )
    exact = A * A / 2.0
    errors = []
    for segments in (4, 8, 16):
        val = line_integral(identity_field(4), curved, h4_psi, DiffConfig(quadrature_segments=segments))
        errors.append(np.max(np.abs(val.coords - exact)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    for order in orders:
        assert 3.5 < order < 4.5


def test_fd_velocity_fallback(h4_psi):
    curved = Path(lambda t: t[..., None] * A)  # no velocity callable
    val = line_integral(identity_field(4), curved, h4_psi)
    assert np.max(np.abs(val.coords - A * A / 2.0)) < 1e-6


def test_path_endpoint_bookkeeping():
    p = polyline_path([np.zeros(2), np.array([1.0, 0.0]), np.ones(2)])
    assert np.array_equal(p.start, np.zeros(2))
    assert np.array_equal(p.end, np.ones(2))
    assert p.breakpoints == (0.5,)
    with pytest.raises(ContractError):
        polyline_path([np.zeros(2)])
    with pytest.raises(ContractError):
        Path(lambda t: np.zeros(2), breakpoints=(1.5,))


def test_dimension_mismatch_rejected(h4_psi):
    with pytest.raises(ContractError):
        line_integral(identity_field(3), straight_path(np.zeros(4), A), h4_psi)


def test_path_of_the_wrong_shape_is_rejected(h4_psi):
    with pytest.raises(ContractError, match=r"path returned shape \(4,\), expected \(2, 4\)"):
        Path(lambda t: np.zeros(4))  # ignores the shape of t
    bad_velocity = Path(lambda t: t[..., None] * A, velocity=lambda t: A)
    with pytest.raises(ContractError, match="path velocity returned shape"):
        line_integral(identity_field(4), bad_velocity, h4_psi)
    with pytest.raises(ContractError, match="one parameter"):
        Path(lambda t: np.zeros((2, 4)))


@pytest.mark.parametrize("algebra, error", [("h4-psi", "could not be broadcast"),
                                             ("complex", r"path returned shape \(2,\), expected \(2, 2\)")])
def test_one_point_path_is_rejected_when_built(algebra, error):
    S = builtin_algebra(algebra)
    a = A[:S.n]
    with pytest.raises(ContractError, match=error) as info:
        Path(lambda t: t * a)  # one parameter to one point, the old contract
    assert 'np.vectorize(f, signature="()->(n)")' in str(info.value)
    lifted = Path(np.vectorize(lambda t: t * a, signature="()->(n)"))
    assert np.allclose(line_integral(identity_field(S.n), lifted, S).coords,
                       line_integral(identity_field(S.n), straight_path(np.zeros(S.n), a), S).coords)


def test_one_point_path_of_the_right_shape_is_rejected(h4_psi):
    """np.array([t, t * t]) is a point for one parameter, but the transposed points for a stack of
    two; the path is checked on [0, 1] against its start and end, with no call beyond those three,
    and its velocity on its first stack."""
    calls = []
    lift = re.escape('np.vectorize(f, signature="()->(n)")')
    with pytest.raises(ContractError, match=f"rows 0 and 1 alone.*{lift}"):
        Path(lambda t: calls.append(np.shape(t)) or np.array([t, t * t]))
    assert calls == [(), (), (2,)]
    ramp = Path(np.vectorize(lambda t: np.array([t, t * t]), signature="()->(n)"))
    assert np.array_equal(ramp(np.array([0.5, 1.0])), [[0.5, 0.25], [1.0, 1.0]])
    bad_velocity = Path(lambda t: t[..., None] * A, velocity=lambda t: np.ones(np.shape(t) + (1,)) * A * np.max(t))
    with pytest.raises(ContractError, match=f"path velocity gives one row per point.*rows 0 and 1 alone.*{lift}"):
        line_integral(identity_field(4), bad_velocity, h4_psi)


# ---------------------------------------------------------------------------
# the array quadrature against the per-node loop it replaced
# ---------------------------------------------------------------------------

def reference_line_integral(F, path, S, cfg):
    """Composite Simpson with one path call and one velocity call per node."""
    def vel(u):
        if path.velocity is not None:
            return path.vel(u)
        hk = DiffConfig(h=1e-7).step(np.array([u]))[0]
        return (path(u + hk) - path(u - hk)) / (2 * hk)

    p = S.p
    panels = [np.zeros((1, S.n))]
    knots = [0.0, *path.breakpoints, 1.0]
    for a, b in zip(knots[:-1], knots[1:]):
        m = max(1, round(cfg.quadrature_segments * (b - a)))
        h = (b - a) / m
        starts = [a + idx * h for idx in range(m + 1)]
        t = [u for t0 in starts[:-1] for u in (t0, t0 + h / 2.0)] + starts[-1:]
        lo, hi = a + 1e-11, b - 1e-11
        velocities = np.array([vel(min(max(u, lo), hi)) for u in t])
        v = np.einsum("ikj,...k,...j->...i", p, F(np.array([path(u) for u in t])), velocities)
        panels.append((h / 6.0) * (v[:-1:2] + 4.0 * v[1::2] + v[2::2]))
    return PolyNumber(np.add.accumulate(np.concatenate(panels))[-1], S.basis_tag)


coordinate = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
vertex = st.lists(coordinate, min_size=4, max_size=4).map(np.array)


@settings(max_examples=40, deadline=None)
@given(vertices=st.lists(vertex, min_size=2, max_size=5), segments=st.integers(1, 64),
       algebra=st.sampled_from(("h4-e", "h4-psi")))
def test_line_integral_equals_the_per_node_loop(vertices, segments, algebra):
    S, cfg = builtin_algebra(algebra), DiffConfig(quadrature_segments=segments)
    x0, x1 = vertices[0], vertices[-1]
    paths = [
        straight_path(x0, x1),
        polyline_path(vertices),
        rectangle_loop(x0, x1 - x0, vertices[1] + 0.5),
        Path(lambda t: x0 + t[..., None] * (x1 - x0) + np.sin(3.0 * t)[..., None] * vertices[1]),
    ]
    for field in (identity_field(4), componentwise_exp_field(4, 0.5), monomial_field(4, 1, [1, 2, 0, 1])):
        for path in paths:
            got = line_integral(field, path, S, cfg)
            assert np.array_equal(got.coords, reference_line_integral(field, path, S, cfg).coords)
