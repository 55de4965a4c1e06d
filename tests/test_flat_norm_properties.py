"""Norm axioms of the flat norm on random measures, drawn by hypothesis.

The spaces reach 1-D grids of 60 atoms and 2-D grids of 8x8. Every value
has passed the certificate of `bl_dual_norm`; these tests check that the
values also behave as a norm should.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from crflow.measure import DiscreteMeasure, bl_dual_norm, flat_distance
from crflow.space import build_grid

SPACES = (
    [build_grid(1, [(0.0, 1.0)], [n]) for n in (1, 2, 3, 7, 20, 60)]
    + [build_grid(2, [(0.0, 1.0)] * 2, [k, k]) for k in (2, 4, 8)]
)
REL = 1e-12
AXIOMS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def measures(draw, count):
    """`count` signed measures on one space, weights in [-10, 10]."""
    space = draw(st.sampled_from(SPACES))
    weights = arrays(np.float64, space.size, fill=st.nothing(),
                     elements=st.floats(-10.0, 10.0, allow_nan=False))
    return [DiscreteMeasure(space, draw(weights)) for _ in range(count)]


@AXIOMS
@given(measures(2))
def test_symmetry(pair):
    mu, nu = pair
    forward, backward = flat_distance(mu, nu), flat_distance(nu, mu)
    assert forward == pytest.approx(backward, rel=REL, abs=0.0)


@AXIOMS
@given(measures(3))
def test_triangle_inequality(triple):
    mu, nu, rho = triple
    direct = flat_distance(mu, rho)
    detour = flat_distance(mu, nu) + flat_distance(nu, rho)
    assert direct <= detour * (1.0 + REL)


@AXIOMS
@given(measures(1), st.floats(-100.0, 100.0, allow_nan=False))
def test_absolute_homogeneity(single, alpha):
    mu, = single
    scaled = bl_dual_norm(alpha * mu)
    # alpha * mu rounds each weight by at most one subnormal step below
    # the normal range, which moves the norm by at most that much per atom
    floor = mu.space.size * np.nextafter(0.0, 1.0)
    assert scaled == pytest.approx(abs(alpha) * bl_dual_norm(mu), rel=REL, abs=floor)


@AXIOMS
@given(measures(1))
def test_between_total_mass_and_total_variation(single):
    mu, = single
    norm = bl_dual_norm(mu)
    assert abs(mu.total_mass()) <= norm * (1.0 + REL)
    assert norm <= np.abs(mu.weights).sum() * (1.0 + REL)
