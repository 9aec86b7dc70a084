"""Comparison-field geometry: bumps, truncated instantons, cutoff splitting."""

import math

import numpy as np
import pytest

from henon_annulus import (
    ConfigurationError,
    CutoffSpec,
    DiscreteField,
    InstantonParams,
    dirichlet_energy,
    instanton,
    phi_cutoff_decompose,
    rayleigh,
    sobolev_constant,
    weighted_pnorm_p,
)
from bubble_oracle import truncated_bubble_level
from henon_annulus.profiles import (
    boundary_bump,
    instanton_values,
    phi_cutoff,
    radial_bump,
)


class TestInstantonParams:
    def test_outer_center_geometry(self):
        ip = InstantonParams(epsilon=1e-3, index=0)
        ls = abs(math.log(1e-3))
        assert ip.log_scale == pytest.approx(ls)
        assert ip.boundary_gap == pytest.approx(1.0 / ls)
        assert ip.center_radius == pytest.approx(3.0 - 1.0 / ls)
        assert ip.plateau_radius == pytest.approx(0.5 / ls)
        assert ip.support_radius == pytest.approx(1.0 / ls)

    def test_inner_center_geometry(self):
        ip = InstantonParams(epsilon=1e-4, index=1)
        assert ip.center_radius == pytest.approx(1.0 + 1.0 / abs(math.log(1e-4)))

    def test_support_fits_half_annulus(self):
        # center gap equals the support radius: the ball is tangent to its
        # boundary sphere and must not reach r = 2
        for eps in (1e-2, 1e-3, 1e-6):
            ip = InstantonParams(epsilon=eps, index=0)
            assert ip.center_radius - ip.support_radius > 2.0
            ip = InstantonParams(epsilon=eps, index=1)
            assert ip.center_radius + ip.support_radius < 2.0

    def test_epsilon_window(self):
        InstantonParams(epsilon=0.13, index=0)
        with pytest.raises(ConfigurationError):
            InstantonParams(epsilon=0.2, index=0)
        with pytest.raises(ConfigurationError):
            InstantonParams(epsilon=0.0, index=0)
        with pytest.raises(ConfigurationError):
            InstantonParams(epsilon=-1e-3, index=0)

    def test_index_window(self):
        with pytest.raises(ConfigurationError):
            InstantonParams(epsilon=1e-3, index=2)


class TestInstantonField:
    def test_requires_axisymmetric_grid(self, radial_grid):
        with pytest.raises(ConfigurationError):
            instanton(InstantonParams(epsilon=1e-3, index=0), radial_grid)

    def test_vanishes_outside_support(self, axi_grid):
        ip = InstantonParams(epsilon=1e-3, index=0)
        u = instanton(ip, axi_grid)
        rr, tt = axi_grid.node_mesh()
        z = rr * np.cos(tt)
        x = rr * np.sin(tt)
        d = np.sqrt(x * x + (z - ip.center_radius) ** 2).ravel()
        outside = d > ip.support_radius
        assert np.all(u.values[outside] == 0.0)
        assert np.any(u.values > 0.0)

    def test_plateau_matches_bare_bubble(self, axi_grid):
        ip = InstantonParams(epsilon=1e-3, index=1)
        u = instanton(ip, axi_grid)
        rr, tt = axi_grid.node_mesh()
        z = rr * np.cos(tt)
        x = rr * np.sin(tt)
        d = np.sqrt(x * x + (z - ip.center_radius) ** 2).ravel()
        inside = d < 0.9 * ip.plateau_radius
        inside[:axi_grid.free.start] = inside[axi_grid.free.stop:] = False
        assert np.any(inside)
        bare = (ip.epsilon + d[inside] ** 2) ** (-0.5)
        np.testing.assert_allclose(u.values[inside], bare, rtol=1e-13)

    def test_peak_value_scales_with_epsilon(self):
        # at the center the bare bubble is eps^{-(N-2)/2}
        for eps in (1e-3, 1e-4):
            ip = InstantonParams(epsilon=eps, index=0)
            val = instanton_values(ip, ip.center_radius, 0.0)
            assert val == pytest.approx(eps**-0.5, rel=1e-12)

    def test_quotient_finite_positive(self, axi_grid):
        u = instanton(InstantonParams(epsilon=1e-3, index=0), axi_grid)
        rep = rayleigh(u, 1.0, 4.0)
        assert np.isfinite(rep.quotient)
        assert rep.quotient > 0.0


class TestBubbleOracle:
    """Grid-free continuum levels of the truncated bubble."""

    def test_near_critical_level_pinned(self):
        # eps = 1e-4, p = 5.9: the cutoff keeps the level ~44% above the
        # unconstrained constant, whatever the grid
        level = truncated_bubble_level(InstantonParams(1e-4, 0), 1.0, 5.9)
        assert level == pytest.approx(7.8812, rel=1e-4)
        assert level / sobolev_constant(3) - 1.0 == pytest.approx(0.439, abs=1e-3)

    def test_unweighted_critical_level_approaches_constant(self):
        s_crit = sobolev_constant(3)
        for index in (0, 1):
            levels = [
                truncated_bubble_level(InstantonParams(eps, index), 0.0, 6.0)
                for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-12)
            ]
            assert all(level > s_crit for level in levels)
            assert all(a > b for a, b in zip(levels, levels[1:]))
            assert levels[-1] / s_crit - 1.0 < 1e-3


class TestBumps:
    def test_radial_bump_support(self, radial_grid):
        alpha = 10.0
        u = radial_bump(alpha, radial_grid)
        left = radial_grid.nodes <= 3.0 - 2.0 / alpha
        assert np.all(u.values[left] == 0.0)
        assert np.any(u.values > 0.0)
        peak_r = radial_grid.nodes[np.argmax(u.values)]
        assert abs(peak_r - (3.0 - 1.0 / alpha)) < 0.02

    def test_radial_bump_validation(self, radial_grid, axi_grid):
        with pytest.raises(ConfigurationError):
            radial_bump(1.5, radial_grid)
        with pytest.raises(ConfigurationError):
            radial_bump(10.0, axi_grid)

    def test_boundary_bump_support(self, axi_grid):
        alpha = 10.0
        u = boundary_bump(alpha, axi_grid)
        rr, tt = axi_grid.node_mesh()
        z = rr * np.cos(tt)
        x = rr * np.sin(tt)
        d = np.sqrt(x * x + (z - (3.0 - 1.0 / alpha)) ** 2).ravel()
        assert np.all(u.values[d >= 1.0 / alpha] == 0.0)
        assert np.any(u.values > 0.0)

    def test_boundary_bump_validation(self, axi_grid, radial_grid):
        with pytest.raises(ConfigurationError):
            boundary_bump(3.0, axi_grid)
        with pytest.raises(ConfigurationError):
            boundary_bump(10.0, radial_grid)

    def test_point_bump_beats_radial_bump_at_large_alpha(self):
        # the point bump quotient grows strictly slower in alpha, which is
        # the mechanism behind symmetry breaking of the ground level
        from henon_annulus import build_axi_grid, build_radial_grid

        alpha, p = 40.0, 4.0
        rad = build_radial_grid(2000, "graded")
        axi = build_axi_grid(192, 64, "graded-polar")
        r_rad = rayleigh(radial_bump(alpha, rad), alpha, p).quotient
        r_pt = rayleigh(boundary_bump(alpha, axi), alpha, p).quotient
        assert r_pt < r_rad


class TestCutoff:
    def test_spec_window(self):
        CutoffSpec()
        CutoffSpec(delta=0.1)
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ConfigurationError):
                CutoffSpec(delta=bad)

    def test_phi_values(self):
        spec = CutoffSpec(delta=0.25)
        r = np.array([1.0, 1.25, 1.75, 2.0, 2.25, 2.75, 3.0])
        phi = phi_cutoff(r, spec)
        np.testing.assert_allclose(phi, [1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0], atol=1e-15)
        mid = phi_cutoff(np.array([1.5, 2.5]), spec)
        assert np.all((mid > 0.0) & (mid < 1.0))

    def test_nodewise_additivity(self, axi_grid):
        spec = CutoffSpec()
        u = DiscreteField.sampled(
            axi_grid, lambda r, t: (r - 1.0) * (3.0 - r) * (1.0 + 0.3 * np.cos(t))
        )
        inner, outer = phi_cutoff_decompose(u, spec)
        phi_u = u.values * phi_cutoff(axi_grid.node_mesh()[0].ravel(), spec)
        np.testing.assert_array_equal(inner.values + outer.values, phi_u)

    def test_disjoint_supports(self, axi_grid):
        spec = CutoffSpec(delta=0.25)
        u = DiscreteField.sampled(axi_grid, lambda r, t: (r - 1.0) * (3.0 - r))
        r_nodes = axi_grid.node_mesh()[0].ravel()
        inner, outer = phi_cutoff_decompose(u, spec)
        assert np.all(inner.values[r_nodes >= 2.0 - spec.delta] == 0.0)
        assert np.all(outer.values[r_nodes <= 2.0 + spec.delta] == 0.0)
        assert np.all(inner.values * outer.values == 0.0)

    def test_energy_and_mass_additivity(self, axi_grid):
        # supports separated by the dead band share no cell, so both the
        # Dirichlet energy and the weighted mass split exactly
        spec = CutoffSpec()
        u = DiscreteField.sampled(
            axi_grid, lambda r, t: (r - 1.0) * (3.0 - r) * (1.0 + 0.3 * np.cos(t))
        )
        inner, outer = phi_cutoff_decompose(u, spec)
        total = inner.with_values(inner.values + outer.values)
        assert dirichlet_energy(inner) + dirichlet_energy(outer) == pytest.approx(
            dirichlet_energy(total), rel=1e-14
        )
        pi = weighted_pnorm_p(inner, 1.0, 4.0)
        po = weighted_pnorm_p(outer, 1.0, 4.0)
        assert pi + po == pytest.approx(weighted_pnorm_p(total, 1.0, 4.0), rel=1e-14)
