"""Grids, fields, and parameter validation."""

import math

import numpy as np
import pytest

from henon_annulus import (
    ConfigurationError,
    DiscreteField,
    ProblemParams,
    build_axi_grid,
    build_radial_grid,
)
from henon_annulus.geometry import surface_measure


class TestProblemParams:
    def test_defaults(self):
        params = ProblemParams(2.0, 4.0)
        assert params.dim == 3
        assert params.two_star == pytest.approx(6.0)

    def test_alpha_bounds(self):
        ProblemParams(0.0, 4.0)
        ProblemParams(1000.0, 4.0)
        with pytest.raises(ConfigurationError):
            ProblemParams(-0.5, 4.0)
        with pytest.raises(ConfigurationError):
            ProblemParams(1000.5, 4.0)

    def test_p_window(self):
        with pytest.raises(ConfigurationError):
            ProblemParams(1.0, 1.5)
        ProblemParams(1.0, 2.0)  # the linear case
        ProblemParams(1.0, 5.95)
        with pytest.raises(ConfigurationError):
            ProblemParams(1.0, 5.96)  # above 2* - margin for N = 3
        with pytest.raises(ConfigurationError):
            ProblemParams(1.0, 6.0)
        with pytest.raises(ConfigurationError, match="p must be >= 2"):
            ProblemParams(1.0, math.nan)

    def test_dim_window(self):
        with pytest.raises(ConfigurationError):
            ProblemParams(1.0, 4.0, dim=2)
        with pytest.raises(ConfigurationError):
            ProblemParams(1.0, 4.0, dim=3.0)  # must be an int, not a float
        params = ProblemParams(1.0, 3.0, dim=4)
        assert params.two_star == pytest.approx(4.0)

    def test_frozen(self):
        params = ProblemParams(1.0, 4.0)
        with pytest.raises(AttributeError):
            params.alpha = 2.0

    def test_surface_measure(self):
        assert surface_measure(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert surface_measure(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


class TestRadialGrid:
    def test_basic_structure(self):
        grid = build_radial_grid(100)
        assert grid.nodes[0] == 1.0
        assert grid.nodes[-1] == 3.0
        assert grid.nodes.size == 101
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.dim == 3

    def test_midline_node_exact(self):
        # the weight kink at r = 2 must sit exactly on a node
        for grading in ("uniform", "graded"):
            grid = build_radial_grid(50, grading)
            assert 2.0 in grid.nodes

    def test_free_nodes(self):
        grid = build_radial_grid(64)
        assert np.arange(grid.n_nodes)[grid.free].tolist() == list(range(1, 64))

    def test_grading_clusters_boundary(self):
        uniform = build_radial_grid(200, "uniform")
        graded = build_radial_grid(200, "graded")
        du = np.diff(uniform.nodes)
        dg = np.diff(graded.nodes)
        assert dg[0] < 0.5 * du[0]
        assert dg[-1] < 0.5 * du[-1]

    def test_descriptor(self):
        grid = build_radial_grid(400, "graded")
        assert grid.descriptor == "radial(n=400,graded(40),N=3)"

    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            build_radial_grid(2)

    def test_unknown_grading(self):
        with pytest.raises(ConfigurationError):
            build_radial_grid(50, "log")

    def test_identity_equality(self):
        a = build_radial_grid(50)
        b = build_radial_grid(50)
        assert a == a
        assert a != b  # grids compare by identity, not value


class TestAxiGrid:
    def test_basic_structure(self):
        grid = build_axi_grid(32, 12)
        assert grid.r_nodes[0] == 1.0 and grid.r_nodes[-1] == 3.0
        assert grid.theta_nodes[0] == 0.0 and grid.theta_nodes[-1] == math.pi
        assert 2.0 in grid.r_nodes
        assert grid.n_nodes == 33 * 13
        assert grid.dim == 3

    def test_flat_index_r_major(self):
        grid = build_axi_grid(16, 8)
        rmesh, tmesh = grid.node_mesh()
        nt = grid.theta_nodes.size
        # flat index i * nt + j walks theta fastest
        assert rmesh.ravel()[nt] == grid.r_nodes[1]
        assert tmesh.ravel()[1] == grid.theta_nodes[1]

    def test_dirichlet_columns(self):
        grid = build_axi_grid(16, 8)
        free = np.zeros(grid.n_nodes, dtype=bool)
        free[grid.free] = True
        free2 = free.reshape(17, 9)
        assert not free2[0].any() and not free2[-1].any()
        assert free2[1:-1].all()

    def test_descriptor(self):
        grid = build_axi_grid(96, 32, "graded-polar")
        assert grid.descriptor == "axi(96x32,graded(r40,t30))"

    def test_counts_too_small(self):
        with pytest.raises(ConfigurationError):
            build_axi_grid(4, 12)
        with pytest.raises(ConfigurationError):
            build_axi_grid(32, 4)

    def test_unknown_grading(self):
        # the variants are "uniform" and "graded-polar"
        with pytest.raises(ConfigurationError, match="unknown axi grading"):
            build_axi_grid(32, 12, "graded")

    def test_polar_grading_clusters_axis(self):
        uniform = build_axi_grid(32, 24, "uniform")
        polar = build_axi_grid(32, 24, "graded-polar")
        du = np.diff(uniform.theta_nodes)
        dp = np.diff(polar.theta_nodes)
        assert dp[0] < 0.5 * du[0]
        assert dp[-1] < 0.5 * du[-1]


class TestDiscreteField:
    def test_zeros_and_is_zero(self, radial_grid):
        z = DiscreteField.zeros(radial_grid)
        assert z.is_zero
        assert z.values.shape == (radial_grid.n_nodes,)

    def test_sampled_enforces_dirichlet(self, radial_grid):
        u = DiscreteField.sampled(radial_grid, lambda r: np.ones_like(r))
        assert u.values[0] == 0.0 and u.values[-1] == 0.0
        assert u.values[1] == 1.0

    def test_rejects_nonzero_boundary(self, radial_grid):
        values = np.ones(radial_grid.n_nodes)
        with pytest.raises(ConfigurationError):
            DiscreteField(radial_grid, values)

    def test_rejects_nonfinite(self, radial_grid):
        values = np.zeros(radial_grid.n_nodes)
        values[3] = np.nan
        with pytest.raises(ConfigurationError):
            DiscreteField(radial_grid, values)

    def test_values_read_only(self, radial_grid):
        u = DiscreteField.sampled(radial_grid, lambda r: r - 1.0)
        with pytest.raises(ValueError):
            u.values[5] = 7.0

    def test_with_values(self, radial_grid):
        u = DiscreteField.sampled(radial_grid, lambda r: (r - 1.0) * (3.0 - r))
        v = u.with_values(2.0 * u.values)
        assert v.grid is u.grid
        np.testing.assert_array_equal(v.values, 2.0 * u.values)

    def test_values_2d_axi_only(self, axi_grid_small, radial_grid):
        u = DiscreteField.sampled(
            axi_grid_small, lambda r, t: (r - 1.0) * (3.0 - r) * np.cos(t)
        )
        two_d = u.values_2d
        assert two_d.shape == (
            axi_grid_small.r_nodes.size,
            axi_grid_small.theta_nodes.size,
        )
        radial = DiscreteField.sampled(radial_grid, lambda r: r - 1.0)
        with pytest.raises(ConfigurationError):
            radial.values_2d
