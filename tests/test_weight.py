"""Weighted quadrature against closed forms and adaptive reference integration."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from henon_annulus import ConfigurationError, build_axi_grid, build_radial_grid
from henon_annulus.weight import (
    radial_rule,
    subdivision_count,
    theta_rule,
    weight_eval,
)

from cell_quadrature import cell_weighted_integral


def _quad_reference(a, b, alpha, f):
    parts = [(a, min(b, 2.0)), (max(a, 2.0), b)]
    return sum(
        quad(
            lambda r: abs(r - 2.0) ** alpha * f(r) * 4.0 * math.pi * r**2,
            lo,
            hi,
            limit=400,
        )[0]
        for lo, hi in parts
        if hi > lo
    )


class TestWeightEval:
    def test_matches_definition(self):
        alpha = 3.5
        r = np.array([1.1, 1.9, 2.0, 2.3, 2.9])
        # exp(alpha log d) and d**alpha may differ by an ulp
        np.testing.assert_allclose(
            weight_eval(r, alpha), np.abs(r - 2.0) ** 3.5, rtol=5e-15
        )

    def test_point_values(self):
        assert weight_eval(np.array([2.0]), 5.0)[0] == 0.0
        for alpha in (0.0, 1.0, 137.5):
            assert weight_eval(np.array([1.0]), alpha)[0] == 1.0
            assert weight_eval(np.array([3.0]), alpha)[0] == 1.0
        assert weight_eval(np.array([2.5]), 2.0)[0] == pytest.approx(
            0.25, rel=1e-15
        )
        assert weight_eval(np.array([2.9]), 100.0)[0] == pytest.approx(
            0.9**100, rel=1e-12
        )

    def test_range_and_monotonicity(self):
        r = np.linspace(1.0, 3.0, 10_001)
        lower = weight_eval(r, 3.0)
        higher = weight_eval(r, 7.0)
        assert np.all((lower >= 0.0) & (lower <= 1.0))
        assert np.all((higher >= 0.0) & (higher <= 1.0))
        inside = np.abs(r - 2.0) < 1.0
        assert np.all(higher[inside] <= lower[inside])

    def test_alpha_zero_is_one(self):
        r = np.linspace(1.0, 3.0, 11)
        np.testing.assert_array_equal(weight_eval(r, 0.0), np.ones(11))

    def test_domain_error(self):
        with pytest.raises(ConfigurationError):
            weight_eval(np.array([0.5]), 1.0)
        with pytest.raises(ConfigurationError):
            weight_eval(np.array([3.5]), 1.0)

    def test_underflow_flushes_to_zero(self):
        # |r-2|^alpha underflows far below the double range for huge alpha
        alpha = 1000.0
        vals = weight_eval(np.array([1.999, 2.001]), alpha)
        assert np.all(vals == 0.0)
        assert np.all(np.isfinite(vals))

    def test_spec_validation(self):
        r = np.array([1.5])
        with pytest.raises(ConfigurationError):
            weight_eval(r, -1.0)
        with pytest.raises(ConfigurationError):
            weight_eval(r, 1000.5)


class TestRules:
    def test_theta_rule_composite_integrates_sine(self):
        # per-cell rules summed over a partition, as the assembly uses them
        edges = np.linspace(0.0, math.pi, 25)
        total = sum(
            float(wts @ np.sin(pts))
            for pts, wts in (theta_rule(t0, t1) for t0, t1 in zip(edges[:-1], edges[1:]))
        )
        assert total == pytest.approx(2.0, abs=1e-12)

    def test_subdivision_tracks_weight_variation(self):
        # more subcells for larger alpha and closer to the cusp at r = 2
        assert subdivision_count(1.2, 1.25, 200.0) > subdivision_count(1.2, 1.25, 2.0)
        assert subdivision_count(1.7, 1.75, 40.0) > subdivision_count(1.2, 1.25, 40.0)
        assert subdivision_count(1.2, 1.25, 0.0) == 1
        # on arrays of cell edges, the counts of the cells one by one
        a = np.array([1.0, 1.2, 1.7, 1.9, 2.0, 2.5])
        b = np.array([1.2, 1.25, 1.75, 2.0, 2.1, 3.0])
        for alpha in (0.0, 2.0, 40.0, 200.0):
            got = subdivision_count(a, b, alpha)
            assert got.tolist() == [subdivision_count(x, y, alpha) for x, y in zip(a, b)]

    def test_kink_rule_weights_restore_weighted_rule(self):
        # the dr-weights times psi at the points integrate s^alpha * poly
        # exactly; check against the closed form int_0^h s^a (2+s)^2 ds
        for alpha in (0.5, 7.3, 300.0):
            pts, wts = radial_rule(2.0, 2.4, alpha)
            psi = weight_eval(pts, alpha)
            got = float(np.sum(wts * psi * pts**2))
            h = 0.4
            want = (
                4.0 * h ** (alpha + 1) / (alpha + 1)
                + 4.0 * h ** (alpha + 2) / (alpha + 2)
                + h ** (alpha + 3) / (alpha + 3)
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_empty_cells_rejected(self):
        with pytest.raises(ConfigurationError):
            radial_rule(2.0, 2.0, 1.0)
        with pytest.raises(ConfigurationError):
            radial_rule(np.array([1.0, 2.0]), np.array([2.0, 2.0]), 1.0)
        with pytest.raises(ConfigurationError):
            theta_rule(1.0, 0.5)


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


class TestBatchedRule:
    """radial_rule on arrays of cell edges against one call per cell."""

    NODES = {
        "radial-2000": lambda: build_radial_grid(2000, "graded").nodes,
        "axi-48x16": lambda: build_axi_grid(48, 16, "graded-polar").r_nodes,
    }

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 20.0, 80.0, 320.0])
    @pytest.mark.parametrize("grid", sorted(NODES))
    def test_bitwise_equal_to_per_cell_rules(self, grid, alpha, refine):
        nodes = self.NODES[grid]()
        rules = [radial_rule(a, b, alpha, refine) for a, b in zip(nodes[:-1], nodes[1:])]
        pts, wts = radial_rule(nodes[:-1], nodes[1:], alpha, refine)
        np.testing.assert_array_equal(_bits(pts), _bits(np.concatenate([q for q, _ in rules])))
        np.testing.assert_array_equal(_bits(wts), _bits(np.concatenate([w for _, w in rules])))
        # Gauss points lie strictly inside their cells, so a sorted search
        # recovers each point's cell
        cells = np.repeat(np.arange(len(rules)), [len(q) for q, _ in rules])
        np.testing.assert_array_equal(np.searchsorted(nodes, pts) - 1, cells)


class TestCellIntegrals:
    def test_zero_integrand(self):
        got = cell_weighted_integral((1.2, 1.7), 3.0, lambda r: 0.0 * r)
        assert got == 0.0

    def test_alpha_zero_sphere_closed_form(self):
        a, b = 1.3, 2.6
        got = cell_weighted_integral((a, b), 0.0, lambda r: np.ones_like(r))
        assert got == pytest.approx(4.0 * math.pi * (b**3 - a**3) / 3.0, rel=1e-13)

    def test_alpha_two_outer_half_closed_form(self):
        got = cell_weighted_integral((2.0, 3.0), 2.0, lambda r: np.ones_like(r))
        # 4 pi int_2^3 (r-2)^2 r^2 dr = 4 pi (1/5 + 1 + 4/3)
        assert got == pytest.approx(4.0 * math.pi * 38.0 / 15.0, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 7.3, 40.0])
    def test_kink_cells_against_quad(self, alpha):
        for a, b in [(1.8, 2.0), (2.0, 2.4), (1.9, 2.1)]:
            got = cell_weighted_integral((a, b), alpha, lambda r: np.cos(r))
            assert got == pytest.approx(_quad_reference(a, b, alpha, math.cos), rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 7.3, 40.0])
    def test_grid_cells_against_quad(self, alpha):
        grid = build_radial_grid(50, "graded")
        total_got = 0.0
        total_want = 0.0
        for a, b in zip(grid.nodes[:-1], grid.nodes[1:]):
            total_got += cell_weighted_integral((a, b), alpha, lambda r: np.cos(r))
            total_want += _quad_reference(a, b, alpha, math.cos)
        assert total_got == pytest.approx(total_want, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 40.0, 300.0, 1000.0])
    def test_whole_annulus_mass_closed_form(self, alpha):
        # int_Omega psi dx = 4 pi (8/(alpha+1) + 2/(alpha+3)), exactly
        grid = build_radial_grid(400, "graded")
        total = sum(
            cell_weighted_integral((a, b), alpha, lambda r: np.ones_like(r))
            for a, b in zip(grid.nodes[:-1], grid.nodes[1:])
        )
        exact = 4.0 * math.pi * (8.0 / (alpha + 1.0) + 2.0 / (alpha + 3.0))
        assert total == pytest.approx(exact, rel=1e-11)

    def test_line_measure(self):
        alpha = 1.0
        got = cell_weighted_integral(
            (1.0, 2.0), alpha, lambda r: np.ones_like(r), measure="line"
        )
        # int_1^2 (2-r) dr = 1/2
        assert got == pytest.approx(0.5, rel=1e-13)

    def test_two_dim_cell_against_nested_quad(self):
        alpha = 2.0

        def f(r, t):
            return np.cos(r) * (1.0 + np.cos(t))

        def inner(r):
            return quad(lambda t: (1.0 + math.cos(t)) * math.sin(t), 0.2, 1.1)[0] * (
                abs(r - 2.0) ** 2 * math.cos(r) * 2.0 * math.pi * r**2
            )

        want = sum(quad(inner, a, b, limit=200)[0] for a, b in ((1.5, 2.0), (2.0, 2.5)))
        cell = ((1.5, 2.5), (0.2, 1.1))
        # this ad-hoc cell is far wider than any grid cell; the base rule
        # is coarse in theta and refinement converges it out
        got = cell_weighted_integral(cell, alpha, f)
        assert got == pytest.approx(want, rel=1e-6)
        refined = cell_weighted_integral(cell, alpha, f, refine=4)
        assert refined == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 7.3, 40.0, 300.0])
    def test_doubled_subdivision_stable_on_grid_cells(self, alpha):
        # quadrature convergence: doubling changes < 1e-8 relative on
        # smooth f, per cell, over a whole working grid
        grid = build_radial_grid(200, "graded")
        for a, b in zip(grid.nodes[:-1], grid.nodes[1:]):
            base = cell_weighted_integral((a, b), alpha, lambda r: np.cos(r))
            fine = cell_weighted_integral((a, b), alpha, lambda r: np.cos(r), refine=2)
            if abs(base) < 1e-280:
                # at the flush floor the point masses straddle the cutoff;
                # only zero-equivalence is meaningful there
                assert abs(fine) < 1e-280
            else:
                assert abs(fine - base) / abs(base) < 1e-8

    def test_huge_alpha_finite(self):
        alpha = 900.0
        got = cell_weighted_integral((1.0, 3.0), alpha, lambda r: np.ones_like(r))
        assert np.isfinite(got)
        assert got > 0.0

    def test_bad_measure_rejected(self):
        with pytest.raises(ConfigurationError):
            cell_weighted_integral((1.0, 2.0), 1.0, lambda r: r, measure="disk")
