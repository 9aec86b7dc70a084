"""Concentration metrics and the scalar inequalities, certified pointwise."""

import math

import numpy as np
import pytest

from henon_annulus import (
    BOUNDARY_RADII,
    ConfigurationError,
    CutoffSpec,
    DegenerateFieldError,
    DiscreteField,
    InstantonParams,
    asymmetry_index,
    balance_f,
    concentration_report,
    hardy_margin,
    instanton,
    sobolev_constant,
)


def _tent(grid):
    return DiscreteField.sampled(grid, lambda r: 1.0 - np.abs(r - 2.0))


class TestHardyMargin:
    def test_tent_margin_closed_form(self, radial_grid):
        # tent peak 1 at r = 2: LHS = 1 exactly, mass = 2/3 at p = 2,
        # constant = 2, so the margin is 1 - 1/3 = 2/3
        margin = hardy_margin(_tent(radial_grid), 2.0)
        assert margin == pytest.approx(2.0 / 3.0, abs=1e-8)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_nonnegative_on_random_fields(self, radial_grid, rng, p):
        # the margin is evaluated exactly for piecewise-linear fields, so
        # nonnegativity up to roundoff certifies the inequality itself
        n = radial_grid.nodes.size
        for _ in range(200):
            vals = rng.standard_normal(n)
            vals[0] = vals[-1] = 0.0
            v = DiscreteField(radial_grid, vals)
            assert hardy_margin(v, p) >= -1e-12

    def test_scaling_degree(self, radial_grid):
        # LHS scales like c^2, the subtracted term like c^2 as well, so
        # the margin is 2-homogeneous
        v = _tent(radial_grid)
        base = hardy_margin(v, 3.0)
        scaled = hardy_margin(v.with_values(2.0 * v.values), 3.0)
        lhs_only = hardy_margin(v.with_values(0.0 * v.values), 3.0)
        assert lhs_only == 0.0
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)

    def test_rejects_axi_field(self, axi_grid):
        u = DiscreteField.sampled(axi_grid, lambda r, t: (r - 1.0) * (3.0 - r))
        with pytest.raises(ConfigurationError):
            hardy_margin(u, 3.0)

    def test_rejects_small_p(self, radial_grid):
        with pytest.raises(ConfigurationError):
            hardy_margin(_tent(radial_grid), 1.5)


class TestBalance:
    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 5.0])
    def test_supremum_and_argmax(self, p):
        xs = np.logspace(-6, 6, 20001)
        vals = np.array([balance_f(float(x), p) for x in xs])
        peak = 2.0 ** (1.0 - 2.0 / p)
        assert vals.max() == pytest.approx(peak, abs=1e-9)
        assert abs(math.log(xs[vals.argmax()])) < 2e-3
        assert balance_f(1.0, p) == pytest.approx(peak, rel=1e-15)

    def test_symmetry_under_inversion(self):
        # f(x) = f(1/x): the two pieces of a split enter symmetrically
        for x in (0.1, 0.37, 3.0, 40.0):
            assert balance_f(x, 4.0) == pytest.approx(balance_f(1.0 / x, 4.0), rel=1e-13)

    def test_tends_to_one_at_ends(self):
        assert balance_f(1e-12, 4.0) == pytest.approx(1.0, abs=1e-5)
        assert balance_f(1e12, 4.0) == pytest.approx(1.0, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            balance_f(0.0, 4.0)
        with pytest.raises(ConfigurationError):
            balance_f(-1.0, 4.0)
        with pytest.raises(ConfigurationError):
            balance_f(1.0, 2.0)


class TestSobolevConstant:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_closed_form(self, n):
        # sharp constant N(N-2)/4 |S^N|^{2/N} of the critical embedding
        omega_sphere = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
        closed = n * (n - 2) / 4.0 * omega_sphere ** (2.0 / n)
        assert sobolev_constant(n) == pytest.approx(closed, rel=1e-13)

    def test_scale_invariant_in_theta(self):
        base = sobolev_constant(3)
        for theta in (0.1, 7.0, 123.0):
            assert sobolev_constant(3, radius=1e3 * max(theta, 1.0), theta=theta) == (
                pytest.approx(base, rel=1e-12)
            )

    def test_stable_under_radius_doubling(self):
        assert sobolev_constant(3, radius=2e3) == pytest.approx(
            sobolev_constant(3), rel=1e-13
        )

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            sobolev_constant(3.5)
        with pytest.raises(ConfigurationError):
            sobolev_constant(2)
        with pytest.raises(ConfigurationError):
            sobolev_constant(3, radius=0.5, theta=1.0)


class TestAsymmetryIndex:
    def test_radial_field_is_zero(self, radial_grid):
        # every level a radial field carries is theta-constant, so both
        # diagnostics refuse it, as hardy_margin refuses an axisymmetric one
        with pytest.raises(ConfigurationError):
            asymmetry_index(_tent(radial_grid))
        with pytest.raises(ConfigurationError):
            concentration_report(_tent(radial_grid), 1.0, 4.0, CutoffSpec())

    def test_theta_constant_axi_field_is_zero(self, axi_grid):
        u = DiscreteField.sampled(axi_grid, lambda r, t: (r - 1.0) * (3.0 - r))
        assert asymmetry_index(u) == pytest.approx(0.0, abs=1e-13)

    def test_concentrated_field_is_large(self, axi_grid):
        u = instanton(InstantonParams(1e-3, 0), axi_grid)
        idx = asymmetry_index(u)
        assert 0.5 < idx <= 1.0

    def test_scale_invariant(self, axi_grid):
        u = DiscreteField.sampled(
            axi_grid, lambda r, t: (r - 1.0) * (3.0 - r) * (1.0 + 0.5 * np.cos(t))
        )
        assert asymmetry_index(u.with_values(100.0 * u.values)) == pytest.approx(
            asymmetry_index(u), rel=1e-12
        )

    def test_zero_field_rejected(self, axi_grid):
        with pytest.raises(DegenerateFieldError):
            asymmetry_index(DiscreteField.zeros(axi_grid))


class TestConcentrationReport:
    def test_dict_keys_use_paper_names(self, axi_grid):
        u = DiscreteField.sampled(axi_grid, lambda r, t: (r - 1.0) * (3.0 - r))
        d = concentration_report(u, 1.0, 4.0, CutoffSpec()).to_dict()
        assert set(d) == {"lambda", "xi", "boundary_fraction", "barycenter", "asymmetry_index"}
        assert set(d["barycenter"]) == {"r", "theta"}
        assert set(d["boundary_fraction"]) == {f"{x:g}" for x in BOUNDARY_RADII}

    def test_inner_supported_field_sentinels(self, axi_grid):
        u = instanton(InstantonParams(1e-3, 1), axi_grid)
        rep = concentration_report(u, 1.0, 4.0, CutoffSpec())
        assert rep.mass_ratio == math.inf
        assert rep.energy_ratio == math.inf

    def test_outer_supported_field_sentinels(self, axi_grid):
        u = instanton(InstantonParams(1e-3, 0), axi_grid)
        rep = concentration_report(u, 1.0, 4.0, CutoffSpec())
        assert rep.mass_ratio == 0.0
        assert rep.energy_ratio == 0.0

    def test_instanton_barycenter_and_localization(self, axi_grid):
        ip = InstantonParams(1e-3, 0)
        rep = concentration_report(instanton(ip, axi_grid), 1.0, 4.0, CutoffSpec())
        r_bar, theta_bar = rep.barycenter
        assert theta_bar == 0.0
        assert abs(r_bar - ip.center_radius) < 0.05
        assert rep.boundary_fraction[0.3] > 0.9
        fracs = [rep.boundary_fraction[rho] for rho in BOUNDARY_RADII]
        assert all(a <= b + 1e-15 for a, b in zip(fracs, fracs[1:]))
        assert rep.boundary_fraction[2.0] == pytest.approx(1.0, abs=1e-12)

    def test_balanced_field_finite_ratios(self, axi_grid):
        u = DiscreteField.sampled(axi_grid, lambda r, t: 1.0 - np.abs(r - 2.0))
        rep = concentration_report(u, 1.0, 4.0, CutoffSpec())
        assert 0.0 < rep.mass_ratio < math.inf
        assert 0.0 < rep.energy_ratio < math.inf
        # theta-constant on the grid, so zero up to roundoff
        assert rep.asymmetry_index == pytest.approx(0.0, abs=1e-13)

    def test_dead_band_support_rejected(self, axi_grid):
        u = DiscreteField.sampled(
            axi_grid, lambda r, t: np.clip(0.1 - np.abs(r - 2.0), 0.0, None)
        )
        assert not u.is_zero
        with pytest.raises(DegenerateFieldError):
            concentration_report(u, 1.0, 4.0, CutoffSpec(delta=0.25))

    def test_zero_field_rejected(self, axi_grid):
        with pytest.raises(DegenerateFieldError):
            concentration_report(DiscreteField.zeros(axi_grid), 1.0, 4.0, CutoffSpec())
