"""Path deformation between the boundary bubbles: contracts and benchmarks."""

import importlib
import logging

import numpy as np
import pytest

from henon_annulus import (
    ConfigurationError,
    ContractViolationError,
    DegenerateFieldError,
    DiscreteField,
    InstantonParams,
    ProblemParams,
    build_axi_grid,
    instanton,
    mountain_pass,
    normalize,
    path_crossing,
    rayleigh,
    solve_lambda,
    straight_path,
    weighted_pnorm_p,
)

# same-grid regression pin (96 x 32 graded-polar, one-sided minimizer
# endpoints, 12 segments); detects solver drift, not truth
PINNED_BETA_ALPHA1_P4 = 17.533242963748826
# same-grid pin of the benchmark's mountain-pass inputs (96 x 32, alpha = 1,
# p = 5.5, eps = 1e-3 bubble endpoints, 12 segments, tol = 1e-5)
PINNED_BETA_ALPHA1_P55 = 13.525271158319786
# the same inputs on 48 x 16, where the pass needs 84 sweeps and so runs
# through four redistributions
PINNED_BETA_48X16_P55 = 14.327371941721985


def _endpoints(axi_grid, params):
    u0 = solve_lambda(params, axi_grid, index=0)
    u1 = solve_lambda(params, axi_grid, index=1)
    for u in (u0, u1):
        assert u.converged and not u.escaped
    return u0, u1


class TestStraightPath:
    def test_node_count_and_normalization(self, axi_grid):
        ua = instanton(InstantonParams(1e-3, 0), axi_grid)
        ub = instanton(InstantonParams(1e-3, 1), axi_grid)
        path = straight_path(ua, ub, 9, 1.0, 4.0)
        assert len(path.nodes) == 10
        assert path.quotients.shape == (10,)
        for node, q in zip(path.nodes, path.quotients):
            assert weighted_pnorm_p(node, 1.0, 4.0) == pytest.approx(1.0, rel=1e-12)
            assert rayleigh(node, 1.0, 4.0).quotient == pytest.approx(q, rel=1e-13)

    def test_endpoints_are_normalized_inputs(self, axi_grid):
        ua = instanton(InstantonParams(1e-3, 0), axi_grid)
        ub = instanton(InstantonParams(1e-3, 1), axi_grid)
        path = straight_path(ua, ub, 12, 1.0, 4.0)
        np.testing.assert_array_equal(path.nodes[0].values, normalize(ua, 1.0, 4.0).values)
        np.testing.assert_array_equal(path.nodes[-1].values, normalize(ub, 1.0, 4.0).values)

    def test_too_few_segments(self, axi_grid):
        ua = instanton(InstantonParams(1e-3, 0), axi_grid)
        ub = instanton(InstantonParams(1e-3, 1), axi_grid)
        with pytest.raises(ConfigurationError):
            straight_path(ua, ub, 8, 1.0, 4.0)

    def test_grid_identity_mismatch(self, axi_grid):
        other = build_axi_grid(96, 32, "graded-polar")
        ua = instanton(InstantonParams(1e-3, 0), axi_grid)
        ub = instanton(InstantonParams(1e-3, 1), other)
        with pytest.raises(ConfigurationError):
            straight_path(ua, ub, 12, 1.0, 4.0)

    def test_zero_endpoint(self, axi_grid):
        ua = instanton(InstantonParams(1e-3, 0), axi_grid)
        with pytest.raises(DegenerateFieldError):
            straight_path(ua, DiscreteField.zeros(axi_grid), 12, 1.0, 4.0)

    def test_disjoint_support_plane_bound(self, axi_grid):
        # disjoint supports: energies and masses add, so the quotient on
        # the whole span is at most 2^{1-2/p} max(R0, R1)
        p = 4.0
        ua = instanton(InstantonParams(1e-2, 0), axi_grid)
        ub = instanton(InstantonParams(1e-2, 1), axi_grid)
        r0 = rayleigh(ua, 1.0, p).quotient
        r1 = rayleigh(ub, 1.0, p).quotient
        path = straight_path(ua, ub, 24, 1.0, p)
        bound = 2.0 ** (1.0 - 2.0 / p) * max(r0, r1)
        assert path.max_quotient <= bound * (1.0 + 1e-9)
        assert path.max_quotient >= max(r0, r1) * (1.0 - 1e-12)


class TestPathCrossing:
    def test_bubble_path_crosses(self, axi_grid):
        ua = instanton(InstantonParams(1e-3, 0), axi_grid)
        ub = instanton(InstantonParams(1e-3, 1), axi_grid)
        path = straight_path(ua, ub, 12, 1.0, 4.0)
        k = path_crossing(path)
        assert 1 <= k <= 12

    def test_same_side_endpoints_rejected(self, axi_grid):
        ua = instanton(InstantonParams(1e-2, 0), axi_grid)
        ub = instanton(InstantonParams(1e-3, 0), axi_grid)
        path = straight_path(ua, ub, 12, 1.0, 4.0)
        with pytest.raises(ContractViolationError):
            path_crossing(path)


class TestMountainPass:
    def test_moved_endpoint_is_a_contract_violation(self, axi_grid_small, monkeypatch):
        # the invariant must hold under python -O too, so it raises
        mp = importlib.import_module("henon_annulus.mountain_pass")
        ua = instanton(InstantonParams(1e-3, 0), axi_grid_small)
        ub = instanton(InstantonParams(1e-3, 1), axi_grid_small)
        path = straight_path(ua, ub, 12, 1.0, 4.0)
        assert 0 < int(np.argmax(path.quotients)) < 12

        def moving(path, matrix, pin):
            nodes = list(path.nodes)
            nodes[0] = nodes[0].with_values(2.0 * nodes[0].values)
            return mp.PathState(nodes, path.quotients.copy(), path.alpha, path.p)

        monkeypatch.setattr(mp, "REDISTRIBUTE_EVERY", 1)
        monkeypatch.setattr(mp, "_redistribute", moving)
        with pytest.raises(ContractViolationError, match="endpoint moved"):
            mountain_pass(path, ProblemParams(1.0, 4.0), maxit=1)

    def test_nondegenerate_benchmark(self, axi_grid, params_alpha1_p4, caplog):
        u0, u1 = _endpoints(axi_grid, params_alpha1_p4)
        path = straight_path(u0.field, u1.field, 12, 1.0, 4.0)
        caplog.set_level(logging.DEBUG, logger="henon_annulus.mountain_pass")
        result = mountain_pass(path, params_alpha1_p4)
        assert result.converged
        assert result.beta == pytest.approx(PINNED_BETA_ALPHA1_P4, rel=1e-9)
        # the pass level sits above both one-sided minima and below the
        # undeformed straight-path maximum
        assert result.beta >= max(result.endpoint_levels) * (1.0 - 1e-12)
        assert result.beta <= result.straight_max * (1.0 + 1e-12)
        assert result.endpoint_levels == (
            pytest.approx(u0.report.quotient, rel=1e-13),
            pytest.approx(u1.report.quotient, rel=1e-13),
        )
        # the returned pass field realizes the level
        assert rayleigh(result.w, 1.0, 4.0).quotient == pytest.approx(
            result.beta, rel=1e-13
        )
        # the argmax node was polished by Newton steps, none capped
        stats = result.stats
        assert 1 <= stats.teleports_accepted <= stats.teleports_tried
        assert stats.teleports_refused == stats.teleports_tried - stats.teleports_accepted
        assert stats.linear_solves <= stats.krylov_iterations
        assert 1 <= stats.linear_solves
        assert stats.krylov_capped == 0

        # one DEBUG record per sweep; the per-sweep path maximum never
        # increases, and its argmax node is the one named
        sweeps = [r.args for r in caplog.records if r.name == "henon_annulus.mountain_pass"]
        assert [number for number, _, _ in sweeps] == list(range(1, result.iterations + 1))
        seq = []
        for _, argmax, text in sweeps:
            quotients = [float(q) for q in text.split()]
            assert len(quotients) == 13
            assert quotients[argmax] == max(quotients)
            seq.append(max(quotients))
        assert all(b <= a * (1.0 + 1e-10) for a, b in zip(seq, seq[1:]))

    def test_benchmark_inputs_pinned(self, axi_grid):
        # the argmax node reaches the near-critical band, takes one Newton
        # polish there, and the pass converges without any periodic polish
        ua = instanton(InstantonParams(1e-3, 0), axi_grid)
        ub = instanton(InstantonParams(1e-3, 1), axi_grid)
        path = straight_path(ua, ub, 12, 1.0, 5.5)
        result = mountain_pass(path, ProblemParams(1.0, 5.5), tol=1e-5)
        assert result.converged
        assert result.beta == pytest.approx(PINNED_BETA_ALPHA1_P55, rel=1e-12)
        assert result.iterations == 11
        assert result.stats.teleports_tried == result.stats.teleports_accepted == 1

    def test_redistributing_run_pinned(self, axi_grid_small, monkeypatch):
        mp = importlib.import_module("henon_annulus.mountain_pass")
        redistribute = mp._redistribute
        outcomes = []

        def counted(path, matrix, pin):
            outcomes.append(redistribute(path, matrix, pin))
            return outcomes[-1]

        monkeypatch.setattr(mp, "_redistribute", counted)
        ua = instanton(InstantonParams(1e-3, 0), axi_grid_small)
        ub = instanton(InstantonParams(1e-3, 1), axi_grid_small)
        path = straight_path(ua, ub, 12, 1.0, 5.5)
        result = mountain_pass(path, ProblemParams(1.0, 5.5), tol=1e-5)
        assert result.converged
        assert result.beta == PINNED_BETA_48X16_P55
        assert result.iterations == 84
        assert len(outcomes) == 4 and all(o is not None for o in outcomes)
        stats = result.stats
        assert stats.teleports_tried == stats.teleports_accepted == 1
        assert (stats.linear_solves, stats.krylov_iterations) == (4, 64)

    def test_degenerate_endpoints_stall_honestly(self, axi_grid, params_alpha1_p4):
        # raw bubbles at eps = 1e-2 sit far above the one-sided minima;
        # the maximum retreats to the higher endpoint and the run reports
        # non-convergence instead of a fake interior pass
        ua = instanton(InstantonParams(1e-2, 0), axi_grid)
        ub = instanton(InstantonParams(1e-2, 1), axi_grid)
        path = straight_path(ua, ub, 12, 1.0, 4.0)
        result = mountain_pass(path, params_alpha1_p4)
        assert not result.converged
        assert result.beta == pytest.approx(max(result.endpoint_levels), rel=1e-12)

    def test_params_mismatch(self, axi_grid):
        ua = instanton(InstantonParams(1e-3, 0), axi_grid)
        ub = instanton(InstantonParams(1e-3, 1), axi_grid)
        path = straight_path(ua, ub, 12, 1.0, 4.0)
        with pytest.raises(ConfigurationError):
            mountain_pass(path, ProblemParams(alpha=2.0, p=4.0))

    @pytest.mark.parametrize("maxit", [0, -1])
    def test_budget_below_one(self, axi_grid_small, maxit):
        # no sweep could run, so the straight path's maximum is no pass level
        ua = instanton(InstantonParams(1e-3, 0), axi_grid_small)
        ub = instanton(InstantonParams(1e-3, 1), axi_grid_small)
        path = straight_path(ua, ub, 12, 1.0, 4.0)
        with pytest.raises(ConfigurationError, match="maxit"):
            mountain_pass(path, ProblemParams(alpha=1.0, p=4.0), maxit=maxit)
