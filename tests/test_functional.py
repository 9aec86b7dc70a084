"""Energies, weighted norms, gradients: exactness and invariance checks."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.integrate import quad

from henon_annulus import (
    ConfigurationError,
    ContractViolationError,
    DegenerateFieldError,
    DiscreteField,
    InstantonParams,
    RadialGrid,
    build_axi_grid,
    build_radial_grid,
    dirichlet_energy,
    functional_gradient,
    halfspace_energies,
    instanton,
    normalize,
    rayleigh,
    residual_pde,
    weighted_pnorm_p,
)
from henon_annulus import functional as fn
from henon_annulus.geometry import zero_dirichlet

from cell_quadrature import cell_weighted_integral


def _bump_radial(grid):
    return DiscreteField.sampled(grid, lambda r: (r - 1.0) * (3.0 - r))


def _bump_axi(grid):
    return DiscreteField.sampled(
        grid, lambda r, t: (r - 1.0) * (3.0 - r) * (1.0 + 0.5 * np.cos(t))
    )


def _bump_mid(grid):
    """Supported on |r - 2| < 0.6: only tail cells at alpha = 320 on 16x8."""
    return DiscreteField.sampled(
        grid, lambda r, t: np.maximum(0.0, 1.0 - ((r - 2.0) / 0.6) ** 2) * (1.0 + 0.5 * np.cos(t))
    )


class TestDirichletEnergy:
    def test_quadratic_bump_converges(self):
        # u = (r-1)(3-r): E = 4 pi int (4-2r)^2 r^2 dr exactly
        want = 4.0 * math.pi * quad(lambda r: (4.0 - 2.0 * r) ** 2 * r**2, 1.0, 3.0)[0]
        errs = []
        for n in (100, 200, 400):
            grid = build_radial_grid(n, "uniform")
            errs.append(abs(dirichlet_energy(_bump_radial(grid)) - want) / want)
        assert errs[2] < errs[0]
        assert errs[2] < 1e-4

    def test_partition_exact(self, axi_grid):
        u = _bump_axi(axi_grid)
        e = dirichlet_energy(u)
        ep, em = halfspace_energies(u)
        assert ep + em == pytest.approx(e, rel=1e-14)

    def test_partition_exact_radial(self, radial_grid):
        u = _bump_radial(radial_grid)
        ep, em = halfspace_energies(u)
        assert ep + em == pytest.approx(dirichlet_energy(u), rel=1e-14)

    def test_radial_embeds_into_axi(self, radial_grid):
        # a theta-constant axisymmetric field must reproduce the radial
        # energy of the same profile: the two assembly paths agree
        axi = build_axi_grid(96, 24, "graded-polar")
        u_r = _bump_radial(radial_grid)
        u_a = DiscreteField.sampled(axi, lambda r, t: (r - 1.0) * (3.0 - r))
        ref = 4.0 * math.pi * quad(lambda r: (4.0 - 2.0 * r) ** 2 * r**2, 1.0, 3.0)[0]
        assert dirichlet_energy(u_r) == pytest.approx(ref, rel=1e-3)
        assert dirichlet_energy(u_a) == pytest.approx(ref, rel=1e-3)

    def test_zero_field(self, radial_grid):
        assert dirichlet_energy(DiscreteField.zeros(radial_grid)) == 0.0


class TestWeightedNorm:
    @pytest.mark.parametrize("alpha,p", [(0.0, 4.0), (2.0, 4.0), (1.5, 3.0)])
    def test_radial_second_order_to_quad(self, alpha, p):
        # the norm integrates the piecewise-linear interpolant exactly, so
        # the gap to the smooth profile closes at second order in h
        want = sum(
            quad(
                lambda r: abs(r - 2.0) ** alpha
                * ((r - 1.0) * (3.0 - r)) ** p
                * 4.0
                * math.pi
                * r**2,
                a,
                b,
                limit=200,
            )[0]
            for a, b in ((1.0, 2.0), (2.0, 3.0))
        )
        errs = []
        for n in (500, 1000, 2000):
            u = _bump_radial(build_radial_grid(n, "graded"))
            errs.append(abs(weighted_pnorm_p(u, alpha, p) - want) / want)
        order = math.log2(errs[-2] / errs[-1])
        assert errs[-1] < 1e-5
        assert 1.9 < order < 2.1

    @pytest.mark.parametrize("alpha,p", [(0.0, 4.0), (2.0, 4.0), (1.5, 3.0)])
    def test_axi_reduces_to_radial(self, alpha, p):
        # matching radial edges: a theta-constant field must give the same
        # weighted norm through either reduction, up to roundoff
        rad = build_radial_grid(128, "graded")
        axi = build_axi_grid(128, 24, "graded-polar")
        u_r = DiscreteField.sampled(rad, lambda r: (r - 1.0) * (3.0 - r))
        u_a = DiscreteField.sampled(axi, lambda r, t: (r - 1.0) * (3.0 - r))
        got_r = weighted_pnorm_p(u_r, alpha, p)
        got_a = weighted_pnorm_p(u_a, alpha, p)
        assert got_a == pytest.approx(got_r, rel=1e-12)

    def test_homogeneity_degree_p(self, axi_grid):
        u = _bump_axi(axi_grid)
        base = weighted_pnorm_p(u, 1.0, 4.0)
        scaled = weighted_pnorm_p(u.with_values(3.0 * u.values), 1.0, 4.0)
        assert scaled == pytest.approx(3.0**4 * base, rel=1e-13)

    def test_huge_alpha_finite(self, radial_grid):
        u = _bump_radial(radial_grid)
        got = weighted_pnorm_p(u, 1000.0, 4.0)
        assert np.isfinite(got)
        assert got > 0.0


def _cell_reference(u: DiscreteField, alpha: float, p: float):
    """(P, F, M) cell by cell through cell_weighted_integral.

    The per-cell rule is the one the kernels flatten into their operator,
    so the two agree up to summation order.
    """
    grid = u.grid
    n = grid.n_nodes
    force, mat, pnorm = np.zeros(n), np.zeros((n, n)), 0.0
    if isinstance(grid, RadialGrid):
        r = grid.nodes
        cells = [((r[i], r[i + 1]), (i, i + 1)) for i in range(grid.n_cells)]
    else:
        r, t, stride = grid.r_nodes, grid.theta_nodes, grid.nt + 1
        cells = [
            (((r[i], r[i + 1]), (t[j], t[j + 1])),
             tuple(i * stride + j + off for off in (0, stride, 1, stride + 1)))
            for i in range(grid.nr)
            for j in range(grid.nt)
        ]
    for cell, ids in cells:
        if len(ids) == 2:
            (a, b) = cell

            def shapes(rr, a=a, b=b):
                xi = (rr - a) / (b - a)
                return (1.0 - xi, xi)
        else:
            (a, b), (t0, t1) = cell

            def shapes(rr, tt, a=a, b=b, t0=t0, t1=t1):
                xi, eta = (rr - a) / (b - a), (tt - t0) / (t1 - t0)
                return ((1.0 - xi) * (1.0 - eta), xi * (1.0 - eta),
                        (1.0 - xi) * eta, xi * eta)

        def integral(f, cell=cell, ids=ids, shapes=shapes):
            def g(*x):
                s = shapes(*x)
                val = sum(u.values[i] * sk for i, sk in zip(ids, s))
                return f(np.abs(val), val, s)
            return cell_weighted_integral(cell, alpha, g, dim=grid.dim)

        pnorm += integral(lambda av, v, s: av**p)
        for k, ik in enumerate(ids):
            force[ik] += integral(lambda av, v, s, k=k: av ** (p - 2.0) * v * s[k])
            for m, im in enumerate(ids):
                mat[ik, im] += integral(
                    lambda av, v, s, k=k, m=m: av ** (p - 2.0) * s[k] * s[m]
                )
    return pnorm, force, mat


class TestKernelsMatchCellQuadrature:
    """p-norm, force and M against the same rule summed cell by cell.

    Only the summation order differs, and the tail of radial points a
    kernel skips moves no entry by more than 2^-64 of the largest, so the
    agreement is held to 1e-12 relative, a few hundred float64 roundoffs.
    The "axi-tail" field lives only on cells whose points are all in the
    tail at alpha = 320, so there the kernels must add the tail to be
    right at all.
    """

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 80.0, 320.0])
    @pytest.mark.parametrize("kind", ["radial-3", "radial-4", "axi", "axi-tail"])
    def test_kernels(self, kind, alpha):
        p = 3.5
        if kind.startswith("axi"):
            grid = build_axi_grid(16, 8, "graded-polar")
            u = _bump_mid(grid) if kind == "axi-tail" else _bump_axi(grid)
        else:
            grid = build_radial_grid(16, "graded", dim=int(kind[-1]))
            u = _bump_radial(grid)
        u = u.with_values(u.values * (1.0 + 0.3 * np.sin(np.arange(grid.n_nodes))))
        pnorm, force, mat = _cell_reference(u, alpha, p)
        assert fn.weighted_pnorm_p(u, alpha, p) == pytest.approx(pnorm, rel=1e-12)
        got_force = fn.weighted_force(u, alpha, p)
        assert np.max(np.abs(got_force - force)) <= 1e-12 * np.max(np.abs(force))
        got_mat = fn.weighted_linearized_matrix(u, alpha, p).toarray()
        assert np.max(np.abs(got_mat - mat)) <= 1e-12 * np.max(np.abs(mat))


class TestRayleigh:
    def test_homogeneity(self, axi_grid):
        u = _bump_axi(axi_grid)
        base = rayleigh(u, 1.0, 4.0).quotient
        for c in (1e-6, 2.0, 1e6):
            scaled = rayleigh(u.with_values(c * u.values), 1.0, 4.0).quotient
            assert scaled == pytest.approx(base, rel=1e-11)

    def test_report_fields(self, radial_grid):
        # a plain evaluation; the solvers set their own tag, iterations
        # and residual on the report
        u = _bump_radial(radial_grid)
        report = rayleigh(u, 2.0, 4.0)
        assert report.level_tag == "raw"
        assert report.iterations == 0
        assert math.isnan(report.residual)
        assert report.grid == radial_grid.descriptor
        assert report.quotient == pytest.approx(
            report.dirichlet_energy / report.weighted_pnorm_p ** (2.0 / 4.0), rel=1e-14
        )

    def test_zero_field_degenerate(self, radial_grid):
        with pytest.raises(DegenerateFieldError):
            rayleigh(DiscreteField.zeros(radial_grid), 1.0, 4.0)

    def test_normalize_unit_pnorm(self, axi_grid):
        u = normalize(_bump_axi(axi_grid), 1.0, 4.0)
        assert weighted_pnorm_p(u, 1.0, 4.0) == pytest.approx(1.0, rel=1e-12)


class TestGradient:
    def test_matches_finite_differences(self, axi_grid_small, rng):
        alpha, p = 1.0, 4.0
        u = _bump_axi(axi_grid_small)
        g = functional_gradient(u, alpha, p).values
        free = np.arange(axi_grid_small.n_nodes)[axi_grid_small.free]
        base = rayleigh(u, alpha, p).quotient
        h = 1e-6
        for k in rng.choice(free, size=12, replace=False):
            probe = u.values.copy()
            probe[k] += h
            up = rayleigh(u.with_values(probe), alpha, p).quotient
            probe[k] -= 2.0 * h
            dn = rayleigh(u.with_values(probe), alpha, p).quotient
            fd = (up - dn) / (2.0 * h)
            scale = max(abs(fd), abs(g[k]), 1e-3 * abs(base))
            assert abs(fd - g[k]) / scale < 1e-5

    def test_orthogonal_to_field(self, axi_grid):
        # R is 0-homogeneous, so dR(u)[u] = 0
        u = _bump_axi(axi_grid)
        g = functional_gradient(u, 1.0, 4.0)
        e = dirichlet_energy(u)
        assert abs(float(g.values @ u.values)) <= 1e-10 * max(1.0, abs(e))

    def test_zero_at_dirichlet(self, axi_grid):
        g = functional_gradient(_bump_axi(axi_grid), 1.0, 4.0)
        free = axi_grid.free
        assert np.all(g.values[:free.start] == 0.0) and np.all(g.values[free.stop:] == 0.0)


class TestResidual:
    def test_linear_eigenfunction_residual_small(self, radial_grid_fine):
        # w = r u substitution: u = sin(pi (r-1)/2) / r solves the alpha=0,
        # p=2 problem at level pi^2/4
        u = DiscreteField.sampled(
            radial_grid_fine, lambda r: np.sin(0.5 * math.pi * (r - 1.0)) / r
        )
        level = math.pi**2 / 4.0
        u = normalize(u, 0.0, 2.0)
        raw = residual_pde(u, 0.0, 0.0, 2.0)
        scaled = residual_pde(u, level, 0.0, 2.0)
        assert scaled < 1e-3 * raw

    def test_rejects_negative_level(self, radial_grid):
        with pytest.raises(ConfigurationError):
            residual_pde(_bump_radial(radial_grid), -1.0, 1.0, 4.0)


class TestHalfspaceDecomposition:
    def test_supported_inner_has_no_outer_energy(self, axi_grid):
        u = DiscreteField.sampled(
            axi_grid, lambda r, t: np.clip(2.0 - r, 0.0, None) * (r - 1.0)
        )
        ep, em = halfspace_energies(u)
        assert em > 0.0
        assert ep == 0.0

    @pytest.mark.parametrize("kind", ["axi", "radial-3", "radial-4"])
    def test_stiffness_splits(self, kind, axi_grid, rng):
        if kind == "axi":
            grid, u = axi_grid, _bump_axi(axi_grid)
        else:
            grid = build_radial_grid(400, "graded", dim=int(kind[-1]))
            u = _bump_radial(grid)
        a_full = fn.stiffness_matrix(grid)
        a_plus, a_minus = fn.halfspace_stiffness(grid)
        v = u.values
        total = float(v @ (a_full @ v))
        split = float(v @ (a_plus @ v)) + float(v @ (a_minus @ v))
        assert split == pytest.approx(total, rel=1e-14)
        assert total == pytest.approx(dirichlet_energy(u), rel=1e-12)
        # The merit stiffness against the cell energies of each half, on a
        # rough field: on the smooth bump the quadratic form cancels down
        # to ~1e-12 relative, as the check above allows.
        v = rng.standard_normal(grid.n_nodes)
        zero_dirichlet(v, grid)
        ep, em = halfspace_energies(DiscreteField(grid, v))
        for lam in (-0.9, 0.7):
            merit = float(v @ (fn.stiffness_matrix(grid, lam) @ v))
            assert merit == pytest.approx((1.0 + lam) * ep + (1.0 - lam) * em, rel=1e-13)

    @pytest.mark.parametrize("kind", ["axi", "radial-3"])
    def test_linearized_matrix_keeps_stiffness_pattern(self, kind, axi_grid):
        # M(u) of a compactly supported field vanishes off the support, yet
        # keeps the stiffness's (row, col) pattern, so every Newton Jacobian
        # A - (p - 1) M has one pattern and one SuperLU ordering per grid
        if kind == "axi":
            grid = axi_grid
            u = instanton(InstantonParams(1e-3, 0), grid)
        else:
            grid = build_radial_grid(400, "graded")
            u = DiscreteField.sampled(grid, lambda r: np.clip(0.1 - np.abs(r - 2.8), 0.0, None))
        a = fn.stiffness_matrix(grid)
        m = fn.weighted_linearized_matrix(u, 1.0, 5.5)
        assert 0 < np.count_nonzero(m.data) < m.nnz
        # not only equal: both are the grid's one read-only layout
        assert _on_layout(m, grid) and _on_layout(a, grid)


def _on_layout(matrix, grid) -> bool:
    """Whether matrix's index arrays are the grid's read-only layout arrays
    (scipy keeps indices as a full-length view of the array it was given)."""
    asm = fn._assembly(grid)
    indices = matrix.indices
    return (matrix.indptr is asm.indptr
            and (indices is asm.indices or indices.base is asm.indices)
            and not asm.indices.flags.writeable and not asm.indptr.flags.writeable)


class TestStiffnessLayout:
    """Every stiffness-pattern matrix is a data vector on the grid's one
    layout, and the Newton free block is taken from those data vectors,
    entry for entry what SciPy's sparse arithmetic and slicing give."""

    ALPHA, P = 1.0, 5.5

    def _field(self, grid):
        u0, u1 = (instanton(InstantonParams(1e-3, side), grid) for side in (0, 1))
        return normalize(u0.with_values(u0.values + u1.values), self.ALPHA, self.P)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("s, c", [(1.0, 4.5), (1.7, 4.5 * 12.9)],
                             ids=["newton", "shifted"])
    def test_free_block_is_scipys_bitwise(self, lam, s, c, axi_grid_small):
        grid, free = axi_grid_small, axi_grid_small.free
        a = fn.stiffness_matrix(grid, lam)
        m = fn.weighted_linearized_matrix(self._field(grid), self.ALPHA, self.P)
        block = fn.jacobian_block(grid, a, m, c, s)
        expected = (s * a - c * m)[free, free].toarray()
        assert np.array_equal(block.toarray(), expected)
        assert block.shape == expected.shape
        assert not block.indices.flags.writeable and not block.indptr.flags.writeable

    def test_layout_matrices_are_scipys_sums_bitwise(self, axi_grid_small):
        grid = axi_grid_small
        a_plus, a_minus = fn.halfspace_stiffness(grid)
        lam = 0.3
        scipy_lam = (1.0 + lam) * a_plus + (1.0 - lam) * a_minus
        assert np.array_equal(fn.stiffness_matrix(grid, lam).toarray(), scipy_lam.toarray())
        assert np.array_equal(fn.balance_matrix(grid).toarray(),
                              (a_plus - a_minus).toarray())

    def test_every_matrix_shares_the_layout(self, axi_grid_small):
        grid = axi_grid_small
        matrices = (fn.stiffness_matrix(grid), fn.stiffness_matrix(grid, 0.3),
                    fn.balance_matrix(grid), *fn.halfspace_stiffness(grid),
                    fn.weighted_linearized_matrix(self._field(grid), self.ALPHA, self.P))
        assert all(_on_layout(matrix, grid) for matrix in matrices)

    def test_in_place_mutation_is_refused(self, axi_grid_small):
        grid = axi_grid_small
        m = fn.weighted_linearized_matrix(self._field(grid), self.ALPHA, self.P)
        a = fn.stiffness_matrix(grid)
        indices, nnz = a.indices.copy(), a.nnz
        assert np.count_nonzero(m.data) < m.nnz
        with pytest.raises(ValueError):
            m.eliminate_zeros()
        block = fn.jacobian_block(grid, a, m, 4.5)
        with pytest.raises(ValueError):
            block.eliminate_zeros()
        assert a.nnz == nnz and np.array_equal(a.indices, indices)

    def test_matrix_off_the_layout_is_refused(self, axi_grid_small):
        grid = axi_grid_small
        a = fn.stiffness_matrix(grid)
        with pytest.raises(ContractViolationError):
            fn.jacobian_block(grid, a, a.copy(), 1.0)


class TestStiffnessSolver:
    """Fast diagonalization against scipy's sparse direct solve.

    The residual is normwise backward error, |A x - b| / (|A| |x| + |b|)
    in the infinity norm, which a stable direct solve holds near machine
    precision whatever the conditioning; the distance to spsolve's
    solution also carries the condition number, so its bound is looser.
    """

    GRIDS = {
        "radial-48": lambda: build_radial_grid(48, "graded"),
        "radial-2000": lambda: build_radial_grid(2000, "graded"),
        "axi-16x8": lambda: build_axi_grid(16, 8, "graded-polar"),
        "axi-48x16": lambda: build_axi_grid(48, 16, "graded-polar"),
        "axi-128x48": lambda: build_axi_grid(128, 48, "graded-polar"),
    }

    @pytest.mark.parametrize("lam", [-0.9, 0.0, 0.7])
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_matches_sparse_direct_solve(self, name, lam, rng):
        grid = self.GRIDS[name]()
        free = grid.free
        a = fn.stiffness_matrix(grid, lam)[free, free]
        b = rng.standard_normal(a.shape[0])
        x = fn.stiffness_solver(grid, lam)(b)
        norm_a = float(np.max(np.abs(a).sum(axis=1)))
        residual = np.max(np.abs(a @ x - b)) / (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))
        assert residual <= 1e-12
        want = spla.spsolve(a.tocsc(), b)
        assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)

    def test_free_block_is_the_interior_rows(self):
        grid = build_axi_grid(16, 8, "graded-polar")
        rows = np.arange(grid.n_nodes).reshape(grid.shape)
        assert np.array_equal(np.arange(grid.n_nodes)[grid.free], rows[1:-1].ravel())

    def test_lam_outside_the_open_interval_is_refused(self):
        grid = build_axi_grid(16, 8, "graded-polar")
        with pytest.raises(ContractViolationError):
            fn.stiffness_solver(grid, -1.5)


class TestFusedKernels:
    """The kernels' work planes and the gradient's one interpolation.

    Each grid's kernels share one pair of work planes (_Assembly.work);
    functional_gradient takes P and F from one interpolation per radial
    factor. Neither may change a bit of a result.
    """

    @pytest.mark.parametrize("alpha, p", [(1.0, 5.5), (320.0, 4.0)])
    def test_gradient_is_the_separate_kernels_bitwise(self, alpha, p, axi_grid_small,
                                                       monkeypatch):
        # at alpha = 320, p = 4 the p-norm needs the tail and the force
        # does not, so the gradient must add it to one output only
        u = instanton(InstantonParams(1e-3, 0), axi_grid_small)
        rad = fn._assembly(axi_grid_small).radial(alpha)
        decisions = []
        needed = fn._Tail.needed

        def recording(tail, values, k, head):
            decisions.append(needed(tail, values, k, head))
            return decisions[-1]

        monkeypatch.setattr(fn._Tail, "needed", recording)
        got = functional_gradient(u, alpha, p).values
        if alpha == 1.0:
            assert rad.tail is None
        else:
            assert decisions == [True, False]
        pn = fn.weighted_pnorm_p(u, alpha, p)
        e = dirichlet_energy(u)
        want = (2.0 / pn ** (2.0 / p)) * (
            fn.stiffness_matrix(axi_grid_small) @ u.values
            - (e / pn) * fn.weighted_force(u, alpha, p))
        zero_dirichlet(want, axi_grid_small)
        assert np.array_equal(got, want)

    def test_results_do_not_alias_the_work_planes(self, axi_grid_small):
        grid = axi_grid_small
        a = instanton(InstantonParams(1e-3, 0), grid)
        b = _bump_axi(grid)
        force_a = fn.weighted_force(a, 1.0, 5.5)
        kept = force_a.copy()
        results = [
            force_a,
            fn.weighted_force(b, 1.0, 5.5),
            functional_gradient(b, 1.0, 5.5).values,
            fn.weighted_linearized_matrix(b, 1.0, 5.5).data,
        ]
        assert np.array_equal(force_a, kept)
        planes = fn._assembly(grid).planes
        assert not any(np.shares_memory(r, w) for r in results for w in planes)

    def test_warm_kernels_peak_below_two_planes(self, axi_grid):
        alpha, p = 1.0, 5.5
        u = normalize(instanton(InstantonParams(1e-3, 0), axi_grid), alpha, p)
        asm = fn._assembly(axi_grid)
        plane = 8 * asm.radial(alpha).weight.size * asm.angular.weight.size
        for kernel in (fn.weighted_force, functional_gradient):
            kernel(u, alpha, p)
            tracemalloc.start()
            try:
                kernel(u, alpha, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * plane, kernel.__name__

    def test_one_pair_of_work_planes_per_grid(self):
        grid = build_axi_grid(48, 16, "graded-polar")
        u = _bump_axi(grid)
        asm = fn._assembly(grid)
        alphas = (1.0, 20.0, 80.0, 160.0, 320.0)

        def sweep():
            for alpha in alphas:
                fn.weighted_pnorm_p(u, alpha, 4.0)
                fn.weighted_force(u, alpha, 4.0)
                fn.weighted_linearized_matrix(u, alpha, 4.0)
                functional_gradient(u, alpha, 4.0)

        sweep()
        pair = asm.planes
        largest = max(asm.radial(a).weight.size for a in alphas) * asm.angular.weight.size
        assert len(pair) == 2
        assert pair[0].size == pair[1].size >= largest
        sweep()
        # grown once to the largest plane, never rebuilt per alpha
        assert asm.planes[0] is pair[0] and asm.planes[1] is pair[1]
