"""Grid, Stieltjes-measure and jump-kernel behaviour."""
import math

import numpy as np
import pytest

from cbve import DiscreteSpatialMeasure, JumpMeasure, StieltjesMeasure, TimeGrid

from _instances import uniform_grid


class TestTimeGrid:
    def test_refine_unit_cell(self):
        grid = TimeGrid(np.array([0.0, 1.0]))
        assert grid.refine(2).nodes.tolist() == [0.0, 0.5, 1.0]

    def test_refine_identity(self):
        grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
        assert grid.refine(1) is grid

    def test_refine_per_cell_bisection(self):
        grid = TimeGrid(np.array([0.0, 0.3, 1.0]))
        fine = grid.refine(2)
        assert fine.nodes == pytest.approx([0.0, 0.15, 0.3, 0.65, 1.0], abs=1e-15)
        assert np.array_equal(fine.nodes[::2], grid.nodes)

    def test_refine_preserves_nodes_bitwise(self):
        grid = uniform_grid(cells=7)
        fine = grid.refine(3)
        assert np.array_equal(fine.nodes[::3], grid.nodes)

    def test_refine_rejects_zero(self):
        for factor in (0, True):  # a boolean is not a count
            with pytest.raises(ValueError, match="refinement factor must be a positive integer"):
                uniform_grid().refine(factor)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5]))

    @pytest.mark.parametrize("last", [math.inf, math.nan])
    def test_non_finite_node_is_refused(self, last):
        # [0, 1, inf] used to build a grid of horizon inf
        with pytest.raises(ValueError, match="^grid nodes must be finite$"):
            TimeGrid(np.array([0.0, 1.0, last]))


class TestCumulative:
    def test_linear_accumulation(self):
        grid = uniform_grid(cells=10)
        meas = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 2.0)])
        assert meas.cumulative(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_atom_cadlag_convention(self):
        grid = uniform_grid(cells=10)
        meas = StieltjesMeasure(grid, np.zeros(10), ((0.5, 0.3),))
        assert meas.cumulative(0.5) == 0.3
        assert meas.cumulative(0.4999999) == 0.0
        assert meas.cumulative(0.0) == 0.0

    def test_additivity_of_parts(self):
        grid = uniform_grid(cells=10)
        meas = StieltjesMeasure(grid, np.ones(10), ((0.5, 0.25),))
        assert meas.cumulative(1.0) == pytest.approx(1.25, abs=1e-15)

    def test_domain_error(self):
        grid = uniform_grid(cells=4)
        meas = StieltjesMeasure.zero(grid)
        with pytest.raises(ValueError):
            meas.cumulative(-0.1)
        with pytest.raises(ValueError):
            meas.cumulative(1.1)

    def test_nan_time_is_refused(self):
        # NaN passed `t < 0 or t > T` and read as T: the mass of (0, T]
        grid = uniform_grid(cells=4)
        meas = StieltjesMeasure(grid, -np.ones(4), ((0.5, 0.25),))
        for read in (meas.cumulative, meas.total_variation):
            with pytest.raises(ValueError, match="outside"):
                read(math.nan)

    def test_reads_are_python_floats(self):
        # off a node and at t = 0 both read as numpy.float64
        grid = uniform_grid(cells=4)
        meas = StieltjesMeasure(grid, -np.ones(4), ((0.5, 0.25),))
        for read in (meas.cumulative, meas.total_variation):
            for t in (0.3, 0.0, 1.0):
                assert type(read(t)) is float


class TestTotalVariation:
    def test_sign_removal(self):
        grid = uniform_grid(cells=10)
        meas = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, -1.0)])
        assert meas.total_variation(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_piecewise_signs(self):
        grid = uniform_grid(cells=10)
        meas = StieltjesMeasure.from_segments(grid, [(0.0, 0.5, 1.0), (0.5, 1.0, -1.0)])
        assert meas.total_variation(1.0) == pytest.approx(1.0, abs=1e-14)
        assert meas.cumulative(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_atom_moduli(self):
        grid = uniform_grid(cells=10)
        meas = StieltjesMeasure(grid, np.zeros(10), ((0.3, -0.5), (0.6, 0.5)))
        assert meas.total_variation(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_dominates_cumulative(self):
        rng = np.random.default_rng(5)
        grid = uniform_grid(cells=50)
        meas = StieltjesMeasure(grid, rng.normal(size=50), ((0.5, -0.2), (0.9, 0.4)))
        for t in (0.25, 0.5, 0.75, 1.0):
            assert meas.total_variation(t) >= abs(meas.cumulative(t)) - 1e-15

    def test_monotone_equals_cumulative(self):
        grid = uniform_grid(cells=20)
        meas = StieltjesMeasure(grid, np.full(20, 0.7), ((0.5, 0.1),))
        for t in (0.3, 0.5, 1.0):
            assert meas.total_variation(t) == pytest.approx(meas.cumulative(t), abs=1e-15)


class TestIntegrate:
    def test_unit_integrand_measure_mass(self):
        grid = uniform_grid(cells=10)
        meas = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)])
        f = np.ones(grid.nodes.size)
        assert meas.integrate(f, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_atom_evaluation(self):
        grid = uniform_grid(cells=10)
        meas = StieltjesMeasure(grid, np.zeros(10), ((0.5, 0.75),))
        f = np.full(grid.nodes.size, 3.0)
        assert meas.integrate(f, 0.0, 1.0) == pytest.approx(2.25, abs=1e-15)
        # the atom sits outside (0.5, 1.0]
        assert meas.integrate(f, 0.5, 1.0) == 0.0

    def test_trapezoid_linear_integrand(self):
        # oracle: antiderivative of s against ds is s^2 / 2
        grid = uniform_grid(cells=64)
        meas = StieltjesMeasure.from_segments(grid, [(0.0, 1.0, 1.0)])
        f = grid.nodes.copy()
        assert meas.integrate(f, 0.0, 1.0, rule="trapezoid") == pytest.approx(
            0.5, abs=1e-14
        )
        # the right-endpoint rule overshoots by h/2 on this integrand
        right = meas.integrate(f, 0.0, 1.0, rule="right")
        assert right == pytest.approx(0.5 + 0.5 / 64, abs=1e-14)

    def test_linearity_in_integrand(self):
        rng = np.random.default_rng(11)
        grid = uniform_grid(cells=30)
        meas = StieltjesMeasure(grid, rng.normal(size=30), ((0.5, 0.3),))
        f = rng.uniform(0, 1, grid.nodes.size)
        g = rng.uniform(0, 1, grid.nodes.size)
        lhs = meas.integrate(2.5 * f + g, 0.0, 1.0)
        rhs = 2.5 * meas.integrate(f, 0.0, 1.0) + meas.integrate(g, 0.0, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_interval_additivity(self):
        rng = np.random.default_rng(12)
        grid = uniform_grid(cells=40)
        meas = StieltjesMeasure(grid, rng.normal(size=40), ((0.25, 0.4), (0.75, -0.2)))
        f = rng.uniform(0, 2, grid.nodes.size)
        for rule in ("right", "trapezoid"):
            whole = meas.integrate(f, 0.0, 1.0, rule)
            split = meas.integrate(f, 0.0, 0.5, rule) + meas.integrate(f, 0.5, 1.0, rule)
            assert whole == pytest.approx(split, abs=1e-13)

    def test_errors(self):
        grid = uniform_grid(cells=10)
        meas = StieltjesMeasure.zero(grid)
        f = np.ones(grid.nodes.size)
        with pytest.raises(ValueError):
            meas.integrate(f, 0.6, 0.5)
        bad = f.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError):
            meas.integrate(bad, 0.0, 1.0)

    def test_refinement_invariance(self):
        # piecewise-constant densities and node atoms re-materialize exactly;
        # the cumulative can move by a last-bit rounding because the cell mass
        # is re-summed from subcell products
        rng = np.random.default_rng(13)
        grid = uniform_grid(cells=20)
        meas = StieltjesMeasure(grid, rng.normal(size=20), ((0.5, 0.7),))
        fine_grid = grid.refine(4)
        fine = meas.on_refinement(fine_grid, 4)
        assert fine.atoms == meas.atoms
        assert fine.atom_mass_at(0.5) == meas.atom_mass_at(0.5)
        for t in (0.25, 0.5, 1.0):
            assert fine.cumulative(t) == pytest.approx(
                meas.cumulative(t), rel=1e-14, abs=1e-15
            )
            assert fine.total_variation(t) == pytest.approx(
                meas.total_variation(t), rel=1e-14, abs=1e-15
            )
        # a grid-constant integrand refines to the same integral
        const = np.full(grid.nodes.size, 1.3)
        const_fine = np.full(fine_grid.nodes.size, 1.3)
        assert fine.integrate(const_fine, 0.0, 1.0) == pytest.approx(
            meas.integrate(const, 0.0, 1.0), rel=1e-14
        )


class TestMeasureValidation:
    def test_atom_times_must_be_nodes(self):
        grid = uniform_grid(cells=10)
        with pytest.raises(ValueError):
            StieltjesMeasure(grid, np.zeros(10), ((0.55, 1.0),))
        with pytest.raises(ValueError):
            StieltjesMeasure(grid, np.zeros(10), ((0.0, 1.0),))

    def test_nondecreasing_flag(self):
        # read from the arrays: both parts nonnegative
        grid = uniform_grid(cells=10)
        meas = StieltjesMeasure(grid, np.full(10, 0.1), ((0.5, 0.0), (0.7, 0.2)))
        assert meas.nondecreasing and StieltjesMeasure.zero(grid).nondecreasing
        assert not StieltjesMeasure(grid, np.full(10, -0.1)).nondecreasing
        assert not StieltjesMeasure(grid, np.zeros(10), ((0.5, -0.1),)).nondecreasing
        with pytest.raises(AttributeError):
            meas.nondecreasing = False

    def test_subadditive_variation_under_addition(self):
        rng = np.random.default_rng(14)
        grid = uniform_grid(cells=30)
        a = StieltjesMeasure(grid, rng.normal(size=30), ((0.5, -0.5),))
        b = StieltjesMeasure(grid, rng.normal(size=30), ((0.5, 0.4), (0.8, 0.1)))
        total = StieltjesMeasure.linear_combination(grid, [(1.0, a), (1.0, b)])
        for t in (0.5, 0.8, 1.0):
            assert total.total_variation(t) <= a.total_variation(t) + b.total_variation(t) + 1e-14


def _misuses():
    grid, other = uniform_grid(cells=4), uniform_grid(cells=5)
    zero = StieltjesMeasure.zero(grid)
    f = np.ones(grid.nodes.size)
    return {
        "short density": (lambda: StieltjesMeasure(grid, np.zeros(3)),
                          "density must hold one value per grid cell"),
        "NaN density": (lambda: StieltjesMeasure(grid, [0.0, math.nan, 0.0, 0.0]),
                        "density values must be finite"),
        "infinite atom": (lambda: StieltjesMeasure(grid, np.zeros(4), ((0.5, math.inf),)),
                          "atom masses must be finite"),
        "empty segment": (lambda: StieltjesMeasure.from_segments(grid, [(0.5, 0.5, 1.0)]),
                          r"empty density segment \[0.5, 0.5\)"),
        "unknown rule": (lambda: zero.integrate(f, 0.0, 1.0, "left"),
                         "unknown endpoint rule 'left'"),
        "short integrand": (lambda: zero.integrate(f[:3], 0.0, 1.0),
                            "f must hold one value per grid node"),
        "mixed grids": (lambda: StieltjesMeasure.linear_combination(
            grid, [(1.0, StieltjesMeasure.zero(other))]), "all measures must share the grid"),
        "short kernel list": (lambda: JumpMeasure(grid, [DiscreteSpatialMeasure()] * 3),
                              "need one spatial kernel per grid cell"),
    }


@pytest.mark.parametrize("case", sorted(_misuses()))
def test_bad_measure_input_is_refused(case):
    call, match = _misuses()[case]
    with pytest.raises(ValueError, match=f"^{match}$"):
        call()


class TestJumpMeasure:
    def test_spatial_validation(self):
        with pytest.raises(ValueError):
            DiscreteSpatialMeasure(((0.0, 0.0, 1.0),))
        with pytest.raises(ValueError):
            DiscreteSpatialMeasure(((0.5, 0.1, 0.0),))
        with pytest.raises(ValueError):
            DiscreteSpatialMeasure(((-0.5, 0.1, 1.0),))

    @pytest.mark.parametrize("point", [(math.nan, 1.0, 1.0), (0.5, math.nan, 1.0),
                                       (math.inf, 0.0, 1.0), (0.0, math.inf, 1.0)])
    def test_non_finite_coordinates_rejected(self, point):
        with pytest.raises(ValueError, match="finite, nonnegative"):
            DiscreteSpatialMeasure((point,))

    def test_moment_measure(self):
        grid = uniform_grid(cells=4)
        jump = JumpMeasure.from_segments(
            grid,
            [(0.0, 1.0, [(0.5, 0.0, 2.0)])],
            [(0.5, [(1.0, 3.0, 0.5)])],
        )
        second = jump.moment_measure(lambda z1, z2: z2)
        assert second.cumulative(1.0) == pytest.approx(1.5, abs=1e-15)
        own = jump.moment_measure(lambda z1, z2: z1)
        assert own.cumulative(1.0) == pytest.approx(1.0 + 0.5, abs=1e-15)

    def test_refinement_shares_kernels(self):
        grid = uniform_grid(cells=4)
        jump = JumpMeasure.from_segments(grid, [(0.0, 1.0, [(0.5, 0.5, 1.0)])])
        fine = jump.on_refinement(grid.refine(3), 3)
        assert fine.moment_measure(lambda z1, z2: z1 + z2).cumulative(1.0) == (
            pytest.approx(jump.moment_measure(lambda z1, z2: z1 + z2).cumulative(1.0))
        )

    def test_equal_cell_kernels_pack_by_value(self):
        # distinct but equal per-cell objects give the arrays of one shared
        # object; a cell whose point differs only by a -0.0 keeps its bits
        grid = uniform_grid(cells=6)
        pts = ((0.5, 0.25, 1.0), (1.5, 0.0, 0.5))
        shared = JumpMeasure(grid, [DiscreteSpatialMeasure(pts)] * 6).cell_points
        kernels = [DiscreteSpatialMeasure(pts) for _ in range(6)]
        distinct = JumpMeasure(grid, kernels).cell_points
        assert (distinct.shape, distinct.tobytes()) == ((3, 2, 6), shared.tobytes())
        kernels[3] = DiscreteSpatialMeasure(((0.5, 0.25, 1.0), (1.5, -0.0, 0.5)))
        mixed = JumpMeasure(grid, kernels).cell_points
        assert np.signbit(mixed).nonzero() == ((1,), (1,), (3,))
        assert np.array_equal(mixed, shared)

    def test_reversed_kernel_segment_is_refused(self):
        # as StieltjesMeasure.from_segments refuses a reversed density segment
        grid = uniform_grid(cells=4)
        with pytest.raises(ValueError, match=r"^empty kernel segment \[0\.75, 0\.25\)$"):
            JumpMeasure.from_segments(grid, [(0.75, 0.25, ((1.0, 0.0, 1.0),))])
        # an empty segment (t0 == t1) fills no cell and stays accepted
        jump = JumpMeasure.from_segments(grid, [(0.25, 0.25, ((1.0, 0.0, 1.0),))])
        assert jump.cell_points.shape == (3, 0, 4)
