import json

import numpy as np
import pytest
import scipy.optimize

from hotloc.grid import GridSpec
from hotloc.kpi import WeightMap, save_weight_map
from hotloc.localize import ImportanceVector, step6_combine
from hotloc.nnls import DesignSystem, build_system, solve_nnls
from hotloc.pipeline import Run, StageError, _run_optimize, run_stages


def assert_kkt(system, x, tol=1e-8):
    gradient = system.A.T @ (system.A @ x - system.b)
    active = x <= 1e-12
    assert (gradient[active] >= -tol).all()
    if (~active).any():
        assert np.abs(gradient[~active]).max() <= tol


class TestDesignSystem:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            DesignSystem(A=np.ones((4, 2)), b=np.ones(3))
        with pytest.raises(ValueError, match="shape mismatch"):
            DesignSystem(A=np.ones(4), b=np.ones(4))

    def test_finiteness(self):
        A = np.ones((4, 2))
        A[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DesignSystem(A=A, b=np.ones(4))

    def test_negative_columns_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DesignSystem(A=-np.ones((4, 2)), b=np.ones(4))


class TestBuildSystem:
    def maps(self, m=4):
        rng = np.random.default_rng(5)
        return tuple(
            WeightMap(rng.random((m, m)), GridSpec(m, 25.0), f"q{k + 1}") for k in range(5)
        )

    def test_flattening_is_row_major(self):
        maps = self.maps()
        potential = WeightMap(np.arange(16.0).reshape(4, 4), GridSpec(4, 25.0), "potential")
        system = build_system(maps, potential)
        assert system.A.shape == (16, 5)
        np.testing.assert_array_equal(system.b, np.arange(16.0))
        np.testing.assert_array_equal(system.A[:, 2], maps[2].values.reshape(-1))

    def test_map_count_checked(self):
        maps = self.maps()
        potential = WeightMap(np.zeros((4, 4)), GridSpec(4, 25.0), "potential")
        with pytest.raises(ValueError, match="expected 5"):
            build_system(maps[:4], potential)

    def test_grid_mismatch_checked(self):
        maps = self.maps()
        potential = WeightMap(np.zeros((5, 5)), GridSpec(5, 25.0), "potential")
        with pytest.raises(ValueError, match="share one grid"):
            build_system(maps, potential)

    def test_origin_mismatch_checked(self):
        maps = self.maps()
        potential = WeightMap(np.ones((4, 4)), GridSpec(4, 25.0, (0.0, -100.0)), "potential")
        with pytest.raises(ValueError, match="share one grid"):
            build_system(maps, potential)


class TestSolveNnls:
    def test_identity_clips_negative_targets(self):
        b = np.array([1.5, -2.0, 0.25, -0.5])
        system = DesignSystem(A=np.eye(4), b=b)
        result = solve_nnls(system)
        np.testing.assert_allclose(result.x, np.maximum(b, 0.0), atol=1e-12)
        assert_kkt(system, result.x)

    def test_zero_target_gives_zero(self):
        system = DesignSystem(A=np.abs(np.random.default_rng(0).random((10, 3))), b=np.zeros(10))
        result = solve_nnls(system)
        np.testing.assert_array_equal(result.x, np.zeros(3))
        assert result.iterations == 0
        assert result.residual == 0.0

    def test_interior_solution_matches_unconstrained(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.random((30, 4))
            x_true = rng.random(4) + 0.5
            b = A @ x_true
            result = solve_nnls(DesignSystem(A=A, b=b))
            lstsq = np.linalg.lstsq(A, b, rcond=None)[0]
            np.testing.assert_allclose(result.x, lstsq, atol=1e-8)
            assert result.residual <= 1e-8

    def test_matches_reference_solver_residual(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            A = rng.random((40, 5))
            b = rng.standard_normal(40)
            system = DesignSystem(A=A, b=b)
            result = solve_nnls(system)
            _, ref_residual = scipy.optimize.nnls(A, b)
            assert result.residual <= ref_residual + 1e-9
            assert_kkt(system, result.x)
            assert (result.x >= 0).all()

    def test_matches_reference_solver_x(self):
        rng = np.random.default_rng(12)
        systems = [(rng.random((40, 5)), rng.standard_normal(40)) for _ in range(30)]
        one_column = rng.random((40, 1))
        systems.append((one_column, one_column[:, 0] * 0.7 + 0.1 * rng.standard_normal(40)))
        A = rng.random((40, 5))
        systems.append((A, -rng.random(40)))  # A^T b <= 0: the fit is x = 0
        for A, b in systems:
            ref_x, _ = scipy.optimize.nnls(A, b)
            np.testing.assert_allclose(solve_nnls(DesignSystem(A=A, b=b)).x, ref_x, atol=1e-10)

    def test_beats_coarse_lattice(self):
        rng = np.random.default_rng(13)
        A = rng.random((25, 3))
        b = rng.standard_normal(25)
        system = DesignSystem(A=A, b=b)
        result = solve_nnls(system)
        axis = np.linspace(0.0, 2.0, 41)
        xs = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        lattice_best = np.linalg.norm(A @ xs.T - b[:, None], axis=0).min()
        assert result.residual <= lattice_best + 1e-12

    def test_duplicate_columns_still_optimal(self):
        rng = np.random.default_rng(14)
        col = rng.random(20)
        A = np.column_stack([col, col, rng.random(20)])
        b = 2.0 * col + 0.5 * A[:, 2]
        system = DesignSystem(A=A, b=b)
        result = solve_nnls(system)
        assert result.residual <= 1e-9
        assert_kkt(system, result.x)

    @pytest.mark.parametrize("factor", [1e-6, 1e-3, 1e3, 1e9])
    def test_scaled_system_keeps_its_support(self, factor):
        # The fit of normalized maps has support [0, 1, 2, 4]; column 3's
        # gradient is -2.1e-3 against a largest |A^T b| of 0.0196. Scaling
        # A by a and b by c keeps the support and scales x by c / a.
        rng = np.random.default_rng(19)
        A = rng.random((64, 5)) ** 3
        A /= A.sum(axis=0)
        b = rng.random(64) ** 3
        b /= b.sum()
        base = solve_nnls(DesignSystem(A=A, b=b)).x
        assert (base > 0).tolist() == [True, True, True, False, True]
        for a, c in ((factor, factor), (factor, 1.0), (1.0, factor)):
            x = solve_nnls(DesignSystem(A=a * A, b=c * b)).x
            assert (x > 0).tolist() == (base > 0).tolist(), (a, c)
            np.testing.assert_allclose(x, base * c / a, rtol=1e-12, atol=0)

    def test_importance_conversion(self):
        system = DesignSystem(A=np.eye(5), b=np.array([0.4, 0.3, 0.0, 0.2, 0.1]))
        vec = solve_nnls(system).importance()
        assert isinstance(vec, ImportanceVector)
        np.testing.assert_allclose(vec.values, [0.4, 0.3, 0.0, 0.2, 0.1], atol=1e-12)


class TestOptimizeImportance:
    """The fit as the optimize stage runs it: ``solve_nnls`` on
    ``build_system``, recorded in ``importance.json``."""

    def test_recovers_known_mixture(self):
        rng = np.random.default_rng(17)
        maps = tuple(
            WeightMap(rng.random((8, 8)), GridSpec(8, 25.0), f"q{k + 1}") for k in range(5)
        )
        x_true = ImportanceVector((0.5, 0.0, 0.3, 0.1, 0.0))
        potential = step6_combine(maps, x_true).normalized()
        scale = 1.0 / step6_combine(maps, x_true).total()
        fit = solve_nnls(build_system(maps, potential))
        np.testing.assert_allclose(
            fit.importance().values, scale * np.array(x_true.values), atol=1e-8
        )
        assert fit.residual <= 1e-9

    def test_normalized_x(self, tmp_path):
        rng = np.random.default_rng(18)
        maps = tuple(
            WeightMap(rng.random((6, 6)), GridSpec(6, 25.0), f"q{k + 1}") for k in range(5)
        )
        potential = step6_combine(maps, ImportanceVector((0.2,) * 5)).normalized()
        run = Run(kpi_maps=maps, potential_map=potential, x_override=None, out_dir=tmp_path)
        _run_optimize(run)
        x, residual = run.x, run.fit_residual
        doc = json.loads((tmp_path / "importance.json").read_text())
        assert doc["x"] == list(x.values)
        assert doc["residual"] == residual
        normalized = doc["x_normalized"]
        assert normalized is not None
        assert abs(sum(normalized) - 1.0) <= 1e-12

    def test_zero_fit_rejected_before_writing(self, sim_config, tmp_path):
        maps = tuple(
            WeightMap(np.ones((4, 4)), GridSpec(4, 25.0), f"q{k + 1}") for k in range(5)
        )
        potential = WeightMap(np.zeros((4, 4)), GridSpec(4, 25.0), "potential")
        for wmap in (*maps, potential):
            save_weight_map(wmap, tmp_path / f"{wmap.label}.csv")
        with pytest.raises(StageError, match="every factor is zero") as excinfo:
            run_stages(("optimize",), sim_config, tmp_path)
        assert excinfo.value.stage == "optimize"
        assert not (tmp_path / "importance.json").exists()
