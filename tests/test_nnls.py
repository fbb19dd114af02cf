import json
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
import scipy.optimize

from hotloc import nnls, pipeline
from hotloc.bounds import MAX_MAGNITUDE
from hotloc.grid import GridSpec
from hotloc.kpi import WeightMap, save_weight_map
from hotloc.localize import ImportanceVector, step6_combine
from hotloc.nnls import DesignSystem, build_system, solve_nnls
from hotloc.pipeline import Run, StageError, _run_optimize, fit_importance, run_pipeline, run_stages


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

    @pytest.mark.parametrize("entry, sign", [("A", 1.0), ("b", 1.0), ("b", -1.0)])
    def test_entry_beyond_the_bound_refused(self, entry, sign):
        arrays = {"A": np.ones((4, 2)), "b": np.ones(4)}
        arrays[entry].flat[1] = sign * np.nextafter(MAX_MAGNITUDE, np.inf)
        message = "^design system entries must be finite and at most 1e\\+100 in magnitude$"
        with pytest.raises(ValueError, match=message):
            DesignSystem(**arrays)

    def test_entries_at_the_bound_accepted(self):
        A = np.ones((4, 2))
        A[1, 1] = MAX_MAGNITUDE
        DesignSystem(A=A, b=np.array([MAX_MAGNITUDE, -MAX_MAGNITUDE, 0.0, 1.0]))


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

    def test_map_beyond_the_bound_refused_by_the_design_system(self):
        # 1e308 is a finite weight, but beyond the bound that keeps A^T A
        # finite.
        maps = self.maps()
        maps[2].values[0, 0] = 1e308
        potential = WeightMap(np.ones((4, 4)), GridSpec(4, 25.0), "potential")
        with pytest.raises(ValueError, match="^design system entries must be finite and at most 1e\\+100"):
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

    def test_entries_at_the_bound_solve_without_overflow(self):
        # |A^T A| and |A^T b| reach 3600 * 1e200: finite, as is every step
        # of the Gram screen and the exact solves (the suite turns a
        # RuntimeWarning into an error).
        rng = np.random.default_rng(23)
        A = rng.random((3600, 5)) * MAX_MAGNITUDE
        b = rng.uniform(-1.0, 1.0, 3600) * MAX_MAGNITUDE
        system = DesignSystem(A=A, b=b)
        result = solve_nnls(system)
        assert result.x.any() and np.isfinite(result.residual)
        assert_kkt(system, result.x, tol=1e-10 * np.abs(A.T @ b).max())

    def test_importance_conversion(self):
        system = DesignSystem(A=np.eye(5), b=np.array([0.4, 0.3, 0.0, 0.2, 0.1]))
        vec, _ = fit_importance(system)
        assert isinstance(vec, ImportanceVector)
        np.testing.assert_allclose(vec.values, [0.4, 0.3, 0.0, 0.2, 0.1], atol=1e-12)


class TestOptimizeImportance:
    """The fit as the optimize stage runs it: ``fit_importance`` on
    ``build_system``, recorded in ``importance.json``."""

    def test_recovers_known_mixture(self):
        rng = np.random.default_rng(17)
        maps = tuple(
            WeightMap(rng.random((8, 8)), GridSpec(8, 25.0), f"q{k + 1}") for k in range(5)
        )
        x_true = ImportanceVector((0.5, 0.0, 0.3, 0.1, 0.0))
        potential = step6_combine(maps, x_true).normalized()
        scale = 1.0 / step6_combine(maps, x_true).total()
        x, residual = fit_importance(build_system(maps, potential))
        np.testing.assert_allclose(x.values, scale * np.array(x_true.values), atol=1e-8)
        assert residual <= 1e-9

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
        # The maps are read on the config's grid.
        spec = sim_config.spec
        shape = (spec.m, spec.m)
        maps = tuple(WeightMap(np.ones(shape), spec, f"q{k + 1}") for k in range(5))
        potential = WeightMap(np.zeros(shape), spec, "potential")
        for wmap in (*maps, potential):
            save_weight_map(wmap, tmp_path / f"{wmap.label}.csv")
        with pytest.raises(StageError, match="every factor is zero") as excinfo:
            run_stages(("optimize",), sim_config, tmp_path)
        assert excinfo.value.stage == "optimize"
        assert excinfo.value.cause.source == "potential.zones"
        assert not (tmp_path / "importance.json").exists()


# The plain enumeration that ``solve_nnls`` screens: the exact test on
# every support in order, with no Gram screen.
def enumerate_nnls(A, b):
    n = A.shape[1]
    gradient = A.T @ b
    tol = nnls.RTOL * np.abs(gradient).max()
    if (gradient <= tol).all():
        return np.zeros(n), float(np.linalg.norm(b)), 0
    solves = 0
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            columns = list(support)
            z = np.linalg.lstsq(A[:, columns], b, rcond=None)[0]
            solves += 1
            if (z <= 0).any():
                continue
            x = np.zeros(n)
            x[columns] = z
            residual = b - A @ x
            if (np.delete(A.T @ residual, columns) <= tol).all():
                return x, float(np.linalg.norm(residual)), solves
    raise AssertionError("no support satisfies the optimality conditions")


def assert_same_fit(A, b):
    """The screened fit has the bits of the plain enumeration; returns the
    screened result."""
    result = solve_nnls(DesignSystem(A=A, b=b))
    x, residual, solves = enumerate_nnls(A, b)
    assert result.x.tobytes() == x.tobytes()
    assert result.residual == residual
    assert result.iterations <= solves
    return result


def near_threshold_system(rng, component, gradient):
    """A 40 x 5 system whose fit on columns 0-2 has ``component`` as its
    last entry and leaves columns 3 and 4 an off-support gradient of
    ``gradient`` times the tolerance."""
    A = rng.random((40, 5))
    support = A[:, :3]
    b = support @ np.array([1.0, 0.5, component])
    # Residual directions orthogonal to the support, one per off-support
    # column: r_k with A_j^T r_k = [j == k] for j = 3, 4.
    q, _ = np.linalg.qr(support, mode="complete")
    free = q[:, 3:]
    basis = free[:, :2] @ np.linalg.inv(A[:, 3:].T @ free[:, :2])
    tol = nnls.RTOL * np.abs(A.T @ b).max()
    return A, b + basis @ np.full(2, gradient * tol)


class TestGramScreen:
    """The Gram screen skips a support only when the exact test would
    reject it, so x and the residual are those of :func:`enumerate_nnls`
    byte for byte."""

    @pytest.mark.parametrize("component", [1e-3, 1e-9, 1e-14, 1e-16, 0.0, -1e-16, -1e-14, -1e-9])
    @pytest.mark.parametrize("gradient", [-2.0, 0.5, 0.999, 0.9999, 1.0, 1.0001, 1.001, 2.0, 1e3])
    def test_near_both_thresholds(self, component, gradient):
        rng = np.random.default_rng(21)
        for _ in range(3):
            assert_same_fit(*near_threshold_system(rng, component, gradient))

    def test_seeded_random_systems(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            A = rng.random((30, 5)) ** 2
            b = rng.standard_normal(30) + A @ rng.standard_normal(5)
            assert_same_fit(A, b)

    def test_nearly_collinear_columns_take_the_exact_test(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            A = rng.random((50, 5))
            A[:, 1] = A[:, 0] + 1e-7 * rng.random(50)
            b = A @ np.array([0.3, 0.2, 0.1, -0.2, 0.4]) + 0.01 * rng.standard_normal(50)
            gradient = A.T @ b
            scale = np.abs(gradient).max()
            skipped = nnls._clearly_failing(A.T @ A, gradient, nnls.RTOL * scale, nnls.SCREEN_RTOL * scale)
            assert not any({0, 1} <= set(support) for support in skipped)
            assert_same_fit(A, b)

    def test_zero_column_makes_the_gram_matrix_singular(self):
        rng = np.random.default_rng(24)
        A = rng.random((30, 5))
        A[:, 3] = 0.0
        b = A @ np.array([0.5, 0.0, 0.7, 0.0, 0.2]) + 0.05 * rng.random(30)
        assert np.linalg.matrix_rank(A.T @ A) == 4
        result = assert_same_fit(A, b)
        assert result.x[3] == 0.0

    def test_sim_small_fit_without_congestion(self, sim_config, tmp_path):
        # Under rho_cap 10 no cell is congested and q4 is zero everywhere.
        config = replace(sim_config, oracle=replace(sim_config.oracle, rho_cap=10.0))
        run = run_stages(("scenario", "kpis", "maps"), config, tmp_path)
        system = build_system(tuple(run.kpi_maps), run.potential_map)
        assert not system.A[:, 3].any()
        assert_same_fit(system.A, system.b)

    def test_one_exact_solve_per_desk_fit(self, desk_config, tmp_path, monkeypatch):
        results = []

        def recorded(system):
            results.append(solve_nnls(system))
            return results[-1]

        monkeypatch.setattr(pipeline, "solve_nnls", recorded)
        run_pipeline(desk_config, tmp_path)
        # The importance fit and the two restricted variants' fits.
        assert [r.iterations for r in results] == [1, 1, 1]

    def test_error_names_supports_and_exact_solves(self, monkeypatch):
        # A negative tolerance fails every support: the 16 supports that
        # hold the zero column 4 are singular and take the exact test,
        # and the screen rejects the other 15.
        A = np.eye(5)
        A[4, 4] = 0.0
        monkeypatch.setattr(nnls, "RTOL", -2.0)
        with pytest.raises(ValueError, match=r"^importance fit: none of the 31 column supports .* within -2 \(16 solved exactly\)$"):
            solve_nnls(DesignSystem(A=A, b=np.array([1.0, -1.0, 1.0, -1.0, 0.0])))
