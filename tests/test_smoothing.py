import numpy as np
import pytest

from hotloc.smoothing import DEFAULT_TAIL, smooth_grid, truncated_kernel


def full_sum_oracle(values, h):
    """Untruncated kernel average computed pair-by-pair."""
    m = values.shape[0]
    delta = 1.0 / (m - 1)
    idx = np.arange(m)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    flat_i = ii.reshape(-1)
    flat_j = jj.reshape(-1)
    d2 = (
        (flat_i[:, None] - flat_i[None, :]) ** 2
        + (flat_j[:, None] - flat_j[None, :]) ** 2
    ) * delta**2
    kernel = np.exp(-d2 / (2.0 * h))
    out = kernel @ values.reshape(-1) / kernel.sum(axis=1)
    return out.reshape(m, m)


class TestKernel:
    def test_shape_and_symmetry(self):
        kernel = truncated_kernel(60, 1e-3)
        assert kernel.ndim == 2
        assert kernel.shape[0] == kernel.shape[1]
        assert kernel.shape[0] % 2 == 1
        np.testing.assert_array_equal(kernel, kernel.T)
        np.testing.assert_array_equal(kernel, kernel[::-1, ::-1])
        center = kernel.shape[0] // 2
        assert kernel[center, center] == 1.0

    def test_tail_entries_are_zeroed(self):
        kernel = truncated_kernel(60, 1e-3, tail=1e-12)
        nonzero = kernel[kernel > 0]
        assert nonzero.min() >= 1e-12

    def test_radius_capped_at_map_span(self):
        # A huge bandwidth cannot produce a window larger than the map.
        kernel = truncated_kernel(10, 1e6)
        assert kernel.shape[0] == 2 * 9 + 1
        # At 1e308 the uncapped radius overflows to infinity.
        assert truncated_kernel(10, 1e308).shape[0] == 2 * 9 + 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="m >= 2"):
            truncated_kernel(1, 1e-3)
        with pytest.raises(ValueError, match="positive"):
            truncated_kernel(10, 0.0)
        with pytest.raises(ValueError, match="tail"):
            truncated_kernel(10, 1e-3, tail=2.0)


class TestSmoothGrid:
    def test_constant_map_is_fixed_point(self):
        # Power-of-two constants make the kernel average exact in floats.
        # m=1024 also checks that a large grid runs in bounded memory.
        for m in (30, 1024):
            for c in (1.0, 0.5, 4.0):
                values = np.full((m, m), c)
                out = smooth_grid(values, 1e-3)
                np.testing.assert_array_equal(out, values)

    def test_constant_map_near_fixed_point_generally(self):
        values = np.full((30, 30), 0.3)
        out = smooth_grid(values, 1e-3)
        np.testing.assert_allclose(out, values, rtol=1e-13)

    def test_bounds_pixelwise(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            values = rng.random((25, 25))
            out = smooth_grid(values, 10 ** rng.uniform(-4, -2))
            assert out.min() >= values.min()
            assert out.max() <= values.max()

    def test_mass_spreads_but_peak_stays(self):
        values = np.zeros((21, 21))
        values[10, 10] = 1.0
        out = smooth_grid(values, 1e-3)
        assert out[10, 10] == out.max()
        assert out[10, 11] > 0.0

    def test_truncated_matches_full_sum_oracle(self):
        rng = np.random.default_rng(22)
        for h in (1e-3, 3e-3):
            values = rng.random((20, 20))
            out = smooth_grid(values, h, tail=DEFAULT_TAIL)
            oracle = full_sum_oracle(values, h)
            np.testing.assert_allclose(out, oracle, rtol=1e-9)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            smooth_grid(np.zeros((3, 4)), 1e-3)


class TestBackends:
    def test_backends_agree(self):
        # Far tighter than the 1e-9 bound above: the square truncation
        # keeps the smoother within float noise of the untruncated sum.
        rng = np.random.default_rng(23)
        for _ in range(5):
            values = rng.random((40, 40))
            h = 10 ** rng.uniform(-4, -2)
            np.testing.assert_allclose(
                smooth_grid(values, h), full_sum_oracle(values, h), rtol=1e-12, atol=1e-15
            )
