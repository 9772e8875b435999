"""Tests for repro.apps — synthetic fields and the three analytics."""

import numpy as np
import pytest

from repro.apps import ALL_APPS, make_app
from repro.apps.cfd import CFDPressureAnalysis, pressure_analysis
from repro.apps.genasis import GenASiSRendering, render
from repro.apps.synthetic import (
    cfd_pressure_field,
    genasis_velocity_field,
    xgc_dpot_field,
)
from repro.apps.xgc import XGCBlobDetection, detect_blobs


class TestFactory:
    def test_all_apps(self):
        for name in ALL_APPS:
            app = make_app(name)
            assert app.name == name

    def test_unknown_app(self):
        with pytest.raises(ValueError):
            make_app("lammps")


class TestSyntheticFields:
    @pytest.mark.parametrize("gen", [xgc_dpot_field, genasis_velocity_field, cfd_pressure_field])
    def test_shape_and_dtype(self, gen):
        f = gen((64, 48), seed=0)
        assert f.shape == (64, 48)
        assert f.dtype == np.float64
        assert np.all(np.isfinite(f))

    @pytest.mark.parametrize("gen", [xgc_dpot_field, genasis_velocity_field, cfd_pressure_field])
    def test_deterministic(self, gen):
        np.testing.assert_array_equal(gen((32, 32), seed=5), gen((32, 32), seed=5))

    @pytest.mark.parametrize("gen", [xgc_dpot_field, genasis_velocity_field, cfd_pressure_field])
    def test_seed_changes_field(self, gen):
        assert not np.array_equal(gen((32, 32), seed=1), gen((32, 32), seed=2))

    def test_xgc_blobs_stand_out(self):
        f = xgc_dpot_field((128, 128), seed=0, num_blobs=5, blob_amplitude=6.0)
        med = np.median(f)
        mad = np.median(np.abs(f - med))
        assert f.max() - med > 5 * 1.4826 * mad

    def test_genasis_shock_structure(self):
        """Velocity outside the shock exceeds the settled interior."""
        f = genasis_velocity_field((128, 128), seed=0)
        ny, nx = f.shape
        cy, cx = ny // 2, nx // 2
        inner = f[cy - 5 : cy + 5, cx - 5 : cx + 5].mean()
        outside = f[cy, int(0.95 * nx)]  # well beyond the 0.35-radius shock
        assert outside > inner + 0.5

    def test_cfd_stagnation_at_leading_edge(self):
        f = cfd_pressure_field((128, 128), seed=0, front_position_frac=0.25)
        peak_col = np.unravel_index(np.argmax(f), f.shape)[1]
        assert abs(peak_col - 0.25 * 128) < 0.1 * 128


class TestBlobDetection:
    def test_detects_planted_blobs(self):
        f = xgc_dpot_field((256, 256), seed=1, num_blobs=10)
        stats = detect_blobs(f)
        assert 6 <= stats.count <= 14

    def test_no_blobs_in_pure_noise(self, rng):
        from scipy.ndimage import gaussian_filter

        f = gaussian_filter(rng.standard_normal((128, 128)), 8)
        stats = detect_blobs(f, threshold_sigma=4.0)
        assert stats.count <= 2

    def test_constant_field(self):
        stats = detect_blobs(np.zeros((32, 32)))
        assert stats.count == 0 and stats.total_area == 0.0

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            detect_blobs(np.zeros(16))

    def test_min_area_filters_specks(self):
        f = np.zeros((64, 64))
        f[10, 10] = 100.0  # single-pixel spike
        f[30:36, 30:36] = 100.0  # real blob
        loose = detect_blobs(f, min_area=1)
        strict = detect_blobs(f, min_area=4)
        assert loose.count == 2 and strict.count == 1

    def test_diameter_of_known_blob(self):
        f = np.zeros((64, 64))
        yy, xx = np.mgrid[0:64, 0:64]
        mask = (yy - 32) ** 2 + (xx - 32) ** 2 <= 8**2
        f[mask] = 10.0
        stats = detect_blobs(f)
        assert stats.count == 1
        assert stats.mean_diameter == pytest.approx(16.0, rel=0.1)

    def test_stats_dict_keys(self):
        app = XGCBlobDetection()
        out = app.analyze(app.generate((64, 64), seed=0))
        assert set(out) == {"count", "mean_diameter", "total_area", "mean_peak"}


class TestGenASiS:
    def test_render_normalised(self):
        f = genasis_velocity_field((64, 64), seed=0)
        img = render(f)
        assert img.min() == 0.0 and img.max() == 1.0

    def test_render_constant(self):
        assert np.all(render(np.full((8, 8), 5.0)) == 0.0)

    def test_quality_perfect_for_identical(self):
        app = GenASiSRendering()
        f = app.generate((64, 64), seed=0)
        q = app.quality(f, f)
        assert q.ssim == pytest.approx(1.0)
        assert q.dice == 1.0

    def test_quality_degrades_with_noise(self, rng):
        app = GenASiSRendering()
        f = app.generate((64, 64), seed=0)
        noisy = f + 0.3 * rng.standard_normal(f.shape)
        q = app.quality(f, noisy)
        assert q.ssim < 1.0 and q.dice < 1.0

    def test_outcome_error_is_one_minus_ssim(self, rng):
        app = GenASiSRendering()
        f = app.generate((64, 64), seed=0)
        noisy = f + 0.1 * rng.standard_normal(f.shape)
        assert app.outcome_error(f, noisy) == pytest.approx(1.0 - app.quality(f, noisy).ssim)

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            GenASiSRendering(high_velocity_quantile=1.5)


class TestCFD:
    def test_analysis_keys(self):
        app = CFDPressureAnalysis()
        out = app.analyze(app.generate((64, 64), seed=0))
        assert set(out) == {"high_pressure_area", "total_force", "peak_pressure"}

    def test_pressure_analysis_known_field(self):
        f = np.ones((32, 32))
        f[10:20, 10:20] = 10.0
        stats = pressure_analysis(f, threshold=5.0)
        assert stats.high_pressure_area == 100.0
        assert stats.total_force == pytest.approx(1000.0)
        assert stats.peak_pressure == 10.0

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            pressure_analysis(np.zeros(16))

    def test_cell_area_scales_outputs(self):
        f = np.ones((16, 16))
        f[4:8, 4:8] = 10.0
        a = pressure_analysis(f, threshold=5.0, cell_area=1.0)
        b = pressure_analysis(f, threshold=5.0, cell_area=2.0)
        assert b.high_pressure_area == 2 * a.high_pressure_area
        assert b.total_force == 2 * a.total_force

    def test_outcome_error_uses_reference_threshold(self):
        """The reduced field is scored with the reference's cut, so a
        smoothed (lower-peak) approximation reports a real error."""
        app = CFDPressureAnalysis()
        f = app.generate((128, 128), seed=0)
        assert app.outcome_error(f, f * 0.9) > 0.0

    def test_reference_threshold_cleared_after(self):
        """Scoring pins the reference's cut only inside the scorer: a
        later analyze() derives its own threshold again."""
        app = CFDPressureAnalysis()
        f = app.generate((64, 64), seed=0)
        app.outcome_error(f, f)
        g = app.generate((64, 64), seed=1)
        assert app.analyze(g) == CFDPressureAnalysis().analyze(g)


class TestOutcomeError:
    @pytest.mark.parametrize("name", ALL_APPS)
    def test_identical_fields_zero_error(self, name):
        app = make_app(name)
        f = app.generate((64, 64), seed=0)
        assert app.outcome_error(f, f.copy()) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", ALL_APPS)
    def test_error_grows_with_degradation(self, name, rng):
        from repro.core.refactor import decompose, reconstruct_base_only

        app = make_app(name)
        f = app.generate((256, 256), seed=0)
        mild = reconstruct_base_only(decompose(f, 2))
        harsh = reconstruct_base_only(decompose(f, 5))
        assert app.outcome_error(f, harsh) >= app.outcome_error(f, mild) - 1e-6
