import numpy as np
import pytest

from mrsquant.basis import default_brain_basis, linear_combination
from mrsquant.dataset import Dataset
from mrsquant.errors import GridCompatibilityError, UndefinedResultError
from mrsquant.pipeline import (
    CR_HI_PPM,
    CR_LO_PPM,
    build_feature_space,
    cr_normalize,
    dtft_matrix,
    features_for_dataset,
)
from mrsquant.signal import (
    AcquisitionParams,
    TimeSignal,
    fid_to_spectrum,
    spectrum_to_fid,
)

TRAIN_PARAMS = AcquisitionParams(spectral_width=2500.0, n_points=1024, transmitter_freq=127.7)
MRSI_PARAMS = AcquisitionParams(spectral_width=2000.0, n_points=400, transmitter_freq=127.7)


def example_spectrum(params=TRAIN_PARAMS):
    basis = default_brain_basis(params)
    return linear_combination(basis, {"NAA": 1.2, "Cho": 0.3, "Cr": 1.0})


def example_dataset(params=TRAIN_PARAMS):
    spec = example_spectrum(params)
    return Dataset(params, 4.7, spec.values[None, :], [])


class TestCrop:
    """The quantification window, cropped with a ppm mask as build_feature_space does."""

    def test_window_postcondition(self):
        data = example_dataset()
        meta, X = build_feature_space(data)
        assert np.all((meta.grid >= 0.2) & (meta.grid <= 4.3))
        kept = (data.ppm_axis >= 0.2) & (data.ppm_axis <= 4.3)
        assert X.shape == (1, int(kept.sum()))
        assert np.array_equal(X, cr_normalize(data.values.real[:, kept], data.ppm_axis[kept]))

    def test_idempotent(self):
        data = example_dataset()
        meta, X = build_feature_space(data)
        kept = meta.grid.size
        params = AcquisitionParams(TRAIN_PARAMS.spectral_width * kept / TRAIN_PARAMS.n_points, kept,
                                   TRAIN_PARAMS.transmitter_freq)
        window = (data.ppm_axis >= 0.2) & (data.ppm_axis <= 4.3)
        cropped = Dataset(params, meta.grid[kept // 2], data.values[:, window], [])
        assert np.array_equal(features_for_dataset(meta, cropped), X)

    def test_bin_width_preserved(self):
        meta, _ = build_feature_space(example_dataset())
        ppm_per_bin = TRAIN_PARAMS.spectral_width / TRAIN_PARAMS.n_points / TRAIN_PARAMS.transmitter_freq
        assert np.allclose(-np.diff(meta.grid), ppm_per_bin, rtol=1e-9)

    def test_empty_overlap_raises(self):
        # referenced at 100 ppm, the axis spans about 90-110 ppm
        far = Dataset(TRAIN_PARAMS, 100.0, example_dataset().values, [])
        with pytest.raises(GridCompatibilityError):
            build_feature_space(far)


class TestDtft:
    @pytest.mark.parametrize("params", [TRAIN_PARAMS, MRSI_PARAMS, AcquisitionParams(2000.0, 401, 127.7)])
    def test_source_axis_is_identity(self, params):
        spec = example_spectrum(params)
        out = dtft_matrix(params, 4.7, spec.ppm_axis) @ spec.values
        rel = np.max(np.abs(out - spec.values)) / np.max(np.abs(spec.values))
        assert rel <= 1e-9

    def test_matches_zero_filled_fft(self):
        spec = example_spectrum(MRSI_PARAMS)
        n = MRSI_PARAMS.n_points
        padded = np.concatenate([spectrum_to_fid(spec).samples, np.zeros(3 * n)])
        fine = AcquisitionParams(MRSI_PARAMS.spectral_width, 4 * n, MRSI_PARAMS.transmitter_freq)
        zero_filled = fid_to_spectrum(TimeSignal(padded, fine), 4.7)
        out = dtft_matrix(MRSI_PARAMS, 4.7, zero_filled.ppm_axis) @ spec.values
        rel = np.max(np.abs(out - zero_filled.values)) / np.max(np.abs(zero_filled.values))
        assert rel <= 1e-9

    def test_outside_band_raises(self):
        spec = example_spectrum(MRSI_PARAMS)
        beyond = spec.ppm_axis[0] + MRSI_PARAMS.spectral_width / MRSI_PARAMS.n_points / 127.7
        with pytest.raises(GridCompatibilityError):
            dtft_matrix(MRSI_PARAMS, 4.7, np.array([beyond]))


class TestCrNormalize:
    GRID = np.linspace(4.3, 0.2, 215)

    def _rows(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(-0.5, 0.5, size=(6, self.GRID.size))
        window = (self.GRID >= CR_LO_PPM) & (self.GRID <= CR_HI_PPM)
        rows[:, np.flatnonzero(window)[2]] = [1.0, 2.0, 0.7, 5.0, 1.5, 3.0]
        return rows, window

    def test_cr_peak_becomes_one(self):
        rows, window = self._rows()
        out = cr_normalize(rows, self.GRID)
        assert np.array_equal(out.max(axis=1, where=window, initial=-np.inf), np.ones(6))
        assert np.allclose(out * rows[:, window].max(axis=1)[:, None], rows, rtol=1e-15)

    def test_scale_invariance(self):
        rows, _ = self._rows()
        scales = np.array([0.01, 1.0, 7.0, 1e3, 3.0, 0.5])[:, None]
        assert np.allclose(cr_normalize(rows * scales, self.GRID), cr_normalize(rows, self.GRID),
                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_non_positive_cr_peak_raises(self, bad):
        rows, window = self._rows()
        rows[4, window] = bad
        with pytest.raises(UndefinedResultError):
            cr_normalize(rows, self.GRID)

    def test_grid_without_cr_window_raises(self):
        grid = np.linspace(2.5, 0.5, 10)
        with pytest.raises(GridCompatibilityError):
            cr_normalize(np.ones((2, 10)), grid)
