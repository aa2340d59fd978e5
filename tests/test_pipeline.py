import numpy as np
import pytest

from mrsquant.basis import default_brain_basis, linear_combination
from mrsquant.dataset import Dataset, dataset_from_labeled
from mrsquant.errors import GridCompatibilityError, UndefinedResultError, ValidationError
from mrsquant.forest import ForestConfig
from mrsquant.pipeline import (
    CR_HI_PPM,
    CR_LO_PPM,
    build_feature_space,
    cr_normalize,
    dtft_matrix,
    features_for_dataset,
    train_model,
)
from mrsquant.signal import AcquisitionParams, LorentzianComponent, ppm_axis, spectra_from_fids
from mrsquant.simulate import SimulationConfig, simulate_dataset

from test_signal import line_fid

TRAIN_PARAMS = AcquisitionParams(spectral_width=2500.0, n_points=1024, transmitter_freq=127.7)
MRSI_PARAMS = AcquisitionParams(spectral_width=2000.0, n_points=400, transmitter_freq=127.7)


def simulated(params, n, seed):
    cfg = SimulationConfig(basis=default_brain_basis(params), n_spectra=n, rng_seed=seed)
    return dataset_from_labeled(simulate_dataset(cfg), target_names=cfg.target_names)


def with_values(dataset, values):
    return Dataset(dataset.params, dataset.reference_ppm, values, dataset.target_names, dataset.labels)


def noiseless(params, t2):
    # NAA, the two Cr lines and Cho with one shared T2*
    comps = [LorentzianComponent(2.01, 1.3, t2), LorentzianComponent(3.03, 0.6, t2),
             LorentzianComponent(3.91, 0.4, t2), LorentzianComponent(3.19, 0.3, t2)]
    return Dataset(params, 4.7, spectra_from_fids(line_fid(comps, params))[None, :], ["NAA/Cr"])


@pytest.fixture(scope="module")
def train():
    return simulated(TRAIN_PARAMS, 40, seed=21)


@pytest.fixture(scope="module")
def mrsi():
    return simulated(MRSI_PARAMS, 25, seed=22)


class TestFeatureSpace:
    def test_rows_divided_by_own_cr_peak(self, train):
        meta, X = build_feature_space(train)
        window = (meta.grid >= CR_LO_PPM) & (meta.grid <= CR_HI_PPM)
        assert int(window.sum()) == 8
        assert np.array_equal(X[:, window].max(axis=1), np.ones(train.n_spectra))

    def test_matched_dataset_reproduces_training_features(self, train):
        meta, X = build_feature_space(train)
        assert np.array_equal(features_for_dataset(meta, train), X)

    def test_cross_protocol_keeps_peak_heights(self):
        # With the FID decayed inside both acquisition windows, the 400-point
        # spectrum's DTFT on the model grid is the training-protocol spectrum
        # up to scale; linear interpolation between its 5 Hz bins misses the
        # apexes by about 0.18 here.
        meta, X = build_feature_space(noiseless(TRAIN_PARAMS, 0.03))
        F = features_for_dataset(meta, noiseless(MRSI_PARAMS, 0.03), allow_resample=True)
        assert F.shape == X.shape
        assert np.max(np.abs(F - X)) <= 0.01 * np.max(X)

    def test_cross_protocol_scale_invariant(self, train, mrsi):
        meta, _ = build_feature_space(train)
        a = features_for_dataset(meta, mrsi, allow_resample=True)
        b = features_for_dataset(meta, with_values(mrsi, mrsi.values * 10.0), allow_resample=True)
        assert a.shape == (mrsi.n_spectra, meta.grid.size)
        assert np.allclose(a, b, rtol=0, atol=1e-12 * np.max(np.abs(a)))

    def test_cross_protocol_needs_resample(self, train, mrsi):
        meta, _ = build_feature_space(train)
        with pytest.raises(GridCompatibilityError):
            features_for_dataset(meta, mrsi)

    @pytest.mark.parametrize("allow_resample", [False, True])
    def test_negative_cr_peak_raises(self, train, mrsi, allow_resample):
        meta, _ = build_feature_space(train)
        data = mrsi if allow_resample else train
        values = data.values.copy()
        # a constant offset is a constant on any grid: the whole Cr window turns negative
        values[3] -= 10.0 * np.max(np.abs(values[3]))
        with pytest.raises(UndefinedResultError):
            features_for_dataset(meta, with_values(data, values), allow_resample=allow_resample)

    def test_training_set_with_negative_cr_peak_raises(self, train):
        values = train.values.copy()
        values[5] -= 10.0 * np.max(np.abs(values[5]))
        with pytest.raises(UndefinedResultError):
            build_feature_space(with_values(train, values))


def example_spectrum(params=TRAIN_PARAMS):
    basis = default_brain_basis(params)
    return linear_combination(basis, {"NAA": 1.2, "Cho": 0.3, "Cr": 1.0})


def example_dataset(params=TRAIN_PARAMS):
    spec = example_spectrum(params)
    return Dataset(params, 4.7, spec.values[None, :], [])


class TestTrainModel:
    def test_unlabelled_dataset_refused(self, train):
        unlabelled = Dataset(train.params, train.reference_ppm, train.values, train.target_names)
        with pytest.raises(ValidationError, match="dataset has no labels"):
            train_model(unlabelled, ForestConfig(n_trees=1, max_features=4, rng_seed=0))


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
        # the FID behind the spectrum: axis position j holds DFT bin (n//2 - j) mod n
        dft = np.empty(n, dtype=complex)
        dft[(n // 2 - np.arange(n)) % n] = spec.values
        padded = np.concatenate([np.fft.ifft(dft), np.zeros(3 * n)])
        fine = AcquisitionParams(MRSI_PARAMS.spectral_width, 4 * n, MRSI_PARAMS.transmitter_freq)
        zero_filled = spectra_from_fids(padded)
        out = dtft_matrix(MRSI_PARAMS, 4.7, ppm_axis(fine, 4.7)) @ spec.values
        rel = np.max(np.abs(out - zero_filled)) / np.max(np.abs(zero_filled))
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
