import numpy as np
import pytest

from mrsquant.basis import default_brain_basis
from mrsquant.dataset import Dataset, dataset_from_labeled
from mrsquant.errors import GridCompatibilityError, UndefinedResultError
from mrsquant.pipeline import CR_HI_PPM, CR_LO_PPM, build_feature_space, features_for_dataset
from mrsquant.signal import AcquisitionParams, LorentzianComponent, fid_to_spectrum, synthesize_fid
from mrsquant.simulate import SimulationConfig, simulate_dataset

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
    spec = fid_to_spectrum(synthesize_fid(comps, params, 4.7), 4.7)
    return Dataset(params, 4.7, spec.values[None, :], ["NAA/Cr"])


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
