import hashlib
import json

import numpy as np
import pytest

from mrsquant import fileio
from mrsquant.basis import default_brain_basis, linear_combination
from mrsquant.dataset import Dataset, dataset_from_labeled
from mrsquant.errors import FileFormatError, ValidationError
from mrsquant.lsqfit import basis_design_matrix, lsq_fit_batch, polynomial_columns
from mrsquant.pipeline import oracle_ratios
from mrsquant.signal import AcquisitionParams, ComplexSpectrum, ppm_axis
from mrsquant.simulate import SimulationConfig, add_noise, simulate_dataset

PARAMS = AcquisitionParams(spectral_width=2500.0, n_points=1024, transmitter_freq=127.7)
BASIS = default_brain_basis(PARAMS)
TRUTH = {"NAA": 1.2, "Cr": 0.9, "Cho": 0.3}
TARGETS = ["Cho/Cr", "NAA/Cr"]
ALL = np.arange(PARAMS.n_points)
# the quantification window, a mask as the pipeline passes it
WINDOW = (ppm_axis(PARAMS) >= 0.2) & (ppm_axis(PARAMS) <= 4.3)


def clean_spectrum(concentrations=None):
    return linear_combination(BASIS, concentrations or TRUTH)


def fit(spec, degree=4, bins=ALL):
    """{metabolite: concentration} of one spectrum's bins, solved as a batch of one row."""
    theta = lsq_fit_batch(spec.values.real[None, bins], BASIS, bins, degree)[0]
    return dict(zip(BASIS.names, theta))


def design(bins, degree):
    B = basis_design_matrix(BASIS, bins)
    return np.hstack([B, polynomial_columns(B.shape[0], degree)])


def dataset_of(values):
    return Dataset(PARAMS, BASIS.reference_ppm, values, TARGETS)


def with_values(data, values):
    return Dataset(data.params, data.reference_ppm, values, data.target_names)


def simulated(n, seed):
    cfg = SimulationConfig(basis=BASIS, n_spectra=n, rng_seed=seed)
    return dataset_from_labeled(simulate_dataset(cfg), target_names=cfg.target_names)


class TestLsqFit:
    def test_exact_recovery_noiseless(self):
        conc = fit(clean_spectrum(), 0)
        for name, value in TRUTH.items():
            assert conc[name] == pytest.approx(value, abs=1e-6)
        assert conc["mI"] == pytest.approx(0.0, abs=1e-6)
        assert conc["Glx"] == pytest.approx(0.0, abs=1e-6)

    def test_exact_recovery_on_cropped_window(self):
        conc = fit(clean_spectrum(), 4, WINDOW)
        for name, value in TRUTH.items():
            assert conc[name] == pytest.approx(value, abs=1e-6)

    def test_zero_spectrum_gives_zero_fit(self):
        spec = ComplexSpectrum(np.zeros(1024, dtype=complex), ppm_axis(PARAMS), PARAMS)
        theta = lsq_fit_batch(spec.values.real[None, :], BASIS, ALL)
        assert theta.shape == (1, len(BASIS.names) + 5)
        assert np.all(np.abs(theta) <= 1e-12)

    def test_residual_tracks_injected_noise(self):
        spec = clean_spectrum()
        noisy = add_noise(spec, 20.0, np.random.default_rng(8))
        theta = lsq_fit_batch(noisy.values.real[None, :], BASIS, ALL, 0)[0]
        residual_norm = np.linalg.norm(noisy.values.real - design(ALL, 0) @ theta)
        noise_norm = np.linalg.norm((noisy.values - spec.values).real)
        assert residual_norm > 0
        assert abs(residual_norm - noise_norm) <= 0.2 * noise_norm

    def test_scale_equivariance(self):
        spec = clean_spectrum()
        scaled = ComplexSpectrum(spec.values * 7.0, spec.ppm_axis, spec.params)
        base = fit(spec)
        big = fit(scaled)
        for name in BASIS.names:
            assert big[name] == pytest.approx(7.0 * base[name], abs=1e-8)

    def test_residual_orthogonal_to_design(self):
        noisy = add_noise(clean_spectrum(), 15.0, np.random.default_rng(3))
        rows = noisy.values.real[WINDOW]
        A = design(WINDOW, 4)
        theta = lsq_fit_batch(rows[None, :], BASIS, WINDOW, 4)[0]
        residual = rows - A @ theta
        bound = 1e-8 * max(np.linalg.norm(residual), 1.0) * np.max(np.linalg.norm(A, axis=0))
        assert np.max(np.abs(A.T @ residual)) <= bound

    def test_grid_mismatch_raises(self, tmp_path):
        # the oracle fits a dataset on the grid of a basis rendered at the dataset's own
        # acquisition; a file whose stored axis leaves that grid is refused when it is read
        path = tmp_path / "data.json"
        fileio.write_dataset(path, dataset_of([clean_spectrum().values]))
        doc = json.loads(path.read_text())
        doc["ppm_axis"] = [v + 0.05 for v in doc["ppm_axis"]]
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="stored ppm_axis"):
            fileio.read_dataset(path)

    def test_batch_matches_single(self):
        specs = [
            add_noise(clean_spectrum(), 25.0, np.random.default_rng(i)) for i in range(4)
        ]
        rows = np.stack([s.values.real for s in specs])
        batch = lsq_fit_batch(rows, BASIS, ALL, baseline_degree=2)
        A = design(ALL, 2)
        for row, theta in zip(rows, batch):
            reference = np.linalg.lstsq(A, row, rcond=None)[0]
            assert np.allclose(theta, reference, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_refused_by_index(self, bad):
        rows = np.stack([clean_spectrum().values.real] * 3)
        rows[1, 100] = bad
        with pytest.raises(ValidationError, match="row 1"):
            lsq_fit_batch(rows, BASIS, ALL)

    @pytest.mark.parametrize("degree", [-1, 1.5])
    def test_bad_baseline_degree_refused(self, degree):
        with pytest.raises(ValidationError, match="baseline_degree"):
            fit(clean_spectrum(), degree)


class TestFitRatios:
    """Cr ratios of the least-squares fit, as oracle_ratios reports them."""

    def _with_row(self, row):
        double = clean_spectrum({"NAA": 2.0, "Cr": 1.0}).values
        rows = np.stack([clean_spectrum().values, row, double])
        return oracle_ratios(dataset_of(rows), TARGETS, baseline_degree=0)

    def test_simple_ratio(self):
        est, ok = oracle_ratios(dataset_of([clean_spectrum({"NAA": 2.0, "Cr": 1.0}).values]),
                                ["NAA/Cr"], baseline_degree=0)
        assert ok.tolist() == [True]
        assert est[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_zero_cr_rejected(self):
        est, ok = self._with_row(np.zeros(PARAMS.n_points, dtype=complex))
        reference, _ = oracle_ratios(dataset_of(np.stack([clean_spectrum().values] * 3)),
                                     TARGETS, baseline_degree=0)
        assert ok.tolist() == [True, False, True]
        assert np.isnan(est[1]).all()
        assert np.array_equal(est[0], reference[0])

    def test_negative_cr_rejected(self):
        est, ok = self._with_row(-clean_spectrum().values)
        assert ok.tolist() == [True, False, True]
        assert np.isnan(est[1]).all()
        assert est[2, 1] == pytest.approx(2.0, abs=1e-6)

    def test_noiseless_ratios_match_labels(self):
        est, ok = oracle_ratios(dataset_of([clean_spectrum().values]), TARGETS, baseline_degree=0)
        assert ok.all()
        assert est[0, 0] == pytest.approx(TRUTH["Cho"] / TRUTH["Cr"], abs=1e-6)
        assert est[0, 1] == pytest.approx(TRUTH["NAA"] / TRUTH["Cr"], abs=1e-6)

    def test_ratios_invariant_to_scale(self):
        data = simulated(12, seed=4)
        scales = np.array([0.01, 1.0, 5.0, 300.0] * 3)[:, None]
        est, ok = oracle_ratios(data, TARGETS)
        est_scaled, ok_scaled = oracle_ratios(with_values(data, data.values * scales), TARGETS)
        assert ok.all() and np.array_equal(ok, ok_scaled)
        assert np.allclose(est_scaled, est, rtol=1e-9, atol=0)

    def test_target_without_basis_line_refused(self):
        with pytest.raises(ValidationError, match="Lac/Cr"):
            oracle_ratios(dataset_of([clean_spectrum().values]), ["NAA/Cr", "Lac/Cr"])

    def test_pinned_estimates(self):
        # (est, ok) of 40 simulated spectra, row 3 negated and row 7 zeroed,
        # as the per-row FitResult implementation returned them; any change
        # to the solve or the ratio arithmetic moves this digest.  The bits
        # belong to one numpy/LAPACK build; another build may round differently.
        data = simulated(40, seed=5)
        values = data.values.copy()
        values[3] *= -1
        values[7] = 0
        est, ok = oracle_ratios(with_values(data, values), data.target_names)
        assert np.flatnonzero(~ok).tolist() == [3, 7]
        digest = hashlib.sha256(est.tobytes() + ok.tobytes()).hexdigest()
        assert digest == "fc48d4074d150a1c87060f9fe8682b547e4621649884a2f709952e74ee617275"
