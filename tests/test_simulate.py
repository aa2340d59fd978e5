import hashlib
import math
import re

import numpy as np
import pytest

from mrsquant.basis import default_brain_basis, linear_combination
from mrsquant.dataset import dataset_from_labeled
from mrsquant.errors import ValidationError
from mrsquant.signal import AcquisitionParams, ComplexSpectrum, ppm_axis
from mrsquant.simulate import (
    CHUNK_SIZE,
    SimulationConfig,
    add_noise,
    generate_baseline,
    generate_lipids,
    simulate_dataset,
    simulate_spectrum,
)

PARAMS = AcquisitionParams(spectral_width=2500.0, n_points=1024, transmitter_freq=127.7)
BASIS = default_brain_basis(PARAMS)


def degenerate_config(n=1, seed=3, naa=2.0, cho=0.3, cr=1.0, snr=math.inf,
                      baseline=0.0, lipid=0.0, t2_scale=1.0):
    return SimulationConfig(
        basis=BASIS,
        n_spectra=n,
        rng_seed=seed,
        concentration_ranges={"NAA": (naa, naa), "Cho": (cho, cho), "Cr": (cr, cr)},
        t2_scale_range=(t2_scale, t2_scale),
        snr_range=(snr, snr),
        baseline_amplitude_range=(baseline, baseline),
        lipid_amplitude_range=(lipid, lipid),
    )


class TestConfig:
    def test_rejects_min_above_max(self):
        with pytest.raises(ValidationError):
            SimulationConfig(basis=BASIS, n_spectra=1, rng_seed=0,
                             concentration_ranges={"NAA": (2.0, 1.0), "Cr": (1.0, 1.0)})

    def test_requires_cr(self):
        with pytest.raises(ValidationError):
            SimulationConfig(basis=BASIS, n_spectra=1, rng_seed=0,
                             concentration_ranges={"NAA": (1.0, 2.0)})

    def test_rejects_unknown_metabolite(self):
        with pytest.raises(ValidationError):
            SimulationConfig(basis=BASIS, n_spectra=1, rng_seed=0,
                             concentration_ranges={"Lactate": (1.0, 2.0), "Cr": (1.0, 1.0)})

    def test_target_names(self):
        cfg = degenerate_config()
        assert cfg.target_names == ["Cho/Cr", "NAA/Cr"]

    @pytest.mark.parametrize("field, ranges", [
        ("concentration_ranges[NAA]",
         {"concentration_ranges": {"NAA": (math.inf, math.inf), "Cr": (1.0, 1.0)}}),
        ("concentration_ranges[Cr]",
         {"concentration_ranges": {"NAA": (1.0, 1.0), "Cr": (math.inf, math.inf)}}),
        ("t2_scale_range", {"t2_scale_range": (math.inf, math.inf)}),
        ("baseline_amplitude_range", {"baseline_amplitude_range": (math.inf, math.inf)}),
        ("lipid_amplitude_range", {"lipid_amplitude_range": (math.inf, math.inf)}),
    ])
    def test_rejects_infinite_bounds_naming_the_field(self, field, ranges):
        # a fixed inf simulated NaN spectra; only snr_range may be (inf, inf), meaning noiseless
        with pytest.raises(ValidationError, match=re.escape(field)):
            SimulationConfig(basis=BASIS, n_spectra=1, rng_seed=0, **ranges)


class TestSampleParameters:
    """Per-spectrum parameter draws, as simulate_dataset records them in truth_params."""

    def test_degenerate_ranges_give_constants(self):
        cfg = degenerate_config(naa=1.5, cho=0.2, cr=1.0, snr=20.0, baseline=0.1, lipid=0.4)
        truth = simulate_spectrum(cfg, 0).truth_params
        assert truth["concentration_draws"] == {"Cho": 0.2, "Cr": 1.0, "NAA": 1.5}
        assert truth["snr"] == 20.0
        assert truth["baseline_amplitude"] == 0.1
        assert truth["lipid_amplitude"] == 0.4
        assert truth["t2_scale"] == 1.0

    def test_same_seed_index_identical(self):
        cfg = SimulationConfig(basis=BASIS, n_spectra=10, rng_seed=77)
        assert simulate_spectrum(cfg, 4).truth_params == simulate_spectrum(cfg, 4).truth_params

    def test_different_indices_differ(self):
        cfg = SimulationConfig(basis=BASIS, n_spectra=10, rng_seed=77)
        assert simulate_spectrum(cfg, 0).truth_params != simulate_spectrum(cfg, 1).truth_params

    def test_index_out_of_range(self):
        cfg = degenerate_config(n=3)
        with pytest.raises(ValidationError):
            simulate_spectrum(cfg, 3)
        with pytest.raises(ValidationError):
            simulate_dataset(cfg, [0, -1])

    def test_uniform_mean_over_many_draws(self):
        # a 64-point basis with no baseline, lipids or noise keeps 10k spectra cheap
        small = default_brain_basis(AcquisitionParams(2500.0, 64, 127.7))
        cfg = SimulationConfig(
            basis=small, n_spectra=10_000, rng_seed=11,
            concentration_ranges={"NAA": (0.0 + 1e-12, 1.0), "Cr": (1.0, 1.0)},
            snr_range=(math.inf, math.inf), baseline_amplitude_range=(0.0, 0.0),
            lipid_amplitude_range=(0.0, 0.0),
        )
        draws = np.array([ls.truth_params["concentration_draws"]["NAA"] for ls in simulate_dataset(cfg)])
        assert 0.48 <= draws.mean() <= 0.52

    def test_ratio_labels_relative_to_cr(self):
        cfg = degenerate_config(naa=2.0, cho=0.3, cr=1.4)
        ls = simulate_spectrum(cfg, 0)
        assert ls.truth_params["concentrations"]["NAA"] == pytest.approx(2.0 * 1.4)
        assert ls.labels["NAA/Cr"] == pytest.approx(2.0)
        assert ls.labels["Cho/Cr"] == pytest.approx(0.3)

    def test_free_ranges_draw_in_order_from_the_row_stream(self):
        # each free range takes the next scalar uniform of the (seed, index, 0)
        # stream, in the order Cho, Cr, NAA, T2 scale, SNR, baseline, lipid;
        # the fixed NAA and T2 ranges draw nothing
        cfg = SimulationConfig(basis=BASIS, n_spectra=40, rng_seed=21,
                               concentration_ranges={"NAA": (1.1, 1.1), "Cho": (0.1, 0.6),
                                                     "Cr": (0.5, 1.5)},
                               t2_scale_range=(0.9, 0.9))
        for index in (0, 17, 39):
            rng = np.random.default_rng([21, index, 0])
            cho, cr = rng.uniform(0.1, 0.6), rng.uniform(0.5, 1.5)
            snr, baseline, lipid = rng.uniform(5.0, 50.0), rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.0)
            ls = simulate_spectrum(cfg, index)
            truth = ls.truth_params
            assert truth["concentration_draws"] == {"Cho": cho, "Cr": cr, "NAA": 1.1}
            assert truth["concentrations"] == {"Cho": cho * cr, "Cr": cr, "NAA": 1.1 * cr}
            assert (truth["t2_scale"], truth["snr"]) == (0.9, snr)
            assert (truth["baseline_amplitude"], truth["lipid_amplitude"]) == (baseline, lipid)
            assert ls.labels == {"Cho/Cr": cho * cr / cr, "NAA/Cr": 1.1 * cr / cr}


class TestBaseline:
    def test_zero_amplitude(self):
        rng = np.random.default_rng(0)
        spec = generate_baseline(0.0, PARAMS, rng)
        assert np.all(spec.values == 0)

    def test_peak_equals_amplitude(self):
        rng = np.random.default_rng(1)
        spec = generate_baseline(2.5, PARAMS, rng)
        assert np.max(np.abs(spec.values)) == pytest.approx(2.5, abs=1e-9)
        assert np.all(spec.values.imag == 0)

    def test_smoothness_bound(self):
        # curvature stays within 10x a single widest (1.0 ppm FWHM) bump
        axis = ppm_axis(PARAMS)
        width = 1.0 / (2 * math.sqrt(math.log(2)))
        reference = np.exp(-(((axis - axis.mean()) / width) ** 2))
        ref_curv = np.max(np.abs(np.diff(reference, n=2)))
        for seed in range(30):
            spec = generate_baseline(1.0, PARAMS, np.random.default_rng(seed))
            curv = np.max(np.abs(np.diff(spec.values.real, n=2)))
            assert curv <= 10.0 * ref_curv

    def test_broader_than_any_metabolite_peak(self):
        # narrowest allowed bump (0.3 ppm) is far wider than a default-t2 peak
        # (~0.025 ppm), so normalized curvature must be far lower
        peak = linear_combination(BASIS, {"NAA": 1.0}).values.real
        peak_curv = np.max(np.abs(np.diff(peak, n=2))) / np.max(np.abs(peak))
        for seed in range(10):
            spec = generate_baseline(1.0, PARAMS, np.random.default_rng(seed))
            base_curv = np.max(np.abs(np.diff(spec.values.real, n=2))) / 1.0
            assert base_curv < 0.2 * peak_curv

    def test_deterministic_for_same_stream(self):
        a = generate_baseline(1.0, PARAMS, np.random.default_rng(9))
        b = generate_baseline(1.0, PARAMS, np.random.default_rng(9))
        assert np.array_equal(a.values, b.values)


class TestLipids:
    def test_zero_amplitude(self):
        assert np.all(generate_lipids(0.0, PARAMS, np.random.default_rng(0)).values == 0)

    def test_peak_near_lipid_shifts(self):
        spec = generate_lipids(3.0, PARAMS, np.random.default_rng(4))
        peak_ppm = spec.ppm_axis[int(np.argmax(np.abs(spec.values)))]
        bin_ppm = PARAMS.spectral_width / PARAMS.n_points / PARAMS.transmitter_freq
        assert min(abs(peak_ppm - 1.3), abs(peak_ppm - 0.9)) <= bin_ppm

    def test_amplitude_scales_linearly(self):
        one = generate_lipids(1.0, PARAMS, np.random.default_rng(5))
        two = generate_lipids(2.0, PARAMS, np.random.default_rng(5))
        assert np.allclose(two.values, 2.0 * one.values, rtol=1e-12)

    def test_peak_magnitude_equals_amplitude(self):
        spec = generate_lipids(1.7, PARAMS, np.random.default_rng(6))
        assert np.max(np.abs(spec.values)) == pytest.approx(1.7, rel=1e-12)


class TestAddNoise:
    def _spec(self, n=4096):
        params = AcquisitionParams(2500.0, n, 127.7)
        values = np.zeros(n, dtype=complex)
        values[n // 3] = 100.0
        return ComplexSpectrum(values, ppm_axis(params), params)

    def test_huge_snr_is_identity(self):
        spec = self._spec()
        out = add_noise(spec, 1e9, np.random.default_rng(0))
        assert np.allclose(out.values, spec.values, atol=1e-6 * 100.0)

    def test_infinite_snr_returns_input(self):
        spec = self._spec()
        out = add_noise(spec, math.inf, np.random.default_rng(0))
        assert np.array_equal(out.values, spec.values)

    def test_measured_sigma_matches_request(self):
        spec = self._spec(4096)
        snr = 12.0
        out = add_noise(spec, snr, np.random.default_rng(21))
        noise = out.values - spec.values
        measured = np.sqrt(np.mean(np.abs(noise) ** 2))
        expected = 100.0 / snr
        assert abs(measured - expected) <= 0.1 * expected

    def test_deterministic(self):
        spec = self._spec()
        a = add_noise(spec, 10.0, np.random.default_rng(3))
        b = add_noise(spec, 10.0, np.random.default_rng(3))
        assert np.array_equal(a.values, b.values)

    def test_zero_spectrum_rejected(self):
        params = AcquisitionParams(2500.0, 64, 127.7)
        spec = ComplexSpectrum(np.zeros(64, dtype=complex), ppm_axis(params), params)
        with pytest.raises(ValidationError):
            add_noise(spec, 10.0, np.random.default_rng(0))


class TestSimulateDataset:
    def test_clean_degenerate_equals_linear_combination(self):
        cfg = degenerate_config(naa=2.0, cho=0.3, cr=1.0)
        ls = simulate_dataset(cfg)[0]
        expected = linear_combination(BASIS, {"NAA": 2.0, "Cho": 0.3, "Cr": 1.0})
        scale = np.max(np.abs(expected.values))
        assert np.allclose(ls.spectrum.values, expected.values, atol=1e-6 * scale)

    def test_labels_exact_for_degenerate_ranges(self):
        cfg = degenerate_config(naa=2.0, cho=0.3, cr=1.0)
        ls = simulate_dataset(cfg)[0]
        assert ls.labels["NAA/Cr"] == 2.0
        assert ls.labels["Cho/Cr"] == 0.3

    def test_labels_match_ratios_despite_corruption(self):
        cfg = SimulationConfig(basis=BASIS, n_spectra=20, rng_seed=5)
        for ls in simulate_dataset(cfg):
            conc = ls.truth_params["concentrations"]
            assert ls.labels["NAA/Cr"] == pytest.approx(conc["NAA"] / conc["Cr"], rel=1e-12)
            assert ls.labels["NAA/Cr"] > 0

    def test_bit_identical_rerun(self):
        cfg = SimulationConfig(basis=BASIS, n_spectra=50, rng_seed=123)
        a = simulate_dataset(cfg)
        b = simulate_dataset(cfg)
        for x, y in zip(a, b):
            assert x.labels == y.labels
            assert np.array_equal(x.spectrum.values, y.spectrum.values)

    def test_partitioned_generation_matches_sequential(self):
        cfg = SimulationConfig(basis=BASIS, n_spectra=12, rng_seed=9)
        seq = simulate_dataset(cfg)
        chunks = simulate_dataset(cfg, indices=range(6, 12)) + simulate_dataset(cfg, indices=range(0, 6))
        reordered = sorted(chunks, key=lambda ls: ls.truth_params["snr"])
        seq_sorted = sorted(seq, key=lambda ls: ls.truth_params["snr"])
        for x, y in zip(reordered, seq_sorted):
            assert np.array_equal(x.spectrum.values, y.spectrum.values)

    def test_threaded_generation_matches_sequential(self):
        # 300 spectra span two chunk boundaries (128 and 256)
        assert CHUNK_SIZE == 128
        cfg = SimulationConfig(basis=BASIS, n_spectra=300, rng_seed=31)
        seq = simulate_dataset(cfg, threads=1)
        for threads in (2, 4):
            par = simulate_dataset(cfg, threads=threads)
            assert len(par) == len(seq)
            for x, y in zip(seq, par):
                assert np.array_equal(x.spectrum.values, y.spectrum.values)
                assert x.labels == y.labels
                assert x.truth_params == y.truth_params
        for i in (0, 127, 128, 299):
            alone = simulate_spectrum(cfg, i)
            assert np.array_equal(seq[i].spectrum.values, alone.spectrum.values)
            assert seq[i].labels == alone.labels

    def test_rows_share_one_read_only_axis(self):
        cfg = SimulationConfig(basis=BASIS, n_spectra=130, rng_seed=4)
        out = simulate_dataset(cfg, threads=2)
        axis = out[0].spectrum.ppm_axis
        assert all(ls.spectrum.ppm_axis is axis for ls in out)
        assert np.array_equal(axis, ppm_axis(PARAMS))
        with pytest.raises(ValueError):
            out[129].spectrum.values[0] = 0.0

    # SHA-256 of Dataset.values (complex128 bytes), recorded before simulation
    # was batched, with numpy 2.4 on x86-64.  Seed 15 redraws the baseline of
    # rows 59 and 158 once each; seed 7 with zero baseline and lipid ranges
    # and snr = inf draws neither and adds no noise.
    @pytest.mark.parametrize("sw,n,seed,clean,digest", [
        (2500.0, 1024, 15, False, "163995115a21e12902ea9dec6a5848425a4e0ad65180543c4d242556631d63ba"),
        (2000.0, 400, 15, False, "e5a0866be5372ccaf49227367f2f595a6b51e3b3a3c5841d0236a576abbe6d37"),
        (2500.0, 1024, 7, True, "8d71f75de6b9228a8de4ad6a4b68fccb9310df0f148a378a83fd519f95876ee5"),
        (2000.0, 400, 7, True, "e47b5811b242eb4c322b4ba59a86e8090920de7c3f57457ee0f761e42bb2e4b0"),
    ])
    def test_dataset_values_match_recorded_digests(self, sw, n, seed, clean, digest):
        basis = default_brain_basis(AcquisitionParams(sw, n, 127.7), 4.7)
        ranges = {}
        if clean:
            ranges = dict(snr_range=(math.inf, math.inf), baseline_amplitude_range=(0.0, 0.0),
                          lipid_amplitude_range=(0.0, 0.0))
        cfg = SimulationConfig(basis=basis, n_spectra=200, rng_seed=seed, **ranges)
        ds = dataset_from_labeled(simulate_dataset(cfg, threads=2), target_names=cfg.target_names)
        assert hashlib.sha256(ds.values.tobytes()).hexdigest() == digest

    def test_noise_level_recorded_and_applied(self):
        cfg = degenerate_config(snr=15.0)
        ls = simulate_spectrum(cfg, 0)
        clean = linear_combination(BASIS, {"NAA": 2.0, "Cho": 0.3, "Cr": 1.0})
        noise = ls.spectrum.values - clean.values
        sigma = np.sqrt(np.mean(np.abs(noise) ** 2))
        expected = np.max(np.abs(clean.values)) / 15.0
        assert abs(sigma - expected) <= 0.15 * expected
