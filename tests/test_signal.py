import numpy as np
import pytest

from mrsquant.errors import ValidationError
from mrsquant.pipeline import dtft_matrix
from mrsquant.signal import (
    AcquisitionParams,
    ComplexSpectrum,
    LorentzianComponent,
    lorentzian_fids,
    ppm_axis,
    spectra_from_fids,
)

REF = 4.7
PARAMS = AcquisitionParams(spectral_width=2500.0, n_points=1024, transmitter_freq=127.7)
ODD_PARAMS = AcquisitionParams(spectral_width=2000.0, n_points=401, transmitter_freq=127.7)


def line_fid(components, params):
    """FID of a list of lines through the batched kernel: one row holding one group."""
    shifts, amps, t2s, phases = np.array(
        [(c.chemical_shift, c.amplitude, c.t2, c.phase0) for c in components], dtype=np.float64
    ).reshape(-1, 4).T
    (fids,) = lorentzian_fids(params, REF, shifts, amps[None], t2s[None], phases, [len(shifts)])
    return fids[0]


def measured_fwhm_bins(mag):
    """Full width at half maximum in fractional bins, by linear interpolation."""
    i = int(np.argmax(mag))
    half = mag[i] / 2.0
    l = i
    while l > 0 and mag[l] >= half:
        l -= 1
    fl = l + (half - mag[l]) / (mag[l + 1] - mag[l])
    r = i
    while r < mag.size - 1 and mag[r] >= half:
        r += 1
    fr = r - (half - mag[r]) / (mag[r - 1] - mag[r])
    return fr - fl


class TestAcquisitionParams:
    def test_invariants(self):
        params = AcquisitionParams(spectral_width=2500.0, n_points=1024.0)
        assert type(params.n_points) is int and params == PARAMS

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"spectral_width": 0.0, "n_points": 16},
            {"spectral_width": -1.0, "n_points": 16},
            {"spectral_width": 2500.0, "n_points": 1},
            {"spectral_width": 2500.0, "n_points": 16, "transmitter_freq": 0.0},
            {"spectral_width": np.inf, "n_points": 16},
            {"spectral_width": np.nan, "n_points": 16},
            {"spectral_width": 2500.0, "n_points": 16, "transmitter_freq": np.inf},
            {"spectral_width": 2500.0, "n_points": 16, "transmitter_freq": np.nan},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            AcquisitionParams(**kwargs)

    def test_component_validation(self):
        with pytest.raises(ValidationError):
            LorentzianComponent(2.0, 1.0, t2=0.0)
        with pytest.raises(ValidationError):
            LorentzianComponent(2.0, -0.5, t2=0.1)
        for amplitude in (np.inf, np.nan):
            with pytest.raises(ValidationError):
                LorentzianComponent(2.0, amplitude, t2=0.1)


class TestPpmAxis:
    def test_span_matches_bandwidth(self):
        # 2500 Hz at 127.7 MHz spans 19.577 ppm (one full bandwidth)
        axis = ppm_axis(PARAMS, REF)
        assert axis.size == 1024
        assert np.all(np.diff(axis) < 0)
        span = axis[0] - axis[-1] + 2500.0 / 1024 / 127.7
        assert span == pytest.approx(2500.0 / 127.7, rel=1e-12)
        assert span == pytest.approx(19.577, abs=5e-4)

    def test_two_point_axis(self):
        p = AcquisitionParams(spectral_width=100.0, n_points=2, transmitter_freq=100.0)
        axis = ppm_axis(p, REF)
        assert axis.size == 2
        assert axis[0] > axis[1]

    def test_centered_on_reference(self):
        axis = ppm_axis(PARAMS, REF)
        bin_width = 2500.0 / 1024 / 127.7
        assert abs((axis[0] + axis[-1]) / 2 - REF) <= bin_width

    def test_reference_sits_on_center_bin(self):
        axis = ppm_axis(PARAMS, REF)
        assert axis[1024 // 2] == pytest.approx(REF, abs=1e-12)

    def test_odd_length_reference_sits_exactly_on_center_bin(self):
        assert ppm_axis(ODD_PARAMS, REF)[401 // 2] == REF

    @pytest.mark.parametrize("sw", [2000.0, 2500.0])
    def test_reference_sits_exactly_on_center_bin_for_every_length(self, sw):
        # (n // 2) * (sw / n) minus itself is exactly 0; sw / 2 in its place is not, e.g. at n = 278
        for n in range(2, 3000):
            params = AcquisitionParams(spectral_width=sw, n_points=n, transmitter_freq=127.7)
            assert ppm_axis(params, REF)[n // 2] == REF, n

    @pytest.mark.parametrize("sw,n", [(2500.0, 1024), (2000.0, 400), (2000.0, 401), (2500.0, 1023)])
    def test_bins_labeled_with_their_dft_frequency(self, sw, n):
        # position j holds DFT bin (n//2 - j) mod n, i.e. (n//2 - j) * sw/n Hz
        params = AcquisitionParams(spectral_width=sw, n_points=n, transmitter_freq=127.7)
        expected = REF + (n // 2 - np.arange(n)) * (sw / n) / 127.7
        assert np.allclose(ppm_axis(params, REF), expected, rtol=0, atol=1e-12)


class TestSynthesizeFid:
    def test_zero_frequency_no_decay_is_constant_one(self):
        comp = LorentzianComponent(REF, 1.0, t2=1e9, phase0=0.0)
        assert np.allclose(line_fid([comp], PARAMS), 1.0 + 0.0j, atol=1e-8)

    def test_empty_component_list_is_zero(self):
        fid = line_fid([], PARAMS)
        assert np.all(fid == 0)
        assert fid.size == PARAMS.n_points

    def test_damped_exponential_magnitude(self):
        # offset 100 Hz, t2 = 0.1 s: |s_k| = exp(-t_k / 0.1) exactly, elementwise
        shift = REF + 100.0 / PARAMS.transmitter_freq
        fid = line_fid([LorentzianComponent(shift, 1.0, t2=0.1)], PARAMS)
        t = np.arange(1024) / 2500.0
        assert np.allclose(np.abs(fid), np.exp(-t / 0.1), rtol=1e-12)

    def test_phase0_rotates_start(self):
        comp = LorentzianComponent(REF, 1.0, t2=1e9, phase0=np.pi / 2)
        assert line_fid([comp], PARAMS)[0] == pytest.approx(1j, abs=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        comps_a = [
            LorentzianComponent(rng.uniform(1, 4), rng.uniform(0.1, 2), rng.uniform(0.02, 0.3))
            for _ in range(5)
        ]
        comps_b = [
            LorentzianComponent(rng.uniform(1, 4), rng.uniform(0.1, 2), rng.uniform(0.02, 0.3))
            for _ in range(4)
        ]
        combined = line_fid(comps_a + comps_b, PARAMS)
        separate = line_fid(comps_a, PARAMS) + line_fid(comps_b, PARAMS)
        assert np.allclose(combined, separate, atol=1e-12)


class TestLorentzianFids:
    @staticmethod
    def one_exponential_per_line(params, shifts, amps, t2s, phases):
        t = np.arange(params.n_points) / params.spectral_width
        f = (shifts - REF) * params.transmitter_freq
        coeff = amps * np.exp(1j * phases)
        return (coeff[:, None, :] @ np.exp((2j * np.pi * f - 1 / t2s)[:, :, None] * t))[:, 0, :]

    @pytest.mark.parametrize("params", [PARAMS, ODD_PARAMS])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_one_exponential_per_line_bit_for_bit(self, params, order, seed):
        rng = np.random.default_rng(seed)
        rows, sizes = 9, [1, 3, 2]
        k = sum(sizes)
        # shifts on both sides of the reference; rows share some T2s, and
        # row 0 has a T2 of its own for every line
        shifts = rng.uniform(0.5, 8.9, k)
        amps = np.asarray(rng.uniform(0.0, 2.0, (rows, k)), order=order)
        t2s = rng.choice([0.03, 0.1, 0.25], (rows, k))
        t2s[0] = rng.uniform(0.02, 0.3, k)
        phases = rng.uniform(-np.pi, np.pi, k)
        fids = list(lorentzian_fids(params, REF, shifts, amps, t2s, phases, sizes))
        assert len(fids) == len(sizes)
        for fid, end, size in zip(fids, np.cumsum(sizes), sizes):
            lines = slice(end - size, end)
            expected = self.one_exponential_per_line(
                params, shifts[lines], np.ascontiguousarray(amps[:, lines]), t2s[:, lines], phases[lines]
            )
            assert np.array_equal(fid.view(np.float64), expected.view(np.float64))


class TestFidToSpectrum:
    def test_zeros_transform_to_zeros(self):
        assert np.all(spectra_from_fids(np.zeros(1024, dtype=complex)) == 0)

    def test_constant_fid_peaks_at_reference(self):
        values = spectra_from_fids(np.ones(1024, dtype=complex))
        peak = int(np.argmax(np.abs(values)))
        assert ppm_axis(PARAMS, REF)[peak] == pytest.approx(REF, abs=1e-12)
        others = np.delete(np.abs(values), peak)
        assert np.all(others < 1e-9)
        assert values[peak] == pytest.approx(1024.0)

    @pytest.mark.parametrize("shift", [1.0, 2.01, 3.03, 4.0])
    @pytest.mark.parametrize("t2", [0.05, 0.1])
    def test_peak_at_nearest_bin(self, shift, t2):
        values = spectra_from_fids(line_fid([LorentzianComponent(shift, 1.0, t2)], PARAMS))
        peak = int(np.argmax(np.abs(values)))
        assert peak == np.argmin(np.abs(ppm_axis(PARAMS, REF) - shift))

    @pytest.mark.parametrize("shift", [1.0, 2.01, 3.03, 4.0])
    def test_odd_length_peak_at_nearest_bin(self, shift):
        values = spectra_from_fids(line_fid([LorentzianComponent(shift, 1.0, 0.1)], ODD_PARAMS))
        assert np.argmax(np.abs(values)) == np.argmin(np.abs(ppm_axis(ODD_PARAMS, REF) - shift))

    @pytest.mark.parametrize(
        "t2,sw,n",
        [
            (0.02, 2500.0, 1024),  # t2*sw = 50, the edge of the guarantee
            (0.1, 2500.0, 1024),
            (0.1, 2000.0, 400),    # the coarser 2D-MRSI protocol
            (0.4, 2500.0, 4096),
        ],
    )
    def test_lorentzian_fwhm(self, t2, sw, n):
        # 1/(pi*t2) is the absorption-lineshape width, so measure on the real
        # part; the magnitude lineshape is sqrt(3) wider analytically.
        params = AcquisitionParams(spectral_width=sw, n_points=n, transmitter_freq=127.7)
        values = spectra_from_fids(line_fid([LorentzianComponent(2.5, 1.0, t2)], params))
        fwhm_hz = measured_fwhm_bins(values.real) * (sw / n)
        assert abs(fwhm_hz - 1.0 / (np.pi * t2)) <= sw / n


class TestRoundTrip:
    """Spectrum -> FID -> spectrum is dtft_matrix on the spectrum's own axis."""

    @pytest.mark.parametrize("n", [2, 400, 401, 1024])
    def test_identity_within_tolerance(self, n):
        rng = np.random.default_rng(n)
        params = AcquisitionParams(spectral_width=2000.0, n_points=n, transmitter_freq=127.7)
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        back = dtft_matrix(params, REF, ppm_axis(params, REF)) @ values
        assert np.allclose(back, values, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 400, 401, 1024])
    def test_parseval(self, n):
        rng = np.random.default_rng(n + 1)
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        time_energy = np.sum(np.abs(samples) ** 2)
        freq_energy = np.sum(np.abs(spectra_from_fids(samples)) ** 2) / n
        assert freq_energy == pytest.approx(time_energy, rel=1e-9)

    def test_zero_spectrum_round_trip(self):
        back = dtft_matrix(PARAMS, REF, ppm_axis(PARAMS, REF)) @ np.zeros(1024, dtype=complex)
        assert np.all(back == 0)

    def test_axis_must_decrease(self):
        with pytest.raises(ValidationError):
            ComplexSpectrum(np.zeros(1024, dtype=complex), np.linspace(0, 5, 1024), PARAMS)
