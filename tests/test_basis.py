import numpy as np
import pytest

from mrsquant.basis import (
    BasisSet,
    MetaboliteBasis,
    _metabolite_values,
    default_brain_basis,
    linear_combination,
)
from mrsquant.errors import UnknownMetaboliteError, ValidationError
from mrsquant.signal import AcquisitionParams, LorentzianComponent

from test_signal import measured_fwhm_bins

PARAMS = AcquisitionParams(spectral_width=2500.0, n_points=1024, transmitter_freq=127.7)


def render(basis, name, concentration, t2_scale=1.0):
    """One metabolite alone: a one-entry linear combination."""
    return linear_combination(basis, {name: concentration}, t2_scale)


@pytest.fixture(scope="module")
def basis():
    return default_brain_basis(PARAMS)


class TestBasisSet:
    def test_default_has_five_unique_metabolites(self, basis):
        assert len(basis.metabolites) == 5
        assert sorted(basis.names) == ["Cho", "Cr", "Glx", "NAA", "mI"]

    def test_duplicate_names_rejected(self):
        met = MetaboliteBasis("NAA", (LorentzianComponent(2.01, 1.0, 0.1),))
        with pytest.raises(ValidationError):
            BasisSet((met, met), PARAMS)

    def test_empty_component_list_rejected(self):
        with pytest.raises(ValidationError):
            MetaboliteBasis("NAA", ())

    def test_unknown_lookup(self, basis):
        with pytest.raises(UnknownMetaboliteError):
            basis.get("Lactate")

    def test_every_metabolite_renders_nonzero(self, basis):
        for name in basis.names:
            spec = render(basis, name, 1.0)
            assert np.max(np.abs(spec.values)) > 0

    def test_naa_peaks_at_its_singlet(self, basis):
        spec = render(basis, "NAA", 1.0)
        peak = int(np.argmax(np.abs(spec.values)))
        assert peak == np.argmin(np.abs(spec.ppm_axis - 2.01))

    def test_unit_concentration_areas_comparable(self, basis):
        # component amplitudes sum to 1 per metabolite, so integrated signal matches
        totals = {
            m.name: sum(c.amplitude for c in m.components) for m in basis.metabolites
        }
        for total in totals.values():
            assert total == pytest.approx(1.0, abs=1e-9)


class TestRenderMetabolite:
    """Single-metabolite spectra, rendered through linear_combination."""

    def test_zero_concentration_is_zero(self, basis):
        spec = render(basis, "NAA", 0.0)
        assert np.all(spec.values == 0)

    def test_concentration_scales_linearly(self, basis):
        one = render(basis, "Cho", 1.0)
        two = render(basis, "Cho", 2.0)
        assert np.allclose(two.values, 2.0 * one.values, rtol=1e-12)

    def test_t2_scale_doubles_width(self, basis):
        bin_hz = PARAMS.spectral_width / PARAMS.n_points
        narrow = render(basis, "NAA", 1.0, t2_scale=1.0)
        wide = render(basis, "NAA", 1.0, t2_scale=0.5)
        f_narrow = measured_fwhm_bins(narrow.values.real) * bin_hz
        f_wide = measured_fwhm_bins(wide.values.real) * bin_hz
        assert abs(f_wide - 2.0 * f_narrow) <= bin_hz

    def test_rejects_bad_args(self, basis):
        with pytest.raises(ValidationError):
            render(basis, "NAA", -1.0)
        with pytest.raises(ValidationError):
            render(basis, "NAA", 1.0, t2_scale=0.0)


class TestLinearCombination:
    def test_empty_map_is_zero(self, basis):
        spec = linear_combination(basis, {})
        assert np.all(spec.values == 0)
        assert spec.ppm_axis.size == PARAMS.n_points

    def test_single_entry_matches_render(self, basis):
        # the least-squares design matrix renders its columns this way
        combo = linear_combination(basis, {"NAA": 1.0})
        direct = next(_metabolite_values(basis, ["NAA"], np.ones((1, 1)), np.ones(1)))[0]
        assert np.array_equal(combo.values, direct)

    def test_additivity(self, basis):
        a, b = 1.3, 0.7
        combo = linear_combination(basis, {"NAA": a, "Cr": b})
        expected = a * render(basis, "NAA", 1.0).values + b * render(
            basis, "Cr", 1.0
        ).values
        scale = np.max(np.abs(expected))
        assert np.allclose(combo.values, expected, atol=1e-12 * scale)

    def test_additive_over_disjoint_maps(self, basis):
        left = linear_combination(basis, {"NAA": 1.1})
        right = linear_combination(basis, {"Cho": 0.4, "Cr": 0.9})
        both = linear_combination(basis, {"NAA": 1.1, "Cho": 0.4, "Cr": 0.9})
        assert np.allclose(both.values, left.values + right.values, rtol=1e-12, atol=1e-14)

    def test_unknown_name_raises(self, basis):
        with pytest.raises(UnknownMetaboliteError):
            linear_combination(basis, {"Lactate": 1.0})

    def test_homogeneous_in_concentration(self, basis):
        base = linear_combination(basis, {"NAA": 1.0, "Cr": 1.0})
        scaled = linear_combination(basis, {"NAA": 3.0, "Cr": 3.0})
        assert np.allclose(scaled.values, 3.0 * base.values, rtol=1e-12)
