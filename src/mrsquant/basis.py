"""Parametric metabolite basis sets and per-metabolite spectral rendering."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnknownMetaboliteError, ValidationError
from .signal import (
    DEFAULT_REFERENCE_PPM,
    AcquisitionParams,
    ComplexSpectrum,
    LorentzianComponent,
    lorentzian_fids,
    ppm_axis,
    spectra_from_fids,
)

# Baseline T2* for the built-in basis; 0.1 s gives a ~3.2 Hz Lorentzian width.
DEFAULT_COMPONENT_T2 = 0.1

# Chemical shifts (ppm) and relative amplitudes for the built-in brain basis.
# Amplitudes within each metabolite sum to 1 so unit concentration carries
# the same integrated area for every metabolite.  These are configuration
# constants, replaceable by any user-supplied basis file.
_BRAIN_BASIS_LINES = {
    "NAA": [(2.01, 1.0)],
    "Cr": [(3.03, 0.6), (3.91, 0.4)],
    "Cho": [(3.19, 1.0)],
    "mI": [(3.52, 0.22), (3.54, 0.28), (3.56, 0.28), (3.61, 0.22)],
    "Glx": [(2.05, 0.18), (2.12, 0.16), (2.35, 0.18), (2.45, 0.13), (3.75, 0.35)],
}


@dataclass(frozen=True)
class MetaboliteBasis:
    """A named metabolite: its resonance lines at unit concentration."""

    name: str
    components: tuple

    def __post_init__(self):
        if not self.name:
            raise ValidationError("metabolite name must be nonempty")
        comps = tuple(self.components)
        if len(comps) == 0:
            raise ValidationError(f"metabolite {self.name!r} must have at least one component")
        for c in comps:
            if not isinstance(c, LorentzianComponent):
                raise ValidationError("components must be LorentzianComponent instances")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class BasisSet:
    """Ordered collection of metabolite bases sharing one acquisition and reference."""

    metabolites: tuple
    params: AcquisitionParams
    reference_ppm: float = DEFAULT_REFERENCE_PPM

    def __post_init__(self):
        mets = tuple(self.metabolites)
        names = [m.name for m in mets]
        if len(set(names)) != len(names):
            raise ValidationError(f"metabolite names must be unique, got {names}")
        if not math.isfinite(self.reference_ppm):
            raise ValidationError(f"reference_ppm must be finite, got {self.reference_ppm}")
        object.__setattr__(self, "metabolites", mets)

    @property
    def names(self):
        return [m.name for m in self.metabolites]

    def get(self, name):
        for m in self.metabolites:
            if m.name == name:
                return m
        raise UnknownMetaboliteError(f"unknown metabolite {name!r}; basis has {self.names}")


def basis_to_dict(basis):
    """The metabolite lines of a basis as the JSON mapping basis files and configs embed."""
    return {
        "metabolites": [
            {
                "name": m.name,
                "components": [
                    {
                        "shift_ppm": c.chemical_shift,
                        "amplitude": c.amplitude,
                        "t2_s": c.t2,
                        "phase0_rad": c.phase0,
                    }
                    for c in m.components
                ],
            }
            for m in basis.metabolites
        ],
    }


def basis_from_dict(d, params, reference_ppm):
    """BasisSet from a basis_to_dict mapping, rendered at params and reference_ppm."""
    metabolites = tuple(
        MetaboliteBasis(
            m["name"],
            tuple(
                LorentzianComponent(c["shift_ppm"], c["amplitude"], c["t2_s"], c.get("phase0_rad", 0.0))
                for c in m["components"]
            ),
        )
        for m in d["metabolites"]
    )
    return BasisSet(metabolites, params, reference_ppm)


def linear_combination(basis, concentrations, t2_scale=1.0):
    """Spectrum summing every metabolite at its concentration, all T2s scaled by t2_scale."""
    for name, conc in concentrations.items():
        _check_scales(conc, t2_scale)
        basis.get(name)
    values = combination_values(
        basis, list(concentrations), np.array([list(concentrations.values())], dtype=np.float64),
        np.array([t2_scale]),
    )
    return ComplexSpectrum(values[0], ppm_axis(basis.params, basis.reference_ppm), basis.params)


def _check_scales(concentration, t2_scale):
    if concentration < 0:
        raise ValidationError(f"concentration must be >= 0, got {concentration}")
    if not t2_scale > 0:
        raise ValidationError(f"t2_scale must be > 0, got {t2_scale}")


def _metabolite_values(basis, names, concentrations, t2_scales):
    """Yields a (rows, n_points) spectrum per names[m]: row r at concentrations[r, m], T2 scale t2_scales[r]."""
    components = [basis.get(name).components for name in names]
    shifts, amps, t2s, phases = np.array(
        [(c.chemical_shift, c.amplitude, c.t2, c.phase0) for cs in components for c in cs], dtype=np.float64
    ).reshape(-1, 4).T
    sizes = [len(cs) for cs in components]
    owner = np.repeat(np.arange(len(names)), sizes)
    fids = lorentzian_fids(basis.params, basis.reference_ppm, shifts, amps * concentrations[:, owner],
                           t2s * t2_scales[:, None], phases, sizes)
    return (spectra_from_fids(fid) for fid in fids)


def combination_values(basis, names, concentrations, t2_scales):
    """(rows, n_points) linear combinations: row r sums metabolite names[m] at concentrations[r, m].

    Metabolites are added in the order of names, each to the running total
    of the ones before it, as linear_combination does for one row.
    """
    total = np.zeros((len(t2_scales), basis.params.n_points), dtype=np.complex128)
    for values in _metabolite_values(basis, names, concentrations, t2_scales):
        total += values
    return total


def default_brain_basis(params, reference_ppm=DEFAULT_REFERENCE_PPM):
    """Built-in five-metabolite basis (NAA, Cr, Cho, mI, Glx) at the given acquisition."""
    metabolites = tuple(
        MetaboliteBasis(
            name,
            tuple(LorentzianComponent(shift, amp, DEFAULT_COMPONENT_T2, 0.0) for shift, amp in lines),
        )
        for name, lines in _BRAIN_BASIS_LINES.items()
    )
    return BasisSet(metabolites, params, reference_ppm)


def basis_from_config(config, params, reference_ppm):
    """The basis a config's "basis" field holds, or the built-in basis when the field is absent or null."""
    d = (config or {}).get("basis")
    if d is None:
        return default_brain_basis(params, reference_ppm)
    return basis_from_dict(d, params, reference_ppm)
