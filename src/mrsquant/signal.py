"""Discrete signal model: damped complex exponentials and their spectra.

A free induction decay is a finite sum of Lorentzian lines, each a complex
exponential at a chemical-shift offset with an exponential T2* envelope;
``lorentzian_fids`` synthesizes many of them at once.  ``spectra_from_fids``
takes their discrete Fourier transform with bins mapped onto a descending
ppm axis (downfield first, reference at the center; see ``ppm_axis``).
The inverse map, spectrum to FID, lives inside ``pipeline.dtft_matrix``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer

# Water resonance, the conventional axis reference.
DEFAULT_REFERENCE_PPM = 4.7
# Proton frequency at 3 T, in MHz.
DEFAULT_TRANSMITTER_MHZ = 127.7


@dataclass(frozen=True)
class AcquisitionParams:
    """Spectrometer acquisition settings.

    spectral_width is in Hz, transmitter_freq in MHz; echo_time and
    repetition_time (ms) are carried as metadata only.
    """

    spectral_width: float
    n_points: int
    transmitter_freq: float = DEFAULT_TRANSMITTER_MHZ
    echo_time: float | None = None
    repetition_time: float | None = None

    def __post_init__(self):
        if not 0 < self.spectral_width < math.inf:
            raise ValidationError(f"spectral_width must be > 0, got {self.spectral_width} (finite values only)")
        object.__setattr__(self, "n_points", integer("n_points", self.n_points, 2))
        if not 0 < self.transmitter_freq < math.inf:
            raise ValidationError(f"transmitter_freq must be > 0, got {self.transmitter_freq} (finite values only)")


@dataclass(frozen=True)
class LorentzianComponent:
    """One resonance line: position (ppm), amplitude, T2* decay (s), initial phase (rad)."""

    chemical_shift: float
    amplitude: float
    t2: float
    phase0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.chemical_shift) and math.isfinite(self.phase0)):
            raise ValidationError(f"shift and phase must be finite, got {self.chemical_shift}, {self.phase0}")
        if not self.t2 > 0:
            raise ValidationError(f"t2 must be > 0, got {self.t2}")
        if not 0 <= self.amplitude < math.inf:
            raise ValidationError(f"amplitude must be >= 0, got {self.amplitude} (finite values only)")


def _readonly(arr):
    arr = np.asarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ComplexSpectrum:
    """Complex frequency-domain values on a strictly decreasing ppm axis."""

    values: np.ndarray
    ppm_axis: np.ndarray
    params: AcquisitionParams

    def __post_init__(self):
        values = _readonly(np.asarray(self.values, dtype=np.complex128))
        axis = _readonly(np.asarray(self.ppm_axis, dtype=np.float64))
        if values.ndim != 1 or axis.ndim != 1 or values.size != axis.size:
            raise ValidationError("values and ppm_axis must be 1-D arrays of equal length")
        if values.size != self.params.n_points:
            raise ValidationError(
                f"spectrum length {values.size} does not match params.n_points {self.params.n_points}"
            )
        if axis.size >= 2 and not np.all(np.diff(axis) < 0):
            raise ValidationError("ppm_axis must be strictly decreasing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ppm_axis", axis)


def ppm_axis(params, reference_ppm=DEFAULT_REFERENCE_PPM):
    """Descending ppm axis covering the full spectral width, centered on the reference.

    Position j holds the DFT frequency (n//2 - j) * sw/n (see _bin_order), so
    bin j sits at reference_ppm + ((n//2)*sw/n - j*sw/n) / transmitter_freq
    and position n//2, the DC bin, is exactly the reference.
    """
    step = params.spectral_width / params.n_points
    j = np.arange(params.n_points)
    return reference_ppm + ((params.n_points // 2) * step - j * step) / params.transmitter_freq


def grids_match(a, b, tol=1e-9):
    """Whether two ppm axes have the same length and agree within tol at every bin."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def lorentzian_fids(params, reference_ppm, shifts, amplitudes, t2s, phases, sizes):
    """FIDs of many line sets at once, yielding one (rows, n_points) complex array per group of lines.

    shifts is (k,) in ppm; amplitudes and t2s are (rows, k) and phases
    broadcasts against them.  The k lines fall into consecutive groups of
    sizes[g] lines, and FID g of row r sums group g's lines with row r's
    parameters, one (1, sizes[g]) @ (sizes[g], n_points) product per row,
    so a row does not depend on the rows batched with it.
    """
    t = np.arange(params.n_points) / params.spectral_width
    freqs = (np.asarray(shifts, dtype=np.float64) - reference_ppm) * params.transmitter_freq
    # A line is exp(-t/t2 + 2j*pi*f*t).  Complex exp is libm's cexp, which
    # returns exp(x)*cos(y) + 1j*exp(x)*sin(y), so one oscillation per line
    # (x = 0) times one decay per distinct T2 (y = 0) gives it bit for bit.
    t2_values, t2_index = np.unique(t2s, return_inverse=True)
    t2_index = t2_index.reshape(np.shape(t2s))
    decays = np.exp(np.outer(-1.0 / t2_values, t), dtype=np.complex128)
    oscillations = np.exp(1j * np.outer(2 * np.pi * freqs, t))
    # matmul sums in another order when a row's coefficients are not adjacent
    coeff = np.multiply(amplitudes, np.exp(1j * np.asarray(phases)), order="C")
    for end, size in zip(np.cumsum(sizes), sizes):
        lines = decays[t2_index[:, end - size:end]]
        lines *= oscillations[end - size:end]
        fid = (coeff[:, None, end - size:end] @ lines)[:, 0, :]
        del lines  # only one group's lines are held at a time
        yield fid


def _bin_order(n):
    # Axis position j holds DFT bin (n//2 - j) mod n: descending frequency,
    # Nyquist first, DC at the center.
    return (n // 2 - np.arange(n)) % n


def spectra_from_fids(fids):
    """Spectrum values of FIDs along the last axis: DFT of each row, downfield bin first."""
    return np.fft.fft(fids)[..., _bin_order(fids.shape[-1])]

