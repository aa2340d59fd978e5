"""Labeled synthetic spectrum generation.

Each spectrum is a randomized linear combination of the basis metabolites
with a broad Gaussian-bump baseline, lipid resonances, linewidth (T2)
scaling, and complex Gaussian noise at a sampled SNR.  Labels are the
concentration ratios against Cr.

Every spectrum derives its own random streams from (rng_seed, index), so
a dataset is a pure function of its configuration no matter how indices
are partitioned across workers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# linear_combination is one row of combination_values; it stays importable from here.
from .basis import combination_values, linear_combination
from .errors import ValidationError, integer
from .signal import DEFAULT_REFERENCE_PPM, ComplexSpectrum, lorentzian_fids, ppm_axis, spectra_from_fids
from .workers import ordered_map

DEFAULT_CONCENTRATION_RANGES = {
    # Cr is absolute; every other metabolite's range is its ratio to Cr,
    # so the ratio labels are uniform over the configured interval.
    "NAA": (0.5, 2.0),
    "Cho": (0.1, 0.6),
    "Cr": (0.5, 1.5),
}
DEFAULT_T2_SCALE_RANGE = (0.6, 1.4)
DEFAULT_SNR_RANGE = (5.0, 50.0)
# Baseline and lipid amplitudes are relative to the tallest metabolite peak.
DEFAULT_BASELINE_RANGE = (0.0, 0.5)
DEFAULT_LIPID_RANGE = (0.0, 1.0)

SNR_DEFINITION = "tallest spectral magnitude divided by per-bin complex noise sigma"

_BASELINE_BUMPS = (4, 8)          # bump count drawn inclusive of both ends
_BASELINE_FWHM_PPM = (0.3, 1.0)
_BASELINE_CENTER_PPM = (0.5, 4.3)
_BASELINE_SMOOTHNESS_FACTOR = 10.0
_LIPID_SHIFTS_PPM = (1.3, 0.9)
_LIPID_T2_RANGE = (0.02, 0.05)
_BASELINE_ATTEMPTS = 100
# Spectra simulated per batched kernel call and per worker task.  Every row
# draws from its own streams and no arithmetic mixes rows, so results do not
# depend on it.
CHUNK_SIZE = 128


def _check_range(name, rng_pair, low_exclusive=False, fixed_inf=False):
    lo, hi = rng_pair
    if not (lo <= hi):
        raise ValidationError(f"{name}: min {lo} must be <= max {hi}")
    # only snr may be a fixed inf (noiseless); nothing can be drawn up to inf
    if not (math.isfinite(lo) and math.isfinite(hi)) and not (fixed_inf and lo == hi):
        raise ValidationError(f"{name}: bounds must be finite{' unless equal' if fixed_inf else ''}, got [{lo}, {hi}]")
    if low_exclusive and not lo > 0:
        raise ValidationError(f"{name}: min must be > 0, got {lo}")
    if not low_exclusive and lo < 0:
        raise ValidationError(f"{name}: min must be >= 0, got {lo}")
    return (float(lo), float(hi))


@dataclass(frozen=True)
class SimulationConfig:
    """Ranges and seed describing one reproducible dataset."""

    basis: object
    n_spectra: int
    rng_seed: int
    concentration_ranges: dict = field(default_factory=lambda: dict(DEFAULT_CONCENTRATION_RANGES))
    t2_scale_range: tuple = DEFAULT_T2_SCALE_RANGE
    snr_range: tuple = DEFAULT_SNR_RANGE
    baseline_amplitude_range: tuple = DEFAULT_BASELINE_RANGE
    lipid_amplitude_range: tuple = DEFAULT_LIPID_RANGE

    def __post_init__(self):
        object.__setattr__(self, "n_spectra", integer("n_spectra", self.n_spectra, 1))
        object.__setattr__(self, "rng_seed", integer("rng_seed", self.rng_seed, 0))
        ranges = {}
        for name, pair in self.concentration_ranges.items():
            self.basis.get(name)
            ranges[name] = _check_range(f"concentration_ranges[{name}]", pair, low_exclusive=True)
        if "Cr" not in ranges:
            raise ValidationError("concentration_ranges must include Cr (labels are ratios to Cr)")
        object.__setattr__(self, "concentration_ranges", ranges)
        object.__setattr__(self, "t2_scale_range", _check_range("t2_scale_range", self.t2_scale_range, True))
        object.__setattr__(self, "snr_range", _check_range("snr_range", self.snr_range, True, fixed_inf=True))
        object.__setattr__(
            self, "baseline_amplitude_range", _check_range("baseline_amplitude_range", self.baseline_amplitude_range)
        )
        object.__setattr__(
            self, "lipid_amplitude_range", _check_range("lipid_amplitude_range", self.lipid_amplitude_range)
        )

    @property
    def target_names(self):
        """Ratio label names, in sorted metabolite order."""
        return [f"{n}/Cr" for n in sorted(self.concentration_ranges) if n != "Cr"]


@dataclass(frozen=True)
class LabeledSpectrum:
    spectrum: ComplexSpectrum
    labels: dict
    truth_params: dict


def _stream(seed, index, purpose):
    # purpose 0: parameter draws, 1: baseline, 2: lipids, 3: noise
    return np.random.default_rng([seed, index, purpose])


def _gaussian_bumps(axis, centers, fwhms, heights):
    """(rows, n) sums of Gaussian bumps on axis; centers, fwhms and heights are (rows, k)."""
    widths = fwhms / (2.0 * math.sqrt(math.log(2.0)))
    # one temporary, worked in place: exp(-(d * d)) for d = (axis - center) / width
    dist = axis - centers[:, :, None]
    dist /= widths[:, :, None]
    dist *= dist
    np.negative(dist, out=dist)
    return (heights[:, None, :] @ np.exp(dist, out=dist))[:, 0, :]


def _max_abs_second_difference(rows):
    if rows.shape[1] < 3:
        return np.zeros(rows.shape[0])
    return np.max(np.abs(np.diff(rows, n=2, axis=1)), axis=1)


def _curvature_bound(axis):
    widest = _gaussian_bumps(axis, np.array([[axis.mean()]]), np.array([[_BASELINE_FWHM_PPM[1]]]),
                             np.array([[1.0]]))
    return _BASELINE_SMOOTHNESS_FACTOR * _max_abs_second_difference(widest)[0]


def _baselines(axis, amplitudes, rngs, curvature_bound):
    """(rows, n) baselines; row r draws from rngs[r] alone and is zero when amplitudes[r] is 0.

    Rows whose draw is rougher than curvature_bound draw again from their
    own stream, up to _BASELINE_ATTEMPTS times.  Draws with the same bump
    count are rendered together.
    """
    out = np.zeros((len(rngs), axis.size), dtype=np.complex128)
    pending = [r for r in range(len(rngs)) if amplitudes[r] != 0]
    for _ in range(_BASELINE_ATTEMPTS):
        if not pending:
            return out
        by_count = {}
        for r in pending:
            rng = rngs[r]
            n_bumps = int(rng.integers(_BASELINE_BUMPS[0], _BASELINE_BUMPS[1] + 1))
            centers = rng.uniform(*_BASELINE_CENTER_PPM, size=n_bumps)
            fwhms = rng.uniform(*_BASELINE_FWHM_PPM, size=n_bumps)
            heights = rng.uniform(0.2, 1.0, size=n_bumps)
            by_count.setdefault(n_bumps, []).append((r, centers, fwhms, heights))
        pending = []
        for group in by_count.values():
            rows, centers, fwhms, heights = (np.array(col) for col in zip(*group))
            shape = _gaussian_bumps(axis, centers, fwhms, heights)
            peak = np.max(np.abs(shape), axis=1)
            drawn = peak != 0
            shape = shape[drawn] / peak[drawn, None]
            smooth = _max_abs_second_difference(shape) <= curvature_bound
            done = rows[drawn][smooth]
            out[done] = amplitudes[done, None] * shape[smooth]
            pending.extend(np.setdiff1d(rows, done).tolist())
    if pending:
        raise ValidationError("could not draw a baseline satisfying the smoothness bound")
    return out


def generate_baseline(amplitude, params, rng, reference_ppm=None):
    """Broad smooth macromolecular baseline: 4-8 wide Gaussian bumps, peak scaled to amplitude.

    The curvature of the result is kept below 10x that of a single
    widest-allowed bump at the same amplitude; bump draws that exceed the
    bound are redrawn from the same stream.
    """
    if amplitude < 0:
        raise ValidationError(f"baseline amplitude must be >= 0, got {amplitude}")
    axis = ppm_axis(params, DEFAULT_REFERENCE_PPM if reference_ppm is None else reference_ppm)
    values = _baselines(axis, np.array([amplitude]), [rng], _curvature_bound(axis))
    return ComplexSpectrum(values[0], axis, params)


def _lipids(params, reference_ppm, amplitudes, rngs):
    """(rows, n) lipid spectra, peak magnitude amplitudes[r]; zero rows draw nothing."""
    out = np.zeros((len(rngs), params.n_points), dtype=np.complex128)
    rows = [r for r in range(len(rngs)) if amplitudes[r] != 0]
    if not rows:
        return out
    t2s, rel = [], []
    for r in rows:
        t2s.append(rngs[r].uniform(*_LIPID_T2_RANGE, size=len(_LIPID_SHIFTS_PPM)))
        # CH2 at 1.3 ppm dominates; the 0.9 ppm CH3 line gets a drawn fraction.
        rel.append([1.0, rngs[r].uniform(0.3, 0.8)])
    (fid,) = lorentzian_fids(params, reference_ppm, _LIPID_SHIFTS_PPM, np.array(rel), np.array(t2s), 0.0,
                             [len(_LIPID_SHIFTS_PPM)])
    spectra = spectra_from_fids(fid)
    peak = np.max(np.abs(spectra), axis=1)
    out[rows] = spectra * (amplitudes[rows] / peak)[:, None]
    return out


def generate_lipids(amplitude, params, rng, reference_ppm=None):
    """Lipid resonances at 1.3 and 0.9 ppm, short T2, peak magnitude scaled to amplitude."""
    if amplitude < 0:
        raise ValidationError(f"lipid amplitude must be >= 0, got {amplitude}")
    ref = DEFAULT_REFERENCE_PPM if reference_ppm is None else reference_ppm
    values = _lipids(params, ref, np.array([amplitude]), [rng])
    return ComplexSpectrum(values[0], ppm_axis(params, ref), params)


def _add_noise(values, snrs, rngs):
    """Add noise of complex sigma max|row| / snr to each row of values, in place; snr = inf adds none."""
    peak = np.max(np.abs(values), axis=1)
    if np.any(peak == 0):
        raise ValidationError("cannot add noise to an all-zero spectrum: SNR is undefined")
    for r, snr in enumerate(snrs):
        if math.isinf(snr):
            continue
        sigma = peak[r] / snr
        component_sigma = sigma / math.sqrt(2.0)
        # the real part's draw comes first, then the imaginary part's
        real, imag = values[r].real, values[r].imag
        real += rngs[r].normal(0.0, component_sigma, values.shape[1])
        imag += rngs[r].normal(0.0, component_sigma, values.shape[1])


def add_noise(spec, snr, rng):
    """Add i.i.d. circular complex Gaussian noise with sigma = max|values| / snr per bin.

    sigma is the complex standard deviation (sqrt of E|z|^2); snr = inf
    returns the spectrum unchanged.
    """
    if not snr > 0:
        raise ValidationError(f"snr must be > 0, got {snr}")
    values = spec.values[None, :].copy()
    _add_noise(values, [snr], [rng])
    if math.isinf(snr):
        return spec
    return ComplexSpectrum(values[0], spec.ppm_axis, spec.params)


def _simulate_chunk(config, indices, axis, curvature_bound):
    """(values, labels, truth) for indices: the read-only (rows, n) spectra on axis, the
    (rows, targets) labels in config.target_names order and one truth dict per row."""
    basis = config.basis
    seed = config.rng_seed
    names = sorted(config.concentration_ranges)
    k = len(names)
    # Columns: the concentration draws in names order, then T2 scale, SNR and
    # the baseline and lipid amplitudes.  Ratios are relative to the Cr draw.
    lo, hi = np.array([config.concentration_ranges[n] for n in names] + [
        config.t2_scale_range, config.snr_range, config.baseline_amplitude_range,
        config.lipid_amplitude_range,
    ]).T
    free = lo != hi
    params = np.tile(lo, (len(indices), 1))
    for row, i in zip(params, indices):
        # fixed ranges draw nothing
        row[free] = _stream(seed, i, 0).uniform(lo[free], hi[free])
    draws = params[:, :k]
    t2_scale, snr, baseline_amp, lipid_amp = params[:, k:].T
    cr_col = names.index("Cr")
    cr = draws[:, cr_col]
    concentrations = draws * cr[:, None]
    concentrations[:, cr_col] = cr
    ratio_cols = [j for j, n in enumerate(names) if n != "Cr"]
    labels = concentrations[:, ratio_cols] / cr[:, None]
    clean = combination_values(basis, names, concentrations, t2_scale)
    tallest = np.max(np.abs(clean), axis=1)
    baseline_abs = baseline_amp * tallest
    lipid_abs = lipid_amp * tallest
    baseline = _baselines(axis, baseline_abs, [_stream(seed, i, 1) for i in indices], curvature_bound)
    lipids = _lipids(basis.params, basis.reference_ppm, lipid_abs, [_stream(seed, i, 2) for i in indices])
    values = clean + baseline + lipids
    _add_noise(values, snr, [_stream(seed, i, 3) for i in indices])
    values.flags.writeable = False
    truth = [
        {
            "concentration_draws": dict(zip(names, draws[r].tolist())),
            "concentrations": dict(zip(names, concentrations[r].tolist())),
            "t2_scale": t2_scale[r].item(),
            "snr": snr[r].item(),
            "baseline_amplitude": baseline_amp[r].item(),
            "lipid_amplitude": lipid_amp[r].item(),
            "baseline_amplitude_abs": baseline_abs[r],
            "lipid_amplitude_abs": lipid_abs[r],
        }
        for r in range(len(indices))
    ]
    return values, labels, truth


def simulate_chunks(config, indices=None, threads=1):
    """An iterator of _simulate_chunk's (values, labels, truth) for each CHUNK_SIZE run of indices, in order.

    The chunks run through workers.ordered_map over threads forked workers,
    so the caller holds a few chunks whatever the spectrum count, and the
    worker count changes no bit of the result.
    """
    indices = list(range(config.n_spectra) if indices is None else indices)
    bad = [i for i in indices if not 0 <= i < config.n_spectra]
    if bad:
        raise ValidationError(f"index {bad[0]} out of range [0, {config.n_spectra})")
    axis = ppm_axis(config.basis.params, config.basis.reference_ppm)
    bound = _curvature_bound(axis)
    chunks = [indices[s:s + CHUNK_SIZE] for s in range(0, len(indices), CHUNK_SIZE)]
    return ordered_map(lambda chunk: _simulate_chunk(config, chunk, axis, bound), chunks, threads)


def simulate_spectrum(config, index):
    """One labeled spectrum: metabolites + baseline + lipids, then noise."""
    return simulate_dataset(config, [index])[0]


def simulate_dataset(config, indices=None, threads=1):
    """Generate the configured spectra; a pure function of (config, indices).

    Spectra are read-only row views of their simulate_chunks chunk and share
    one read-only ppm axis.
    """
    axis = ppm_axis(config.basis.params, config.basis.reference_ppm)
    axis.flags.writeable = False
    targets = config.target_names
    return [
        LabeledSpectrum(ComplexSpectrum(row, axis, config.basis.params), dict(zip(targets, label_row)), truth_row)
        for values, labels, truth in simulate_chunks(config, indices, threads)
        for row, label_row, truth_row in zip(values, labels.tolist(), truth)
    ]
