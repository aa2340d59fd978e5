"""Feature extraction and model training/prediction over datasets.

The forest's feature representation: the real part of the spectrum on the
model grid (the training acquisition's bins inside the quantification
window), each row divided by its own Cr peak, so features are ratios to Cr
like the labels.  Spectra from another acquisition protocol reach the model
grid through their exact DTFT (``dtft_matrix``), one matrix product for the
whole dataset, which keeps every peak's height.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridCompatibilityError, UndefinedResultError, ValidationError
from .forest import fit_forest
from .lsqfit import lsq_fit_batch
from .signal import _bin_order, grids_match, ppm_axis

# Quantification window in ppm, downfield bound first.
CROP_HI_PPM = 4.3
CROP_LO_PPM = 0.2
# Creatine window in ppm around the 3.03 ppm Cr line; its maximum is the
# normalizer of every feature row (8 bins of a 2500 Hz / 1024-point grid).
CR_HI_PPM = 3.10
CR_LO_PPM = 2.95
# Names the feature normalization; model files carrying any other kind are refused.
FEATURE_KIND = "real_cr_normalized"


@dataclass(frozen=True)
class FeatureMeta:
    """Everything needed to map any spectrum onto a trained model's input space: the training axis."""

    acquisition: object
    reference_ppm: float

    @cached_property
    def mask(self):
        """The bins of the training axis inside the quantification window."""
        return _window_mask(ppm_axis(self.acquisition, self.reference_ppm))

    @cached_property
    def grid(self):
        """The model grid: the training axis inside the quantification window."""
        return ppm_axis(self.acquisition, self.reference_ppm)[self.mask]


def dtft_matrix(params, reference_ppm, target_grid):
    """Complex (n_grid, n_points) map from spectra at params and reference_ppm to their DTFT at target_grid.

    Row g evaluates the discrete-time Fourier transform of the FID behind
    a spectrum (the inverse of ``spectra_from_fids``) at the Hz offset of
    target_grid[g], so ``values @ W.T`` regrids a whole batch of spectra
    with no interpolation error.  On the source axis itself W is the
    identity; on a finer grid it reproduces a zero-filled FFT.  Grid points
    outside the source's Nyquist band raise GridCompatibilityError.
    """
    n = params.n_points
    target = np.asarray(target_grid, dtype=np.float64)
    # DFT bin 0 (DC) sits at the reference; see signal.ppm_axis
    hz = (target - reference_ppm) * params.transmitter_freq
    half_band = params.spectral_width / 2.0
    if np.any(np.abs(hz) > half_band * (1.0 + 1e-12)):
        raise GridCompatibilityError(
            f"target grid [{target.min():.4f}, {target.max():.4f}] ppm exceeds the "
            f"{params.spectral_width:g} Hz band of the spectrum"
        )
    fid_to_grid = np.exp(-2j * np.pi * np.outer(hz, np.arange(n)) / params.spectral_width)
    # compose with spectrum -> FID: fid = ifft(values placed at DFT bins _bin_order(n))
    return np.fft.ifft(fid_to_grid, axis=1)[:, _bin_order(n)]


def cr_normalize(rows, grid):
    """Real feature rows on grid, each divided by its own Cr peak.

    The Cr peak is the row's maximum over the bins of grid inside
    [CR_LO_PPM, CR_HI_PPM].  A peak that is not > 0 (NaN included) makes
    the ratio undefined and raises UndefinedResultError; it is never
    divided through.
    """
    rows = np.asarray(rows, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    window = (grid >= CR_LO_PPM) & (grid <= CR_HI_PPM)
    if not window.any():
        raise GridCompatibilityError(
            f"Cr window [{CR_LO_PPM}, {CR_HI_PPM}] ppm holds no bin of the feature grid"
        )
    peaks = np.max(rows[:, window], axis=1)
    bad = np.flatnonzero(~(peaks > 0))
    if bad.size:
        raise UndefinedResultError(
            f"{bad.size} spectra have no positive Cr peak in [{CR_LO_PPM}, {CR_HI_PPM}] ppm "
            f"(first: index {bad[0]}, peak {peaks[bad[0]]:.4g}); Cr ratios are undefined"
        )
    return rows / peaks[:, None]


def _window_mask(axis):
    mask = (axis >= CROP_LO_PPM) & (axis <= CROP_HI_PPM)
    if not mask.any():
        raise GridCompatibilityError(
            f"window [{CROP_LO_PPM}, {CROP_HI_PPM}] ppm does not overlap the dataset axis"
        )
    return mask


def _window_real(dataset, mask):
    """The real part of dataset's spectra on mask, its own window bins, from its spectra or the rows it holds."""
    if dataset.values is not None:
        return dataset.values[:, mask].real
    if dataset.window_rows.shape[1] != np.count_nonzero(mask):
        raise ValidationError(f"window_rows has {dataset.window_rows.shape[1]} columns; "
                              f"the dataset's window has {np.count_nonzero(mask)} bins")
    return dataset.window_rows


def build_feature_space(dataset):
    """Feature matrix for a training dataset plus the metadata to reuse it."""
    meta = FeatureMeta(dataset.params, float(dataset.reference_ppm))
    return meta, features_for_dataset(meta, dataset)


def features_for_dataset(meta, dataset, allow_resample=False):
    """Feature matrix for any dataset; other protocols need allow_resample.

    Spectra on the model grid are cropped; any other acquisition is
    evaluated on the model grid through its exact DTFT, which needs the
    whole spectra, not only the window rows.
    """
    mask = _window_mask(dataset.ppm_axis)
    if grids_match(dataset.ppm_axis[mask], meta.grid):
        raw = _window_real(dataset, mask)
    elif not allow_resample:
        raise GridCompatibilityError(
            f"dataset grid ({int(mask.sum())} points in the window) does not match the model "
            f"grid ({meta.grid.size} points) and preprocessing is disabled"
        )
    elif dataset.values is None:
        raise ValidationError("the dataset holds only its window's real part; regridding needs its whole spectra")
    else:
        raw = (dataset.values @ dtft_matrix(dataset.params, dataset.reference_ppm, meta.grid).T).real
    return cr_normalize(raw, meta.grid)


def train_model(dataset, forest_config, threads=1):
    """Fit per-target forests on a dataset's feature representation and its labels."""
    if dataset.labels is None:
        raise ValidationError("dataset has no labels; cannot train")
    meta, X = build_feature_space(dataset)
    model = fit_forest(X, dataset.labels, forest_config, target_names=dataset.target_names, threads=threads)
    model.feature_meta = meta
    model.dataset_fingerprint = dataset.fingerprint
    return model


def predict_dataset(model, dataset, allow_resample=False):
    """(n_spectra, n_targets) forest estimates for every spectrum in the dataset."""
    if model.feature_meta is None:
        raise ValidationError("model carries no feature metadata; train it through train_model")
    X = features_for_dataset(model.feature_meta, dataset, allow_resample)
    return model.predict_matrix(X)


def oracle_ratios(dataset, target_names, baseline_degree=4):
    """Least-squares ratio estimates for every spectrum, on its native grid.

    Returns (estimates, ok) where estimates is (n_spectra, n_targets) with
    NaN rows for unusable fits (non-positive Cr) and ok flags the rest.
    """
    basis = dataset.basis
    if "Cr" not in basis.names:
        raise ValidationError("oracle basis has no Cr; Cr ratios are undefined")
    ratio_cols = {f"{name}/Cr": j for j, name in enumerate(basis.names) if name != "Cr"}
    missing = [t for t in target_names if t not in ratio_cols]
    if missing:
        raise ValidationError(f"oracle basis does not produce target {missing[0]!r}")
    cols = [ratio_cols[t] for t in target_names]
    # the basis is rendered at the dataset's acquisition, so the window's mask indexes its grid too
    mask = _window_mask(dataset.ppm_axis)
    conc = lsq_fit_batch(_window_real(dataset, mask), basis, mask, baseline_degree)
    cr = conc[:, basis.names.index("Cr")]
    ok = cr > 0
    est = np.full((dataset.n_spectra, len(cols)), np.nan)
    est[ok] = conc[ok][:, cols] / cr[ok, None]
    return est, ok
