"""Feature extraction and model training/prediction over datasets.

The forest's feature representation: the real part of the spectrum on the
model grid (the training acquisition's bins inside the quantification
window), each row divided by its own Cr peak.  Spectra from another
acquisition protocol reach the model grid through their exact DTFT, one
matrix product for the whole dataset.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridCompatibilityError, ValidationError
from .forest import fit_forest
from .lsqfit import lsq_fit_batch
from .preprocess import CROP_HI_PPM, CROP_LO_PPM, cr_normalize, dtft_matrix, grids_match

# Names the feature normalization; model files carrying any other kind are refused.
FEATURE_KIND = "real_cr_normalized"


@dataclass(frozen=True)
class FeatureMeta:
    """Everything needed to map any spectrum onto a trained model's input space."""

    grid: np.ndarray
    crop_hi: float
    crop_lo: float
    acquisition: object
    kind: str = FEATURE_KIND


def _window_mask(axis, hi, lo):
    mask = (axis >= lo) & (axis <= hi)
    if not mask.any():
        raise GridCompatibilityError(f"window [{lo}, {hi}] ppm does not overlap the dataset axis")
    return mask


def build_feature_space(dataset, hi=CROP_HI_PPM, lo=CROP_LO_PPM):
    """Feature matrix for a training dataset plus the metadata to reuse it."""
    mask = _window_mask(dataset.ppm_axis, hi, lo)
    meta = FeatureMeta(dataset.ppm_axis[mask], hi, lo, dataset.params)
    return meta, cr_normalize(dataset.values[:, mask].real, meta.grid)


def features_for_dataset(meta, dataset, allow_resample=False):
    """Feature matrix for any dataset; other protocols need allow_resample.

    Spectra on the model grid are cropped; any other acquisition is
    evaluated on the model grid through its exact DTFT.
    """
    mask = (dataset.ppm_axis >= meta.crop_lo) & (dataset.ppm_axis <= meta.crop_hi)
    if grids_match(dataset.ppm_axis[mask], meta.grid):
        raw = dataset.values[:, mask].real
    elif not allow_resample:
        raise GridCompatibilityError(
            f"dataset grid ({int(mask.sum())} points in the window) does not match the model "
            f"grid ({meta.grid.size} points) and preprocessing is disabled"
        )
    else:
        raw = (dataset.values @ dtft_matrix(dataset.params, dataset.reference_ppm, meta.grid).T).real
    return cr_normalize(raw, meta.grid)


def train_model(dataset, forest_config, labels=None, target_names=None, threads=1):
    """Fit per-target forests on a dataset's feature representation."""
    if labels is None:
        labels = dataset.labels
        target_names = dataset.target_names
    if labels is None:
        raise ValidationError("dataset has no labels; supply labels= explicitly")
    meta, X = build_feature_space(dataset)
    model = fit_forest(X, labels, forest_config, target_names=target_names, threads=threads)
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
    mask = _window_mask(dataset.ppm_axis, CROP_HI_PPM, CROP_LO_PPM)
    conc = lsq_fit_batch(dataset.values[:, mask].real, basis, mask, baseline_degree)
    cr = conc[:, basis.names.index("Cr")]
    ok = cr > 0
    est = np.full((dataset.n_spectra, len(cols)), np.nan)
    est[ok] = conc[ok][:, cols] / cr[ok, None]
    return est, ok
