"""In-memory dataset: stacked labeled spectra sharing one acquisition grid."""

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import signal
from .basis import basis_from_config
from .errors import ValidationError
from .signal import AcquisitionParams


def config_fingerprint(config_dict):
    """Stable hash of a configuration mapping (seed and parameters included)."""
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class Dataset:
    params: AcquisitionParams
    reference_ppm: float
    values: np.ndarray  # (n_spectra, n_points) complex
    target_names: list
    labels: np.ndarray | None = None  # (n_spectra, n_targets), finite
    truth_params: list | None = None
    config: dict | None = None
    fingerprint: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 2 or self.values.shape[1] != self.params.n_points:
            raise ValidationError("values must be (n_spectra, n_points)")
        if len(set(self.target_names)) != len(self.target_names):
            raise ValidationError(f"target names must be unique, got {self.target_names}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.float64)
            if self.labels.shape != (self.values.shape[0], len(self.target_names)):
                raise ValidationError(
                    f"labels shape {self.labels.shape} must be (n_spectra, n_targets)="
                    f"({self.values.shape[0]}, {len(self.target_names)})"
                )
            bad = np.flatnonzero(~np.isfinite(self.labels).all(axis=1))
            if bad.size:
                raise ValidationError(f"row {bad[0]} has a non-finite label (NaN or inf)")

    @cached_property
    def ppm_axis(self):
        """The descending ppm axis of this acquisition, its centre bin at reference_ppm."""
        return signal.ppm_axis(self.params, self.reference_ppm)

    @cached_property
    def basis(self):
        """The basis the embedded config names (the built-in one when it names none), at this acquisition."""
        return basis_from_config(self.config, self.params, self.reference_ppm)

    @property
    def n_spectra(self):
        return self.values.shape[0]

    def take(self, idx):
        """The spectra at the integer indices idx, with their labels and truth."""
        return replace(self, values=self.values[idx],
                       labels=self.labels[idx] if self.labels is not None else None,
                       truth_params=[self.truth_params[i] for i in idx] if self.truth_params else None)


def dataset_from_labeled(labeled, config_dict=None, target_names=None):
    """Stack simulator output into a Dataset; label order follows target_names."""
    if len(labeled) == 0:
        raise ValidationError("cannot build a dataset from zero spectra")
    first = labeled[0].spectrum
    if target_names is None:
        target_names = sorted(labeled[0].labels)
    values = np.stack([ls.spectrum.values for ls in labeled])
    labels = np.array([[ls.labels[t] for t in target_names] for ls in labeled])
    return Dataset(
        params=first.params,
        reference_ppm=float(first.ppm_axis[first.params.n_points // 2]),  # the axis's centre bin is its reference
        values=values,
        target_names=list(target_names),
        labels=labels,
        truth_params=[ls.truth_params for ls in labeled],
        config=config_dict,
        fingerprint=config_fingerprint(config_dict) if config_dict is not None else None,
    )
