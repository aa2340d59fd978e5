"""Error metrics, cross-validation, and the four experiment designs.

The error metric is the elementwise relative deviation
``|estimate - truth| / |truth|``; accuracy across a test set is summarized
by order statistics of those errors plus the Pearson correlation between
estimates and truths ("pearson_r" in reports).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedResultError, ValidationError
from .fileio import forest_config_to_dict
from .pipeline import basis_for_dataset, oracle_ratios, predict_dataset, train_model

EXPERIMENT_NAMES = (
    "synthetic-synthetic",
    "real-real-spectra",
    "real-real-images",
    "synthetic-real-images",
)
# Cross-protocol designs always route test spectra through preprocessing.
_PREPROCESS_BY_DEFAULT = {"real-real-images", "synthetic-real-images"}


def relative_error(estimate, truth):
    """|estimate - truth| / |truth|; undefined at truth == 0."""
    if truth == 0:
        raise UndefinedResultError("relative error is undefined for truth == 0")
    return abs(estimate - truth) / abs(truth)


def relative_errors(estimates, truths):
    estimates = np.asarray(estimates, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if np.any(truths == 0):
        raise UndefinedResultError("relative error is undefined for truth == 0")
    return np.abs(estimates - truths) / np.abs(truths)


def r_score(estimates, truths):
    """Pearson correlation coefficient between estimates and truths."""
    estimates = np.asarray(estimates, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if estimates.shape != truths.shape or estimates.size < 2:
        raise ValidationError("need two equal-length vectors of at least 2 entries")
    de = estimates - estimates.mean()
    dt = truths - truths.mean()
    denom = np.sqrt(np.sum(de * de) * np.sum(dt * dt))
    if denom == 0:
        raise UndefinedResultError("Pearson r is undefined when either vector is constant")
    return float(np.clip(np.sum(de * dt) / denom, -1.0, 1.0))


def boxplot_stats(errors):
    """Order statistics with interpolated quartiles and midpoint median."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValidationError("boxplot_stats needs a nonempty vector")
    return {
        "min": float(np.min(errors)),
        "q1": float(np.quantile(errors, 0.25)),
        "median": float(np.quantile(errors, 0.5)),
        "q3": float(np.quantile(errors, 0.75)),
        "max": float(np.max(errors)),
        "mean": float(np.mean(errors)),
    }


def kfold_split(n, k, seed):
    """Random partition into k folds with sizes differing by at most one."""
    if int(k) != k or int(n) != n:
        raise ValidationError("n and k must be integers")
    if not 2 <= k <= n:
        raise ValidationError(f"need 2 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def summarize_errors(estimates, truths):
    """Stats block for a report: error order statistics plus pearson_r."""
    errors = relative_errors(estimates, truths)
    stats = boxplot_stats(errors)
    out = {
        "median_error": stats["median"],
        "min_error": stats["min"],
        "max_error": stats["max"],
        "mean_error": stats["mean"],
        "q1_error": stats["q1"],
        "q3_error": stats["q3"],
        "pearson_r": r_score(estimates, truths),
    }
    if not (out["min_error"] <= out["median_error"] <= out["max_error"]):
        raise ValidationError("summary order statistics are inconsistent")
    if not -1.0 <= out["pearson_r"] <= 1.0:
        raise ValidationError("pearson_r outside [-1, 1]")
    return out


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment design: which datasets play which role and how to train."""

    name: str
    forest: object
    seed: int = 0
    k_folds: int = 10
    baseline_degree: int = 4
    preprocess: bool | None = None  # None: on for the cross-protocol designs

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValidationError(
                f"unknown experiment {self.name!r}; valid names: {', '.join(EXPERIMENT_NAMES)}"
            )
        for name, low in (("seed", 0), ("k_folds", 2), ("baseline_degree", 0)):
            v = getattr(self, name)
            if int(v) != v or v < low:
                raise ValidationError(f"{name} must be an integer >= {low}, got {v!r}")
        if self.preprocess not in (None, True, False):
            raise ValidationError(f"preprocess must be true, false or null, got {self.preprocess!r}")

    @property
    def allow_resample(self):
        if self.preprocess is None:
            return self.name in _PREPROCESS_BY_DEFAULT
        return self.preprocess


@dataclass
class EvalReport:
    experiment: dict
    truth_source: str
    target_names: list
    summary: dict  # target -> {"forest": stats, "oracle": stats | None}
    per_sample: dict  # target -> {"truth": [...], "forest_estimate": [...], ...}
    inputs: dict
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "format": "mrsquant-report",
            "format_version": 1,
            "experiment": self.experiment,
            "truth_source": self.truth_source,
            "target_names": self.target_names,
            "summary": self.summary,
            "per_sample": self.per_sample,
            "inputs": self.inputs,
            "notes": self.notes,
        }


def _assemble_report(spec, targets, truth, forest_est, oracle_est, oracle_ok, truth_source, inputs, notes):
    summary = {}
    per_sample = {}
    for t, name in enumerate(targets):
        block = {"forest": summarize_errors(forest_est[:, t], truth[:, t])}
        entry = {
            "truth": truth[:, t].tolist(),
            "forest_estimate": forest_est[:, t].tolist(),
            "forest_error": relative_errors(forest_est[:, t], truth[:, t]).tolist(),
        }
        if oracle_est is not None:
            if oracle_ok.any():
                block["oracle"] = summarize_errors(oracle_est[oracle_ok, t], truth[oracle_ok, t])
            else:
                block["oracle"] = None
            o_err = np.full(truth.shape[0], np.nan)
            o_err[oracle_ok] = relative_errors(oracle_est[oracle_ok, t], truth[oracle_ok, t])
            entry["oracle_estimate"] = oracle_est[:, t].tolist()
            entry["oracle_error"] = o_err.tolist()
        else:
            block["oracle"] = None
            entry["oracle_estimate"] = None
            entry["oracle_error"] = None
        summary[name] = block
        per_sample[name] = entry
    return EvalReport(
        experiment={
            "name": spec.name,
            "seed": spec.seed,
            "k_folds": spec.k_folds if spec.name == "real-real-spectra" else None,
            "baseline_degree": spec.baseline_degree,
            "preprocess": spec.allow_resample,
        },
        truth_source=truth_source,
        target_names=list(targets),
        summary=summary,
        per_sample=per_sample,
        inputs=inputs,
        notes=notes,
    )


def run_experiment(spec, datasets, threads=1):
    """Train, predict, and score one of the four experiment designs.

    datasets maps roles to Dataset objects: "train"/"test" for the
    train-test designs, "data" for the k-fold design.
    """
    if spec.name == "synthetic-synthetic":
        return _run_train_test(spec, datasets["train"], datasets["test"],
                               truth_source="simulation_labels", threads=threads)
    if spec.name == "real-real-spectra":
        return _run_kfold(spec, datasets["data"], threads=threads)
    if spec.name in ("real-real-images", "synthetic-real-images"):
        return _run_train_test(spec, datasets["train"], datasets["test"],
                               truth_source="oracle_fit", threads=threads)
    raise ValidationError(f"unknown experiment {spec.name!r}")


def _label_columns(dataset, targets):
    try:
        cols = [dataset.target_names.index(t) for t in targets]
    except ValueError as e:
        raise ValidationError(f"dataset lacks a required target: {e}") from e
    return dataset.labels[:, cols]


def _run_train_test(spec, train, test, truth_source, threads):
    notes = {}
    if truth_source == "simulation_labels":
        if train.labels is None or test.labels is None:
            raise ValidationError("synthetic experiments need labels in both datasets")
        targets = list(train.target_names)
        train_ds, train_y = train, _label_columns(train, targets)
        truth = _label_columns(test, targets)
        keep = np.ones(test.n_spectra, dtype=bool)
    else:
        targets = _real_targets(train)
        train_y_all, train_ok = oracle_ratios(train, targets, spec.baseline_degree)
        if not train_ok.all():
            notes["train_oracle_failures"] = int((~train_ok).sum())
        train_ds = train.take(np.nonzero(train_ok)[0])
        train_y = train_y_all[train_ok]
        truth, keep = oracle_ratios(test, targets, spec.baseline_degree)
        if not keep.all():
            notes["test_oracle_failures"] = int((~keep).sum())
        truth = truth[keep]

    model = train_model(train_ds, spec.forest, labels=train_y, target_names=targets, threads=threads)
    forest_est = predict_dataset(model, test, allow_resample=spec.allow_resample)[keep]

    oracle_est = oracle_ok = None
    if truth_source == "simulation_labels":
        oracle_est, oracle_ok = oracle_ratios(test, targets, spec.baseline_degree)
        if not oracle_ok.all():
            notes["oracle_failures"] = int((~oracle_ok).sum())
    inputs = {
        "train_dataset_fingerprint": train.fingerprint,
        "test_dataset_fingerprint": test.fingerprint,
        "forest_config": forest_config_to_dict(spec.forest),
        "oracle": {"baseline_degree": spec.baseline_degree},
    }
    return _assemble_report(spec, targets, truth, forest_est, oracle_est, oracle_ok,
                            truth_source, inputs, notes)


def _run_kfold(spec, data, threads):
    targets = _real_targets(data)
    truth_all, ok = oracle_ratios(data, targets, spec.baseline_degree)
    notes = {}
    if not ok.all():
        notes["oracle_failures"] = int((~ok).sum())
    usable = np.nonzero(ok)[0]
    if usable.size < spec.k_folds:
        raise ValidationError("not enough usable spectra for the requested fold count")
    folds = kfold_split(usable.size, spec.k_folds, spec.seed)
    forest_est = np.full((data.n_spectra, len(targets)), np.nan)
    for fold in folds:
        test_idx = usable[fold]
        train_mask = np.ones(usable.size, dtype=bool)
        train_mask[fold] = False
        train_idx = usable[train_mask]
        model = train_model(
            data.take(train_idx),
            spec.forest,
            labels=truth_all[train_idx],
            target_names=targets,
            threads=threads,
        )
        forest_est[test_idx] = predict_dataset(model, data.take(test_idx),
                                               allow_resample=spec.allow_resample)
    inputs = {
        "train_dataset_fingerprint": data.fingerprint,
        "test_dataset_fingerprint": data.fingerprint,
        "forest_config": forest_config_to_dict(spec.forest),
        "oracle": {"baseline_degree": spec.baseline_degree},
    }
    return _assemble_report(spec, targets, truth_all[usable], forest_est[usable], None, None,
                            "oracle_fit", inputs, notes)


def _real_targets(dataset):
    # Ratio targets for oracle-labeled runs: every basis metabolite except Cr.
    if dataset.target_names:
        return list(dataset.target_names)
    return [f"{n}/Cr" for n in basis_for_dataset(dataset).names if n != "Cr"]
