"""Error metrics, cross-validation, and the four experiment designs.

The error metric is the elementwise relative deviation
``|estimate - truth| / |truth|``; accuracy across a test set is summarized
by order statistics of those errors plus the Pearson correlation between
estimates and truths ("pearson_r" in reports).
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import UndefinedResultError, ValidationError, integer
from .forest import fit_forest
from .pipeline import build_feature_space, oracle_ratios, predict_dataset, train_model

EXPERIMENT_NAMES = (
    "synthetic-synthetic",
    "real-real-spectra",
    "real-real-images",
    "synthetic-real-images",
)
# Cross-protocol designs always route test spectra through preprocessing.
_PREPROCESS_BY_DEFAULT = {"real-real-images", "synthetic-real-images"}


def relative_errors(estimates, truths):
    """Elementwise |estimate - truth| / |truth|; undefined where a truth is 0."""
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


def kfold_split(n, k, seed):
    """Random partition into k folds with sizes differing by at most one."""
    n, k, seed = integer("n", n, 0), integer("k", k, 0), integer("seed", seed, 0)
    if not 2 <= k <= n:
        raise ValidationError(f"need 2 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def summarize_errors(estimates, truths):
    """Stats block for a report: relative-error order statistics (interpolated quartiles) plus pearson_r."""
    errors = relative_errors(estimates, truths)
    pearson_r = r_score(estimates, truths)  # first: fewer than 2 entries raise ValidationError, not IndexError
    q1, median, q3 = np.quantile(errors, [0.25, 0.5, 0.75])
    return {
        "median_error": float(median),
        "min_error": float(np.min(errors)),
        "max_error": float(np.max(errors)),
        "mean_error": float(np.mean(errors)),
        "q1_error": float(q1),
        "q3_error": float(q3),
        "pearson_r": pearson_r,
    }


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment design: which datasets play which role and how to train."""

    name: str
    forest: object
    seed: int = 0
    k_folds: int = 10
    baseline_degree: int = 4
    preprocess: bool | None = None  # None: on for the cross-protocol designs; resolved in __post_init__

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValidationError(
                f"unknown experiment {self.name!r}; valid names: {', '.join(EXPERIMENT_NAMES)}"
            )
        for name, low in (("seed", 0), ("k_folds", 2), ("baseline_degree", 0)):
            object.__setattr__(self, name, integer(name, getattr(self, name), low))
        if self.preprocess not in (None, True, False):
            raise ValidationError(f"preprocess must be true, false or null, got {self.preprocess!r}")
        if self.preprocess is None:
            object.__setattr__(self, "preprocess", self.name in _PREPROCESS_BY_DEFAULT)


@dataclass
class EvalReport:
    experiment: dict
    truth_source: str
    target_names: list
    summary: dict  # target -> {"forest": stats, "oracle": stats | None}
    per_sample: dict  # target -> {"truth": [...], "forest_estimate": [...], ...}
    inputs: dict
    notes: dict = field(default_factory=dict)


def run_experiment(spec, datasets, threads=1):
    """Train, predict, and score one of the four experiment designs.

    datasets maps roles to Dataset objects: "train"/"test" for the
    train-test designs, "data" for the k-fold design.  synthetic-synthetic
    scores the forest and the oracle fit against the test labels; the other
    designs relabel the spectra the oracle can fit with its ratios, then
    train and score on those alone.
    """
    notes = {}
    if spec.name == "real-real-spectra":
        data = datasets["data"]
        fitted = _oracle_labelled(data, _real_targets(data), spec, notes, "oracle_failures")
        if fitted.n_spectra < spec.k_folds:
            raise ValidationError("not enough usable spectra for the requested fold count")
        _, X = build_feature_space(fitted)
        forest_est = np.empty(fitted.labels.shape)
        for fold in kfold_split(fitted.n_spectra, spec.k_folds, spec.seed):
            rest = np.delete(np.arange(fitted.n_spectra), fold)
            model = fit_forest(X[rest], fitted.labels[rest], spec.forest, fitted.target_names, threads)
            forest_est[fold] = model.predict_matrix(X[fold])
        return _report(spec, fitted.target_names, fitted.labels, forest_est, None, data, data, notes)

    train, test = datasets["train"], datasets["test"]
    if spec.name == "synthetic-synthetic":
        if train.labels is None or test.labels is None:
            raise ValidationError("synthetic experiments need labels in both datasets")
        targets = train.target_names
        truth = _label_columns(test, targets)
        oracle = _oracle(test, targets, spec, notes, "oracle_failures")
    else:
        targets = _real_targets(train)
        train = _oracle_labelled(train, targets, spec, notes, "train_oracle_failures")
        # spectra the oracle refused are not scored, so they are not predicted either
        test = _oracle_labelled(test, targets, spec, notes, "test_oracle_failures")
        truth, oracle = test.labels, None
    if len(truth) < 2:
        raise ValidationError(f"need at least 2 test spectra to score, got {len(truth)}")
    model = train_model(train, spec.forest, threads=threads)
    forest_est = predict_dataset(model, test, allow_resample=spec.preprocess)
    return _report(spec, targets, truth, forest_est, oracle, train, test, notes)


def _oracle(dataset, targets, spec, notes, key):
    """oracle_ratios of dataset; the number of spectra it cannot fit goes into notes[key]."""
    est, ok = oracle_ratios(dataset, targets, spec.baseline_degree)
    if not ok.all():
        notes[key] = int((~ok).sum())
    return est, ok


def _oracle_labelled(dataset, targets, spec, notes, key):
    """The spectra of dataset the oracle can fit, labelled with its ratios for targets (see _oracle)."""
    est, ok = _oracle(dataset, targets, spec, notes, key)
    keep = np.flatnonzero(ok)
    return replace(dataset.take(keep), labels=est[keep], target_names=targets)


def _report(spec, targets, truth, forest_est, oracle, train, test, notes):
    """EvalReport scoring forest_est on every row, and the oracle's (estimates, ok) on its ok rows when given;
    an estimator with fewer than 2 scored rows gets a None stats block and keeps its per-sample fields."""
    scored = {"forest": (forest_est, np.ones(len(truth), dtype=bool)), "oracle": oracle}
    summary = {name: {} for name in targets}
    per_sample = {name: {"truth": truth[:, t].tolist()} for t, name in enumerate(targets)}
    for t, name in enumerate(targets):
        for estimator, pair in scored.items():
            stats = estimates = errors = None
            if pair is not None:
                est, ok = pair[0][:, t], pair[1]
                stats = summarize_errors(est[ok], truth[ok, t]) if ok.sum() >= 2 else None
                estimates = est.tolist()
                errors = np.where(ok, relative_errors(est, truth[:, t]), np.nan).tolist()
            summary[name][estimator] = stats
            per_sample[name] |= {f"{estimator}_estimate": estimates, f"{estimator}_error": errors}
    return EvalReport(
        experiment={
            "name": spec.name,
            "seed": spec.seed,
            "k_folds": spec.k_folds if spec.name == "real-real-spectra" else None,
            "baseline_degree": spec.baseline_degree,
            "preprocess": spec.preprocess,
        },
        truth_source="simulation_labels" if spec.name == "synthetic-synthetic" else "oracle_fit",
        target_names=list(targets),
        summary=summary,
        per_sample=per_sample,
        inputs={
            "train_dataset_fingerprint": train.fingerprint,
            "test_dataset_fingerprint": test.fingerprint,
            "forest_config": asdict(spec.forest),
            "oracle": {"baseline_degree": spec.baseline_degree},
        },
        notes=notes,
    )


def _label_columns(dataset, targets):
    try:
        cols = [dataset.target_names.index(t) for t in targets]
    except ValueError as e:
        raise ValidationError(f"dataset lacks a required target: {e}") from e
    return dataset.labels[:, cols]


def _real_targets(dataset):
    # Ratio targets for oracle-labeled runs: every basis metabolite except Cr.
    if dataset.target_names:
        return list(dataset.target_names)
    return [f"{n}/Cr" for n in dataset.basis.names if n != "Cr"]
