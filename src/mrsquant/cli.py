"""Command-line surface: simulate, train, predict, evaluate, oob-scan.

A refusal exits with its error class's exit_code, an OSError with 2.
--threads (default 1) goes straight to the library as the worker count of
workers.ordered_map, where a value below 1 counts as 1: simulate computes its
chunks of spectra, evaluate reads its datasets when none is read whole, and
train, evaluate and oob-scan grow their trees, in that many forked processes;
predict runs on one thread.  No output depends on it.
A dataset is read whole only where it may be regridded onto a model's grid
(predict --preprocess, and evaluate's test set when the design
preprocesses); every other read keeps only its window rows.
"""

import argparse
import os
import sys

from . import fileio
# dataset_from_labeled, features_for_dataset and simulate_dataset stay importable from here:
# perfbench/layers.py wraps them on this module.
from .dataset import config_fingerprint, dataset_from_labeled
from .errors import MrsQuantError, ValidationError, integer, known_keys
from .evaluate import ExperimentSpec, run_experiment
from .forest import ForestConfig, fit_forest
from .pipeline import build_feature_space, features_for_dataset, predict_dataset, train_model
from .signal import DEFAULT_REFERENCE_PPM
from .simulate import simulate_dataset
from .workers import ordered_map

_TREE_WORKERS_HELP = "forked worker processes growing the trees; the output does not depend on it"

DEFAULT_ACQUISITION = {"spectral_width_hz": 2500.0, "n_points": 1024,
                       "transmitter_freq_mhz": 127.7, "echo_time_ms": 35.0,
                       "repetition_time_ms": 2000.0}


def _sim_config(args, file_cfg):
    """SimulationConfig from the --config document (or {}), the flags and the defaults.

    A custom basis is the document's "basis" field, at its "acquisition" and "reference_ppm".
    """
    cfg = {"acquisition": dict(DEFAULT_ACQUISITION), "reference_ppm": DEFAULT_REFERENCE_PPM}
    cfg.update(file_cfg)
    cfg["rng_seed"] = args.seed
    if args.n_spectra is not None:
        cfg["n_spectra"] = args.n_spectra
    if "n_spectra" not in cfg:
        raise ValidationError("simulate needs --n-spectra (field n_spectra)")
    return fileio.sim_config_from_dict(cfg)


def cmd_simulate(args):
    if args.config:
        config = fileio.load_json(args.config, lambda doc: _sim_config(args, doc))
    else:
        config = _sim_config(args, {})
    fingerprint = fileio.write_simulation(args.output, config, args.threads)
    print(f"wrote {config.n_spectra} spectra to {args.output}")
    print(f"seed={config.rng_seed} fingerprint={fingerprint}")
    print(f"targets={','.join(config.target_names)}")
    for name, rng in config.concentration_ranges.items():
        print(f"range {name}: [{rng[0]}, {rng[1]}]")
    return 0


def _max_depth(text):
    """--max-depth value: a positive integer, or none/unlimited for no limit."""
    if text.lower() in ("none", "unlimited"):
        return None
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, none or unlimited, got {text!r}")
    return int(text)


def _naming(path, compute, *args, **kwargs):
    """compute(*args, **kwargs); a refusal it raises, such as a grid or Cr refusal, names path as a read's does."""
    try:
        return compute(*args, **kwargs)
    except MrsQuantError as e:
        raise type(e)(f"{path}: {e}") from e


def _labelled_window(path, verb):
    dataset = fileio.read_dataset(path, window=True)
    if dataset.labels is None:
        raise ValidationError(f"{path}: dataset has no labels; cannot {verb}")
    return dataset


def cmd_train(args):
    dataset = _labelled_window(args.dataset, "train")
    config = ForestConfig(n_trees=args.trees, max_features=args.max_features,
                          min_leaf_size=args.min_leaf, max_depth=args.max_depth, rng_seed=args.seed)
    model = _naming(args.dataset, train_model, dataset, config, threads=args.threads)
    fileio.write_model(args.output, model)
    oob_path = args.oob_csv or args.output + ".oob.csv"
    entries = [(name, config.max_features, curve)
               for name, curve in zip(model.target_names, model.oob_curves)]
    fileio.write_oob_csv(oob_path, entries, fileio.model_fingerprint(model))
    print(f"trained {config.n_trees} trees x {len(model.target_names)} targets from {args.dataset}")
    for name in model.target_names:
        print(f"oob[{name}] = {model.oob_error(name):.6g}")
    print(f"model written to {args.output}; OOB curve to {oob_path}")
    return 0


def cmd_predict(args):
    model = fileio.read_model(args.model)
    dataset = fileio.read_dataset(args.spectra, window=not args.preprocess)
    estimates = _naming(args.spectra, predict_dataset, model, dataset, allow_resample=args.preprocess)
    fileio.write_predictions_csv(args.output, model.target_names, estimates,
                                 fileio.model_fingerprint(model))
    print(f"predicted {estimates.shape[0]} spectra -> {args.output}")
    return 0


_FOREST_KEYS = ("n_trees", "max_features", "min_leaf_size", "max_depth", "rng_seed")
_EXPERIMENT_KEYS = ("experiment", "seed", "forest", "k_folds", "baseline_degree", "preprocess", "datasets")


def _experiment(doc):
    """(ExperimentSpec, {role: dataset path}, config fingerprint) from an evaluate config."""
    seed = integer("seed", doc["seed"], 0)  # checked before the forest's rng_seed, which defaults to it
    known_keys("evaluate config", doc, _EXPERIMENT_KEYS)
    forest = {"n_trees": 100, "max_features": 64, "rng_seed": seed, **doc.get("forest", {})}
    known_keys("forest", forest, _FOREST_KEYS)
    optional = {k: doc[k] for k in ("k_folds", "baseline_degree", "preprocess") if k in doc}
    spec = ExperimentSpec(doc.get("experiment"), ForestConfig(**forest), seed, **optional)
    given = doc.get("datasets", {})
    needed = ("data",) if spec.name == "real-real-spectra" else ("train", "test")
    for role in needed:
        if role not in given:
            raise ValidationError(f"experiment {spec.name} needs datasets.{role} in the config")
    return spec, {role: os.fspath(given[role]) for role in needed}, config_fingerprint(doc)


def cmd_evaluate(args):
    spec, paths, fingerprint = fileio.load_json(args.config, _experiment)
    window = {role: role != "test" or not spec.preprocess for role in paths}
    # window reads run at once at 2 or more workers, each Dataset coming back pickled; a whole
    # read would pickle back its spectra and raise the peak, so then every set is read here.
    # Results and errors arrive in role order, so a failed train read is the one named.
    datasets = dict(zip(paths, ordered_map(
        lambda role: fileio.read_dataset(paths[role], window=window[role]),
        paths, args.threads if all(window.values()) else 1)))
    report = run_experiment(spec, datasets, threads=args.threads)
    report.inputs["experiment_config_fingerprint"] = fingerprint
    fileio.write_report(args.output, report)
    csv_path = args.csv or args.output + ".samples.csv"
    fileio.write_samples_csv(csv_path, report)
    print(f"experiment {spec.name} (truth: {report.truth_source})")
    for target in report.target_names:
        stats = report.summary[target]["forest"]
        print(
            f"{target}: median={stats['median_error']:.4f} mean={stats['mean_error']:.4f} "
            f"pearson_r={stats['pearson_r']:.4f}"
        )
    print(f"report written to {args.output}; samples CSV to {csv_path}")
    return 0


def cmd_oob_scan(args):
    dataset = _labelled_window(args.dataset, "scan")
    try:
        features = [int(v) for v in args.features.split(",") if v.strip()]
    except ValueError as e:
        raise ValidationError(f"--features must be a comma-separated integer list: {e}") from e
    if not features:
        raise ValidationError("--features must name at least one value")
    configs = [ForestConfig(n_trees=args.trees, max_features=mf, min_leaf_size=args.min_leaf,
                            max_depth=None, rng_seed=args.seed) for mf in features]
    _, X = _naming(args.dataset, build_feature_space, dataset)
    if max(features) > X.shape[1]:
        raise ValidationError(f"--features value {max(features)} exceeds the {X.shape[1]} "
                              f"features of {args.dataset}")
    entries = []
    scan_cfg = {"dataset_fingerprint": dataset.fingerprint, "trees": args.trees,
                "features": features, "seed": args.seed, "min_leaf": args.min_leaf}
    for config in configs:
        model = fit_forest(X, dataset.labels, config, dataset.target_names, args.threads)
        for name, curve in zip(model.target_names, model.oob_curves):
            entries.append((name, config.max_features, curve))
        print(f"max_features={config.max_features}: " + " ".join(
            f"oob[{name}]={model.oob_error(name):.6g}" for name in model.target_names))
    fileio.write_oob_csv(args.output, entries, config_fingerprint(scan_cfg))
    print(f"OOB sweep written to {args.output}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mrsquant",
        description="Simulate MR spectra, train forest quantifiers, and evaluate them "
                    "against a least-squares basis-fit baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a labeled synthetic dataset")
    p.add_argument("--config", help="JSON simulation config (defaults used for absent fields)")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
    p.add_argument("--output", required=True)
    p.add_argument("--n-spectra", type=int, dest="n_spectra")
    p.add_argument("--threads", type=int, default=1,
                   help="forked worker processes over fixed chunks of spectra; the output does not depend on it")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a random-forest model on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--max-features", type=int, default=64, dest="max_features")
    p.add_argument("--min-leaf", type=int, default=5, dest="min_leaf")
    p.add_argument("--max-depth", type=_max_depth, default=None, dest="max_depth",
                   help="positive integer, or none/unlimited (the default)")
    p.add_argument("--oob-csv", dest="oob_csv")
    p.add_argument("--threads", type=int, default=1, help=_TREE_WORKERS_HELP)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="quantify spectra with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--spectra", required=True, help="dataset file holding the spectra")
    p.add_argument("--output", required=True)
    p.add_argument("--preprocess", action="store_true",
                   help="evaluate spectra from a different protocol on the model grid")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: prediction runs on one thread")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="run one of the four experiment designs")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--output", required=True, help="report JSON path")
    p.add_argument("--csv", help="per-sample CSV path (default: <output>.samples.csv)")
    p.add_argument("--threads", type=int, default=1,
                   help="forked worker processes reading the datasets (when none is read whole) "
                        "and growing the trees; the output does not depend on it")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("oob-scan", help="sweep n_trees x max_features, emit the OOB grid CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trees", type=int, default=200)
    p.add_argument("--features", default="1,4,16,64,128",
                   help="comma-separated max_features values")
    p.add_argument("--min-leaf", type=int, default=5, dest="min_leaf")
    p.add_argument("--threads", type=int, default=1, help=_TREE_WORKERS_HELP)
    p.set_defaults(func=cmd_oob_scan)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MrsQuantError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
