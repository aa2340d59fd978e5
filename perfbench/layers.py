"""Which functions of the program a traced run wraps, and the per-layer metrics read from them.

Each function is wrapped where the calling module looks it up: ``cli``
calls ``fileio.read_dataset`` through the module, so that one is wrapped
in ``mrsquant.fileio``; ``evaluate`` imported ``train_model`` by name, so
it is wrapped in ``mrsquant.evaluate``.  Span names are
``<layer>.<function>``.
"""

import os
import statistics

from checks import TREE_FIELDS
from spans import self_times


def _features(span, args, kwargs, result):
    meta, dataset = args[0], args[1]
    span.attrs["rows"] = int(dataset.n_spectra)
    span.attrs["protocol"] = "native" if dataset.params == meta.acquisition else "cross"


def _predict(span, args, kwargs, result):
    model, X = args[0], args[1]
    span.attrs["rows"] = int(len(X))
    span.attrs["trees"] = sum(len(trees) for trees in model.forests)


def _fit(span, args, kwargs, result):
    span.attrs["trees"] = result.config.n_trees * len(result.target_names)
    span.keep = result


def _read_model(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(args[0])
    span.keep = result


def _read_dataset(span, args, kwargs, result):
    span.attrs["spectra"] = int(result.n_spectra)


def _write_dataset(span, args, kwargs, result):
    span.attrs["spectra"] = int(args[1].n_spectra)
    span.attrs["bytes"] = os.path.getsize(args[0])


def _simulated(span, args, kwargs, result):
    span.attrs["spectra"] = len(result)


# (module, attribute as the caller sees it, span name, annotate)
TARGETS = [
    ("mrsquant.cli", "main", "cli.main", None),
    ("mrsquant.cli", "simulate_dataset", "simulate.simulate_dataset", _simulated),
    ("mrsquant.cli", "dataset_from_labeled", "dataset.dataset_from_labeled", None),
    ("mrsquant.cli", "train_model", "pipeline.train_model", None),
    ("mrsquant.cli", "features_for_dataset", "pipeline.features_for_dataset", _features),
    ("mrsquant.cli", "run_experiment", "evaluate.run_experiment", None),
    ("mrsquant.fileio", "read_dataset", "fileio.read_dataset", _read_dataset),
    ("mrsquant.fileio", "write_dataset", "fileio.write_dataset", _write_dataset),
    ("mrsquant.fileio", "read_model", "fileio.read_model", _read_model),
    ("mrsquant.fileio", "write_report", "fileio.write_report", None),
    ("mrsquant.fileio", "write_samples_csv", "fileio.write_samples_csv", None),
    ("mrsquant.fileio", "write_predictions_csv", "fileio.write_predictions_csv", None),
    ("mrsquant.evaluate", "train_model", "pipeline.train_model", None),
    ("mrsquant.evaluate", "oracle_ratios", "pipeline.oracle_ratios", None),
    ("mrsquant.pipeline", "features_for_dataset", "pipeline.features_for_dataset", _features),
    ("mrsquant.pipeline", "fit_forest", "forest.fit_forest", _fit),
    ("mrsquant.pipeline", "cr_normalize", "preprocess.cr_normalize", None),
    ("mrsquant.pipeline", "dtft_matrix", "preprocess.dtft_matrix", None),
    ("mrsquant.pipeline", "lsq_fit_batch", "lsqfit.lsq_fit_batch", None),
    ("mrsquant.forest", "oob_curve", "forest.oob_curve", None),
    ("mrsquant.forest", "RandomForestModel.predict_matrix", "forest.predict_matrix", _predict),
    ("mrsquant.simulate", "linear_combination", "simulate.linear_combination", None),
    ("mrsquant.simulate", "generate_baseline", "simulate.generate_baseline", None),
    ("mrsquant.simulate", "generate_lipids", "simulate.generate_lipids", None),
    ("mrsquant.simulate", "add_noise", "simulate.add_noise", None),
]

MB = float(2 ** 20)


def tree_depth(left, right):
    """Depth of a flat tree whose children always have higher ids than their parent."""
    depth = [0] * len(left)
    for i, (lo, hi) in enumerate(zip(left, right)):
        if lo >= 0:
            depth[lo] = depth[hi] = depth[i] + 1
    return max(depth)


def model_stats(model):
    """Node count, depth and array bytes of a trained RandomForestModel."""
    trees = [tree for ensemble in model.forests for tree in ensemble]
    arrays = [getattr(tree, name) for tree in trees for name in TREE_FIELDS]
    arrays += [a for a in (model.inbag_counts or []) if a is not None]
    arrays += [a for a in model.oob_curves if a is not None]
    return {
        "nodes_per_tree": sum(t.n_nodes for t in trees) / len(trees),
        "depth_per_tree": sum(tree_depth(t.left.tolist(), t.right.tolist()) for t in trees)
        / len(trees),
        "resident_mb": sum(a.nbytes for a in arrays) / MB,
    }


# (name, unit, better) of every per-layer metric, in the order reported.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("evaluate.self_s", "s", "lower"),
    ("pipeline.train_s", "s", "lower"),
    ("pipeline.features_native_rows_per_s", "1/s", "higher"),
    ("pipeline.features_cross_rows_per_s", "1/s", "higher"),
    ("preprocess.dtft_matrix_s", "s", "lower"),
    ("preprocess.cr_normalize_s", "s", "lower"),
    ("forest.fit_s", "s", "lower"),
    ("forest.oob_curve_s", "s", "lower"),
    ("forest.s_per_tree", "s", "lower"),
    ("forest.nodes_per_tree", "count", "lower"),
    ("forest.depth_per_tree", "count", "lower"),
    ("forest.model_resident_mb", "MB", "lower"),
    ("forest.predict_s", "s", "lower"),
    ("forest.predict_rows_trees_per_s", "1/s", "higher"),
    ("pipeline.oracle_s", "s", "lower"),
    ("lsqfit.solve_s", "s", "lower"),
    ("simulate.spectra_per_s", "1/s", "higher"),
    ("simulate.signal_s", "s", "lower"),
    ("simulate.baseline_s", "s", "lower"),
    ("simulate.lipids_s", "s", "lower"),
    ("simulate.noise_s", "s", "lower"),
    ("dataset.stack_s", "s", "lower"),
    ("fileio.write_dataset_s", "s", "lower"),
    ("fileio.dataset_bytes_per_spectrum", "B", "lower"),
    ("fileio.read_dataset_spectra_per_s", "1/s", "higher"),
    ("fileio.read_model_s", "s", "lower"),
    ("fileio.model_bytes", "B", "lower"),
    ("fileio.write_outputs_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def phase_metrics(spans):
    """Per-layer values from the spans of one phase (one set-up or one timed round).

    A value is None when the phase never entered that layer.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    selfs = self_times(spans)

    def total(name, pick=None):
        found = [s for s in by_name.get(name, ()) if pick is None or pick(s)]
        return sum(s["end"] - s["start"] for s in found) if found else None

    def attr_sum(name, key, pick=None):
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, ()) if pick is None or pick(s))

    def self_total(name):
        found = by_name.get(name)
        return sum(selfs[s["id"]] for s in found) if found else None

    def rate(count, seconds):
        return count / seconds if seconds else None

    def plus(*values):
        present = [v for v in values if v is not None]
        return sum(present) if present else None

    def native(s):
        return s["attrs"].get("protocol") == "native"

    def cross(s):
        return s["attrs"].get("protocol") == "cross"

    out = {
        "cli.self_s": self_total("cli.main"),
        "evaluate.self_s": self_total("evaluate.run_experiment"),
        "pipeline.train_s": total("pipeline.train_model"),
        "pipeline.features_native_rows_per_s": rate(
            attr_sum("pipeline.features_for_dataset", "rows", native),
            total("pipeline.features_for_dataset", native)),
        "pipeline.features_cross_rows_per_s": rate(
            attr_sum("pipeline.features_for_dataset", "rows", cross),
            total("pipeline.features_for_dataset", cross)),
        "preprocess.dtft_matrix_s": total("preprocess.dtft_matrix"),
        "preprocess.cr_normalize_s": total("preprocess.cr_normalize"),
        "forest.fit_s": total("forest.fit_forest"),
        "forest.oob_curve_s": total("forest.oob_curve"),
        "forest.s_per_tree": None,
        "forest.predict_s": total("forest.predict_matrix"),
        "forest.predict_rows_trees_per_s": None,
        "pipeline.oracle_s": total("pipeline.oracle_ratios"),
        "lsqfit.solve_s": total("lsqfit.lsq_fit_batch"),
        "simulate.spectra_per_s": rate(attr_sum("simulate.simulate_dataset", "spectra"),
                                       total("simulate.simulate_dataset")),
        "simulate.signal_s": total("simulate.linear_combination"),
        "simulate.baseline_s": total("simulate.generate_baseline"),
        "simulate.lipids_s": total("simulate.generate_lipids"),
        "simulate.noise_s": total("simulate.add_noise"),
        "dataset.stack_s": total("dataset.dataset_from_labeled"),
        "fileio.write_dataset_s": total("fileio.write_dataset"),
        "fileio.dataset_bytes_per_spectrum": None,
        "fileio.read_dataset_spectra_per_s": rate(attr_sum("fileio.read_dataset", "spectra"),
                                                  total("fileio.read_dataset")),
        "fileio.read_model_s": total("fileio.read_model"),
        "fileio.model_bytes": None,
        "fileio.write_outputs_s": plus(total("fileio.write_report"),
                                       total("fileio.write_samples_csv"),
                                       total("fileio.write_predictions_csv")),
    }
    if out["forest.fit_s"] is not None:
        grown = attr_sum("forest.fit_forest", "trees")
        out["forest.s_per_tree"] = (out["forest.fit_s"] - (out["forest.oob_curve_s"] or 0.0)) / grown
    if out["forest.predict_s"]:
        work = sum(s["attrs"]["rows"] * s["attrs"]["trees"] for s in by_name["forest.predict_matrix"])
        out["forest.predict_rows_trees_per_s"] = work / out["forest.predict_s"]
    if "fileio.write_dataset" in by_name:
        out["fileio.dataset_bytes_per_spectrum"] = (
            attr_sum("fileio.write_dataset", "bytes") / attr_sum("fileio.write_dataset", "spectra"))
    if "fileio.read_model" in by_name:
        out["fileio.model_bytes"] = float(by_name["fileio.read_model"][0]["attrs"]["bytes"])
    # the model trained in this phase, else the one it read
    stats = [s["attrs"] for name in ("forest.fit_forest", "fileio.read_model")
             for s in by_name.get(name, ()) if "nodes_per_tree" in s["attrs"]]
    out["forest.nodes_per_tree"] = stats[0]["nodes_per_tree"] if stats else None
    out["forest.depth_per_tree"] = stats[0]["depth_per_tree"] if stats else None
    out["forest.model_resident_mb"] = stats[0]["resident_mb"] if stats else None
    return out


def layer_metrics(setup_spans, round_spans, untraced_walls, traced_walls):
    """Per-layer metric values for one traced run.

    A layer the timed rounds enter is reported as the median over the
    traced rounds; a layer only the set-up enters is reported from the
    set-up; a layer neither enters reads 0.
    """
    setup = phase_metrics(setup_spans)
    rounds = [phase_metrics(spans) for spans in round_spans]
    values = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(untraced_walls)
        else:
            timed = [r[name] for r in rounds if r[name] is not None]
            if timed:
                value = statistics.median(timed)
            elif setup[name] is not None:
                value = setup[name]
            else:
                value = 0.0
        values[name] = {"value": value, "unit": unit}
    return values
