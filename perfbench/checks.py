"""Checks of the program's outputs, written apart from the program.

Files are decoded from their documented formats with this module's own
code (JSON; spectra base64 of little-endian complex128; RFC 4180 CSV),
features are recomputed from their definitions and trees are walked in
plain Python.  Each check returns a list of problems; an empty list means
the output passed.
"""

import base64
import csv
import json

import numpy as np

# Feature definition of the model: the real spectrum cropped to this window,
# divided by its maximum inside the Cr window.
CROP_PPM = (0.2, 4.3)
CR_PPM = (2.95, 3.10)
TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


# ------------------------------------------------------------------ decoding

def load_dataset_file(path, spectra=True):
    """Header, labels, truth records and (optionally) spectra of a dataset file."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("format") != "mrsquant-dataset":
        raise ValueError(f"{path}: not a dataset file")
    records = doc.pop("records")
    n_points = doc["acquisition"]["n_points"]
    names = doc["target_names"]
    out = dict(doc)
    out["labels"] = np.array([[r["labels"][t] for t in names] for r in records], dtype=np.float64)
    out["truth"] = [r["truth_params"] for r in records]
    if spectra:
        values = np.empty((len(records), n_points), dtype=np.complex128)
        for i, r in enumerate(records):
            values[i] = np.frombuffer(base64.b64decode(r["spectrum_b64"], validate=True), dtype="<c16")
        out["values"] = values
    return out


def load_predictions_csv(path):
    """(target names, (n, n_targets) estimates) from a predictions CSV, rows in file order."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    names = rows[0][1:-1]
    index = [int(r[0]) for r in rows[1:]]
    if index != list(range(len(index))):
        raise ValueError(f"{path}: sample_index is not 0..n-1 in order")
    return names, np.array([[float(v) for v in r[1:-1]] for r in rows[1:]], dtype=np.float64)


def load_samples_csv(path):
    """{(target, estimator): {"truth", "estimate", "error"} arrays in sample order}."""
    out = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        for row in reader:
            block = out.setdefault((row["target"], row["estimator"]),
                                   {"index": [], "truth": [], "estimate": [], "error": []})
            block["index"].append(int(row["sample_index"]))
            for key, col in (("truth", "truth"), ("estimate", "estimate"), ("error", "relative_error")):
                block[key].append(float(row[col]))
    for key, block in out.items():
        if block["index"] != list(range(len(block["index"]))):
            raise ValueError(f"{path}: rows of {key} are not in sample order")
        for col in ("truth", "estimate", "error"):
            block[col] = np.array(block[col], dtype=np.float64)
    return out


# ------------------------------------------------------------------ definitions

def ppm_axis(acquisition, reference_ppm):
    """Descending axis: bin j at reference + (sw/2 - j*sw/n) / f0; bin n//2 is DC."""
    sw = acquisition["spectral_width_hz"]
    n = acquisition["n_points"]
    return reference_ppm + (sw / 2.0 - np.arange(n) * (sw / n)) / acquisition["transmitter_freq_mhz"]


def relative_errors(estimates, truths):
    return np.abs(np.asarray(estimates) - truths) / np.abs(truths)


def cr_scaled(real_rows, grid):
    window = (grid >= CR_PPM[0]) & (grid <= CR_PPM[1])
    return real_rows / real_rows[:, window].max(axis=1, keepdims=True)


def native_features(values, axis):
    """Crop to the quantification window and divide each row by its Cr maximum."""
    window = (axis >= CROP_PPM[0]) & (axis <= CROP_PPM[1])
    return cr_scaled(values[:, window].real, axis[window])


def cross_features(values, acquisition, reference_ppm, grid):
    """Real part of each spectrum's FID, summed as a DTFT at the grid's frequencies, Cr-scaled.

    The FID comes from the inverse DFT written as a sum: axis position j
    holds frequency (n//2 - j) * sw / n.
    """
    sw = acquisition["spectral_width_hz"]
    n = acquisition["n_points"]
    k = np.arange(n)
    j = np.arange(n)
    fid = values @ np.exp(2j * np.pi * np.outer(n // 2 - j, k) / n) / n
    hz = (np.asarray(grid) - reference_ppm) * acquisition["transmitter_freq_mhz"]
    dtft = fid @ np.exp(-2j * np.pi * np.outer(k, hz) / sw)
    return cr_scaled(dtft.real, np.asarray(grid))


def walk_tree(tree, x):
    node = 0
    while tree["feature"][node] >= 0:
        if x[tree["feature"][node]] <= tree["threshold"][node]:
            node = tree["left"][node]
        else:
            node = tree["right"][node]
    return tree["value"][node]


def forest_estimate(trees, x):
    return sum(walk_tree(t, x) for t in trees) / len(trees)


def pearson_r(a, b):
    da = a - a.mean()
    db = b - b.mean()
    return float(np.sum(da * db) / np.sqrt(np.sum(da * da) * np.sum(db * db)))


# ------------------------------------------------------------------ checks

def check_axis(dataset, label):
    axis = ppm_axis(dataset["acquisition"], dataset["reference_ppm"])
    if np.max(np.abs(axis - np.asarray(dataset["ppm_axis"]))) > 1e-9:
        return [f"{label}: stored ppm axis differs from the acquisition's axis"]
    return []


def check_report(report, samples, test_labels, target_names):
    """Report medians and Pearson r recomputed from the samples CSV and the test labels, to 1e-12."""
    problems = []
    for t, name in enumerate(target_names):
        truth = test_labels[:, t]
        for estimator in ("forest", "oracle"):
            block = samples.get((name, estimator))
            if block is None:
                problems.append(f"{name}: samples CSV has no {estimator} rows")
                continue
            if not np.array_equal(block["truth"], truth):
                problems.append(f"{name}/{estimator}: CSV truth column differs from the test labels")
                continue
            ok = np.isfinite(block["estimate"])
            err = relative_errors(block["estimate"][ok], truth[ok])
            if not np.allclose(err, block["error"][ok], rtol=0, atol=1e-12):
                problems.append(f"{name}/{estimator}: CSV relative errors differ from |e-t|/|t|")
            stats = report["summary"][name][estimator]
            median = float(np.median(err))
            if abs(median - stats["median_error"]) > 1e-12:
                problems.append(f"{name}/{estimator}: report median {stats['median_error']!r} "
                                f"!= recomputed {median!r}")
            r = pearson_r(block["estimate"][ok], truth[ok])
            if abs(r - stats["pearson_r"]) > 1e-12:
                problems.append(f"{name}/{estimator}: report pearson_r {stats['pearson_r']!r} "
                                f"!= recomputed {r!r}")
    return problems


def check_beats_median_predictor(forest_est, truth, train_labels, target_names):
    """Forest median error at most half that of predicting the training-label median."""
    problems = []
    for t, name in enumerate(target_names):
        forest = np.median(relative_errors(forest_est[:, t], truth[:, t]))
        naive = np.median(relative_errors(np.median(train_labels[:, t]), truth[:, t]))
        if not forest <= 0.5 * naive:
            problems.append(f"{name}: forest median error {forest:.4f} > half of the "
                            f"training-median predictor's {naive:.4f}")
    return problems


def high_baseline_quartile(baseline):
    """Indices of the quarter of rows with the highest baseline amplitude."""
    order = np.argsort(-np.asarray(baseline), kind="stable")
    return order[: len(order) // 4]


def check_forest_beats_oracle(forest_est, oracle_est, truth, baseline, target_names):
    """On the highest-baseline quartile, the forest's median error is below the oracle's."""
    problems = []
    rows = high_baseline_quartile(baseline)
    for t, name in enumerate(target_names):
        f_err = np.median(relative_errors(forest_est[rows, t], truth[rows, t]))
        ok = rows[np.isfinite(oracle_est[rows, t])]
        o_err = np.median(relative_errors(oracle_est[ok, t], truth[ok, t]))
        if not f_err < o_err:
            problems.append(f"{name}: high-baseline forest median {f_err:.4f} >= oracle {o_err:.4f}")
    return problems


def check_oracle_exact(estimates, ok, labels, tol=1e-9):
    """On noiseless spectra the least-squares oracle returns the labels."""
    if not ok.all():
        return [f"oracle refused {int((~ok).sum())} noiseless spectra"]
    worst = float(np.max(np.abs(estimates - labels)))
    return [] if worst <= tol else [f"oracle misses noiseless labels by {worst:.3g}"]


def check_predictions(expected, predictions, rows, label, rtol=1e-9):
    """Predictions CSV rows equal the plain-Python forest walk to rtol."""
    got = predictions[rows]
    bad = np.abs(got - expected) > rtol * np.abs(expected)
    if bad.any():
        r, t = np.argwhere(bad)[0]
        return [f"{label}: row {rows[r]} target {t}: CSV {float(got[r, t])!r} "
                f"!= recomputed {float(expected[r, t])!r}"]
    return []


def forest_estimates(model_doc, features):
    names = model_doc["target_names"]
    return np.array([[forest_estimate(model_doc["forests"][n], list(x)) for n in names]
                     for x in features])


def check_cross_within_twice(native_err, cross_err, target_names):
    problems = []
    for name, a, b in zip(target_names, native_err, cross_err):
        if not b <= 2.0 * a:
            problems.append(f"{name}: cross-protocol median error {b:.4f} > 2 x {a:.4f}")
    return problems


def trees_doc(model):
    """A trained model's trees laid out as in a model file, to compare with a parsed one."""
    return {"forests": {name: [{k: getattr(t, k).tolist() for k in TREE_FIELDS} for t in trees]
                        for name, trees in zip(model.target_names, model.forests)}}


def check_tree_prefix(model_doc, prefix_doc, n_trees):
    """The first n_trees of each ensemble equal, field for field, those of prefix_doc."""
    problems = []
    for name in model_doc["target_names"]:
        full = model_doc["forests"][name][:n_trees]
        alone = prefix_doc["forests"][name]
        if len(alone) != n_trees or full != alone:
            problems.append(f"{name}: first {n_trees} trees differ from a 1-thread training of them")
    return problems


def check_simulated_rows(dataset, rows, reference_rows):
    """Stored spectra equal independently simulated ones, bit for bit."""
    for i, ref in zip(rows, reference_rows):
        if dataset["values"][i].tobytes() != np.ascontiguousarray(ref, dtype="<c16").tobytes():
            return [f"row {i} differs from simulate_spectrum(config, {i})"]
    return []


def check_labels(dataset, ranges):
    """Each label is its record's concentration over Cr and lies in its configured range."""
    problems = []
    for t, name in enumerate(dataset["target_names"]):
        metabolite = name.split("/")[0]
        lo, hi = ranges[metabolite]
        for i, truth in enumerate(dataset["truth"]):
            conc = truth["concentrations"]
            label = dataset["labels"][i, t]
            if label != conc[metabolite] / conc["Cr"]:
                problems.append(f"row {i} {name}: label {label!r} != concentration ratio")
                break
            if not lo <= label <= hi:
                problems.append(f"row {i} {name}: label {label!r} outside [{lo}, {hi}]")
                break
    return problems
