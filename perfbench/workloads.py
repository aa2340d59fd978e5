"""The three workloads: their inputs, the CLI calls they time, and the checks of their outputs.

Every workload builds its inputs from the benchmark seed alone, runs the
program with ``--threads 2`` wherever a verb takes a thread count, and
ends with the same six accuracy figures: the forest's median relative
error on the workload's training-protocol spectra and on a second-protocol
set, and the least-squares oracle's on the training-protocol spectra.
Where the timed calls do not produce a figure, the check step computes it
through the program's library after the clock has stopped.
"""

import json
import math
import os

import numpy as np

import checks

THREADS = "2"
N_TREES = 20
MAX_FEATURES = 64
MIN_LEAF = 5
# Second acquisition protocol; the first is the program's default, 2500 Hz / 1024 points.
CROSS_ACQUISITION = {"spectral_width_hz": 2000.0, "n_points": 400, "transmitter_freq_mhz": 127.7,
                     "echo_time_ms": 35.0, "repetition_time_ms": 2000.0}
TRAIN_ACQUISITION = {"spectral_width_hz": 2500.0, "n_points": 1024, "transmitter_freq_mhz": 127.7,
                     "echo_time_ms": 35.0, "repetition_time_ms": 2000.0}
SAMPLED_ROWS = 16  # rows whose features and trees are recomputed in plain Python
PREFIX_TREES = 2   # trees retrained on 1 thread to compare with the 2-thread model

ACCURACY = [
    ("naa_cr_median_err", "native", "NAA/Cr"),
    ("cho_cr_median_err", "native", "Cho/Cr"),
    ("cross_naa_cr_median_err", "cross", "NAA/Cr"),
    ("cross_cho_cr_median_err", "cross", "Cho/Cr"),
    ("oracle_naa_cr_median_err", "oracle", "NAA/Cr"),
    ("oracle_cho_cr_median_err", "oracle", "Cho/Cr"),
]


def derived_seeds(seed):
    return {"train": 10 * seed + 1, "test": 10 * seed + 2, "cross": 10 * seed + 3,
            "native": 10 * seed + 4, "simulated": 10 * seed + 5, "forest": seed}


def simulate_op(seed, n, output, cross=False):
    op = ["simulate", "--seed", str(seed), "--n-spectra", str(n), "--output", output,
          "--threads", THREADS]
    return op + ["--config", "cross_protocol.json"] if cross else op


def train_op(seed):
    return ["train", "--dataset", "train.json", "--output", "model.json", "--seed", str(seed),
            "--trees", str(N_TREES), "--max-features", str(MAX_FEATURES),
            "--min-leaf", str(MIN_LEAF), "--threads", THREADS]


def forest_config(seed, n_trees=N_TREES):
    from mrsquant.forest import ForestConfig

    return ForestConfig(n_trees=n_trees, max_features=MAX_FEATURES, min_leaf_size=MIN_LEAF,
                        max_depth=None, rng_seed=seed)


def median_errors(estimates, labels):
    return [float(np.median(checks.relative_errors(estimates[:, t], labels[:, t])))
            for t in range(labels.shape[1])]


def oracle_errors(dataset, labels):
    from mrsquant.pipeline import oracle_ratios

    est, ok = oracle_ratios(dataset, dataset.target_names)
    return median_errors(est[ok], labels[ok])


def accuracy(target_names, native, cross, oracle):
    by_kind = {"native": native, "cross": cross, "oracle": oracle}
    return {metric: by_kind[kind][target_names.index(name)] for metric, kind, name in ACCURACY}


def sample_rows(n, seed):
    rng = np.random.default_rng([seed, 99])
    return np.sort(rng.choice(n, size=min(SAMPLED_ROWS, n), replace=False))


class Workload:
    """Calls run with the input directory, ``data``, as working directory.

    Set-up calls write the inputs there; each timed round writes its
    outputs to a fresh subdirectory ``out`` of it.
    """

    name = ""

    def __init__(self, seed):
        self.seed = seed
        self.seeds = derived_seeds(seed)
        self.data = None

    def path(self, *parts):
        return os.path.join(self.data, *parts)

    def prepare(self):
        with open(self.path("cross_protocol.json"), "w", encoding="utf-8") as f:
            json.dump({"acquisition": CROSS_ACQUISITION}, f)

    def check(self, out):
        """(problems, accuracy figures) for the outputs a round wrote to out."""
        raise NotImplementedError


class Experiment(Workload):
    name = "experiment"
    N_TRAIN = 4000
    N_TEST = 2000
    N_CROSS = 2000
    N_NOISELESS = 64

    def prepare(self):
        super().prepare()
        config = {"experiment": "synthetic-synthetic", "seed": self.seeds["forest"],
                  "forest": {"n_trees": N_TREES, "max_features": MAX_FEATURES,
                             "min_leaf_size": MIN_LEAF},
                  "datasets": {"train": "train.json", "test": "test.json"}}
        with open(self.path("experiment.json"), "w", encoding="utf-8") as f:
            json.dump(config, f)

    def setup_ops(self):
        s = self.seeds
        return [simulate_op(s["train"], self.N_TRAIN, "train.json"),
                simulate_op(s["test"], self.N_TEST, "test.json"),
                simulate_op(s["cross"], self.N_CROSS, "cross.json", cross=True)]

    def round_ops(self, out):
        return [["evaluate", "--config", "experiment.json", "--output", f"{out}/report.json",
                 "--csv", f"{out}/samples.csv", "--threads", THREADS]]

    def outputs(self):
        return ["report.json", "samples.csv"]

    def check(self, out):
        from mrsquant import fileio
        from mrsquant.pipeline import predict_dataset, train_model

        test = checks.load_dataset_file(self.path("test.json"), spectra=False)
        train = checks.load_dataset_file(self.path("train.json"), spectra=False)
        with open(self.path(out, "report.json"), encoding="utf-8") as f:
            report = json.load(f)
        samples = checks.load_samples_csv(self.path(out, "samples.csv"))
        names = test["target_names"]
        problems = checks.check_report(report, samples, test["labels"], names)
        if problems:
            return problems, None
        forest = np.column_stack([samples[(n, "forest")]["estimate"] for n in names])
        oracle = np.column_stack([samples[(n, "oracle")]["estimate"] for n in names])
        problems += checks.check_beats_median_predictor(forest, test["labels"], train["labels"], names)
        baseline = [t["baseline_amplitude"] for t in test["truth"]]
        problems += checks.check_forest_beats_oracle(forest, oracle, test["labels"], baseline, names)
        problems += self.check_noiseless_oracle()

        model = train_model(fileio.read_dataset(self.path("train.json")),
                            forest_config(self.seeds["forest"]), threads=int(THREADS))
        again = predict_dataset(model, fileio.read_dataset(self.path("test.json")))
        if not np.array_equal(again, forest):
            problems.append("retraining with the report's settings does not reproduce its estimates")
        cross = checks.load_dataset_file(self.path("cross.json"), spectra=False)
        cross_est = predict_dataset(model, fileio.read_dataset(self.path("cross.json")),
                                    allow_resample=True)
        ok = np.isfinite(oracle).all(axis=1)
        figures = accuracy(names, median_errors(forest, test["labels"]),
                           median_errors(cross_est, cross["labels"]),
                           median_errors(oracle[ok], test["labels"][ok]))
        return problems, figures

    def check_noiseless_oracle(self):
        from mrsquant.basis import default_brain_basis
        from mrsquant.dataset import dataset_from_labeled
        from mrsquant.fileio import acquisition_from_dict
        from mrsquant.pipeline import oracle_ratios
        from mrsquant.simulate import SimulationConfig, simulate_dataset

        config = SimulationConfig(
            basis=default_brain_basis(acquisition_from_dict(TRAIN_ACQUISITION), 4.7),
            n_spectra=self.N_NOISELESS, rng_seed=self.seeds["test"],
            t2_scale_range=(1.0, 1.0), snr_range=(math.inf, math.inf),
            baseline_amplitude_range=(0.0, 0.0), lipid_amplitude_range=(0.0, 0.0))
        dataset = dataset_from_labeled(simulate_dataset(config), target_names=config.target_names)
        est, ok = oracle_ratios(dataset, dataset.target_names)
        return checks.check_oracle_exact(est, ok, dataset.labels)


class Quantify(Workload):
    name = "quantify"
    N_TRAIN = 3000
    N_NATIVE = 3000
    N_CROSS = 3000

    def setup_ops(self):
        s = self.seeds
        return [simulate_op(s["train"], self.N_TRAIN, "train.json"),
                train_op(s["forest"]),
                simulate_op(s["native"], self.N_NATIVE, "native.json"),
                simulate_op(s["cross"], self.N_CROSS, "cross.json", cross=True)]

    def round_ops(self, out):
        return [["predict", "--model", "model.json", "--spectra", "native.json",
                 "--output", f"{out}/native_pred.csv", "--threads", THREADS],
                ["predict", "--model", "model.json", "--spectra", "cross.json",
                 "--output", f"{out}/cross_pred.csv", "--preprocess", "--threads", THREADS]]

    def outputs(self):
        return ["native_pred.csv", "cross_pred.csv"]

    def check(self, out):
        from mrsquant import fileio
        from mrsquant.pipeline import train_model

        with open(self.path("model.json"), encoding="utf-8") as f:
            model = json.load(f)
        names = model["target_names"]
        grid = np.asarray(model["feature"]["grid_ppm"])
        native = checks.load_dataset_file(self.path("native.json"))
        cross = checks.load_dataset_file(self.path("cross.json"))
        problems = checks.check_axis(native, "native.json") + checks.check_axis(cross, "cross.json")
        axis = checks.ppm_axis(native["acquisition"], native["reference_ppm"])
        window = axis[(axis >= checks.CROP_PPM[0]) & (axis <= checks.CROP_PPM[1])]
        if window.shape != grid.shape or np.max(np.abs(window - grid)) > 1e-9:
            problems.append("model grid is not the training axis cropped to the window")
            return problems, None
        errors = {}
        for label, data, csv_name in (("native", native, "native_pred.csv"),
                                      ("cross", cross, "cross_pred.csv")):
            csv_names, pred = checks.load_predictions_csv(self.path(out, csv_name))
            if csv_names != names or data["target_names"] != names or len(pred) != len(data["labels"]):
                problems.append(f"{csv_name}: targets or row count differ from the inputs")
                return problems, None
            rows = sample_rows(len(pred), self.seed)
            if label == "native":
                feats = checks.native_features(data["values"][rows], axis)
            else:
                feats = checks.cross_features(data["values"][rows], data["acquisition"],
                                              data["reference_ppm"], grid)
            expected = checks.forest_estimates(model, feats)
            problems += checks.check_predictions(expected, pred, rows, csv_name)
            errors[label] = median_errors(pred, data["labels"])
        problems += checks.check_cross_within_twice(errors["native"], errors["cross"], names)

        alone = train_model(fileio.read_dataset(self.path("train.json")),
                            forest_config(self.seeds["forest"], PREFIX_TREES), threads=1)
        problems += checks.check_tree_prefix(model, checks.trees_doc(alone), PREFIX_TREES)
        oracle = oracle_errors(fileio.read_dataset(self.path("native.json")), native["labels"])
        return problems, accuracy(names, errors["native"], errors["cross"], oracle)


class Simulate(Workload):
    name = "simulate"
    N_TRAIN = 3000
    N_CROSS = 2000
    N_SIMULATED = 4000

    def setup_ops(self):
        s = self.seeds
        return [simulate_op(s["train"], self.N_TRAIN, "train.json"),
                train_op(s["forest"]),
                simulate_op(s["cross"], self.N_CROSS, "cross.json", cross=True)]

    def round_ops(self, out):
        return [simulate_op(self.seeds["simulated"], self.N_SIMULATED, f"{out}/simulated.json")]

    def outputs(self):
        return ["simulated.json"]

    def reference_spectra(self, rows):
        from mrsquant.basis import default_brain_basis
        from mrsquant.fileio import acquisition_from_dict
        from mrsquant.simulate import SimulationConfig, simulate_spectrum

        config = SimulationConfig(
            basis=default_brain_basis(acquisition_from_dict(TRAIN_ACQUISITION), 4.7),
            n_spectra=self.N_SIMULATED, rng_seed=self.seeds["simulated"])
        return [simulate_spectrum(config, int(i)) for i in rows]

    def check(self, out):
        from mrsquant import fileio
        from mrsquant.pipeline import predict_dataset
        from mrsquant.simulate import DEFAULT_CONCENTRATION_RANGES

        data = checks.load_dataset_file(self.path(out, "simulated.json"))
        if len(data["labels"]) != self.N_SIMULATED:
            return [f"simulated.json holds {len(data['labels'])} spectra, not {self.N_SIMULATED}"], None
        problems = checks.check_axis(data, "simulated.json")
        rows = np.union1d(sample_rows(self.N_SIMULATED, self.seed), [0, self.N_SIMULATED - 1])
        reference = self.reference_spectra(rows)
        problems += checks.check_simulated_rows(data, rows, [r.spectrum.values for r in reference])
        for i, r in zip(rows, reference):
            expected = [r.labels[n] for n in data["target_names"]]
            if data["labels"][i].tolist() != expected:
                problems.append(f"row {i}: labels differ from simulate_spectrum")
                break
        problems += checks.check_labels(data, DEFAULT_CONCENTRATION_RANGES)

        model = fileio.read_model(self.path("model.json"))
        names = model.target_names
        simulated = fileio.read_dataset(self.path(out, "simulated.json"))
        cross = fileio.read_dataset(self.path("cross.json"))
        figures = accuracy(names,
                           median_errors(predict_dataset(model, simulated), simulated.labels),
                           median_errors(predict_dataset(model, cross, allow_resample=True),
                                         cross.labels),
                           oracle_errors(simulated, simulated.labels))
        return problems, figures


WORKLOADS = {w.name: w for w in (Experiment, Quantify, Simulate)}
