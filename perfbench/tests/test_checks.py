"""The output checks accept the program's outputs and reject deliberately wrong ones.

Run with: python3 -m pytest perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
from mrsquant import fileio  # noqa: E402
from mrsquant.basis import default_brain_basis  # noqa: E402
from mrsquant.cli import main as cli_main  # noqa: E402
from mrsquant.evaluate import summarize_errors  # noqa: E402
from mrsquant.forest import ForestConfig  # noqa: E402
from mrsquant.pipeline import features_for_dataset, train_model  # noqa: E402
from mrsquant.simulate import (  # noqa: E402
    DEFAULT_CONCENTRATION_RANGES,
    SimulationConfig,
    simulate_spectrum,
)

CROSS = {"spectral_width_hz": 2000.0, "n_points": 400, "transmitter_freq_mhz": 127.7,
         "echo_time_ms": 35.0, "repetition_time_ms": 2000.0}
TRAIN = {"spectral_width_hz": 2500.0, "n_points": 1024, "transmitter_freq_mhz": 127.7,
         "echo_time_ms": 35.0, "repetition_time_ms": 2000.0}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("bench")
    (d / "cross.cfg.json").write_text(json.dumps({"acquisition": CROSS}))
    for name, seed, n, extra in (("train.json", 1, 60, []), ("native.json", 2, 24, []),
                                 ("cross.json", 3, 24, ["--config", str(d / "cross.cfg.json")])):
        assert cli_main(["simulate", "--seed", str(seed), "--n-spectra", str(n),
                         "--output", str(d / name)] + extra) == 0
    assert cli_main(["train", "--dataset", str(d / "train.json"), "--output", str(d / "model.json"),
                     "--seed", "4", "--trees", "3", "--max-features", "16"]) == 0
    for name, extra in (("native", []), ("cross", ["--preprocess"])):
        assert cli_main(["predict", "--model", str(d / "model.json"), "--spectra",
                         str(d / f"{name}.json"), "--output", str(d / f"{name}.csv")] + extra) == 0
    return d


def model_doc(files):
    return json.loads((files / "model.json").read_text())


def recomputed(files, name):
    doc = model_doc(files)
    data = checks.load_dataset_file(files / f"{name}.json")
    if name == "native":
        feats = checks.native_features(data["values"], checks.ppm_axis(data["acquisition"],
                                                                       data["reference_ppm"]))
    else:
        feats = checks.cross_features(data["values"], data["acquisition"], data["reference_ppm"],
                                      np.asarray(doc["feature"]["grid_ppm"]))
    return doc, data, feats


class TestFeaturesAndTrees:
    @pytest.mark.parametrize("name", ["native", "cross"])
    def test_independent_features_match_the_program(self, files, name):
        doc, data, feats = recomputed(files, name)
        model = fileio.read_model(files / "model.json")
        program = features_for_dataset(model.feature_meta, fileio.read_dataset(files / f"{name}.json"),
                                       allow_resample=True)
        np.testing.assert_allclose(feats, program, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("name", ["native", "cross"])
    def test_program_predictions_pass(self, files, name):
        doc, data, feats = recomputed(files, name)
        _, pred = checks.load_predictions_csv(files / f"{name}.csv")
        rows = np.arange(len(pred))
        assert checks.check_predictions(checks.forest_estimates(doc, feats), pred, rows, name) == []

    def test_perturbed_estimate_is_rejected(self, files):
        doc, data, feats = recomputed(files, "native")
        _, pred = checks.load_predictions_csv(files / "native.csv")
        pred[5, 1] *= 1.0 + 1e-7
        rows = np.arange(len(pred))
        assert checks.check_predictions(checks.forest_estimates(doc, feats), pred, rows, "native")

    def test_shifted_feature_row_is_rejected(self, files):
        doc, data, feats = recomputed(files, "native")
        model = fileio.read_model(files / "model.json")
        wrong = model.predict_matrix(np.roll(feats, 1, axis=1))
        rows = np.arange(len(wrong))
        assert checks.check_predictions(checks.forest_estimates(doc, feats), wrong, rows, "native")


class TestTreePrefix:
    def test_one_thread_prefix_matches_and_an_edit_does_not(self, files):
        doc = model_doc(files)
        alone = train_model(fileio.read_dataset(files / "train.json"),
                            ForestConfig(n_trees=2, max_features=16, min_leaf_size=5, rng_seed=4))
        prefix = checks.trees_doc(alone)
        assert checks.check_tree_prefix(doc, prefix, 2) == []
        prefix["forests"]["NAA/Cr"][1]["threshold"][0] += 1e-12
        assert checks.check_tree_prefix(doc, prefix, 2)


class TestSimulatedFile:
    def reference(self, rows):
        config = SimulationConfig(basis=default_brain_basis(fileio.acquisition_from_dict(TRAIN), 4.7),
                                  n_spectra=24, rng_seed=2)
        return [simulate_spectrum(config, int(i)).spectrum.values for i in rows]

    def test_program_output_passes(self, files):
        data = checks.load_dataset_file(files / "native.json")
        rows = [0, 7, 23]
        assert checks.check_simulated_rows(data, rows, self.reference(rows)) == []
        assert checks.check_labels(data, DEFAULT_CONCENTRATION_RANGES) == []
        assert checks.check_axis(data, "native") == []

    def test_reordered_rows_are_rejected(self, files, tmp_path):
        doc = json.loads((files / "native.json").read_text())
        doc["records"][6], doc["records"][7] = doc["records"][7], doc["records"][6]
        (tmp_path / "swapped.json").write_text(json.dumps(doc))
        data = checks.load_dataset_file(tmp_path / "swapped.json")
        assert checks.check_simulated_rows(data, [0, 7, 23], self.reference([0, 7, 23]))

    def test_wrong_label_and_out_of_range_label_are_rejected(self, files):
        data = checks.load_dataset_file(files / "native.json", spectra=False)
        data["labels"][3, 0] = np.nextafter(data["labels"][3, 0], 9.0)
        assert checks.check_labels(data, DEFAULT_CONCENTRATION_RANGES)
        data = checks.load_dataset_file(files / "native.json", spectra=False)
        narrow = dict(DEFAULT_CONCENTRATION_RANGES, NAA=(0.5, 0.6))
        assert checks.check_labels(data, narrow)

    def test_shifted_axis_is_rejected(self, files):
        data = checks.load_dataset_file(files / "native.json", spectra=False)
        data["ppm_axis"] = list(np.asarray(data["ppm_axis"]) + 1e-6)
        assert checks.check_axis(data, "native")


def fake_report(truth, forest, oracle, names):
    summary = {n: {"forest": summarize_errors(forest[:, t], truth[:, t]),
                   "oracle": summarize_errors(oracle[:, t], truth[:, t])}
               for t, n in enumerate(names)}
    samples = {}
    for t, n in enumerate(names):
        for est_name, est in (("forest", forest), ("oracle", oracle)):
            samples[(n, est_name)] = {
                "index": list(range(len(truth))), "truth": truth[:, t].copy(),
                "estimate": est[:, t].copy(),
                "error": np.abs(est[:, t] - truth[:, t]) / np.abs(truth[:, t])}
    return {"summary": summary}, samples


class TestReport:
    names = ["Cho/Cr", "NAA/Cr"]

    def data(self):
        rng = np.random.default_rng(5)
        truth = rng.uniform(0.2, 2.0, size=(40, 2))
        forest = truth * (1 + 0.05 * rng.normal(size=truth.shape))
        oracle = truth * (1 + 0.2 * rng.normal(size=truth.shape))
        return truth, forest, oracle

    def test_consistent_report_passes(self):
        truth, forest, oracle = self.data()
        report, samples = fake_report(truth, forest, oracle, self.names)
        assert checks.check_report(report, samples, truth, self.names) == []

    def test_perturbed_estimate_is_rejected(self):
        truth, forest, oracle = self.data()
        report, samples = fake_report(truth, forest, oracle, self.names)
        samples[("NAA/Cr", "forest")]["estimate"][int(np.argsort(
            samples[("NAA/Cr", "forest")]["error"])[20])] *= 1.001
        assert checks.check_report(report, samples, truth, self.names)

    def test_reordered_truth_is_rejected(self):
        truth, forest, oracle = self.data()
        report, samples = fake_report(truth, forest, oracle, self.names)
        assert checks.check_report(report, samples, truth[::-1], self.names)

    def test_accuracy_gates(self):
        truth, forest, oracle = self.data()
        baseline = np.arange(40.0)
        assert checks.check_beats_median_predictor(forest, truth, truth, self.names) == []
        assert checks.check_beats_median_predictor(oracle * 1.5, truth, truth, self.names)
        assert checks.check_forest_beats_oracle(forest, oracle, truth, baseline, self.names) == []
        assert checks.check_forest_beats_oracle(oracle, forest, truth, baseline, self.names)
        assert list(checks.high_baseline_quartile(baseline)) == list(range(39, 29, -1))
        assert checks.check_cross_within_twice([0.1, 0.1], [0.19, 0.2], self.names) == []
        assert checks.check_cross_within_twice([0.1, 0.1], [0.21, 0.1], self.names)

    def test_oracle_exactness(self):
        labels = np.full((4, 2), 0.5)
        ok = np.ones(4, dtype=bool)
        assert checks.check_oracle_exact(labels.copy(), ok, labels) == []
        est = labels.copy()
        est[2, 1] += 1e-8
        assert checks.check_oracle_exact(est, ok, labels)
        ok[0] = False
        assert checks.check_oracle_exact(labels.copy(), ok, labels)
