import hashlib
import math

import numpy as np
import pytest

from mrsquant import evaluate, fileio
from mrsquant.basis import default_brain_basis
from mrsquant.dataset import Dataset, dataset_from_labeled
from mrsquant.errors import GridCompatibilityError, UndefinedResultError, ValidationError
from mrsquant.evaluate import (
    EXPERIMENT_NAMES,
    ExperimentSpec,
    kfold_split,
    r_score,
    relative_errors,
    run_experiment,
    summarize_errors,
)
from mrsquant.forest import ForestConfig, fit_forest, slice_forest
from mrsquant.lsqfit import lsq_fit_batch
from mrsquant.pipeline import oracle_ratios, predict_dataset, train_model
from mrsquant.signal import AcquisitionParams
from mrsquant.simulate import SimulationConfig, simulate_dataset

PARAMS = AcquisitionParams(spectral_width=2500.0, n_points=1024, transmitter_freq=127.7)
BASIS = default_brain_basis(PARAMS)


def make_dataset(n, seed, snr=(5.0, 50.0), baseline=(0.0, 0.5), lipid=(0.0, 1.0), t2=(0.6, 1.4)):
    cfg = SimulationConfig(
        basis=BASIS, n_spectra=n, rng_seed=seed, t2_scale_range=t2,
        snr_range=snr, baseline_amplitude_range=baseline, lipid_amplitude_range=lipid,
    )
    return dataset_from_labeled(simulate_dataset(cfg), target_names=cfg.target_names)


def clean_dataset(n, seed):
    # noiseless, artifact-free, basis linewidth: exactly representable by the basis
    return make_dataset(n, seed, snr=(math.inf, math.inf), baseline=(0.0, 0.0),
                        lipid=(0.0, 0.0), t2=(1.0, 1.0))


class TestRelativeError:
    def test_zero_at_equality(self):
        assert relative_errors([1.5], [1.5])[0] == 0.0

    def test_arithmetic(self):
        assert relative_errors([1.1], [1.0])[0] == pytest.approx(0.1)
        assert relative_errors([0.0], [2.0])[0] == 1.0

    def test_scale_invariance(self):
        c = np.array([3.0, -17.5, 1e-4])
        assert relative_errors(c * 1.3, c * 1.1) == pytest.approx(relative_errors([1.3], [1.1])[0])

    def test_zero_truth_rejected(self):
        with pytest.raises(UndefinedResultError):
            relative_errors([1.0, 2.0], [1.0, 0.0])


class TestRScore:
    def test_identity_is_one(self):
        v = np.array([1.0, 2.0, 5.0, 3.0])
        assert r_score(v, v) == 1.0

    def test_negation_is_minus_one(self):
        v = np.array([1.0, 2.0, 5.0, 3.0])
        assert r_score(-v, v) == -1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=50)
        for a, b in ((2.0, 0.0), (0.3, -4.0), (10.0, 100.0)):
            assert r_score(a * t + b, t) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(UndefinedResultError):
            r_score(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
        with pytest.raises(ValidationError):
            r_score(np.array([1.0]), np.array([1.0]))


class TestBoxplotStats:
    """The order statistics of the relative errors in summarize_errors' block.

    Truths are powers of two and estimates truth * (1 + e), so the relative
    errors are exactly e.
    """

    TRUTHS = np.array([1.0, 2.0, 4.0, 8.0])
    ORDER_KEYS = ("min_error", "q1_error", "median_error", "q3_error", "max_error")

    def test_single_value(self):
        stats = summarize_errors(self.TRUTHS * 6.0, self.TRUTHS)  # every error is 5
        assert all(stats[k] == 5.0 for k in (*self.ORDER_KEYS, "mean_error"))

    def test_even_length_median_is_midpoint(self):
        stats = summarize_errors(self.TRUTHS * (1 + np.array([1.0, 2.0, 3.0, 4.0])), self.TRUTHS)
        assert stats["median_error"] == 2.5
        assert stats["min_error"] == 1.0 and stats["max_error"] == 4.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        truths = 2.0 ** rng.integers(-3, 4, size=31)
        estimates = truths * (1 + rng.uniform(size=31))
        perm = rng.permutation(31)
        a, b = summarize_errors(estimates, truths), summarize_errors(estimates[perm], truths[perm])
        assert [a[k] for k in self.ORDER_KEYS] == [b[k] for k in self.ORDER_KEYS]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            summarize_errors([], [])


class TestKfold:
    def test_cohort_fold_shape(self):
        # 287 subjects in 10 folds: train/test split of 259/28 (or 258/29)
        folds = kfold_split(287, 10, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [28, 28, 28, 29, 29, 29, 29, 29, 29, 29]
        assert sum(sizes) == 287
        joined = np.sort(np.concatenate(folds))
        assert np.array_equal(joined, np.arange(287))

    def test_singleton_folds(self):
        folds = kfold_split(10, 10, seed=1)
        assert all(len(f) == 1 for f in folds)

    def test_deterministic(self):
        a = kfold_split(53, 7, seed=9)
        b = kfold_split(53, 7, seed=9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_disjoint_and_exhaustive(self):
        for n, k in ((17, 2), (29, 5), (100, 10)):
            folds = kfold_split(n, k, seed=3)
            joined = np.concatenate(folds)
            assert len(np.unique(joined)) == n == len(joined)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValidationError):
            kfold_split(5, 6, seed=0)


class TestIntegerValuedFloats:
    """An integer argument given as an integer-valued float acts as the integer does."""

    def test_simulation_seed(self):
        a, b = (dataset_from_labeled(simulate_dataset(SimulationConfig(basis=BASIS, n_spectra=3, rng_seed=s)))
                for s in (3, 3.0))
        assert np.array_equal(a.values, b.values) and np.array_equal(a.labels, b.labels)

    def test_slice_forest(self):
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(40, 5)), rng.normal(size=40)
        model = fit_forest(X, y, ForestConfig(n_trees=4, max_features=2, min_leaf_size=2, rng_seed=1))
        a, b = slice_forest(model, 2), slice_forest(model, 2.0)
        assert b.config == a.config and isinstance(b.config.n_trees, int)
        assert np.array_equal(b.predict_matrix(X), a.predict_matrix(X))

    def test_lsq_baseline_degree(self):
        data = clean_dataset(4, seed=71)
        bins = np.arange(data.params.n_points)
        a, b = (lsq_fit_batch(data.values.real, BASIS, bins, d) for d in (4, 4.0))
        assert np.array_equal(a, b)

    def test_kfold_seed(self):
        for fa, fb in zip(kfold_split(10, 2, 3), kfold_split(10, 2.0, 3.0)):
            assert np.array_equal(fa, fb)

    @pytest.mark.parametrize("value", [True, 2.5, 0])
    def test_boolean_fractional_or_small_tree_count_refused(self, value):
        with pytest.raises(ValidationError, match="n_trees"):
            ForestConfig(n_trees=value, max_features=1)


class TestExperiments:
    FOREST = ForestConfig(n_trees=20, max_features=32, min_leaf_size=3, rng_seed=5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError) as err:
            ExperimentSpec(name="bogus", forest=self.FOREST)
        assert "synthetic-synthetic" in str(err.value)

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_preprocess_resolved_once(self, name):
        cross = name in ("real-real-images", "synthetic-real-images")
        assert ExperimentSpec(name=name, forest=self.FOREST).preprocess is cross
        for given in (True, False):
            assert ExperimentSpec(name=name, forest=self.FOREST, preprocess=given).preprocess is given

    def test_memorization_run(self):
        # noiseless, artifact-free, fully grown single tree on its own data
        data = clean_dataset(40, seed=11)
        spec = ExperimentSpec(
            name="synthetic-synthetic",
            forest=ForestConfig(n_trees=1, max_features=215, min_leaf_size=1,
                                rng_seed=0, bootstrap="identity"),
        )
        report = run_experiment(spec, {"train": data, "test": data})
        for target in report.target_names:
            assert report.summary[target]["forest"]["median_error"] < 1e-6

    def test_synthetic_synthetic_report_shape(self):
        train = make_dataset(150, seed=21)
        test = make_dataset(40, seed=22)
        spec = ExperimentSpec(name="synthetic-synthetic", forest=self.FOREST)
        report = run_experiment(spec, {"train": train, "test": test})
        assert report.truth_source == "simulation_labels"
        assert set(report.target_names) == {"NAA/Cr", "Cho/Cr"}
        for target in report.target_names:
            block = report.summary[target]
            assert block["forest"]["min_error"] <= block["forest"]["median_error"] <= block["forest"]["max_error"]
            assert -1.0 <= block["forest"]["pearson_r"] <= 1.0
            assert block["oracle"] is not None
            per = report.per_sample[target]
            assert len(per["truth"]) == 40
            assert len(per["forest_error"]) == 40

    def test_oracle_beats_forest_on_clean_data(self):
        train = make_dataset(150, seed=31)
        test = clean_dataset(30, seed=32)
        spec = ExperimentSpec(name="synthetic-synthetic", forest=self.FOREST)
        report = run_experiment(spec, {"train": train, "test": test})
        for target in report.target_names:
            oracle = report.summary[target]["oracle"]["median_error"]
            forest = report.summary[target]["forest"]["median_error"]
            assert oracle < 1e-6
            assert oracle <= forest

    def test_kfold_experiment(self):
        data = make_dataset(60, seed=41, snr=(20.0, 50.0), baseline=(0.0, 0.2), lipid=(0.0, 0.3))
        spec = ExperimentSpec(name="real-real-spectra", forest=self.FOREST, seed=7, k_folds=4)
        report = run_experiment(spec, {"data": data})
        assert report.truth_source == "oracle_fit"
        assert report.experiment["k_folds"] == 4
        for target in report.target_names:
            per = report.per_sample[target]
            assert len(per["truth"]) == 60 - report.notes.get("oracle_failures", 0)
            assert not any(math.isnan(v) for v in per["forest_estimate"])

    def test_cross_protocol_experiment(self):
        train = make_dataset(120, seed=51, snr=(20.0, 50.0))
        mrsi_params = AcquisitionParams(2000.0, 400, 127.7)
        mrsi_basis = default_brain_basis(mrsi_params)
        cfg = SimulationConfig(basis=mrsi_basis, n_spectra=25, rng_seed=52, snr_range=(20.0, 50.0))
        test = dataset_from_labeled(simulate_dataset(cfg), target_names=cfg.target_names)
        spec = ExperimentSpec(name="synthetic-real-images", forest=self.FOREST, seed=3)
        report = run_experiment(spec, {"train": train, "test": test})
        assert report.truth_source == "oracle_fit"
        assert report.experiment["preprocess"] is True
        for target in report.target_names:
            assert len(report.per_sample[target]["forest_estimate"]) > 0

    def test_five_metabolite_targets(self):
        # extended config quantifies the four standard ratios
        cfg = SimulationConfig(
            basis=BASIS, n_spectra=50, rng_seed=88,
            concentration_ranges={
                "NAA": (0.5, 2.0), "Cho": (0.1, 0.6), "Cr": (0.5, 1.5),
                "mI": (0.2, 0.9), "Glx": (0.5, 1.8),
            },
            snr_range=(20.0, 60.0), baseline_amplitude_range=(0.0, 0.2),
            lipid_amplitude_range=(0.0, 0.3),
        )
        data = dataset_from_labeled(simulate_dataset(cfg), target_names=cfg.target_names)
        assert data.target_names == ["Cho/Cr", "Glx/Cr", "NAA/Cr", "mI/Cr"]
        spec = ExperimentSpec(name="real-real-spectra", forest=self.FOREST, seed=1, k_folds=3)
        report = run_experiment(spec, {"data": data})
        assert set(report.target_names) == {"NAA/Cr", "Cho/Cr", "mI/Cr", "Glx/Cr"}
        for target in report.target_names:
            assert len(report.per_sample[target]["truth"]) > 0

    def test_real_to_images_experiment(self):
        # stand-in "real" SVS training set, oracle-labeled, blind-tested on
        # a stand-in MRSI dataset under the other protocol
        train = make_dataset(80, seed=55, snr=(20.0, 60.0), baseline=(0.0, 0.2), lipid=(0.0, 0.3))
        mrsi_params = AcquisitionParams(2000.0, 400, 127.7)
        cfg = SimulationConfig(basis=default_brain_basis(mrsi_params), n_spectra=20, rng_seed=56,
                               snr_range=(20.0, 60.0))
        test = dataset_from_labeled(simulate_dataset(cfg), target_names=cfg.target_names)
        spec = ExperimentSpec(name="real-real-images", forest=self.FOREST, seed=2)
        report = run_experiment(spec, {"train": train, "test": test})
        assert report.truth_source == "oracle_fit"
        assert report.experiment["preprocess"] is True
        for target in report.target_names:
            assert report.summary[target]["oracle"] is None
            assert report.summary[target]["forest"]["median_error"] >= 0

    def test_grid_mismatch_without_preprocess_fails(self):
        train = make_dataset(30, seed=61)
        mrsi_params = AcquisitionParams(2000.0, 400, 127.7)
        cfg = SimulationConfig(basis=default_brain_basis(mrsi_params), n_spectra=5, rng_seed=62)
        test = dataset_from_labeled(simulate_dataset(cfg), target_names=cfg.target_names)
        spec = ExperimentSpec(name="synthetic-synthetic", forest=self.FOREST, preprocess=False)
        with pytest.raises(GridCompatibilityError):
            run_experiment(spec, {"train": train, "test": test})

    @pytest.mark.parametrize("name", ["synthetic-synthetic", "real-real-images"])
    def test_fewer_than_two_scored_spectra_refused_before_training(self, name, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a forest was trained")

        monkeypatch.setattr(evaluate, "train_model", no_training)
        # one test spectrum, or twenty of which the oracle fits one
        test = (small_dataset(SMALL, 1, 2) if name == "synthetic-synthetic"
                else small_dataset(SMALL_MRSI, 20, 6, range(1, 20)))
        spec = ExperimentSpec(name=name, forest=self.FOREST)
        with pytest.raises(ValidationError, match="need at least 2 test spectra to score, got 1"):
            run_experiment(spec, {"train": small_dataset(SMALL, 30, 1), "test": test})


SMALL = AcquisitionParams(spectral_width=2500.0, n_points=256, transmitter_freq=127.7)
SMALL_MRSI = AcquisitionParams(spectral_width=2000.0, n_points=200, transmitter_freq=127.7)


def small_dataset(params, n, seed, fit_fails=()):
    """Simulated spectra whose rows fit_fails the oracle fits with Cr < 0.

    Those rows are negated and lifted by a constant: the fit's baseline takes
    the constant, so every concentration changes sign, while the Cr window
    stays positive and the forest can still read the row.
    """
    cfg = SimulationConfig(basis=default_brain_basis(params), n_spectra=n, rng_seed=seed)
    data = dataset_from_labeled(simulate_dataset(cfg), fileio.sim_config_to_dict(cfg),
                                cfg.target_names)
    values = data.values.copy()
    for i in fit_fails:
        values[i] = 2.0 * np.max(np.abs(values[i])) - values[i]
    return Dataset(data.params, data.reference_ppm, values, data.target_names,
                   data.labels, data.truth_params, data.config, data.fingerprint)


# case -> (preprocess, {role: small_dataset arguments}, the notes the report
# must hold). The design is the case name without "-cross", "-unfit" or
# "-onefit". In "-unfit" the oracle fits no test spectrum, and in "-onefit"
# one; the training set is flipped as well, so that the forest does not
# predict a constant.
DIGEST_CASES = {
    "synthetic-synthetic": (None, {"train": (SMALL, 60, 1, ()), "test": (SMALL, 20, 2, (3, 7))},
                            {"oracle_failures": 2}),
    "synthetic-synthetic-cross": (True, {"train": (SMALL, 60, 1, ()),
                                         "test": (SMALL_MRSI, 20, 3, (3, 7))},
                                  {"oracle_failures": 2}),
    "synthetic-synthetic-unfit": (None, {"train": (SMALL, 60, 1, range(60)),
                                         "test": (SMALL, 20, 2, range(20))},
                                  {"oracle_failures": 20}),
    "synthetic-synthetic-onefit": (None, {"train": (SMALL, 60, 1, range(60)),
                                          "test": (SMALL, 20, 2, range(1, 20))},
                                   {"oracle_failures": 19}),
    "real-real-spectra": (None, {"data": (SMALL, 60, 4, (5, 11, 17))}, {"oracle_failures": 3}),
    "real-real-images": (None, {"train": (SMALL, 60, 5, (0, 1, 2)),
                                "test": (SMALL_MRSI, 20, 6, (3, 7))},
                         {"train_oracle_failures": 3, "test_oracle_failures": 2}),
    "synthetic-real-images": (None, {"train": (SMALL, 60, 7, (0, 1, 2)),
                                     "test": (SMALL_MRSI, 20, 8, (3, 7))},
                              {"train_oracle_failures": 3, "test_oracle_failures": 2}),
}

# SHA-256 of the report JSON and of the samples CSV each case writes.
REPORT_DIGESTS = {
    "synthetic-synthetic": ("01856f6dbafacd11b494f18d262b85e14d0df6c959b1328e63196de0137c9c03",
                           "4f5125b7de91030b90b2cc566aef1bf80bee5d93c89a97ad7340c0af9914fed7"),
    "synthetic-synthetic-cross": ("f71723cb390ca49880283a122999ad9981039047867c34a9212daf82301dd824",
                                 "4024f823b6a1fa3b0e7c974455b4142ab6ff64331a14faf0c1cd85231d082a7c"),
    "synthetic-synthetic-unfit": ("0c0507bc29342c54ff8da3f5913a669735c326550afdf2742e0221064d164d54",
                                 "fbbaf494689c14e91009a9edece3e693179dc8ee792d55957482875415c1714f"),
    "synthetic-synthetic-onefit": ("2cde7d67472868adbfd6c1ba73f301ede9ce3259b4d1da2079faf149fa0a7ec1",
                                   "4fe9115102e56486a7cc8d3c614612b6499584af8d5968e8222cffd2a4962e4a"),
    "real-real-spectra": ("dae0e0fc97ee606223cbd1eaa3fa5fa9061bceb0c3cdf02e45540dfb78ac81a1",
                         "9537ee30cb8c4e996ac8e5152f8fccb088ac4588b575b823fdb553da4014ecc2"),
    "real-real-images": ("47092bce371f3581cfc1fbb16820b9b14045cc0d485bca56ef22bd6bd3c10d9b",
                        "5aaf1e6c71be907d257dad0c50dba0d7e9b34da06b98e74fab61c8aafb12c905"),
    "synthetic-real-images": ("e1de9587980b5f2a8e0e685382f42bc956a74b490b7c8be068c918a7757e0da6",
                             "74fa379d4a1736b4238a42671b7b4d54fdb3fce297e50ba2f79a5363c5d0e229"),
}


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_reports_match_recorded_digests(case, tmp_path):
    preprocess, roles, notes = DIGEST_CASES[case]
    design = case.removesuffix("-cross").removesuffix("-unfit").removesuffix("-onefit")
    spec = ExperimentSpec(name=design, seed=2, k_folds=3, preprocess=preprocess,
                          forest=ForestConfig(n_trees=4, max_features=16, min_leaf_size=2, rng_seed=9))
    datasets = {role: small_dataset(*args) for role, args in roles.items()}
    report = run_experiment(spec, datasets)
    assert report.notes == notes
    if case.endswith("-unfit"):
        for target in report.target_names:
            assert report.summary[target]["oracle"] is None
            assert np.isnan(report.per_sample[target]["oracle_estimate"]).all()
            assert np.isnan(report.per_sample[target]["oracle_error"]).all()
    if case.endswith("-onefit"):
        # one fitted spectrum is too few to summarize, but its estimate and error are kept
        for target in report.target_names:
            assert report.summary[target]["oracle"] is None
            assert report.summary[target]["forest"] is not None
            assert np.flatnonzero(np.isfinite(report.per_sample[target]["oracle_error"])).tolist() == [0]
            assert np.isfinite(report.per_sample[target]["oracle_estimate"][0])
    fileio.write_report(tmp_path / "report.json", report)
    fileio.write_samples_csv(tmp_path / "samples.csv", report)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("report.json", "samples.csv"))
    assert digests == REPORT_DIGESTS[case]


class TestPipeline:
    def test_oracle_ratios_on_clean_data(self):
        data = clean_dataset(20, seed=71)
        est, ok = oracle_ratios(data, data.target_names)
        assert ok.all()
        assert np.allclose(est, data.labels, atol=1e-6)

    def test_forest_r_score_on_easy_data(self):
        train = make_dataset(300, seed=81, snr=(30.0, 80.0), baseline=(0.0, 0.1), lipid=(0.0, 0.1))
        test = make_dataset(60, seed=82, snr=(30.0, 80.0), baseline=(0.0, 0.1), lipid=(0.0, 0.1))
        model = train_model(train, ForestConfig(n_trees=30, max_features=64, min_leaf_size=3, rng_seed=1))
        est = predict_dataset(model, test)
        naa = test.target_names.index("NAA/Cr")
        assert r_score(est[:, naa], test.labels[:, naa]) > 0.8
