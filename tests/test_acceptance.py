"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

The desk-scale fixtures (20k/2k spectra, 200-tree forests) are shared
across criteria 4-6; a 200-tree forest's first-100-tree slice is provably
the 100-tree model (seed streams are per (seed, target, tree); see
test_forest.test_slice_matches_direct_training).

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
import pytest

from mrsquant import fileio
from mrsquant.basis import default_brain_basis
from mrsquant.cli import main
from mrsquant.dataset import Dataset, dataset_from_labeled
from mrsquant.evaluate import boxplot_stats, kfold_split, r_score, relative_errors
from mrsquant.forest import ForestConfig, fit_forest, fit_tree, slice_forest
from mrsquant.pipeline import dtft_matrix, oracle_ratios, predict_dataset, train_model
from mrsquant.signal import AcquisitionParams, LorentzianComponent, ppm_axis, spectra_from_fids
from mrsquant.simulate import SimulationConfig, simulate_dataset

from test_forest import brute_force_best_cost, partition_cost, single_tree_config
from test_signal import line_fid, measured_fwhm_bins

TRAIN_PARAMS = AcquisitionParams(spectral_width=2500.0, n_points=1024, transmitter_freq=127.7)
MRSI_PARAMS = AcquisitionParams(spectral_width=2000.0, n_points=400, transmitter_freq=127.7)
REF = 4.7

N_TRAIN = 20_000
N_TEST = 2_000
N_CROSS = 1_000
FOREST_SEED = 7


def _report(num, name, started, checks):
    elapsed = time.time() - started
    ok = all(passed for _, passed, _ in checks)
    print(f"\n[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    for label, passed, detail in checks:
        print(f"    {'ok  ' if passed else 'FAIL'} {label}{': ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed: " + "; ".join(
        label for label, passed, _ in checks if not passed
    )


def make_dataset(n, seed, params=TRAIN_PARAMS, **overrides):
    basis = default_brain_basis(params)
    cfg = SimulationConfig(basis=basis, n_spectra=n, rng_seed=seed, **overrides)
    return dataset_from_labeled(
        simulate_dataset(cfg, threads=2), fileio.sim_config_to_dict(cfg), cfg.target_names
    )


TIMINGS = {}


def _timed(key, fn):
    t0 = time.time()
    out = fn()
    TIMINGS[key] = time.time() - t0
    return out


@pytest.fixture(scope="session")
def train_dataset():
    return _timed("simulate_train", lambda: make_dataset(N_TRAIN, seed=101))


@pytest.fixture(scope="session")
def test_dataset():
    return _timed("simulate_test", lambda: make_dataset(N_TEST, seed=202))


@pytest.fixture(scope="session")
def model_mf64_200(train_dataset):
    config = ForestConfig(n_trees=200, max_features=64, min_leaf_size=5, rng_seed=FOREST_SEED)
    return _timed("train_mf64", lambda: train_model(train_dataset, config, threads=2))


@pytest.fixture(scope="session")
def model_mf4_200(train_dataset):
    config = ForestConfig(n_trees=200, max_features=4, min_leaf_size=5, rng_seed=FOREST_SEED)
    return _timed("train_mf4", lambda: train_model(train_dataset, config, threads=2))


@pytest.fixture(scope="session")
def model_100(model_mf64_200):
    return slice_forest(model_mf64_200, 100)


@pytest.fixture(scope="session")
def criterion4_results(model_100, test_dataset):
    est = predict_dataset(model_100, test_dataset)
    medians = {}
    pearson = {}
    for t, name in enumerate(test_dataset.target_names):
        errs = relative_errors(est[:, t], test_dataset.labels[:, t])
        medians[name] = float(np.median(errs))
        pearson[name] = r_score(est[:, t], test_dataset.labels[:, t])
    return {"estimates": est, "medians": medians, "pearson": pearson}


def test_criterion_1_signal_model_suite():
    t0 = time.time()
    checks = []
    rng = np.random.default_rng(0)

    comps_a = [LorentzianComponent(rng.uniform(1, 4), rng.uniform(0.2, 2), rng.uniform(0.03, 0.3))
               for _ in range(6)]
    comps_b = [LorentzianComponent(rng.uniform(1, 4), rng.uniform(0.2, 2), rng.uniform(0.03, 0.3))
               for _ in range(5)]
    combined = line_fid(comps_a + comps_b, TRAIN_PARAMS)
    separate = line_fid(comps_a, TRAIN_PARAMS) + line_fid(comps_b, TRAIN_PARAMS)
    lin_err = float(np.max(np.abs(combined - separate)))
    checks.append(("linearity (1e-12)", lin_err <= 1e-12, f"max abs diff {lin_err:.2e}"))

    rt_worst = parseval_worst = 0.0
    for n in (2, 400, 401, 1024):
        params = AcquisitionParams(2500.0, n, 127.7)
        g = np.random.default_rng(n)
        values = g.normal(size=n) + 1j * g.normal(size=n)
        # spectrum -> FID -> spectrum on the spectrum's own axis
        back = dtft_matrix(params, REF, ppm_axis(params, REF)) @ values
        rt_worst = max(rt_worst, float(np.max(np.abs(back - values)) / np.max(np.abs(values))))
        samples = g.normal(size=n) + 1j * g.normal(size=n)
        e_time = np.sum(np.abs(samples) ** 2)
        e_freq = np.sum(np.abs(spectra_from_fids(samples)) ** 2) / n
        parseval_worst = max(parseval_worst, abs(e_freq - e_time) / e_time)
    checks.append(("DFT round trip (1e-9)", rt_worst <= 1e-9, f"worst rel err {rt_worst:.2e}"))
    checks.append(("Parseval (1e-9)", parseval_worst <= 1e-9, f"worst rel err {parseval_worst:.2e}"))

    peak_ok = True
    for shift in (0.8, 2.01, 3.03, 3.91, 4.4):
        for t2 in (0.04, 0.1, 0.25):
            values = spectra_from_fids(line_fid([LorentzianComponent(shift, 1.0, t2)], TRAIN_PARAMS))
            peak_ok &= np.argmax(np.abs(values)) == np.argmin(np.abs(ppm_axis(TRAIN_PARAMS, REF) - shift))
    checks.append(("peak at nearest bin", peak_ok, ""))

    fwhm_ok = True
    fwhm_detail = []
    for t2, sw, n in ((0.02, 2500.0, 1024), (0.1, 2500.0, 1024), (0.1, 2000.0, 400), (0.4, 2500.0, 4096)):
        params = AcquisitionParams(sw, n, 127.7)
        values = spectra_from_fids(line_fid([LorentzianComponent(2.5, 1.0, t2)], params))
        fwhm = measured_fwhm_bins(values.real) * sw / n
        ok = abs(fwhm - 1.0 / (math.pi * t2)) <= sw / n
        fwhm_ok &= ok
        fwhm_detail.append(f"t2*sw={t2 * sw:.0f}: {fwhm:.2f}Hz vs {1 / (math.pi * t2):.2f}Hz")
    checks.append(("FWHM = 1/(pi*t2) within one bin (t2*sw >= 50)", fwhm_ok, "; ".join(fwhm_detail)))

    checks.append(("runtime < 10 s", time.time() - t0 < 10.0, f"{time.time() - t0:.1f}s"))
    _report(1, "signal-model suite", t0, checks)


def test_criterion_2_oracle_exactness():
    t0 = time.time()
    data = make_dataset(
        500, seed=42,
        t2_scale_range=(1.0, 1.0), snr_range=(math.inf, math.inf),
        baseline_amplitude_range=(0.0, 0.0), lipid_amplitude_range=(0.0, 0.0),
    )
    est, ok = oracle_ratios(data, data.target_names)
    checks = [("all 500 fits usable", bool(ok.all()), f"{int(ok.sum())}/500")]
    worst = float(np.max(np.abs(est - data.labels)))
    checks.append(("ratios match labels (1e-6)", worst <= 1e-6, f"worst abs diff {worst:.2e}"))
    r_ok = True
    details = []
    for t, name in enumerate(data.target_names):
        r = r_score(est[:, t], data.labels[:, t])
        r_ok &= abs(r - 1.0) <= 1e-9
        details.append(f"{name}: r={r:.12f}")
    checks.append(("pearson r = 1 (1e-9)", r_ok, "; ".join(details)))
    checks.append(("runtime < 30 s", time.time() - t0 < 30.0, f"{time.time() - t0:.1f}s"))
    _report(2, "oracle exactness on noiseless spectra", t0, checks)


def test_criterion_3_forest_correctness(tmp_path):
    t0 = time.time()
    checks = []

    brute_ok = True
    for n in range(2, 7):
        for seed in range(40):
            g = np.random.default_rng(1000 * n + seed)
            X = np.round(g.uniform(0, 10, size=(n, 1)), 1)
            y = np.round(g.uniform(0, 10, size=n), 1)
            tree = fit_tree(X, y, np.arange(n), single_tree_config(), np.random.default_rng(seed))
            best = brute_force_best_cost(X, y)
            if tree.feature[0] == -1:
                brute_ok &= (not np.isfinite(best)) or np.ptp(y) == 0 or np.ptp(X) == 0
            else:
                brute_ok &= partition_cost(X, y, tree.feature[0], tree.threshold[0]) <= best + 1e-9
    checks.append(("brute-force split equivalence (n<=6, 1-D)", brute_ok, "200 datasets"))

    g = np.random.default_rng(5)
    X = g.normal(size=(300, 40))
    y = g.uniform(0.5, 2.0, size=300)
    memo_config = ForestConfig(n_trees=1, max_features=40, min_leaf_size=1,
                               rng_seed=0, bootstrap="identity")
    memo = fit_forest(X, y, memo_config)
    memo_ok = bool(np.array_equal(memo.predict_matrix(X)[:, 0], y))
    checks.append(("memorization reproduces labels exactly", memo_ok, ""))

    small = make_dataset(300, seed=77, params=AcquisitionParams(2500.0, 256, 127.7))
    config = ForestConfig(n_trees=12, max_features=16, min_leaf_size=3, rng_seed=3)
    path_serial = tmp_path / "serial.json"
    path_threaded = tmp_path / "threaded.json"
    fileio.write_model(path_serial, train_model(small, config, threads=1))
    fileio.write_model(path_threaded, train_model(small, config, threads=4))
    same = path_serial.read_bytes() == path_threaded.read_bytes()
    checks.append(("1-vs-4-thread model files bit-identical", same, ""))

    checks.append(("runtime < 60 s", time.time() - t0 < 60.0, f"{time.time() - t0:.1f}s"))
    _report(3, "forest correctness", t0, checks)


def test_criterion_4_desk_scale_synthetic(criterion4_results, test_dataset):
    t0 = time.time()
    checks = []
    res = criterion4_results
    for name in ("NAA/Cr", "Cho/Cr"):
        checks.append((f"pearson r >= 0.90 [{name}]", res["pearson"][name] >= 0.90,
                       f"r = {res['pearson'][name]:.4f}"))
        checks.append((f"median relative error <= 0.10 [{name}]", res["medians"][name] <= 0.10,
                       f"median = {res['medians'][name]:.4f}"))

    oracle_est, ok = oracle_ratios(test_dataset, test_dataset.target_names)
    baseline_amp = np.array([tp["baseline_amplitude"] for tp in test_dataset.truth_params])
    high = baseline_amp >= np.quantile(baseline_amp, 0.75)
    subset = high & ok
    details = []
    forest_wins = True
    for t, name in enumerate(test_dataset.target_names):
        f_med = float(np.median(relative_errors(res["estimates"][subset, t],
                                                test_dataset.labels[subset, t])))
        o_med = float(np.median(relative_errors(oracle_est[subset, t],
                                                test_dataset.labels[subset, t])))
        forest_wins &= f_med <= o_med
        details.append(f"{name}: forest {f_med:.4f} vs oracle {o_med:.4f}")
    checks.append(("forest <= oracle on high-baseline quartile", forest_wins, "; ".join(details)))

    attributed = sum(TIMINGS.get(k, 0.0) for k in ("simulate_train", "simulate_test", "train_mf64"))
    print(f"    info criterion-4 pipeline time (sim + 200-tree training): {attributed:.0f}s "
          f"(target for the 100-tree run: <900s)")
    _report(4, f"desk-scale synthetic->synthetic ({N_TRAIN} train / {N_TEST} test)", t0, checks)


def test_criterion_5_oob_convergence(model_mf64_200, model_mf4_200, tmp_path):
    t0 = time.time()
    checks = []
    entries = []
    for model, mf in ((model_mf4_200, 4), (model_mf64_200, 64)):
        for name, curve in zip(model.target_names, model.oob_curves):
            entries.append((name, mf, curve))
    sweep_path = tmp_path / "oob_sweep.csv"
    fileio.write_oob_csv(sweep_path, entries, "acceptance-sweep")
    checks.append(("oob-scan sweep CSV emitted", sweep_path.exists(),
                   f"{4 * 200} rows"))

    for t, name in enumerate(model_mf64_200.target_names):
        curve = model_mf64_200.oob_curves[t]
        e100, e200 = float(curve[99]), float(curve[199])
        within = abs(e100 - e200) <= 0.1 * e200
        checks.append((f"OOB(100) within 10% of OOB(200) [{name}]", within,
                       f"{e100:.4f} vs {e200:.4f}"))
        e_mf4 = float(model_mf4_200.oob_curves[t][199])
        checks.append((f"OOB(mf=64) <= OOB(mf=4) [{name}]", e200 <= e_mf4,
                       f"{e200:.4f} vs {e_mf4:.4f}"))

    sweep_time = sum(TIMINGS.get(k, 0.0) for k in ("train_mf64", "train_mf4"))
    checks.append(("runtime < 30 min including the sweep", sweep_time < 1800.0,
                   f"{sweep_time:.0f}s of training"))
    _report(5, "OOB convergence and feature sweep", t0, checks)


def test_criterion_6_cross_protocol(model_100, criterion4_results):
    t0 = time.time()
    cross = make_dataset(N_CROSS, seed=303, params=MRSI_PARAMS)
    est = predict_dataset(model_100, cross, allow_resample=True)
    checks = []
    naa = cross.target_names.index("NAA/Cr")
    cross_median = float(np.median(relative_errors(est[:, naa], cross.labels[:, naa])))
    matched = criterion4_results["medians"]["NAA/Cr"]
    checks.append(("cross-protocol NAA/Cr median <= 2x matched", cross_median <= 2.0 * matched,
                   f"{cross_median:.4f} vs 2 x {matched:.4f}"))

    scaled = Dataset(
        params=cross.params, reference_ppm=cross.reference_ppm,
        values=cross.values * 10.0, target_names=cross.target_names, labels=cross.labels,
    )
    est_scaled = predict_dataset(model_100, scaled, allow_resample=True)
    drift = float(np.max(np.abs(est_scaled - est)))
    checks.append(("pipeline scale-invariant (1e-9)", drift <= 1e-9, f"max drift {drift:.2e}"))
    _report(6, "cross-protocol quantification (2000 Hz / 400 pts)", t0, checks)


def test_criterion_7_metric_suite():
    t0 = time.time()
    checks = []

    eq_ok = relative_errors([1.5], [1.5])[0] == 0.0 and relative_errors([1.1], [1.0])[0] == pytest.approx(0.1)
    for c in (2.0, -3.0, 1e-6):
        eq_ok &= relative_errors([c * 1.3], [c * 1.1])[0] == pytest.approx(relative_errors([1.3], [1.1])[0])
    checks.append(("relative-error identities and scale invariance", bool(eq_ok), ""))

    g = np.random.default_rng(1)
    truths = g.normal(size=64)
    affine_ok = True
    for a, b in ((2.0, 0.0), (0.25, -3.0), (11.0, 40.0)):
        affine_ok &= abs(r_score(a * truths + b, truths) - 1.0) <= 1e-12
    checks.append(("pearson affine invariance", affine_ok, ""))

    stats = boxplot_stats([1.0, 2.0, 3.0, 4.0])
    box_ok = stats["median"] == 2.5 and stats["min"] == 1.0 and stats["max"] == 4.0
    checks.append(("boxplot order statistics", box_ok, ""))

    folds = kfold_split(287, 10, seed=0)
    sizes = sorted(len(f) for f in folds)
    shape_ok = sizes == [28] * 3 + [29] * 7 and sum(sizes) == 287
    train_sizes = {287 - len(f) for f in folds}
    shape_ok &= train_sizes == {258, 259}
    joined = np.sort(np.concatenate(folds))
    shape_ok &= bool(np.array_equal(joined, np.arange(287)))
    checks.append(("10-fold split of 287 gives 259/28-style folds", shape_ok,
                   f"fold sizes {sizes}"))

    disjoint_ok = True
    for n, k in ((10, 10), (17, 2), (100, 7)):
        fs = kfold_split(n, k, seed=4)
        joined = np.concatenate(fs)
        disjoint_ok &= len(np.unique(joined)) == n == len(joined)
    checks.append(("folds disjoint and exhaustive", disjoint_ok, ""))

    checks.append(("runtime < 10 s", time.time() - t0 < 10.0, f"{time.time() - t0:.1f}s"))
    _report(7, "metric suite", t0, checks)


def test_criterion_8_reproducibility(tmp_path):
    t0 = time.time()
    checks = []
    acq = {"spectral_width_hz": 2500.0, "n_points": 256, "transmitter_freq_mhz": 127.7,
           "echo_time_ms": 35.0, "repetition_time_ms": 2000.0}
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({"acquisition": acq}))

    data_a, data_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (data_a, data_b):
        assert main(["simulate", "--config", str(cfg_path), "--seed", "11",
                     "--n-spectra", "40", "--output", str(out)]) == 0
    checks.append(("dataset rerun byte-identical", data_a.read_bytes() == data_b.read_bytes(), ""))

    embedded = json.loads(data_a.read_text())["config"]
    embedded_path = tmp_path / "embedded.json"
    embedded_path.write_text(json.dumps(embedded))
    data_c = tmp_path / "c.json"
    assert main(["simulate", "--config", str(embedded_path), "--seed", "11",
                 "--output", str(data_c)]) == 0
    checks.append(("dataset regenerated from embedded config byte-identical",
                   data_a.read_bytes() == data_c.read_bytes(), ""))

    model_a, model_b = tmp_path / "ma.json", tmp_path / "mb.json"
    train_args = ["--dataset", str(data_a), "--seed", "13", "--trees", "5",
                  "--max-features", "16", "--min-leaf", "2"]
    for out in (model_a, model_b):
        assert main(["train", *train_args, "--output", str(out)]) == 0
    checks.append(("model retrain byte-identical", model_a.read_bytes() == model_b.read_bytes(), ""))

    test_path = tmp_path / "t.json"
    assert main(["simulate", "--config", str(cfg_path), "--seed", "12",
                 "--n-spectra", "15", "--output", str(test_path)]) == 0
    exp_cfg = tmp_path / "exp.json"
    exp_cfg.write_text(json.dumps({
        "experiment": "synthetic-synthetic",
        "seed": 5,
        "forest": {"n_trees": 4, "max_features": 16, "min_leaf_size": 2,
                   "max_depth": None, "rng_seed": 5},
        "datasets": {"train": str(data_a), "test": str(test_path)},
    }))
    rep_a, rep_b = tmp_path / "ra.json", tmp_path / "rb.json"
    for out in (rep_a, rep_b):
        assert main(["evaluate", "--config", str(exp_cfg), "--output", str(out)]) == 0
    checks.append(("report rerun byte-identical", rep_a.read_bytes() == rep_b.read_bytes(), ""))
    csv_a = (tmp_path / "ra.json.samples.csv").read_bytes()
    csv_b = (tmp_path / "rb.json.samples.csv").read_bytes()
    checks.append(("samples CSV rerun byte-identical", csv_a == csv_b, ""))
    _report(8, "CLI artifact reproducibility", t0, checks)
