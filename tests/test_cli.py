import csv
import json
import multiprocessing
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mrsquant import fileio, simulate as simulate_module
from mrsquant.basis import default_brain_basis
from mrsquant.cli import main
from mrsquant.dataset import Dataset
from mrsquant.errors import ValidationError
from mrsquant.forest import ForestConfig
from mrsquant.pipeline import train_model
from mrsquant.simulate import SimulationConfig

ACQ_SMALL = {"spectral_width_hz": 2500.0, "n_points": 256, "transmitter_freq_mhz": 127.7,
             "echo_time_ms": 35.0, "repetition_time_ms": 2000.0}


def write_config(path, **fields):
    cfg = {"acquisition": ACQ_SMALL}
    cfg.update(fields)
    path.write_text(json.dumps(cfg))
    return str(path)


def simulate(tmp_path, name="data.json", n=12, seed=5, config_fields=None):
    cfg_path = write_config(tmp_path / f"{name}.cfg.json", **(config_fields or {}))
    out = tmp_path / name
    code = main(["simulate", "--config", cfg_path, "--seed", str(seed),
                 "--n-spectra", str(n), "--output", str(out)])
    assert code == 0
    return out


class TestSimulate:
    def test_writes_parseable_dataset(self, tmp_path, capsys):
        out = simulate(tmp_path)
        ds = fileio.read_dataset(out)
        assert ds.n_spectra == 12
        assert ds.target_names == ["Cho/Cr", "NAA/Cr"]
        printed = capsys.readouterr().out
        assert "seed=5" in printed

    def test_rerun_is_byte_identical(self, tmp_path):
        a = simulate(tmp_path, "a.json")
        b = simulate(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_the_file(self, tmp_path):
        # 300 spectra make chunks of 128, 128 and 44: the last is short, and 4 workers outnumber them
        cfg = write_config(tmp_path / "cfg.json")
        outputs = []
        for threads in ("1", "2", "3", "4"):
            out = tmp_path / f"t{threads}.json"
            assert main(["simulate", "--config", cfg, "--seed", "9", "--n-spectra", "300",
                         "--threads", threads, "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1:] == outputs[:1] * 3

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_refusal_mid_stream_leaves_no_file(self, tmp_path, monkeypatch, capsys, threads):
        add_noise = simulate_module._add_noise

        def refuse_row_200(values, snrs, rngs):
            # each row's stream is seeded [seed, index, purpose]; forked workers inherit this patch
            if any(rng.bit_generator.seed_seq.entropy[1] == 200 for rng in rngs):
                raise ValidationError("row 200 refused")
            add_noise(values, snrs, rngs)

        monkeypatch.setattr(simulate_module, "_add_noise", refuse_row_200)
        cfg = write_config(tmp_path / "cfg.json")
        # row 200 is in the second of three chunks, so the first chunk's records are already written
        assert main(["simulate", "--config", cfg, "--seed", "9", "--n-spectra", "300",
                     "--threads", threads, "--output", str(tmp_path / "out.json")]) == 2
        assert "row 200 refused" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_peak_memory_does_not_grow_with_the_spectrum_count(self, tmp_path):
        # Each run is a fresh interpreter.  Its own ru_maxrss would start at this
        # test process's peak, which Linux carries across exec, so the parent's
        # peak is read as VmHWM, which exec resets.  The forked workers' peak
        # (RUSAGE_CHILDREN) starts at the parent's resident size when they fork.
        script = ("import json, resource, sys\n"
                  "from mrsquant.cli import main\n"
                  "assert main(sys.argv[1:]) == 0\n"
                  "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
                  "print(json.dumps([int(hwm.split()[1]) / 1024,\n"
                  "                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024]))\n")
        for threads in ("1", "2"):
            peaks = {}
            for n in (500, 2000):
                proc = subprocess.run([sys.executable, "-c", script, "simulate", "--seed", "3",
                                       "--n-spectra", str(n), "--threads", threads,
                                       "--output", str(tmp_path / f"{n}.json")],
                                      capture_output=True, text=True, check=True)
                peaks[n] = json.loads(proc.stdout.splitlines()[-1])
            # the spectra of 1500 spectra alone are 23 MB
            print(f"simulate --threads {threads}: peak MB [parent, largest worker] by count: {peaks}")
            assert peaks[2000][0] - peaks[500][0] < 16, peaks
            assert peaks[2000][1] - peaks[500][1] < 16, peaks

    def test_bad_range_exits_2_naming_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.json",
                           concentration_ranges={"NAA": [2.0, 0.5], "Cr": [1.0, 1.0]})
        code = main(["simulate", "--config", cfg, "--seed", "1", "--n-spectra", "3",
                     "--output", str(tmp_path / "x.json")])
        assert code == 2
        assert "concentration_ranges[NAA]" in capsys.readouterr().err

    def test_unbounded_range_exits_2_naming_field(self, tmp_path, capsys):
        # 1e400 parses as inf; uniform draws up to it overflowed with a traceback
        cfg = tmp_path / "inf.json"
        cfg.write_text(json.dumps({"acquisition": ACQ_SMALL}).replace(
            "}}", '}, "snr_range": [5, 1e400]}'))
        code = main(["simulate", "--config", str(cfg), "--seed", "1", "--n-spectra", "3",
                     "--output", str(tmp_path / "x.json")])
        assert code == 2
        assert "snr_range" in capsys.readouterr().err

    def test_infinite_fixed_amplitude_exits_2_naming_field(self, tmp_path, capsys):
        # a fixed inf baseline amplitude wrote all-NaN records and exited 0
        cfg = tmp_path / "inf.json"
        cfg.write_text(json.dumps({"acquisition": ACQ_SMALL}).replace(
            "}}", '}, "baseline_amplitude_range": [1e400, 1e400]}'))
        out = tmp_path / "x.json"
        code = main(["simulate", "--config", str(cfg), "--seed", "1", "--n-spectra", "2",
                     "--output", str(out)])
        assert code == 2
        assert "baseline_amplitude_range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,field", [("spectral_width_hz", "spectral_width"),
                                           ("transmitter_freq_mhz", "transmitter_freq"),
                                           ("echo_time_ms", "echo_time"),
                                           ("repetition_time_ms", "repetition_time")])
    def test_infinite_acquisition_exits_2_naming_field(self, tmp_path, capsys, key, field):
        # an inf transmitter frequency wrote all-NaN spectra and exited 0; an inf
        # echo or repetition time was written into the dataset as Infinity
        cfg = tmp_path / "inf.json"
        cfg.write_text(json.dumps({"acquisition": {**ACQ_SMALL, key: "INF"}}).replace('"INF"', "1e400"))
        out = tmp_path / "x.json"
        code = main(["simulate", "--config", str(cfg), "--seed", "1", "--n-spectra", "2",
                     "--output", str(out)])
        assert code == 2
        assert f"{cfg}: {field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("amplitude", ["NaN", "1e400"])
    def test_non_finite_basis_amplitude_exits_2_naming_field(self, tmp_path, capsys, amplitude):
        # such a basis line made every spectrum non-finite and exited 0
        basis = tmp_path / "basis.json"
        fileio.write_basis(basis, default_brain_basis(fileio.acquisition_from_dict(ACQ_SMALL)))
        doc = json.loads(basis.read_text())
        doc["metabolites"][0]["components"][0]["amplitude"] = "AMP"
        basis.write_text(json.dumps(doc).replace('"AMP"', amplitude))
        out = tmp_path / "x.json"
        code = main(["simulate", "--basis", str(basis), "--seed", "1", "--n-spectra", "2",
                     "--output", str(out)])
        assert code == 2
        assert f"{basis}: amplitude must be" in capsys.readouterr().err
        assert not out.exists()

    def test_basis_file_gives_the_file_write_simulation_gives(self, tmp_path):
        basis = tmp_path / "basis.json"
        fileio.write_basis(basis, default_brain_basis(fileio.acquisition_from_dict(ACQ_SMALL)))
        out, expected = tmp_path / "out.json", tmp_path / "expected.json"
        assert main(["simulate", "--basis", str(basis), "--seed", "4", "--n-spectra", "20",
                     "--output", str(out)]) == 0
        fileio.write_simulation(expected, SimulationConfig(basis=fileio.read_basis(basis), n_spectra=20,
                                                           rng_seed=4))
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("use_config", [False, True])
    def test_no_spectrum_count_exits_2(self, tmp_path, capsys, use_config):
        argv = ["simulate", "--seed", "1", "--output", str(tmp_path / "x.json")]
        if use_config:
            argv += ["--config", write_config(tmp_path / "cfg.json")]
        assert main(argv) == 2
        assert "simulate needs --n-spectra (field n_spectra)" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_missing_seed_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n-spectra", "3", "--output", str(tmp_path / "x.json")])
        assert exc.value.code == 2


class TestTrain:
    def test_train_writes_model_and_oob(self, tmp_path):
        data = simulate(tmp_path, n=25)
        model_path = tmp_path / "model.json"
        code = main(["train", "--dataset", str(data), "--output", str(model_path),
                     "--seed", "7", "--trees", "3", "--max-features", "16", "--min-leaf", "2"])
        assert code == 0
        model = fileio.read_model(model_path)
        assert model.config.n_trees == 3
        assert (tmp_path / "model.json.oob.csv").exists()

    @pytest.mark.parametrize("value,depth", [("none", None), ("unlimited", None), ("3", 3)])
    def test_max_depth_values_accepted(self, tmp_path, value, depth):
        data = simulate(tmp_path, n=12)
        model_path = tmp_path / "model.json"
        assert main(["train", "--dataset", str(data), "--output", str(model_path), "--seed", "7",
                     "--trees", "1", "--max-features", "8", "--max-depth", value]) == 0
        assert fileio.read_model(model_path).config.max_depth == depth

    def test_null_embedded_basis_means_the_built_in_one(self, tmp_path):
        data = simulate(tmp_path, n=12)
        doc = json.loads(data.read_text())
        doc["config"]["basis"] = None
        data.write_text(json.dumps(doc))
        dataset = fileio.read_dataset(data)
        assert dataset.basis == default_brain_basis(dataset.params, dataset.reference_ppm)
        assert main(["train", "--dataset", str(data), "--output", str(tmp_path / "model.json"),
                     "--seed", "7", "--trees", "2", "--max-features", "16", "--min-leaf", "2"]) == 0

    def test_retrain_byte_identical(self, tmp_path):
        data = simulate(tmp_path, n=20)
        args = ["--dataset", str(data), "--seed", "7", "--trees", "2",
                "--max-features", "8", "--min-leaf", "2"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["train", *args, "--output", str(a)]) == 0
        assert main(["train", *args, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threaded_training_byte_identical(self, tmp_path):
        data = simulate(tmp_path, n=20)
        args = ["--dataset", str(data), "--seed", "3", "--trees", "4",
                "--max-features", "8", "--min-leaf", "2"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["train", *args, "--output", str(a), "--threads", "1"]) == 0
        assert main(["train", *args, "--output", str(b), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_constant_labels_give_zero_oob(self, tmp_path):
        data = simulate(tmp_path, n=15, config_fields={
            "concentration_ranges": {"NAA": [1.5, 1.5], "Cho": [0.4, 0.4], "Cr": [1.0, 1.0]},
        })
        model_path = tmp_path / "model.json"
        code = main(["train", "--dataset", str(data), "--output", str(model_path),
                     "--seed", "1", "--trees", "3", "--max-features", "8", "--min-leaf", "2"])
        assert code == 0
        with open(tmp_path / "model.json.oob.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(float(r["oob_error"]) == 0.0 for r in rows)

    def test_unlabeled_dataset_exits_2(self, tmp_path, capsys):
        # train and oob-scan share the refusal, which names the file before any tree is grown
        data = simulate(tmp_path, n=8)
        doc = json.loads(data.read_text())
        for rec in doc["records"]:
            rec["labels"] = None
        stripped = tmp_path / "unlabeled.json"
        stripped.write_text(json.dumps(doc))
        for verb, action in (("train", "train"), ("oob-scan", "scan")):
            code = main([verb, "--dataset", str(stripped), "--output", str(tmp_path / "out"), "--seed", "1"])
            assert code == 2
            assert capsys.readouterr().err == f"error: {stripped}: dataset has no labels; cannot {action}\n"
        assert not (tmp_path / "out").exists()


class TestUnreadableDataset:
    """A malformed dataset file exits 2 with a message naming what is wrong."""

    def _rewritten(self, tmp_path, data, edit):
        doc = json.loads(data.read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        return bad

    def _train(self, tmp_path, data):
        return main(["train", "--dataset", str(data), "--output", str(tmp_path / "m.json"),
                     "--seed", "1", "--trees", "1", "--max-features", "8"])

    def _evaluate(self, tmp_path, data):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "real-real-spectra", "seed": 3, "k_folds": 2,
                                   "forest": {"n_trees": 1, "max_features": 8},
                                   "datasets": {"data": str(data)}}))
        return main(["evaluate", "--config", str(cfg), "--output", str(tmp_path / "r.json")])

    def test_missing_acquisition_exits_2(self, tmp_path, capsys):
        bad = self._rewritten(tmp_path, simulate(tmp_path, n=6), lambda doc: doc.pop("acquisition"))
        assert self._train(tmp_path, bad) == 2
        assert "acquisition" in capsys.readouterr().err

    def test_corrupt_spectrum_exits_2(self, tmp_path, capsys):
        def corrupt(doc):
            doc["records"][4]["spectrum_b64"] = "not base64!"

        bad = self._rewritten(tmp_path, simulate(tmp_path, n=6), corrupt)
        assert self._train(tmp_path, bad) == 2
        assert "record 4" in capsys.readouterr().err

    def test_nan_bin_exits_2_naming_the_record(self, tmp_path, capsys):
        ds = fileio.read_dataset(simulate(tmp_path, n=20))
        values = ds.values.copy()
        values[7, np.argmin(np.abs(ds.ppm_axis - 2.0))] = np.nan
        bad = tmp_path / "nan.json"
        fileio.write_dataset(bad, Dataset(ds.params, ds.reference_ppm, values,
                                          ds.target_names, ds.labels))
        assert self._train(tmp_path, bad) == 2
        assert "record 7" in capsys.readouterr().err
        assert self._evaluate(tmp_path, bad) == 2
        assert "record 7" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_one_unlabeled_record_exits_2_naming_it(self, tmp_path, capsys):
        def unlabel(doc):
            doc["records"][5]["labels"] = None

        bad = self._rewritten(tmp_path, simulate(tmp_path, n=8), unlabel)
        for run in (self._train, self._evaluate):
            assert run(tmp_path, bad) == 2
            err = capsys.readouterr().err
            assert str(bad) in err and "record 5" in err

    @pytest.mark.parametrize("label", [float("nan"), float("inf")])
    def test_non_finite_label_exits_2_naming_the_row(self, tmp_path, capsys, label):
        # predict never reads labels, and exited 0 on such a file
        def poison(doc):
            doc["records"][3]["labels"]["NAA/Cr"] = label

        data = simulate(tmp_path, n=8)
        bad = self._rewritten(tmp_path, data, poison)
        assert self._train(tmp_path, bad) == 2
        assert not (tmp_path / "m.json").exists()
        assert self._evaluate(tmp_path, bad) == 2
        assert not (tmp_path / "r.json").exists()
        assert self._train(tmp_path, data) == 0
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(tmp_path / "m.json"), "--spectra", str(bad),
                     "--output", str(out)]) == 2
        assert not out.exists()
        errors = [e for e in capsys.readouterr().err.splitlines() if e.startswith("error: ")]
        assert len(errors) == 3 and all(f"{bad}: row 3 has a non-finite label" in e for e in errors)

    def test_bootstrap_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--dataset", str(tmp_path / "d.json"), "--output",
                  str(tmp_path / "m.json"), "--seed", "1", "--bootstrap", "identity"])
        assert exc.value.code == 2


class TestPredict:
    def _train(self, tmp_path, data):
        # one tree grown on every sample once memorizes the labels
        model_path = tmp_path / "model.json"
        config = ForestConfig(n_trees=1, max_features=32, min_leaf_size=1, max_depth=None,
                              rng_seed=2, bootstrap="identity")
        fileio.write_model(model_path, train_model(fileio.read_dataset(data), config))
        return model_path

    def test_memorizing_model_reproduces_labels(self, tmp_path):
        data = simulate(tmp_path, n=15)
        model_path = self._train(tmp_path, data)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--spectra", str(data),
                     "--output", str(out)]) == 0
        ds = fileio.read_dataset(data)
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 15
        for i, row in enumerate(rows):
            for t, name in enumerate(ds.target_names):
                assert float(row[name]) == pytest.approx(ds.labels[i, t], abs=1e-12)

    def test_cross_protocol_needs_preprocess_flag(self, tmp_path, capsys):
        train_data = simulate(tmp_path, "train.json", n=15)
        mrsi = simulate(tmp_path, "mrsi.json", n=4, config_fields={
            "acquisition": {"spectral_width_hz": 2000.0, "n_points": 400,
                            "transmitter_freq_mhz": 127.7, "echo_time_ms": 35.0,
                            "repetition_time_ms": 1000.0},
        })
        model_path = self._train(tmp_path, train_data)
        out = tmp_path / "pred.csv"
        code = main(["predict", "--model", str(model_path), "--spectra", str(mrsi),
                     "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mrsi}: dataset grid (")
        assert "preprocessing is disabled" in err
        code = main(["predict", "--model", str(model_path), "--spectra", str(mrsi),
                     "--output", str(out), "--preprocess"])
        assert code == 0
        with open(out, newline="") as f:
            assert len(list(csv.DictReader(f))) == 4

    def test_negative_cr_window_exits_4(self, tmp_path, capsys):
        data = simulate(tmp_path, n=6)
        model_path = self._train(tmp_path, data)
        ds = fileio.read_dataset(data)
        values = ds.values.copy()
        # a constant offset drives every bin, the Cr window included, below zero
        values[2] -= 10.0 * np.max(np.abs(values[2]))
        bad = tmp_path / "bad.json"
        fileio.write_dataset(bad, Dataset(ds.params, ds.reference_ppm, values,
                                          ds.target_names, ds.labels))
        out = tmp_path / "pred.csv"
        code = main(["predict", "--model", str(model_path), "--spectra", str(bad),
                     "--output", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "Cr" in err
        assert not out.exists()

    def test_nan_feature_bin_exits_2(self, tmp_path, capsys):
        data = simulate(tmp_path, n=6)
        model_path = self._train(tmp_path, data)
        ds = fileio.read_dataset(data)
        values = ds.values.copy()
        # a bin inside the feature window, away from the Cr window (2.95-3.10 ppm)
        values[3, np.argmin(np.abs(ds.ppm_axis - 2.0))] = np.nan
        bad = tmp_path / "bad.json"
        fileio.write_dataset(bad, Dataset(ds.params, ds.reference_ppm, values,
                                          ds.target_names, ds.labels))
        out = tmp_path / "pred.csv"
        code = main(["predict", "--model", str(model_path), "--spectra", str(bad),
                     "--output", str(out)])
        assert code == 2
        assert "NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preprocess", [[], ["--preprocess"]])
    def test_model_with_a_moved_grid_point_exits_2(self, tmp_path, capsys, preprocess):
        data = simulate(tmp_path, n=6)
        model_path = self._train(tmp_path, data)
        doc = json.loads(model_path.read_text())
        doc["feature"]["grid_ppm"][40] += 0.5
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "pred.csv"
        code = main(["predict", "--model", str(model_path), "--spectra", str(data),
                     "--output", str(out)] + preprocess)
        assert code == 2
        assert f"{model_path}: stored grid_ppm" in capsys.readouterr().err
        assert not out.exists()

    def test_model_with_other_feature_kind_exits_2(self, tmp_path):
        data = simulate(tmp_path, n=6)
        model_path = self._train(tmp_path, data)
        doc = json.loads(model_path.read_text())
        doc["feature"]["kind"] = "real_normalized"
        model_path.write_text(json.dumps(doc))
        code = main(["predict", "--model", str(model_path), "--spectra", str(data),
                     "--output", str(tmp_path / "pred.csv")])
        assert code == 2

    def test_peak_memory_does_not_grow_by_the_whole_spectra(self, tmp_path):
        # Without --preprocess, predict reads only the real part of each spectrum's window bins.  Each run
        # is a fresh interpreter, whose peak is read as VmHWM (see TestSimulate's memory test).
        script = ("import sys\n"
                  "from mrsquant.cli import main\n"
                  "assert main(sys.argv[1:]) == 0\n"
                  "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
                  "print(int(hwm.split()[1]) / 1024)\n")
        model = tmp_path / "model.json"
        assert main(["simulate", "--seed", "4", "--n-spectra", "60", "--output", str(tmp_path / "train.json")]) == 0
        assert main(["train", "--dataset", str(tmp_path / "train.json"), "--output", str(model),
                     "--seed", "1", "--trees", "2"]) == 0
        peaks = {}
        for n in (500, 2000):
            data = tmp_path / f"{n}.json"
            assert main(["simulate", "--seed", "3", "--n-spectra", str(n), "--output", str(data)]) == 0
            proc = subprocess.run([sys.executable, "-c", script, "predict", "--model", str(model),
                                   "--spectra", str(data), "--output", str(tmp_path / f"{n}.csv")],
                                  capture_output=True, text=True, check=True)
            peaks[n] = float(proc.stdout.splitlines()[-1])
            data.unlink()
        whole = 1500 * 16 * 1024 / 2 ** 20  # MB of 1500 default-grid spectra held whole
        print(f"predict: peak MB by count: {peaks}; 1500 whole spectra: {whole:.1f} MB")
        assert peaks[2000] - peaks[500] < whole / 2, peaks

    def test_empty_spectra_file_exits_2(self, tmp_path):
        data = simulate(tmp_path, n=5)
        doc = json.loads(data.read_text())
        doc["records"] = []
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(doc))
        model_path = self._train(tmp_path, data)
        code = main(["predict", "--model", str(model_path), "--spectra", str(empty),
                     "--output", str(tmp_path / "pred.csv")])
        assert code == 2


class TestEvaluate:
    def _config(self, tmp_path, **overrides):
        train = simulate(tmp_path, "train.json", n=30)
        test = simulate(tmp_path, "test.json", n=10, seed=6)
        cfg = {
            "experiment": "synthetic-synthetic",
            "seed": 3,
            "forest": {"n_trees": 3, "max_features": 16, "min_leaf_size": 2,
                       "max_depth": None, "rng_seed": 3},
            "datasets": {"train": str(train), "test": str(test)},
        }
        cfg.update(overrides)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_runs_and_reruns_identically(self, tmp_path):
        cfg = self._config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["evaluate", "--config", str(cfg), "--output", str(a)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        report = fileio.read_report(a)
        assert "NAA/Cr" in report.target_names
        assert (tmp_path / "a.json.samples.csv").exists()

    def test_unknown_experiment_exits_2_listing_names(self, tmp_path, capsys):
        cfg = self._config(tmp_path, experiment="nonsense")
        code = main(["evaluate", "--config", str(cfg), "--output", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        for name in ("synthetic-synthetic", "real-real-spectra",
                     "real-real-images", "synthetic-real-images"):
            assert name in err

    def test_missing_dataset_exits_2(self, tmp_path):
        cfg = self._config(tmp_path, datasets={})
        assert main(["evaluate", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 2

    def _rewrite(self, cfg, **fields):
        doc = json.loads(cfg.read_text())
        doc.update(fields)
        cfg.write_text(json.dumps(doc))

    def test_unused_data_role_is_not_read(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("{}")
        cfg = self._config(tmp_path)
        datasets = json.loads(cfg.read_text())["datasets"]
        self._rewrite(cfg, datasets=dict(datasets, data=str(junk)))
        assert main(["evaluate", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 0
        assert fileio.read_report(tmp_path / "r.json").experiment["name"] == "synthetic-synthetic"

    def test_unused_train_role_is_not_read(self, tmp_path):
        cfg = self._config(tmp_path)
        data = json.loads(cfg.read_text())["datasets"]["train"]
        self._rewrite(cfg, experiment="real-real-spectra", k_folds=3,
                      datasets={"data": data, "train": str(tmp_path / "missing.json")})
        assert main(["evaluate", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 0
        assert fileio.read_report(tmp_path / "r.json").experiment["name"] == "real-real-spectra"

    @pytest.mark.parametrize("design,extra", [("real-real-images", {}),
                                              ("real-real-spectra", {"k_folds": 2})])
    def test_unlabelled_sets_are_scored_on_every_basis_ratio(self, tmp_path, capsys, design, extra):
        # the in-vivo case: with no target names and no labels, the oracle labels every basis ratio to Cr
        cfg = self._config(tmp_path, experiment=design, **extra)
        datasets = json.loads(cfg.read_text())["datasets"]
        for path in datasets.values():
            doc = json.loads(Path(path).read_text())
            doc["target_names"] = []
            for rec in doc["records"]:
                rec["labels"] = None
            Path(path).write_text(json.dumps(doc))
        self._rewrite(cfg, datasets=dict(datasets, data=datasets["train"]))
        out = tmp_path / "r.json"
        assert main(["evaluate", "--config", str(cfg), "--output", str(out)]) == 0
        report = fileio.read_report(out)
        assert report.target_names == ["NAA/Cr", "Cho/Cr", "mI/Cr", "Glx/Cr"]
        assert report.truth_source == "oracle_fit"
        assert f"experiment {design} (truth: oracle_fit)" in capsys.readouterr().out

    def _report_fields(self, cfg_path, doc):
        """The report evaluate writes for doc, less the config fingerprint."""
        cfg_path.write_text(json.dumps(doc))
        out = cfg_path.with_suffix(".report.json")
        assert main(["evaluate", "--config", str(cfg_path), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        del report["inputs"]["experiment_config_fingerprint"]
        return report

    @pytest.mark.parametrize("design,extra", [("synthetic-synthetic", {}),
                                              ("real-real-spectra", {"k_folds": 2})])
    def test_integer_valued_floats_read_as_integers(self, tmp_path, design, extra):
        doc = json.loads(self._config(tmp_path).read_text())
        doc.update(experiment=design, baseline_degree=2, **extra)
        doc["forest"].update(n_trees=2, max_depth=8)
        if design == "real-real-spectra":
            doc["datasets"] = {"data": doc["datasets"]["train"]}
        floats = dict(doc, seed=3.0, baseline_degree=2.0, **{k: float(v) for k, v in extra.items()},
                      forest=dict(doc["forest"], n_trees=2.0, max_depth=8.0, rng_seed=3.0))
        assert (self._report_fields(tmp_path / "floats.json", floats)
                == self._report_fields(tmp_path / "ints.json", doc))

    @pytest.mark.parametrize("seed", [3.5, True])
    def test_fractional_or_boolean_seed_exits_2(self, tmp_path, capsys, seed):
        cfg = self._config(tmp_path, seed=seed)
        assert main(["evaluate", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 2
        assert f"seed must be an integer >= 0, got {seed!r}" in capsys.readouterr().err

    def test_unknown_forest_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = self._config(tmp_path, forest={"n_tress": 3})
        assert main(["evaluate", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 2
        assert "n_tress" in capsys.readouterr().err

    def test_bootstrap_is_not_an_evaluate_forest_key(self, tmp_path, capsys):
        # the identity bootstrap is a library test hook: it leaves no out-of-bag rows
        cfg = self._config(tmp_path, forest={"bootstrap": "identity", "n_trees": 2, "max_features": 4})
        assert main(["evaluate", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: unknown forest key 'bootstrap'")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("design", ["synthetic-synthetic", "real-real-images"])
    def test_thread_count_does_not_change_the_outputs(self, tmp_path, design):
        # at 2 or more workers the datasets are read in forked workers; real-real-images
        # takes its truth from the oracle and, preprocessing, reads its test set whole
        cfg = self._config(tmp_path, experiment=design)
        if design == "real-real-images":
            mrsi = dict(ACQ_SMALL, spectral_width_hz=2000.0, n_points=200)
            test = simulate(tmp_path, "mrsi.json", n=10, seed=7, config_fields={"acquisition": mrsi})
            self._rewrite(cfg, preprocess=True,
                          datasets=dict(json.loads(cfg.read_text())["datasets"], test=str(test)))
        outputs = {}
        for threads in ("1", "2", "3"):
            out = tmp_path / f"r{threads}.json"
            assert main(["evaluate", "--config", str(cfg), "--output", str(out), "--threads", threads]) == 0
            outputs[threads] = [out.read_bytes(), (tmp_path / f"r{threads}.json.samples.csv").read_bytes()]
            assert multiprocessing.active_children() == []
        assert outputs["2"] == outputs["1"] and outputs["3"] == outputs["1"]
        assert fileio.read_report(tmp_path / "r1.json").truth_source == (
            "simulation_labels" if design == "synthetic-synthetic" else "oracle_fit")

    @pytest.mark.parametrize("preprocess", [False, True])
    def test_sets_are_read_in_workers_only_when_none_is_read_whole(self, tmp_path, monkeypatch, preprocess):
        # preprocessing reads the test set whole, and pickling those spectra back from a worker
        # would raise the peak, so at 2 workers both sets are then read in this process
        cfg = self._config(tmp_path, preprocess=preprocess)
        read, here = fileio.read_dataset, []
        monkeypatch.setattr(fileio, "read_dataset", lambda path, **kw: here.append(path) or read(path, **kw))
        assert main(["evaluate", "--config", str(cfg), "--output", str(tmp_path / "r.json"),
                     "--threads", "2"]) == 0
        assert len(here) == (2 if preprocess else 0)

    def test_a_failed_read_at_two_workers_is_named_in_role_order(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        good = json.loads(cfg.read_text())["datasets"]
        bad = {role: tmp_path / f"bad-{role}.json" for role in good}
        for path in bad.values():
            path.write_text("{}")

        def evaluate(threads, **datasets):
            self._rewrite(cfg, datasets=dict(good, **{role: str(path) for role, path in datasets.items()}))
            code = main(["evaluate", "--config", str(cfg), "--output", str(tmp_path / "r.json"),
                         "--threads", threads])
            assert multiprocessing.active_children() == []
            return code, capsys.readouterr().err

        code, err = evaluate("2", **bad)
        assert code == 2 and str(bad["train"]) in err and str(bad["test"]) not in err
        code, err = evaluate("2", test=bad["test"])
        assert code == 2 and str(bad["test"]) in err
        for role in ("train", "test"):
            missing = {role: tmp_path / "missing.json"}
            serial = evaluate("1", **missing)
            assert serial[0] == 2 and evaluate("2", **missing) == serial
        assert not (tmp_path / "r.json").exists()

    def test_spectrum_the_oracle_refused_is_not_predicted(self, tmp_path):
        # the negated row has no positive Cr peak, so the forest's features could not be built for it
        train = tmp_path / "default-grid.json"
        assert main(["simulate", "--seed", "1", "--n-spectra", "80", "--output", str(train)]) == 0
        mrsi = dict(ACQ_SMALL, spectral_width_hz=2000.0, n_points=200)
        test = simulate(tmp_path, "mrsi.json", n=20, seed=7, config_fields={"acquisition": mrsi})
        dataset = fileio.read_dataset(test)
        dataset.values[3] *= -1
        fileio.write_dataset(test, dataset)
        cfg = self._config(tmp_path, experiment="real-real-images",
                           datasets={"train": str(train), "test": str(test)})
        assert main(["evaluate", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 0
        report = fileio.read_report(tmp_path / "r.json")
        assert report.notes == {"test_oracle_failures": 1}
        assert all(len(report.per_sample[t]["truth"]) == 19 for t in report.target_names)

    def test_degenerate_labels_exit_4(self, tmp_path):
        # constant labels make the Pearson score undefined: numerical-failure exit
        const = {"concentration_ranges": {"NAA": [1.5, 1.5], "Cho": [0.4, 0.4], "Cr": [1.0, 1.0]}}
        train = simulate(tmp_path, "ctrain.json", n=20, config_fields=const)
        test = simulate(tmp_path, "ctest.json", n=8, seed=9, config_fields=const)
        cfg = tmp_path / "cexp.json"
        cfg.write_text(json.dumps({
            "experiment": "synthetic-synthetic",
            "seed": 3,
            "forest": {"n_trees": 2, "max_features": 8, "min_leaf_size": 2,
                       "max_depth": None, "rng_seed": 3},
            "datasets": {"train": str(train), "test": str(test)},
        }))
        assert main(["evaluate", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 4


class TestOobScan:
    def test_sweep_csv(self, tmp_path):
        data = simulate(tmp_path, n=25)
        out = tmp_path / "oob.csv"
        code = main(["oob-scan", "--dataset", str(data), "--seed", "2", "--trees", "3",
                     "--features", "4,16", "--output", str(out)])
        assert code == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 * 2 * 3  # feature settings x targets x tree counts
        assert {r["max_features"] for r in rows} == {"4", "16"}

    def test_default_features_fit_the_default_grid(self, tmp_path):
        data = tmp_path / "data.json"
        assert main(["simulate", "--seed", "5", "--n-spectra", "20", "--output", str(data)]) == 0
        out = tmp_path / "oob.csv"
        assert main(["oob-scan", "--dataset", str(data), "--seed", "2", "--trees", "2",
                     "--output", str(out)]) == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert {r["max_features"] for r in rows} == {"1", "4", "16", "64", "128"}

    @pytest.mark.parametrize("features,message", [
        ("x,4", "--features must be a comma-separated integer list"),
        (",", "--features must name at least one value"),
    ])
    def test_malformed_feature_list_exits_2(self, tmp_path, capsys, features, message):
        data = simulate(tmp_path, n=12)
        out = tmp_path / "oob.csv"
        assert main(["oob-scan", "--dataset", str(data), "--seed", "2", "--trees", "2",
                     "--features", features, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_oversize_feature_value_exits_2_before_any_tree(self, tmp_path, monkeypatch, capsys):
        from mrsquant import cli

        data = simulate(tmp_path, n=25)
        calls = []
        monkeypatch.setattr(cli, "fit_forest", lambda *a, **k: calls.append(a))
        out = tmp_path / "oob.csv"
        assert main(["oob-scan", "--dataset", str(data), "--seed", "2", "--trees", "3",
                     "--features", "4,999", "--output", str(out)]) == 2
        assert "999" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


class TestThreads:
    def test_flag_alone_sets_the_count(self, tmp_path, monkeypatch):
        # a count below 1 counts as 1; an MRSQUANT_THREADS variable in the environment is ignored
        monkeypatch.setenv("MRSQUANT_THREADS", "8")
        cfg = write_config(tmp_path / "cfg.json")
        for threads in ("1", "0", "-3"):
            data, model = tmp_path / f"data{threads}.json", tmp_path / f"model{threads}.json"
            assert main(["simulate", "--config", cfg, "--seed", "9", "--n-spectra", "150",
                         "--threads", threads, "--output", str(data)]) == 0
            assert main(["train", "--dataset", str(data), "--seed", "3", "--trees", "4", "--max-features", "8",
                         "--min-leaf", "2", "--threads", threads, "--output", str(model)]) == 0
        for name in ("data{}.json", "model{}.json", "model{}.json.oob.csv"):
            serial = (tmp_path / name.format("1")).read_bytes()
            assert [(tmp_path / name.format(t)).read_bytes() for t in ("0", "-3")] == [serial, serial]

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "mrsquant.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "oob-scan" in proc.stdout
