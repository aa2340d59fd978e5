import json
import math
import tracemalloc

import numpy as np
import pytest

from mrsquant import fileio
from mrsquant.basis import default_brain_basis
from mrsquant.dataset import Dataset, dataset_from_labeled
from mrsquant.errors import FileFormatError, UnsupportedVersionError, ValidationError
from mrsquant.evaluate import ExperimentSpec, run_experiment, summarize_errors
from mrsquant.forest import ForestConfig
from mrsquant.pipeline import features_for_dataset, train_model
from mrsquant.signal import AcquisitionParams, ppm_axis
from mrsquant.simulate import SimulationConfig, simulate_dataset

PARAMS = AcquisitionParams(spectral_width=2500.0, n_points=256, transmitter_freq=127.7)
BASIS = default_brain_basis(PARAMS)
WIDE = AcquisitionParams(spectral_width=2500.0, n_points=1024, transmitter_freq=127.7)


def small_dataset(n=12, seed=5):
    cfg = SimulationConfig(basis=BASIS, n_spectra=n, rng_seed=seed)
    config_dict = fileio.sim_config_to_dict(cfg)
    return dataset_from_labeled(simulate_dataset(cfg), config_dict, cfg.target_names)


class TestBasisFile:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "basis.json"
        fileio.write_basis(path, BASIS)
        loaded = fileio.read_basis(path)
        assert loaded.names == BASIS.names
        assert loaded.params == BASIS.params
        assert loaded.reference_ppm == BASIS.reference_ppm
        for a, b in zip(loaded.metabolites, BASIS.metabolites):
            assert a.components == b.components

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "format_version": 1}')
        with pytest.raises(FileFormatError):
            fileio.read_basis(path)

    def test_rewrite_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        fileio.write_basis(a, BASIS)
        fileio.write_basis(b, fileio.read_basis(a))
        assert a.read_bytes() == b.read_bytes()


class TestDatasetFile:
    def test_round_trip_lossless(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "data.json"
        fileio.write_dataset(path, ds)
        loaded = fileio.read_dataset(path)
        assert np.array_equal(loaded.values, ds.values)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.target_names == ds.target_names
        assert loaded.fingerprint == ds.fingerprint
        assert np.array_equal(loaded.ppm_axis, ppm_axis(loaded.params, loaded.reference_ppm))
        assert np.array_equal(loaded.ppm_axis, ds.ppm_axis)
        assert loaded.params == ds.params

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = small_dataset()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        fileio.write_dataset(a, ds)
        fileio.write_dataset(b, fileio.read_dataset(a))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("with_labels", [True, False])
    def test_record_lines_are_the_json_of_each_record(self, tmp_path, with_labels):
        ds = small_dataset(n=4)
        if not with_labels:
            ds = Dataset(ds.params, ds.reference_ppm, ds.values, ds.target_names)
        path = tmp_path / "data.json"
        fileio.write_dataset(path, ds)
        lines = path.read_text(encoding="utf-8").split("\n")
        start = lines.index('"records": [') + 1
        assert lines[start + ds.n_spectra:] == ["]}", ""]
        for i, line in enumerate(lines[start:start + ds.n_spectra]):
            expected = json.dumps({
                "labels": dict(zip(ds.target_names, ds.labels[i].tolist())) if with_labels else None,
                "truth_params": ds.truth_params[i] if with_labels else None,
                "spectrum_b64": fileio.encode_spectrum(ds.values[i]),
            })
            assert line == expected + ("," if i < ds.n_spectra - 1 else "")

    def test_read_peak_memory_near_twice_the_file(self, tmp_path):
        # the text and the parsed records, then one copy of the spectra
        cfg = SimulationConfig(basis=default_brain_basis(WIDE), n_spectra=200, rng_seed=9)
        path = tmp_path / "data.json"
        fileio.write_dataset(path, dataset_from_labeled(
            simulate_dataset(cfg), fileio.sim_config_to_dict(cfg), cfg.target_names))
        tracemalloc.start()
        try:
            loaded = fileio.read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * path.stat().st_size
        values = loaded.values
        assert values.dtype == np.complex128 and values.shape == (200, WIDE.n_points)
        assert values.flags.c_contiguous and values.flags.writeable

    def test_read_peak_memory_near_the_spectra(self, tmp_path):
        # one window of text beside the decoded spectra and the records' labels and truth
        cfg = SimulationConfig(basis=default_brain_basis(WIDE), n_spectra=200, rng_seed=9)
        path = tmp_path / "data.json"
        fileio.write_dataset(path, dataset_from_labeled(
            simulate_dataset(cfg), fileio.sim_config_to_dict(cfg), cfg.target_names))
        tracemalloc.start()
        try:
            loaded = fileio.read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * loaded.values.nbytes

    @pytest.mark.parametrize("edit", [
        lambda rec: rec.update(spectrum_b64=rec["spectrum_b64"][:-8]),
        lambda rec: rec.update(spectrum_b64="not base64!"),
        lambda rec: rec.pop("spectrum_b64"),
    ])
    def test_unreadable_spectrum_names_its_record(self, tmp_path, edit):
        path = tmp_path / "data.json"
        fileio.write_dataset(path, small_dataset(n=3))
        doc = json.loads(path.read_text())
        edit(doc["records"][1])
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=r"record 1 has no readable spectrum_b64"):
            fileio.read_dataset(path)

    def test_regenerate_from_embedded_config(self, tmp_path):
        ds = small_dataset()
        a = tmp_path / "a.json"
        fileio.write_dataset(a, ds)
        embedded = json.loads(a.read_text())["config"]
        cfg = fileio.sim_config_from_dict(embedded)
        regenerated = dataset_from_labeled(
            simulate_dataset(cfg), fileio.sim_config_to_dict(cfg), cfg.target_names
        )
        b = tmp_path / "b.json"
        fileio.write_dataset(b, regenerated)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        fileio.write_dataset(path, small_dataset())
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(FileFormatError) as err:
            fileio.read_dataset(path)
        assert "line" in str(err.value)

    def test_sim_config_round_trip_with_infinity(self):
        cfg = SimulationConfig(basis=BASIS, n_spectra=3, rng_seed=1,
                               snr_range=(math.inf, math.inf))
        d = fileio.sim_config_to_dict(cfg)
        text = json.dumps(d)
        back = fileio.sim_config_from_dict(json.loads(text))
        assert back.snr_range == (math.inf, math.inf)
        assert back.concentration_ranges == cfg.concentration_ranges

    def test_sim_config_keys_are_the_written_keys(self):
        # sim_config_from_dict refuses any other key, so a written config always reads back
        d = fileio.sim_config_to_dict(SimulationConfig(basis=BASIS, n_spectra=3, rng_seed=1))
        assert tuple(d) == fileio.SIM_CONFIG_KEYS
        with pytest.raises(ValidationError, match="unknown simulate config key 'snr_rnge'"):
            fileio.sim_config_from_dict({**d, "snr_rnge": [1e9, 1e9]})


class TestModelFile:
    def _model(self):
        ds = small_dataset(n=30, seed=9)
        config = ForestConfig(n_trees=3, max_features=16, min_leaf_size=2, rng_seed=4)
        return train_model(ds, config), ds

    def test_round_trip_identical_predictions(self, tmp_path):
        model, ds = self._model()
        path = tmp_path / "model.json"
        fileio.write_model(path, model)
        loaded = fileio.read_model(path)
        rng = np.random.default_rng(0)
        probe = rng.normal(size=(100, model.feature_meta.grid.size))
        assert np.array_equal(model.predict_matrix(probe), loaded.predict_matrix(probe))
        assert loaded.target_names == model.target_names
        assert np.array_equal(loaded.feature_meta.grid, model.feature_meta.grid)
        assert np.array_equal(loaded.oob_curves[0], model.oob_curves[0])

    def test_rewrite_byte_identical(self, tmp_path):
        model, _ = self._model()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        fileio.write_model(a, model)
        fileio.write_model(b, fileio.read_model(a))
        assert a.read_bytes() == b.read_bytes()

    def test_stored_reference_ppm_is_ignored(self, tmp_path):
        # files written before the key was dropped still carry feature.reference_ppm
        model, ds = self._model()
        path = tmp_path / "model.json"
        fileio.write_model(path, model)
        doc = json.loads(path.read_text())
        assert "reference_ppm" not in doc["feature"]
        doc["feature"]["reference_ppm"] = ds.reference_ppm
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        X = features_for_dataset(model.feature_meta, ds)
        expected = fileio.read_model(path).predict_matrix(X)
        assert np.array_equal(fileio.read_model(old).predict_matrix(X), expected)
        again = tmp_path / "again.json"
        fileio.write_model(again, fileio.read_model(old))
        assert again.read_bytes() == path.read_bytes()

    def test_truncated_file_raises(self, tmp_path):
        model, _ = self._model()
        path = tmp_path / "model.json"
        fileio.write_model(path, model)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])
        with pytest.raises(FileFormatError):
            fileio.read_model(path)

    def test_version_mismatch_raises(self, tmp_path):
        model, _ = self._model()
        path = tmp_path / "model.json"
        fileio.write_model(path, model)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersionError):
            fileio.read_model(path)

    def test_other_feature_kind_refused(self, tmp_path):
        # a model trained on differently scaled features must not be applied silently
        model, _ = self._model()
        path = tmp_path / "model.json"
        fileio.write_model(path, model)
        doc = json.loads(path.read_text())
        assert doc["feature"]["kind"] == "real_cr_normalized"
        assert "reference_values" not in doc["feature"]
        doc["feature"]["kind"] = "real_normalized"
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersionError, match="real_normalized"):
            fileio.read_model(path)


class TestReportFile:
    def _report(self):
        train = small_dataset(n=40, seed=13)
        test = small_dataset(n=15, seed=14)
        spec = ExperimentSpec(
            name="synthetic-synthetic",
            forest=ForestConfig(n_trees=4, max_features=16, min_leaf_size=2, rng_seed=2),
        )
        return run_experiment(spec, {"train": train, "test": test})

    def test_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        fileio.write_report(path, report)
        loaded = fileio.read_report(path)
        assert loaded == report
        rewritten = tmp_path / "again.json"
        fileio.write_report(rewritten, loaded)
        assert rewritten.read_bytes() == path.read_bytes()

    def test_summary_recomputable_from_per_sample(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        fileio.write_report(path, report)
        loaded = fileio.read_report(path)
        for target in loaded.target_names:
            per = loaded.per_sample[target]
            recomputed = summarize_errors(np.array(per["forest_estimate"]), np.array(per["truth"]))
            assert recomputed == loaded.summary[target]["forest"]

    def test_samples_csv_rfc4180(self, tmp_path):
        report = self._report()
        path = tmp_path / "samples.csv"
        fileio.write_samples_csv(path, report)
        raw = path.read_bytes()
        assert b"\r\n" in raw
        header = raw.split(b"\r\n", 1)[0].decode()
        assert header.split(",")[:3] == ["target", "sample_index", "estimator"]
        n_rows = raw.count(b"\r\n") - 1
        assert n_rows == 2 * 2 * 15  # two targets, two estimators, 15 samples

    def test_oob_csv(self, tmp_path):
        ds = small_dataset(n=30, seed=9)
        config = ForestConfig(n_trees=3, max_features=16, min_leaf_size=2, rng_seed=4)
        model = train_model(ds, config)
        path = tmp_path / "oob.csv"
        entries = [(name, 16, curve) for name, curve in zip(model.target_names, model.oob_curves)]
        fileio.write_oob_csv(path, entries, "abc123")
        lines = path.read_bytes().decode().strip().split("\r\n")
        assert lines[0] == "target,max_features,n_trees,oob_error,config_fingerprint"
        assert len(lines) == 1 + 2 * 3


def _same_dataset(a, b):
    assert a.values.tobytes() == b.values.tobytes()
    assert np.array_equal(a.labels, b.labels)
    assert a.truth_params == b.truth_params
    assert a.config == b.config
    assert a.fingerprint == b.fingerprint


def _json_error(text):
    with pytest.raises(json.JSONDecodeError) as err:
        json.loads(text)
    return err.value


class TestJsonScanner:
    """load_json reads a file through a window of its text and gives what json.load gives."""

    @pytest.mark.parametrize("window", [1, 3, 7, 64])
    def test_dataset_layouts_read_alike_whatever_the_window(self, tmp_path, monkeypatch, window):
        ds = small_dataset()
        path = tmp_path / "data.json"
        fileio.write_dataset(path, ds)
        doc = json.loads(path.read_text())
        layouts = {"written": path.read_text(), "one line": json.dumps(doc),
                   "indent": json.dumps(doc, indent=2), "sorted": json.dumps(doc, sort_keys=True)}
        monkeypatch.setattr(fileio, "_WINDOW", window)  # so that every token straddles a window edge
        for name, text in layouts.items():
            layout = tmp_path / f"{name}.json"
            layout.write_text(text)
            _same_dataset(fileio.read_dataset(layout), ds)

    @pytest.mark.parametrize("window", [1, 5, fileio._WINDOW])
    def test_model_report_and_basis_load_as_json_load(self, tmp_path, monkeypatch, window):
        model, _ = TestModelFile()._model()
        paths = [tmp_path / name for name in ("model.json", "report.json", "basis.json")]
        fileio.write_model(paths[0], model)
        fileio.write_report(paths[1], TestReportFile()._report())
        fileio.write_basis(paths[2], BASIS)
        monkeypatch.setattr(fileio, "_WINDOW", window)
        for path in paths:
            with open(path, encoding="utf-8") as f:
                assert fileio.load_json(path, lambda d: d) == json.load(f)

    @pytest.mark.parametrize("window", [5, fileio._WINDOW])
    def test_truncated_dataset_is_refused_where_json_refuses_it(self, tmp_path, monkeypatch, window):
        source = tmp_path / "data.json"
        fileio.write_dataset(source, small_dataset(n=4))
        text = source.read_text()
        records = text.index('"records": [')
        # in the header, in a truth dict, in a spectrum, between records, before the closing brackets, and evenly
        cuts = [1, text.index('"acquisition"') + 9, text.index('"ppm_axis"') + 40, records - 1, records + 12,
                text.index('"truth_params": {') + 40, text.index('"spectrum_b64": "') + 100,
                text.index("},\n{") + 1, text.index("},\n{") + 3, text.rindex('"}') - 1, text.rindex("]}"),
                text.rindex("}")] + [len(text) * k // 9 for k in range(1, 9)]
        monkeypatch.setattr(fileio, "_WINDOW", window)
        path = tmp_path / "cut.json"
        for cut in cuts:
            path.write_text(text[:cut])
            expected = _json_error(text[:cut])
            with pytest.raises(FileFormatError) as err:
                fileio.read_dataset(path)
            assert str(path) in str(err.value)
            assert f"line {expected.lineno} column {expected.colno}: {expected.msg}" in str(err.value)

    @pytest.mark.parametrize("edit", [
        lambda text: text + "{}\n",
        lambda text: text.replace("},\n{", "}\n{", 1),
        lambda text: text.replace(",\n", "\n", 1),
    ], ids=["trailing-data", "no-comma-between-records", "no-comma-in-the-header"])
    @pytest.mark.parametrize("window", [5, fileio._WINDOW])
    def test_malformed_dataset_reports_json_loads_position(self, tmp_path, monkeypatch, edit, window):
        source = tmp_path / "data.json"
        fileio.write_dataset(source, small_dataset(n=4))
        text = edit(source.read_text())
        path = tmp_path / "bad.json"
        path.write_text(text)
        expected = _json_error(text)
        monkeypatch.setattr(fileio, "_WINDOW", window)
        with pytest.raises(FileFormatError) as err:
            fileio.read_dataset(path)
        assert f"{path}: malformed JSON at line {expected.lineno} column {expected.colno}: {expected.msg}" \
            == str(err.value)
