"""Persistent file formats: basis sets, datasets, models, reports, plot CSVs.

All JSON artifacts embed a format version plus the configuration (and its
fingerprint) needed to regenerate them byte-for-byte.  Spectra are stored
as little-endian float64 interleaved real/imag, base64-encoded per record.
CSV output follows RFC 4180 (CRLF, header row).
"""

import base64
import binascii
import contextlib
import csv
import dataclasses
import json
import os

import numpy as np

from .basis import basis_from_config, basis_from_dict, basis_to_dict
from .dataset import Dataset, config_fingerprint
from .errors import FileFormatError, MrsQuantError, UnsupportedVersionError, ValidationError, known_keys
from .evaluate import EvalReport
from .forest import ForestConfig, RandomForestModel, RegressionTree
from .pipeline import FEATURE_KIND, FeatureMeta
from .signal import AcquisitionParams, grids_match, ppm_axis
from .simulate import SNR_DEFINITION, SimulationConfig, simulate_chunks

FORMAT_VERSION = 1


# ---------------------------------------------------------------- helpers

def load_json(path, build, expected_format=None):
    """build(doc) for the JSON document at path; the one place a parse error becomes FileFormatError.

    With expected_format, the document must be an object carrying that
    format tag and FORMAT_VERSION.  A KeyError raised while building becomes
    FileFormatError naming the missing field; a TypeError, ValueError,
    AttributeError, IndexError or OverflowError becomes FileFormatError for a
    malformed field.  A MrsQuantError raised by build is raised again as the
    same class, so every refusal of the file's content names the file here.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path}: malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise FileFormatError(f"{path}: not UTF-8 text: {e}") from e
    if expected_format is not None:
        if not isinstance(doc, dict) or doc.get("format") != expected_format:
            raise FileFormatError(f"{path}: not a {expected_format} file")
        version = doc.get("format_version")
        if version != FORMAT_VERSION:
            raise UnsupportedVersionError(
                f"{path}: format version {version!r} is not supported (expected {FORMAT_VERSION})"
            )
    try:
        return build(doc)
    except MrsQuantError as e:
        raise type(e)(f"{path}: {e}") from e
    except KeyError as e:
        raise FileFormatError(f"{path}: missing field {e}") from e
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as e:
        raise FileFormatError(f"{path}: malformed field: {e}") from e


def encode_spectrum(values):
    return base64.b64encode(np.ascontiguousarray(values, dtype="<c16").tobytes()).decode("ascii")


def _write_header(f, header):
    """Open a JSON object on f and write one key: value line per header entry."""
    f.write("{\n")
    for key, val in header.items():
        f.write(f"{json.dumps(key)}: {json.dumps(val)},\n")


def decode_spectrum(text, n_points):
    """The bytes of the n_points complex values base64 text holds, or None when it holds no such block."""
    if not isinstance(text, str) or not text.isascii():
        return None
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error:
        return None
    return raw if len(raw) == 16 * n_points else None


def acquisition_to_dict(params):
    return {
        "spectral_width_hz": params.spectral_width,
        "n_points": params.n_points,
        "transmitter_freq_mhz": params.transmitter_freq,
        "echo_time_ms": params.echo_time,
        "repetition_time_ms": params.repetition_time,
    }


def acquisition_from_dict(d):
    return AcquisitionParams(
        spectral_width=d["spectral_width_hz"],
        n_points=d["n_points"],
        transmitter_freq=d["transmitter_freq_mhz"],
        echo_time=d.get("echo_time_ms"),
        repetition_time=d.get("repetition_time_ms"),
    )


# ---------------------------------------------------------------- basis sets

def write_basis(path, basis):
    doc = {
        "format": "mrsquant-basis",
        "format_version": FORMAT_VERSION,
        "reference_ppm": basis.reference_ppm,
        "acquisition": acquisition_to_dict(basis.params),
    }
    doc.update(basis_to_dict(basis))
    doc["fingerprint"] = config_fingerprint(
        {k: v for k, v in doc.items() if k not in ("format", "format_version")}
    )
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def read_basis(path):
    def build(doc):
        return basis_from_dict(doc, acquisition_from_dict(doc["acquisition"]), doc["reference_ppm"])

    return load_json(path, build, "mrsquant-basis")


# ---------------------------------------------------------------- simulation configs

def sim_config_to_dict(config):
    return {
        "n_spectra": config.n_spectra,
        "rng_seed": config.rng_seed,
        "concentration_ranges": {k: list(v) for k, v in sorted(config.concentration_ranges.items())},
        "t2_scale_range": list(config.t2_scale_range),
        "snr_range": list(config.snr_range),
        "baseline_amplitude_range": list(config.baseline_amplitude_range),
        "lipid_amplitude_range": list(config.lipid_amplitude_range),
        "reference_ppm": config.basis.reference_ppm,
        "acquisition": acquisition_to_dict(config.basis.params),
        "basis": basis_to_dict(config.basis),
    }


_RANGE_FIELDS = ("concentration_ranges", "t2_scale_range", "snr_range",
                 "baseline_amplitude_range", "lipid_amplitude_range")
SIM_CONFIG_KEYS = ("n_spectra", "rng_seed", *_RANGE_FIELDS, "reference_ppm", "acquisition", "basis")


def sim_config_from_dict(d):
    """SimulationConfig from a mapping of SIM_CONFIG_KEYS; absent or null basis and ranges take the defaults."""
    known_keys("simulate config", d, SIM_CONFIG_KEYS)
    basis = basis_from_config(d, acquisition_from_dict(d["acquisition"]), d["reference_ppm"])
    ranges = {k: d[k] for k in _RANGE_FIELDS if d.get(k) is not None}
    return SimulationConfig(basis=basis, n_spectra=d["n_spectra"], rng_seed=d["rng_seed"], **ranges)


# ---------------------------------------------------------------- datasets

def _write_dataset_file(path, fingerprint, params, reference_ppm, target_names, config, chunks):
    """Write a dataset file holding the records of (values, labels, truth) chunks; labels and truth may be None.

    The file is written under a temporary name beside path and moved into
    place once complete, so a refusal raised while the chunks stream in
    leaves no truncated dataset behind.
    """
    header = {
        "format": "mrsquant-dataset",
        "format_version": FORMAT_VERSION,
        "fingerprint": fingerprint,
        "snr_definition": SNR_DEFINITION,
        "reference_ppm": reference_ppm,
        "acquisition": acquisition_to_dict(params),
        "target_names": list(target_names),
        "ppm_axis": ppm_axis(params, reference_ppm).tolist(),
        "config": config,
    }
    tmp = os.fspath(path) + f".{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            _write_header(f, header)
            f.write('"records": [\n')
            f.flush()  # so forked chunk workers inherit no unwritten output
            sep = ""
            for values, labels, truth in chunks:
                for i, row in enumerate(values):
                    rec = {
                        "labels": None if labels is None else dict(zip(target_names, labels[i].tolist())),
                        "truth_params": truth[i] if truth else None,
                    }
                    # base64 needs no JSON escaping, so the spectrum is spliced in as text
                    f.write(sep + json.dumps(rec)[:-1])
                    f.write(f', "spectrum_b64": "{encode_spectrum(row)}"}}')
                    sep = ",\n"
            f.write("\n]}\n" if sep else "]}\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_dataset(path, dataset):
    _write_dataset_file(path, dataset.fingerprint, dataset.params, dataset.reference_ppm, dataset.target_names,
                        dataset.config, [(dataset.values, dataset.labels, dataset.truth_params)])


def write_simulation(path, config, threads=1):
    """Simulate config's spectra into a dataset file chunk by chunk (see simulate_chunks); returns its fingerprint.

    The file is the one write_dataset writes for the same spectra.
    """
    config_dict = sim_config_to_dict(config)
    fingerprint = config_fingerprint(config_dict)
    with contextlib.closing(simulate_chunks(config, threads=threads)) as chunks:
        _write_dataset_file(path, fingerprint, config.basis.params, float(config.basis.reference_ppm),
                            config.target_names, config_dict, chunks)
    return fingerprint


def read_dataset(path):
    """Dataset from a file; a missing or malformed field, unreadable record or NaN/inf value raises FileFormatError."""
    def build(data):
        params = acquisition_from_dict(data["acquisition"])
        records = data["records"]
        target_names = list(data["target_names"])
        if len(records) == 0:
            raise ValidationError("dataset holds no spectra")
        # each string is dropped as it is decoded, so its memory can hold the next block
        blocks = []
        for i, r in enumerate(records):
            block = decode_spectrum(r.pop("spectrum_b64", None), params.n_points)
            if block is None:
                raise FileFormatError(f"record {i} has no readable spectrum_b64 of {params.n_points} points")
            blocks.append(block)
        values = np.frombuffer(bytearray().join(blocks), "<c16").reshape(len(records), params.n_points)
        del blocks  # one copy of the spectra from here on
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            raise FileFormatError(f"record {bad[0]} holds a non-finite spectrum value (NaN or inf); "
                                  f"{bad.size} records do")
        labelled = [r.get("labels") is not None for r in records]
        if len(set(labelled)) > 1:
            raise FileFormatError(f"record {labelled.index(not labelled[0])} and record 0 "
                                  "disagree on carrying labels")
        labels = None
        if labelled[0] and target_names:
            labels = [[r["labels"][t] for t in target_names] for r in records]
        truth = [r.get("truth_params") for r in records]
        dataset = Dataset(
            params=params,
            reference_ppm=data["reference_ppm"],
            values=values,
            target_names=target_names,
            labels=labels,
            truth_params=truth if any(t is not None for t in truth) else None,
            config=data.get("config"),
            fingerprint=data.get("fingerprint"),
        )
        if not grids_match(data["ppm_axis"], dataset.ppm_axis):  # the axis every reader uses is derived
            raise FileFormatError("stored ppm_axis is not the axis of the acquisition and reference_ppm")
        dataset.basis  # an embedded basis the oracle cannot build is refused here
        return dataset

    return load_json(path, build, "mrsquant-dataset")


# ---------------------------------------------------------------- models

def _tree_to_dict(tree):
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
    }


def _tree_from_dict(target, index, d):
    try:
        return RegressionTree(d["feature"], d["threshold"], d["left"], d["right"], d["value"])
    except ValidationError as e:
        raise FileFormatError(f"tree {index} of target {target!r}: {e}") from e


def model_fingerprint(model):
    return config_fingerprint(
        {
            "dataset_fingerprint": model.dataset_fingerprint,
            "forest_config": dataclasses.asdict(model.config),
        }
    )


def write_model(path, model):
    meta = model.feature_meta
    if meta is None:
        raise ValidationError("cannot persist a model without feature metadata")
    header = {
        "format": "mrsquant-model",
        "format_version": FORMAT_VERSION,
        "fingerprint": model_fingerprint(model),
        "dataset_fingerprint": model.dataset_fingerprint,
        "config": dataclasses.asdict(model.config),
        "target_names": list(model.target_names),
        "feature": {
            "kind": FEATURE_KIND,
            "crop_hi_ppm": meta.crop_hi,
            "crop_lo_ppm": meta.crop_lo,
            "acquisition": acquisition_to_dict(meta.acquisition),
            "grid_ppm": meta.grid.tolist(),
        },
        "oob": {
            name: (curve.tolist() if curve is not None else None)
            for name, curve in zip(model.target_names, model.oob_curves)
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        _write_header(f, header)
        f.write('"forests": {\n')
        for t, name in enumerate(model.target_names):
            f.write(f"{json.dumps(name)}: [\n")
            trees = model.forests[t]
            for i, tree in enumerate(trees):
                f.write(json.dumps(_tree_to_dict(tree)))
                f.write(",\n" if i < len(trees) - 1 else "\n")
            f.write("]" + (",\n" if t < len(model.target_names) - 1 else "\n"))
        f.write("}}\n")


def read_model(path):
    """Model from a file; a missing or malformed field or tree raises FileFormatError."""
    def build(data):
        fdict = data["feature"]
        if fdict["kind"] != FEATURE_KIND:
            raise UnsupportedVersionError(f"feature kind {fdict['kind']!r} is not supported "
                                          f"(expected {FEATURE_KIND!r}); retrain the model")
        meta = FeatureMeta(
            grid=np.asarray(fdict["grid_ppm"], dtype=np.float64),
            crop_hi=float(fdict["crop_hi_ppm"]),
            crop_lo=float(fdict["crop_lo_ppm"]),
            acquisition=acquisition_from_dict(fdict["acquisition"]),
        )
        target_names = list(data["target_names"])
        forests = [[_tree_from_dict(name, i, t) for i, t in enumerate(data["forests"][name])]
                   for name in target_names]
        if any(tree.feature.max() >= meta.grid.size for trees in forests for tree in trees):
            raise FileFormatError(f"a tree splits on a feature past the {meta.grid.size} grid bins")
        oob = [
            np.asarray(data["oob"][name], dtype=np.float64) if data["oob"][name] is not None else None
            for name in target_names
        ]
        return RandomForestModel(
            config=ForestConfig(**data["config"]),
            target_names=target_names,
            forests=forests,
            oob_curves=oob,
            feature_meta=meta,
            dataset_fingerprint=data.get("dataset_fingerprint"),
        )

    return load_json(path, build, "mrsquant-model")


# ---------------------------------------------------------------- reports

def write_report(path, report):
    doc = {"format": "mrsquant-report", "format_version": FORMAT_VERSION, **dataclasses.asdict(report)}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def read_report(path):
    def build(data):
        return EvalReport(**{k: v for k, v in data.items() if k not in ("format", "format_version")})

    return load_json(path, build, "mrsquant-report")


# ---------------------------------------------------------------- CSV emission

def write_samples_csv(path, report):
    """Per-sample truth/estimate/error rows for regression and boxplot rendering."""
    fingerprint = config_fingerprint(report.inputs)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["target", "sample_index", "estimator", "truth", "estimate",
                    "relative_error", "config_fingerprint"])
        for name in report.target_names:
            block = report.per_sample[name]
            for estimator in ("forest", "oracle"):
                if block.get(f"{estimator}_estimate") is None:
                    continue
                for i, (t, e, err) in enumerate(
                    zip(block["truth"], block[f"{estimator}_estimate"], block[f"{estimator}_error"])
                ):
                    w.writerow([name, i, estimator, repr(t), repr(e), repr(err), fingerprint])


def write_oob_csv(path, entries, fingerprint):
    """OOB error-vs-trees rows; entries are (target, max_features, curve)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["target", "max_features", "n_trees", "oob_error", "config_fingerprint"])
        for target, max_features, curve in entries:
            for m, err in enumerate(curve, start=1):
                w.writerow([target, max_features, m, repr(float(err)), fingerprint])


def write_predictions_csv(path, target_names, estimates, fingerprint):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["sample_index"] + list(target_names) + ["model_fingerprint"])
        for i, row in enumerate(np.asarray(estimates)):
            w.writerow([i] + [repr(float(v)) for v in row] + [fingerprint])

