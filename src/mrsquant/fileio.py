"""Persistent file formats: basis sets, datasets, models, reports, plot CSVs.

All JSON artifacts embed a format version plus the configuration (and its
fingerprint) needed to regenerate them byte-for-byte.  Spectra are stored
as little-endian float64 interleaved real/imag, base64-encoded per record.
CSV output follows RFC 4180 (CRLF, header row).
"""

import base64
import binascii
import csv
import dataclasses
import json

import numpy as np

from .basis import BasisSet, MetaboliteBasis, default_brain_basis
from .dataset import Dataset, config_fingerprint
from .errors import FileFormatError, UnsupportedVersionError, ValidationError
from .forest import ForestConfig, RandomForestModel, RegressionTree
from .pipeline import FEATURE_KIND, FeatureMeta, basis_for_dataset
from .signal import AcquisitionParams, LorentzianComponent
from .simulate import SNR_DEFINITION, SimulationConfig

FORMAT_VERSION = 1


# ---------------------------------------------------------------- helpers

def load_json(path, build, expected_format=None):
    """build(doc) for the JSON document at path; the one place a parse error becomes FileFormatError.

    With expected_format, the document must be an object carrying that
    format tag and FORMAT_VERSION.  A KeyError raised while building becomes
    FileFormatError naming the missing field; a TypeError, ValueError,
    AttributeError, IndexError or OverflowError becomes FileFormatError for a
    malformed field.  MrsQuantErrors raised by build pass through unchanged.
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
    except KeyError as e:
        raise FileFormatError(f"{path}: missing field {e}") from e
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as e:
        raise FileFormatError(f"{path}: malformed field: {e}") from e


def encode_spectrum(values):
    return base64.b64encode(np.ascontiguousarray(values, dtype="<c16").tobytes()).decode("ascii")


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

def basis_to_dict(basis):
    return {
        "metabolites": [
            {
                "name": m.name,
                "components": [
                    {
                        "shift_ppm": c.chemical_shift,
                        "amplitude": c.amplitude,
                        "t2_s": c.t2,
                        "phase0_rad": c.phase0,
                    }
                    for c in m.components
                ],
            }
            for m in basis.metabolites
        ],
    }


def basis_from_dict(d, params, reference_ppm):
    metabolites = tuple(
        MetaboliteBasis(
            m["name"],
            tuple(
                LorentzianComponent(c["shift_ppm"], c["amplitude"], c["t2_s"], c.get("phase0_rad", 0.0))
                for c in m["components"]
            ),
        )
        for m in d["metabolites"]
    )
    return BasisSet(metabolites, params, reference_ppm)


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


def sim_config_from_dict(d):
    """SimulationConfig from a config mapping; absent or null basis and ranges take the defaults."""
    params = acquisition_from_dict(d["acquisition"])
    reference_ppm = d["reference_ppm"]
    if d.get("basis") is not None:
        basis = basis_from_dict(d["basis"], params, reference_ppm)
    else:
        basis = default_brain_basis(params, reference_ppm)
    ranges = {k: d[k] for k in _RANGE_FIELDS if d.get(k) is not None}
    return SimulationConfig(basis=basis, n_spectra=d["n_spectra"], rng_seed=d["rng_seed"], **ranges)


# ---------------------------------------------------------------- datasets

def write_dataset(path, dataset):
    header = {
        "format": "mrsquant-dataset",
        "format_version": FORMAT_VERSION,
        "fingerprint": dataset.fingerprint,
        "snr_definition": SNR_DEFINITION,
        "reference_ppm": dataset.reference_ppm,
        "acquisition": acquisition_to_dict(dataset.params),
        "target_names": list(dataset.target_names),
        "ppm_axis": dataset.ppm_axis.tolist(),
        "config": dataset.config,
    }
    n = dataset.n_spectra
    with open(path, "w", encoding="utf-8") as f:
        f.write("{\n")
        for key, val in header.items():
            f.write(f"{json.dumps(key)}: {json.dumps(val)},\n")
        f.write('"records": [\n')
        for i in range(n):
            rec = {
                "labels": dataset.label_map(i),
                "truth_params": dataset.truth_params[i] if dataset.truth_params else None,
            }
            # base64 needs no JSON escaping, so the spectrum is spliced in as text
            f.write(json.dumps(rec)[:-1])
            f.write(f', "spectrum_b64": "{encode_spectrum(dataset.values[i])}"}}')
            f.write(",\n" if i < n - 1 else "\n")
        f.write("]}\n")


def read_dataset(path):
    """Dataset from a file; a missing or malformed field, unreadable record or NaN/inf value raises FileFormatError."""
    def build(data):
        params = acquisition_from_dict(data["acquisition"])
        records = data["records"]
        target_names = list(data["target_names"])
        if len(records) == 0:
            raise ValidationError(f"{path}: dataset holds no spectra")
        # each string is dropped as it is decoded, so its memory can hold the next block
        blocks = []
        for i, r in enumerate(records):
            block = decode_spectrum(r.pop("spectrum_b64", None), params.n_points)
            if block is None:
                raise FileFormatError(f"{path}: record {i} has no readable spectrum_b64 "
                                      f"of {params.n_points} points")
            blocks.append(block)
        values = np.frombuffer(bytearray().join(blocks), "<c16").reshape(len(records), params.n_points)
        del blocks  # one copy of the spectra from here on
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            raise FileFormatError(
                f"{path}: record {bad[0]} holds a non-finite spectrum value (NaN or inf); "
                f"{bad.size} records do"
            )
        labels = None
        if all(r.get("labels") for r in records) and target_names:
            labels = [[r["labels"][t] for t in target_names] for r in records]
        truth = [r.get("truth_params") for r in records]
        dataset = Dataset(
            params=params,
            reference_ppm=data["reference_ppm"],
            ppm_axis=np.asarray(data["ppm_axis"], dtype=np.float64),
            values=values,
            target_names=target_names,
            labels=labels,
            truth_params=truth if any(t is not None for t in truth) else None,
            config=data.get("config"),
            fingerprint=data.get("fingerprint"),
        )
        basis_for_dataset(dataset)  # an embedded basis the oracle cannot build is refused here
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


def _tree_from_dict(path, target, index, d):
    try:
        return RegressionTree(d["feature"], d["threshold"], d["left"], d["right"], d["value"])
    except ValidationError as e:
        raise FileFormatError(f"{path}: tree {index} of target {target!r}: {e}") from e


def forest_config_to_dict(config):
    return dataclasses.asdict(config)


def forest_config_from_dict(d):
    return ForestConfig(
        n_trees=d["n_trees"],
        max_features=d["max_features"],
        min_leaf_size=d["min_leaf_size"],
        max_depth=d["max_depth"],
        rng_seed=d["rng_seed"],
        bootstrap=d.get("bootstrap", "sample"),
    )


def model_fingerprint(model):
    return config_fingerprint(
        {
            "dataset_fingerprint": model.dataset_fingerprint,
            "forest_config": forest_config_to_dict(model.config),
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
        "config": forest_config_to_dict(model.config),
        "target_names": list(model.target_names),
        "feature": {
            "kind": meta.kind,
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
        f.write("{\n")
        for key, val in header.items():
            f.write(f"{json.dumps(key)}: {json.dumps(val)},\n")
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
            raise UnsupportedVersionError(
                f"{path}: feature kind {fdict['kind']!r} is not supported (expected "
                f"{FEATURE_KIND!r}); retrain the model"
            )
        meta = FeatureMeta(
            grid=np.asarray(fdict["grid_ppm"], dtype=np.float64),
            crop_hi=float(fdict["crop_hi_ppm"]),
            crop_lo=float(fdict["crop_lo_ppm"]),
            acquisition=acquisition_from_dict(fdict["acquisition"]),
            kind=fdict["kind"],
        )
        target_names = list(data["target_names"])
        forests = [[_tree_from_dict(path, name, i, t) for i, t in enumerate(data["forests"][name])]
                   for name in target_names]
        if any(tree.feature.max() >= meta.grid.size for trees in forests for tree in trees):
            raise FileFormatError(f"{path}: a tree splits on a feature past the {meta.grid.size} grid bins")
        oob = [
            np.asarray(data["oob"][name], dtype=np.float64) if data["oob"][name] is not None else None
            for name in target_names
        ]
        return RandomForestModel(
            config=forest_config_from_dict(data["config"]),
            target_names=target_names,
            forests=forests,
            oob_curves=oob,
            feature_meta=meta,
            dataset_fingerprint=data.get("dataset_fingerprint"),
        )

    return load_json(path, build, "mrsquant-model")


# ---------------------------------------------------------------- reports

def write_report(path, report):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report.to_dict(), f, indent=1)
        f.write("\n")


def read_report(path):
    from .evaluate import EvalReport

    def build(data):
        return EvalReport(
            experiment=data["experiment"],
            truth_source=data["truth_source"],
            target_names=data["target_names"],
            summary=data["summary"],
            per_sample=data["per_sample"],
            inputs=data["inputs"],
            notes=data.get("notes", {}),
        )

    return load_json(path, build, "mrsquant-report")


# ---------------------------------------------------------------- CSV emission

def write_samples_csv(path, report):
    """Per-sample truth/estimate/error rows for regression and boxplot rendering."""
    fingerprint = config_fingerprint(report.to_dict()["inputs"])
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["target", "sample_index", "estimator", "truth", "estimate",
                    "relative_error", "config_fingerprint"])
        for name in report.target_names:
            block = report.per_sample[name]
            for i, (t, e, err) in enumerate(
                zip(block["truth"], block["forest_estimate"], block["forest_error"])
            ):
                w.writerow([name, i, "forest", repr(t), repr(e), repr(err), fingerprint])
            if block.get("oracle_estimate") is not None:
                for i, (t, e, err) in enumerate(
                    zip(block["truth"], block["oracle_estimate"], block["oracle_error"])
                ):
                    w.writerow([name, i, "oracle", repr(t), repr(e), repr(err), fingerprint])


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

