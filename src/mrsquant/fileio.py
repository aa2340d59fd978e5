"""Persistent file formats: datasets, models, reports, plot CSVs, simulate configs.

All JSON artifacts embed a format version plus the configuration (and its
fingerprint) needed to regenerate them byte-for-byte.  Spectra are stored
as little-endian float64 interleaved real/imag, base64-encoded per record.
A JSON file is read one top-level member at a time through a window of its
text, and each of a dataset's records is decoded, checked and kept as it is
read, so reading a dataset holds one window of text plus what the dataset
keeps.  The two read modes differ only in what is kept.  A whole read keeps
every complex bin of each spectrum and each record's truth parameters;
regridding onto another acquisition needs it.  A window read keeps only the
real part of each spectrum on the bins of its own axis inside the
quantification window, and the labels: all that training, prediction
without regridding and the least-squares oracle read, about a tenth of the
spectra's bytes.
A custom basis is given in a simulate config alone (its basis field, at its
acquisition and reference_ppm), which each dataset embeds and the oracle reads.
CSV output follows RFC 4180 (CRLF, header row).
"""

import base64
import codecs
import contextlib
import csv
import dataclasses
import io
import json
import os

import numpy as np

from .basis import basis_from_config, basis_to_dict
from .dataset import Dataset, config_fingerprint
from .errors import (FileFormatError, GridCompatibilityError, MrsQuantError, UnsupportedVersionError,
                     ValidationError, known_keys)
from .evaluate import EvalReport
from .forest import ForestConfig, RandomForestModel, RegressionTree
from .pipeline import FEATURE_KIND, FeatureMeta
from .signal import AcquisitionParams, grids_match, ppm_axis
from .simulate import SNR_DEFINITION, SimulationConfig, simulate_chunks

FORMAT_VERSION = 1


# ---------------------------------------------------------------- JSON scanning

_WINDOW = 1 << 18  # characters of a JSON file's text held at a time
_DECODER = json.JSONDecoder()
_BLANKS = json.decoder.WHITESPACE.match


class _Window:
    """The text of a binary file, scanned forward through a window of about _WINDOW characters.

    step(parse) calls parse(text, pos), which skips the blanks before its
    value and returns (value, end).  The window is topped up whenever less
    than a quarter of it is left, so a value of up to a quarter window is
    never cut by its edge.  A parse that fails before the end of the file is
    retried on more text: the scanned text is dropped and the window filled,
    and a value that fails from the window's start is retried on eight times
    as much text, so a large value, such as a model's forests, costs about
    8/7 of one parse (doubling would cost two).  A value cut by the window's
    edge fails like a malformed one, and a number at the edge could still
    continue, so each parse also reads the delimiter after its value, and an
    error is reported only once the window holds the rest of the file.
    """

    def __init__(self, f):
        self.f, self.text, self.pos, self.dropped, self.at_end = f, "", 0, 0, False
        # UTF-8 with universal newlines, as in text mode, which would keep a copy of each read's bytes
        self.decode = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), translate=True).decode
        self.more()

    def more(self):
        grow = 7 if self.pos == 0 else 1  # nothing scanned: the value at pos does not fit the window
        self.dropped += self.pos
        self.text, self.pos = self.text[self.pos:], 0
        want = max(_WINDOW - len(self.text), grow * len(self.text))
        chunk = self.f.read(want)
        self.at_end = len(chunk) < want
        chunk = self.decode(chunk, self.at_end)  # the bytes are dropped before the text is joined
        self.text += chunk

    def step(self, parse, *args):
        if not self.at_end and len(self.text) - self.pos < _WINDOW // 4:
            self.more()
        while True:
            try:
                value, self.pos = parse(self.text, self.pos, *args)
                return value
            except json.JSONDecodeError as e:
                if self.at_end:
                    raise self.in_file(e) from None
            self.more()  # outside the handler, so that e and the text it holds are dropped first

    def in_file(self, e):
        """e, raised at e.pos of the window, placed at its line and column in the whole file."""
        e.pos += self.dropped
        e.lineno, e.colno, left = 1, 1, e.pos
        with open(self.f.name, encoding="utf-8") as f:  # the text before the error is read again for its lines
            while left and (piece := f.read(min(left, _WINDOW))):
                newlines, left = piece.count("\n"), left - len(piece)
                e.lineno += newlines
                e.colno = len(piece) - piece.rfind("\n") if newlines else e.colno + len(piece)
        e.args = (f"{e.msg}: line {e.lineno} column {e.colno} (char {e.pos})",)
        return e

    def read_all(self):
        self.text += self.decode(self.f.read(), True)
        self.at_end = True


def _next_is(text, pos, char):
    """Whether the next non-blank character is the bracket char; end past it when it is."""
    pos = _BLANKS(text, pos).end()
    if pos == len(text):  # the messages json gives for a document that ends here
        raise json.JSONDecodeError(
            "Expecting property name enclosed in double quotes" if char == "}" else "Expecting value", text, pos)
    return text[pos] == char, pos + (text[pos] == char)


def _key(text, pos):
    """The member name at pos; end past its ':'."""
    pos = _BLANKS(text, pos).end()
    if text[pos:pos + 1] != '"':
        raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, pos)
    key, end = json.decoder.scanstring(text, pos + 1)
    end = _BLANKS(text, end).end()
    if text[end:end + 1] != ":":
        raise json.JSONDecodeError("Expecting ':' delimiter", text, end)
    return key, end + 1


def _delimiter(text, pos, closer):
    """Whether closer, not ',', follows the value ending at pos; end past it."""
    end = _BLANKS(text, pos).end()
    if text[end:end + 1] not in (closer, ","):
        raise json.JSONDecodeError("Expecting ',' delimiter", text, end)
    return text[end] == closer, end + 1


def _item(text, pos, closer):
    """(value, whether closer follows it) for the value at pos; end past its delimiter."""
    value, end = _DECODER.raw_decode(text, _BLANKS(text, pos).end())
    last, end = _delimiter(text, end, closer)
    return (value, last), end


def _scan_json(f, on_record):
    """json.load of binary file f as UTF-8 text, each element of a top-level "records" array replaced by on_record.

    Each element is passed to on_record(element, doc) as soon as it is
    parsed, doc holding the members read before the array, so only one
    window of text and the values on_record returns are held.  A document that
    is not an object is decoded whole.
    """
    window = _Window(f)
    if not window.step(_next_is, "{"):
        window.read_all()
        return json.loads(window.text)  # no text is dropped before the first value
    doc = {}
    last = window.step(_next_is, "}")
    while not last:
        key = window.step(_key)
        if key == "records" and on_record is not None and window.step(_next_is, "["):
            items = []
            done = window.step(_next_is, "]")
            while not done:
                item, done = window.step(_item, "]")
                items.append(on_record(item, doc))
            doc[key] = items
            last = window.step(_delimiter, "}")
        else:
            doc[key], last = window.step(_item, "}")
    window.read_all()
    end = _BLANKS(window.text, window.pos).end()
    if end < len(window.text):
        raise window.in_file(json.JSONDecodeError("Extra data", window.text, end))
    return doc


def load_json(path, build, expected_format=None, on_record=None):
    """build(doc) for the JSON document at path; the one place a parse error becomes FileFormatError.

    doc is what json.load would give, except that with on_record each element
    of the top-level "records" array is replaced by on_record(element, doc
    so far) as soon as it is parsed (see _scan_json).  A parse error names its line and
    column in the file.  With expected_format, the document must be an
    object carrying that format tag and FORMAT_VERSION.  A KeyError raised
    while building becomes FileFormatError naming the missing field; a
    TypeError, ValueError, AttributeError, IndexError or OverflowError becomes
    FileFormatError for a malformed field.  A MrsQuantError raised by build
    is raised again as the same class, so every refusal of the file's content
    names the file here.  on_record must not raise.
    """
    try:
        with open(path, "rb") as f:
            doc = _scan_json(f, on_record)
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
    if dataset.values is None:
        raise ValidationError("the dataset holds only its window rows; writing needs its whole spectra")
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


def read_dataset(path, window=False):
    """Dataset from a file; a missing or malformed field, unreadable record or NaN/inf value raises FileFormatError.

    A whole read holds every complex bin of each spectrum and each record's
    truth_params.  With window, the dataset holds window_rows instead: the
    real part of each spectrum on the bins of its own axis inside the
    quantification window, and no truth.  Every record takes one step as it
    is read: its spectrum is decoded, every bin is checked, and what is kept
    goes onto one buffer, so at most the base64 text of one window is held
    beside what the dataset keeps.  A window read cuts each spectrum to the
    window once the header that gives its window bins (acquisition and
    reference_ppm) is read; a record read before it, as in a file written
    with sorted keys, is kept whole and cut at the end.
    """
    kept, sizes, finite = bytearray(), [], []  # kept bytes; each record's point count (None if unreadable), finiteness
    header = mask = None  # the header members the window was sought from, and the window bins they give

    def take_spectrum(record, doc):
        """record without its spectrum_b64, decoded, checked and kept: whole, or cut once doc gives the window."""
        nonlocal header, mask
        text = record.pop("spectrum_b64", None) if isinstance(record, dict) else None
        try:
            values = np.frombuffer(base64.b64decode(text, validate=True), "<c16")
        except (TypeError, ValueError):  # no text, not ASCII, not base64 or not whole bins
            sizes.append(None)
            return record
        sizes.append(values.size)
        finite.append(bool(np.isfinite(values).all()))
        if window:
            record.pop("truth_params", None)
            if header is None and "acquisition" in doc and "reference_ppm" in doc:
                # sought once, at the first spectrum after the header, which must give spectra of this size,
                # so an absurd point count costs no axis; a header that gives no window is refused by build
                header = (doc["acquisition"], doc["reference_ppm"])
                with contextlib.suppress(MrsQuantError, KeyError, TypeError, ValueError, AttributeError,
                                         OverflowError):
                    meta = FeatureMeta(acquisition_from_dict(doc["acquisition"]), float(doc["reference_ppm"]))
                    if meta.acquisition.n_points == values.size:
                        mask = meta.mask
            if mask is not None and values.size == mask.size:
                values = values.real[mask]
        kept.extend(values.data)
        return record

    def build(data):
        params = acquisition_from_dict(data["acquisition"])
        records = data["records"]
        target_names = list(data["target_names"])
        if not isinstance(records, list):
            raise FileFormatError("records is not a list")
        n = len(records)
        if n == 0:
            raise ValidationError("dataset holds no spectra")
        # a repeated "records" key keeps its last list, as in json.load, whose spectra were read last
        bad = next((i for i, size in enumerate(sizes[len(sizes) - n:]) if size != params.n_points), None)
        if bad is not None:
            raise FileFormatError(f"record {bad} has no readable spectrum_b64 of {params.n_points} points")
        if mask is not None and header != (data["acquisition"], data["reference_ppm"]):
            raise FileFormatError("acquisition or reference_ppm is given again after the records")
        bad = np.flatnonzero(~np.array(finite[len(finite) - n:]))
        if bad.size:
            raise FileFormatError(f"record {bad[0]} holds a non-finite spectrum value (NaN or inf); "
                                  f"{bad.size} records do")
        # the last list went onto kept whole, or cut to the window when it was known before them
        dtype, width = ("<c16", params.n_points) if mask is None else ("<f8", np.count_nonzero(mask))
        rows = np.frombuffer(kept, dtype, offset=len(kept) - n * width * np.dtype(dtype).itemsize).reshape(n, width)
        values, window_rows = (rows, None) if mask is None else (None, rows)
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
            window_rows=window_rows,
        )
        if not grids_match(data["ppm_axis"], dataset.ppm_axis):  # the axis every reader uses is derived
            raise FileFormatError("stored ppm_axis is not the axis of the acquisition and reference_ppm")
        dataset.basis  # an embedded basis the oracle cannot build is refused here
        meta = FeatureMeta(params, float(dataset.reference_ppm))
        meta.grid  # so is an axis with no bin in the window
        if window and values is not None:  # read before its window was known
            return dataclasses.replace(dataset, values=None,
                                       window_rows=np.ascontiguousarray(values[:, meta.mask].real))
        return dataset

    return load_json(path, build, "mrsquant-dataset", take_spectrum)


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
            "acquisition": acquisition_to_dict(meta.acquisition),
            "reference_ppm": meta.reference_ppm,
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
    """Model from a file; a missing or malformed field or tree raises FileFormatError.

    The stored grid_ppm must be the grid the feature acquisition and reference_ppm give, and the trees
    must be finite; the OOB curves may hold NaN, which a model trained without out-of-bag samples has.
    """
    def build(data):
        fdict = data["feature"]
        if fdict["kind"] != FEATURE_KIND or "reference_ppm" not in fdict:  # older models store crop bounds instead
            missing = "" if "reference_ppm" in fdict else " with no reference_ppm"
            raise UnsupportedVersionError(f"feature kind {fdict['kind']!r}{missing} is not supported (expected "
                                          f"{FEATURE_KIND!r} with a reference_ppm); retrain the model")
        meta = FeatureMeta(acquisition_from_dict(fdict["acquisition"]), float(fdict["reference_ppm"]))
        try:
            meta.grid
        except GridCompatibilityError as e:  # a non-finite reference_ppm, or bins too wide for the window
            raise FileFormatError(f"feature acquisition and reference_ppm give no model grid: {e}") from e
        if not grids_match(fdict["grid_ppm"], meta.grid):  # the grid every reader uses is derived
            raise FileFormatError("stored grid_ppm is not the window of the acquisition's axis at reference_ppm")
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
    # the fields themselves, not dataclasses.asdict, which would deep-copy every per-sample list
    doc = {"format": "mrsquant-report", "format_version": FORMAT_VERSION,
           **{f.name: getattr(report, f.name) for f in dataclasses.fields(report)}}
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

