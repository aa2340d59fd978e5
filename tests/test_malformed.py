"""Malformed files and configs end in a MrsQuantError (exit 2), never a traceback or a hang.

Each fixed case is one hand-made edit of a valid file or config, or a bad
flag value.  The Hypothesis tests apply one drawn edit to a valid document
of each kind: a key deleted, a value replaced by null, a string, a number
(an integer-valued float and true among them), a list or {}, or the text
truncated.  A file reader that refuses its file must name the file.
"""

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mrsquant import fileio
from mrsquant.basis import default_brain_basis
from mrsquant.cli import main
from mrsquant.errors import MrsQuantError
from mrsquant.pipeline import features_for_dataset, oracle_ratios
from mrsquant.signal import AcquisitionParams, ppm_axis

ACQ = {"spectral_width_hz": 2500.0, "n_points": 256, "transmitter_freq_mhz": 127.7,
       "echo_time_ms": 35.0, "repetition_time_ms": 2000.0}

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Paths of one small valid file of each kind, plus the configs as documents."""
    d = tmp_path_factory.mktemp("valid")
    sim_cfg = d / "sim.cfg.json"
    sim_cfg.write_text(json.dumps({"acquisition": ACQ}))
    for name, seed, n in (("data", 5, 12), ("test", 6, 8)):
        assert main(["simulate", "--config", str(sim_cfg), "--seed", str(seed),
                     "--n-spectra", str(n), "--output", str(d / f"{name}.json")]) == 0
    assert main(["train", "--dataset", str(d / "data.json"), "--output", str(d / "model.json"),
                 "--seed", "1", "--trees", "2", "--max-features", "8", "--min-leaf", "2"]) == 0
    params = AcquisitionParams(spectral_width=2500.0, n_points=64, transmitter_freq=127.7)
    fileio.write_basis(d / "basis.json", default_brain_basis(params))
    evaluate = {"experiment": "synthetic-synthetic", "seed": 3, "k_folds": 2, "baseline_degree": 2,
                "forest": {"n_trees": 2, "max_features": 8, "min_leaf_size": 2, "max_depth": None,
                           "rng_seed": 3},
                "datasets": {"train": str(d / "data.json"), "test": str(d / "test.json")}}
    assert main(["evaluate", "--config", json_file(d / "exp.json", evaluate),
                 "--output", str(d / "report.json")]) == 0
    return {
        "dir": d,
        "dataset": d / "data.json",
        "model": d / "model.json",
        "basis": d / "basis.json",
        "report": d / "report.json",
        # the config a dataset embeds is a complete simulate config
        "simulate": json.loads((d / "data.json").read_text())["config"],
        "evaluate": evaluate,
    }


def json_file(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def edited(src, dst, edit):
    doc = json.loads(src.read_text())
    edit(doc)
    return json_file(dst, doc)


def tree(doc):
    """The first tree of the first target of a model document; its root is a split."""
    return doc["forests"][doc["target_names"][0]][0]


def set_at(keys, value):
    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value
    return edit


def drop(*keys):
    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        del doc[keys[-1]]
    return edit


def tree_edit(field, change):
    def edit(doc):
        t = tree(doc)
        t[field] = change(t[field])
    return edit


def first(value):
    return lambda a: [value] + a[1:]


def shifted_axis(doc):
    doc["ppm_axis"] = [v + 0.05 for v in doc["ppm_axis"]]


def reversed_axis(doc):
    doc["ppm_axis"] = doc["ppm_axis"][::-1]


def root_is_its_own_child(doc):
    t = tree(doc)
    t["left"][0] = t["right"][0] = 0


DATASET_EDITS = {
    "acquisition=[1]": set_at(["acquisition"], [1]),
    "n_points=null": set_at(["acquisition", "n_points"], None),
    "labels=[1,2]": set_at(["records", 0, "labels"], [1, 2]),
    "ppm_axis=abc": set_at(["ppm_axis"], "abc"),
    "ppm_axis+0.05": shifted_axis,
    "ppm_axis-reversed": reversed_axis,
    "target_names=null": set_at(["target_names"], None),
    "record-5-labels=null": set_at(["records", 5, "labels"], None),
}

# a tree that fails the RegressionTree checks is refused with that check's message too
MODEL_EDITS = {
    "config=null": (set_at(["config"], None), None),
    "feature=abc": (tree_edit("feature", lambda a: "abc"), None),
    "grid_ppm=x": (set_at(["feature", "grid_ppm"], "x"), None),
    "reference_ppm=NaN": (set_at(["feature", "reference_ppm"], math.nan), None),
    "no-reference_ppm": (drop("feature", "reference_ppm"), None),
    "root-child-is-root": (root_is_its_own_child, "tree nodes"),
    "feature=1e6": (tree_edit("feature", first(10 ** 6)), None),
    "child=1e6": (tree_edit("left", first(10 ** 6)), "tree nodes"),
    "short-value": (tree_edit("value", lambda a: a[:-1]), "tree arrays"),
}

BASIS_EDITS = {
    "no-acquisition": drop("acquisition"),
    "no-t2_s": drop("metabolites", 0, "components", 0, "t2_s"),
    "metabolites=null": set_at(["metabolites"], None),
    "no-reference_ppm": drop("reference_ppm"),
}

SIMULATE_CONFIGS = {
    "acquisition=5": {"acquisition": 5},
    "no-n_points": {"acquisition": {k: v for k, v in ACQ.items() if k != "n_points"}},
    "snr_range=5": {"acquisition": ACQ, "snr_range": 5},
    "snr_rnge": {"acquisition": ACQ, "snr_rnge": [1e9, 1e9]},
    "list": [1, 2],
}

EVALUATE_CONFIGS = {
    "forest=5": lambda doc: {**doc, "forest": 5},
    "datasets=5": lambda doc: {**doc, "datasets": 5},
    "k_fold=3": lambda doc: {**doc, "k_fold": 3},
    "list": lambda doc: [],
}


def exits_2_naming(argv, what, capsys):
    assert main(argv) == 2
    assert str(what) in capsys.readouterr().err


def predict_argv(valid, model, spectra):
    return ["predict", "--model", str(model), "--spectra", str(spectra),
            "--output", str(valid["dir"] / "pred.csv")]


@pytest.mark.parametrize("name", DATASET_EDITS)
def test_malformed_dataset_exits_2(valid, tmp_path, capsys, name):
    bad = edited(valid["dataset"], tmp_path / "bad.json", DATASET_EDITS[name])
    exits_2_naming(predict_argv(valid, valid["model"], bad), bad, capsys)


@pytest.mark.parametrize("edit", [shifted_axis, reversed_axis])
def test_stored_axis_off_the_acquisition_exits_2_in_every_command(valid, tmp_path, capsys, edit):
    bad = edited(valid["dataset"], tmp_path / "bad.json", edit)
    exits_2_naming(["train", "--dataset", bad, "--output", str(tmp_path / "m.json"), "--seed", "1"],
                   bad, capsys)
    exits_2_naming(predict_argv(valid, valid["model"], bad), bad, capsys)
    exits_2_naming(predict_argv(valid, valid["model"], bad) + ["--preprocess"], bad, capsys)
    cfg = json_file(tmp_path / "exp.json", {**valid["evaluate"],
                                            "datasets": {"train": bad, "test": str(valid["dataset"])}})
    exits_2_naming(["evaluate", "--config", cfg, "--output", str(tmp_path / "r.json")], bad, capsys)


def axis_far_from_the_window(doc):
    """A consistent dataset whose axis, centred on 100 ppm, has no bin in the quantification window."""
    doc["reference_ppm"] = 100.0
    doc["ppm_axis"] = ppm_axis(fileio.acquisition_from_dict(doc["acquisition"]), 100.0).tolist()


def test_axis_outside_the_window_exits_3_naming_the_file_in_every_command(valid, tmp_path, capsys):
    bad = edited(valid["dataset"], tmp_path / "bad.json", axis_far_from_the_window)
    cfg = json_file(tmp_path / "exp.json", {**valid["evaluate"],
                                            "datasets": {"train": bad, "test": str(valid["dataset"])}})
    for argv in (["train", "--dataset", bad, "--output", str(tmp_path / "m.json"), "--seed", "1"],
                 ["oob-scan", "--dataset", bad, "--output", str(tmp_path / "oob.csv"), "--seed", "1"],
                 predict_argv(valid, valid["model"], bad),
                 predict_argv(valid, valid["model"], bad) + ["--preprocess"],
                 ["evaluate", "--config", cfg, "--output", str(tmp_path / "r.json")]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "does not overlap the dataset axis" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "exp.json"]


@pytest.mark.parametrize("name", MODEL_EDITS)
def test_malformed_model_exits_2(valid, tmp_path, capsys, name):
    assert tree(json.loads(valid["model"].read_text()))["feature"][0] >= 0
    edit, message = MODEL_EDITS[name]
    bad = edited(valid["model"], tmp_path / "bad.json", edit)
    assert main(predict_argv(valid, bad, valid["dataset"])) == 2
    err = capsys.readouterr().err
    assert bad in err
    if message:
        assert f"{bad}: tree 0 of target" in err and message in err


@pytest.mark.parametrize("name", BASIS_EDITS)
def test_malformed_basis_exits_2(valid, tmp_path, capsys, name):
    bad = edited(valid["basis"], tmp_path / "bad.json", BASIS_EDITS[name])
    exits_2_naming(["simulate", "--basis", bad, "--seed", "1", "--n-spectra", "2",
                    "--output", str(tmp_path / "out.json")], bad, capsys)


@pytest.mark.parametrize("name", SIMULATE_CONFIGS)
def test_malformed_simulate_config_exits_2(tmp_path, capsys, name):
    bad = json_file(tmp_path / "bad.json", SIMULATE_CONFIGS[name])
    exits_2_naming(["simulate", "--config", bad, "--seed", "1", "--n-spectra", "2",
                    "--output", str(tmp_path / "out.json")], bad, capsys)


@pytest.mark.parametrize("name", EVALUATE_CONFIGS)
def test_malformed_evaluate_config_exits_2(valid, tmp_path, capsys, name):
    bad = json_file(tmp_path / "bad.json", EVALUATE_CONFIGS[name](valid["evaluate"]))
    exits_2_naming(["evaluate", "--config", bad, "--output", str(tmp_path / "r.json")], bad, capsys)


def without_forest_seed(doc):
    """An evaluate config whose forest rng_seed defaults to a fractional seed."""
    doc["seed"] = 3.5
    del doc["forest"]["rng_seed"]


# refusals raised by a constructor while a file is built; each names the file once, at its start
BUILT_REFUSALS = {
    "dataset spectral_width_hz=0": ("dataset", set_at(["acquisition", "spectral_width_hz"], 0),
                                    "spectral_width must be > 0, got 0"),
    "dataset basis name=''": ("dataset", set_at(["config", "basis", "metabolites", 0, "name"], ""),
                              "metabolite name must be nonempty"),
    "model n_trees=3 for 2": ("model", set_at(["config", "n_trees"], 3),
                              "each ensemble must have exactly config.n_trees trees"),
    "model n_trees=0": ("model", set_at(["config", "n_trees"], 0), "n_trees must be"),
    "evaluate n_trees=0": ("evaluate", set_at(["forest", "n_trees"], 0), "n_trees must be"),
    "evaluate seed=3.5": ("evaluate", without_forest_seed, "seed must be an integer >= 0, got 3.5"),
    "simulate snr_range=[0,5]": ("simulate", set_at(["snr_range"], [0, 5]), "snr_range"),
    "simulate snr_rnge": ("simulate", set_at(["snr_rnge"], [1e9, 1e9]),
                          "unknown simulate config key 'snr_rnge'"),
    "evaluate k_fold": ("evaluate", set_at(["k_fold"], 3), "unknown evaluate config key 'k_fold'"),
    "dataset target_names repeated": ("dataset", set_at(["target_names"], ["NAA/Cr", "NAA/Cr"]),
                                      "target names must be unique"),
    "model target_names repeated": ("model", set_at(["target_names"], ["NAA/Cr", "NAA/Cr"]),
                                    "target names must be unique"),
}


@pytest.mark.parametrize("name", BUILT_REFUSALS)
def test_refusal_while_building_names_the_file(valid, tmp_path, capsys, name):
    kind, edit, message = BUILT_REFUSALS[name]
    if kind in ("dataset", "model"):
        bad = edited(valid[kind], tmp_path / "bad.json", edit)
    else:
        doc = copy.deepcopy(valid[kind])
        edit(doc)
        bad = json_file(tmp_path / "bad.json", doc)
    argv = {
        "dataset": predict_argv(valid, valid["model"], bad),
        "model": predict_argv(valid, bad, valid["dataset"]),
        "evaluate": ["evaluate", "--config", bad, "--output", str(tmp_path / "r.json")],
        "simulate": ["simulate", "--config", bad, "--seed", "1", "--n-spectra", "2",
                     "--output", str(tmp_path / "out.json")],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count(bad) == 1
    assert message in err


def test_basis_refusal_names_the_basis_file_alone(valid, tmp_path, capsys):
    bad = edited(valid["basis"], tmp_path / "bad.json", set_at(["metabolites", 0, "name"], ""))
    cfg = json_file(tmp_path / "sim.json", {"acquisition": ACQ})
    assert main(["simulate", "--config", cfg, "--basis", bad, "--seed", "1", "--n-spectra", "2",
                 "--output", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and cfg not in err


@pytest.mark.parametrize("value", ["abc", "2.5", "0"])
def test_bad_max_depth_rejected_by_parser(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--dataset", str(tmp_path / "d.json"), "--output", str(tmp_path / "m.json"),
              "--seed", "1", "--max-depth", value])
    assert exc.value.code == 2
    assert "--max-depth" in capsys.readouterr().err


# ---------------------------------------------------------------- fuzzing

DELETE, TRUNCATE = object(), object()
EDITS = st.one_of(
    st.just(DELETE),
    st.none(),
    st.sampled_from(["", "abc"]),
    st.integers(-2, 3),
    st.sampled_from([0.5, -1.5, 2.0, True]),
    st.lists(st.integers(-1, 3), max_size=2),
    st.builds(dict),
    st.just(TRUNCATE),
)


def mutate(data, doc):
    """JSON text of doc after one drawn edit at a drawn path below the root."""
    text = json.dumps(doc)
    edit = data.draw(EDITS, label="edit")
    if edit is TRUNCATE:
        return text[: data.draw(st.integers(0, len(text) - 1), label="cut")]
    doc = copy.deepcopy(doc)
    parent, key = None, None
    node = doc
    # descend at least once, then go on with probability 3/4 while there is a level below
    while isinstance(node, (dict, list)) and node and (parent is None or data.draw(st.integers(0, 3))):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    if parent is None:
        return text
    if edit is DELETE:
        del parent[key]
    else:
        parent[key] = edit
    return json.dumps(doc)


def fresh(tmp_path_factory, name):
    """A new file path per example: overwriting a file in place can cost tens of ms."""
    return tmp_path_factory.mktemp("fuzz") / name


def unless_refused(fn, *args):
    """fn(*args), or None when it refuses its input with a MrsQuantError; anything else fails."""
    try:
        return fn(*args)
    except MrsQuantError:
        return None


def read_or_refused(read, path):
    """read(path), or None when it refuses the file with a MrsQuantError naming it; anything else fails."""
    try:
        return read(path)
    except MrsQuantError as e:
        assert str(path) in str(e)
        return None


@FUZZ
@given(data=st.data())
def test_fuzzed_dataset_is_read_or_refused(valid, tmp_path_factory, data):
    path = fresh(tmp_path_factory, "dataset.json")
    path.write_text(mutate(data, json.loads(valid["dataset"].read_text())))
    dataset = read_or_refused(fileio.read_dataset, path)
    if dataset is not None:
        # a dataset that loads can be quantified by a model and by the oracle
        meta = fileio.read_model(valid["model"]).feature_meta
        unless_refused(features_for_dataset, meta, dataset, True)
        unless_refused(oracle_ratios, dataset, ["NAA/Cr"], 2)


@FUZZ
@given(data=st.data())
def test_fuzzed_model_is_read_or_refused(valid, tmp_path_factory, data):
    path = fresh(tmp_path_factory, "model.json")
    path.write_text(mutate(data, json.loads(valid["model"].read_text())))
    model = read_or_refused(fileio.read_model, path)
    if model is not None:
        # a model that loads applies to spectra without a traceback or a hang
        features = unless_refused(features_for_dataset, model.feature_meta,
                                  fileio.read_dataset(valid["dataset"]), True)
        if features is not None:
            unless_refused(model.predict_matrix, features)


@FUZZ
@given(data=st.data())
def test_fuzzed_basis_is_read_or_refused(valid, tmp_path_factory, data):
    path = fresh(tmp_path_factory, "basis.json")
    path.write_text(mutate(data, json.loads(valid["basis"].read_text())))
    read_or_refused(fileio.read_basis, path)


@FUZZ
@given(data=st.data())
def test_fuzzed_report_is_read_or_refused(valid, tmp_path_factory, data):
    path = fresh(tmp_path_factory, "report.json")
    path.write_text(mutate(data, json.loads(valid["report"].read_text())))
    read_or_refused(fileio.read_report, path)


@FUZZ
@given(data=st.data())
def test_fuzzed_simulate_config_exits_0_2_3_or_4(valid, tmp_path_factory, data):
    path = fresh(tmp_path_factory, "sim.cfg.json")
    path.write_text(mutate(data, valid["simulate"]))
    code = main(["simulate", "--config", str(path), "--seed", "1", "--n-spectra", "3",
                 "--output", str(path.parent / "sim.json")])
    assert code in (0, 2, 3, 4)


@FUZZ
@given(data=st.data())
def test_fuzzed_evaluate_config_exits_0_2_3_or_4(valid, tmp_path_factory, data):
    path = fresh(tmp_path_factory, "exp.json")
    path.write_text(mutate(data, valid["evaluate"]))
    code = main(["evaluate", "--config", str(path), "--output", str(path.parent / "report.json")])
    assert code in (0, 2, 3, 4)
