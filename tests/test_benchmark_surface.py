"""Every name the benchmark under perfbench/ takes from mrsquant resolves in the program.

The benchmark wraps the functions listed in perfbench/layers.py TARGETS and
imports others by name; a rename or deletion in src/ would otherwise show
only when the benchmark runs.  The benchmark's files are read with ast, not
imported, so this test needs nothing the benchmark needs.
"""

import ast
import importlib
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _targets():
    """(module, dotted attribute) pairs of the TARGETS list in layers.py."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/layers.py has no TARGETS list")


def _imports():
    """(module, name) for every import of mrsquant in perfbench/*.py; name is None for ``import m``."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.startswith("mrsquant"):
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((alias.name, None) for alias in node.names
                             if alias.name.startswith("mrsquant"))
    return sorted(found, key=str)


def _resolve(module, dotted):
    obj = importlib.import_module(module)
    parts = dotted.split(".") if dotted else []
    if parts and hasattr(obj, "__path__") and not hasattr(obj, parts[0]):
        importlib.import_module(f"{module}.{parts[0]}")  # from package import submodule
    for part in parts:
        obj = getattr(obj, part)
    return obj


def test_surface_is_found():
    assert len(_targets()) >= 20
    assert ("mrsquant.simulate", "generate_lipids") in _targets()
    assert ("mrsquant.dataset", "dataset_from_labeled") in _imports()


@pytest.mark.parametrize("module,attribute", _targets() + _imports())
def test_benchmark_name_resolves(module, attribute):
    try:
        _resolve(module, attribute)
    except (ImportError, AttributeError) as e:
        pytest.fail(f"perfbench uses {module}:{attribute}, which the program lacks: {e}")


def test_simulated_and_trained_objects_keep_the_attributes_the_benchmark_reads(tmp_path):
    from mrsquant import fileio
    from mrsquant.basis import default_brain_basis
    from mrsquant.dataset import dataset_from_labeled
    from mrsquant.forest import ForestConfig, slice_forest
    from mrsquant.pipeline import train_model
    from mrsquant.signal import AcquisitionParams
    from mrsquant.simulate import SimulationConfig, simulate_dataset, simulate_spectrum

    basis = default_brain_basis(AcquisitionParams(2500.0, 64))
    config = SimulationConfig(basis=basis, n_spectra=2, rng_seed=1, snr_range=(math.inf, math.inf))
    one = simulate_spectrum(config, 1)
    assert one.spectrum.values.shape == (64,)
    assert set(one.labels) == set(config.target_names)

    # perfbench/layers.py:model_stats reads `model.inbag_counts or []`
    config = SimulationConfig(basis=default_brain_basis(AcquisitionParams(2500.0, 256)),
                              n_spectra=20, rng_seed=3)
    dataset = dataset_from_labeled(simulate_dataset(config), fileio.sim_config_to_dict(config),
                                   config.target_names)
    trained = train_model(dataset, ForestConfig(n_trees=2, max_features=4, rng_seed=1))
    fileio.write_model(tmp_path / "model.json", trained)
    for model in (trained, slice_forest(trained, 1), fileio.read_model(tmp_path / "model.json")):
        assert model.inbag_counts is None
