"""Per-layer metric extraction from recorded spans.

Run with: python3 -m pytest perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import layers  # noqa: E402


def span(span_id, parent, name, start, end, **attrs):
    return {"id": span_id, "parent": parent, "name": name, "thread": 1,
            "start": start, "end": end, "attrs": attrs}


def predict_round(scale=1.0):
    """cli.main reading a model and a dataset, building features, predicting, writing CSV."""
    s = scale
    return [
        span(1, None, "cli.main", 0.0, 10.0 * s),
        span(2, 1, "fileio.read_model", 0.5 * s, 1.0 * s, bytes=4000,
             nodes_per_tree=7.0, depth_per_tree=3.0, resident_mb=0.5),
        span(3, 1, "fileio.read_dataset", 1.0 * s, 3.0 * s, spectra=100),
        span(4, 1, "pipeline.features_for_dataset", 3.0 * s, 4.0 * s, rows=100, protocol="cross"),
        span(5, 4, "preprocess.dtft_matrix", 3.1 * s, 3.5 * s),
        span(6, 4, "preprocess.cr_normalize", 3.6 * s, 3.7 * s, rows=100),
        span(7, 1, "forest.predict_matrix", 4.0 * s, 6.0 * s, rows=100, trees=20),
        span(8, 1, "fileio.write_predictions_csv", 6.0 * s, 6.5 * s),
    ]


class TestPhaseMetrics:
    def test_predict_round(self):
        m = layers.phase_metrics(predict_round())
        assert m["cli.self_s"] == pytest.approx(10.0 - 0.5 - 2.0 - 1.0 - 2.0 - 0.5)
        assert m["fileio.read_dataset_spectra_per_s"] == pytest.approx(50.0)
        assert m["fileio.read_model_s"] == pytest.approx(0.5)
        assert m["fileio.model_bytes"] == 4000.0
        assert m["pipeline.features_cross_rows_per_s"] == pytest.approx(100.0)
        assert m["pipeline.features_native_rows_per_s"] is None
        assert m["preprocess.dtft_matrix_s"] == pytest.approx(0.4)
        assert m["forest.predict_s"] == pytest.approx(2.0)
        assert m["forest.predict_rows_trees_per_s"] == pytest.approx(1000.0)
        assert m["forest.nodes_per_tree"] == 7.0
        assert m["fileio.write_outputs_s"] == pytest.approx(0.5)
        assert m["forest.fit_s"] is None and m["simulate.spectra_per_s"] is None

    def test_training_seconds_per_tree_excludes_oob(self):
        m = layers.phase_metrics([
            span(1, None, "pipeline.train_model", 0.0, 5.0),
            span(2, 1, "forest.fit_forest", 0.5, 4.5, trees=8,
                 nodes_per_tree=9.0, depth_per_tree=4.0, resident_mb=1.0),
            span(3, 2, "forest.oob_curve", 4.0, 4.4),
        ])
        assert m["pipeline.train_s"] == pytest.approx(5.0)
        assert m["forest.s_per_tree"] == pytest.approx((4.0 - 0.4) / 8)
        assert m["forest.depth_per_tree"] == 4.0

    def test_writer_bytes_per_spectrum(self):
        m = layers.phase_metrics([
            span(1, None, "simulate.simulate_dataset", 0.0, 2.0, spectra=400),
            span(2, None, "fileio.write_dataset", 2.0, 2.5, spectra=400, bytes=8000),
        ])
        assert m["simulate.spectra_per_s"] == pytest.approx(200.0)
        assert m["fileio.dataset_bytes_per_spectrum"] == pytest.approx(20.0)


class TestLayerMetrics:
    def test_timed_rounds_then_setup_then_zero(self):
        setup = [span(1, None, "cli.main", 0.0, 3.0),
                 span(2, 1, "forest.fit_forest", 0.0, 2.0, trees=4)]
        rounds = [predict_round(1.0), predict_round(2.0), predict_round(4.0)]
        out = layers.layer_metrics(setup, rounds, [1.0, 1.2, 1.1], [1.5, 1.4])
        assert set(out) == {name for name, _, _ in layers.PER_LAYER}
        assert out["fileio.read_model_s"]["value"] == pytest.approx(1.0)  # median of 0.5, 1, 2
        assert out["forest.fit_s"]["value"] == pytest.approx(2.0)          # only the set-up trained
        assert out["simulate.signal_s"]["value"] == 0.0                   # never entered
        assert out["trace.overhead_s"]["value"] == pytest.approx(1.45 - 1.1)
        assert out["forest.predict_rows_trees_per_s"]["unit"] == "1/s"


class TestModelStats:
    def test_counts_from_a_trained_model(self):
        from mrsquant.forest import ForestConfig, fit_forest

        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 5))
        y = X[:, 0] + 0.1 * rng.normal(size=60)
        model = fit_forest(X, y, ForestConfig(n_trees=3, max_features=2, min_leaf_size=5))
        stats = layers.model_stats(model)
        trees = model.forests[0]
        assert stats["nodes_per_tree"] == pytest.approx(np.mean([t.n_nodes for t in trees]))
        assert stats["resident_mb"] * 2 ** 20 >= model.inbag_counts[0].nbytes

    def test_depth_of_a_flat_tree(self):
        # 0 -> (1, 2); 2 -> (3, 4); 4 -> (5, 6)
        left = [1, -1, 3, -1, 5, -1, -1]
        right = [2, -1, 4, -1, 6, -1, -1]
        assert layers.tree_depth(left, right) == 3
        assert layers.tree_depth([-1], [-1]) == 0
