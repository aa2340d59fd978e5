import hashlib
import multiprocessing
import tracemalloc

import numpy as np
import pytest

from mrsquant import forest
from mrsquant.errors import ValidationError
from mrsquant.forest import (
    MAX_ROWS,
    ForestConfig,
    RandomForestModel,
    fit_forest,
    fit_tree,
    oob_curve,
    slice_forest,
)
from mrsquant.pipeline import FeatureMeta
from mrsquant.signal import AcquisitionParams


def brute_force_best_cost(X, y):
    """Enumerate every (feature, midpoint-threshold) split; return the minimal
    summed child squared deviation.  Independent of the tree implementation."""
    best = np.inf
    for j in range(X.shape[1]):
        xs = np.unique(X[:, j])
        for a, b in zip(xs[:-1], xs[1:]):
            thr = (a + b) / 2.0
            left = y[X[:, j] <= thr]
            right = y[X[:, j] > thr]
            cost = np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)
            best = min(best, cost)
    return best


def partition_cost(X, y, feature, threshold):
    left = y[X[:, feature] <= threshold]
    right = y[X[:, feature] > threshold]
    if left.size == 0 or right.size == 0:
        return np.inf
    return np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)


def single_tree_config(**kwargs):
    defaults = dict(n_trees=1, max_features=1, min_leaf_size=1, max_depth=None,
                    rng_seed=0, bootstrap="identity")
    defaults.update(kwargs)
    return ForestConfig(**defaults)


class TestFitTree:
    def test_constant_targets_single_leaf(self):
        X = np.arange(8, dtype=float)[:, None]
        y = np.full(8, 3.5)
        tree = fit_tree(X, y, np.arange(8), single_tree_config(), np.random.default_rng(0))
        assert tree.n_nodes == 1
        assert tree.value[0] == 3.5

    def test_four_point_split(self):
        # brute force over the 3 candidate midpoints shows 2.5 minimizes child variance
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        tree = fit_tree(X, y, np.arange(4), single_tree_config(), np.random.default_rng(0))
        assert 2.0 < tree.threshold[0] < 3.0
        leaves = sorted(tree.value[tree.feature == -1])
        assert leaves == [0.0, 10.0]
        assert predict_single(tree, [1.5]) == 0.0

    def test_min_leaf_at_or_above_n_gives_single_leaf(self):
        X = np.arange(6, dtype=float)[:, None]
        y = np.arange(6, dtype=float)
        config = single_tree_config(min_leaf_size=6)
        tree = fit_tree(X, y, np.arange(6), config, np.random.default_rng(0))
        assert tree.n_nodes == 1
        assert tree.value[0] == pytest.approx(y.mean())

    def test_max_depth_limits_growth(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(64, 3))
        y = rng.normal(size=64)
        config = single_tree_config(max_features=3, max_depth=2)
        tree = fit_tree(X, y, np.arange(64), config, np.random.default_rng(2))
        assert tree.n_nodes <= 7  # depth-2 tree: at most 1 + 2 + 4 nodes

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError):
            fit_tree(np.zeros((0, 2)), np.zeros(0), np.arange(0), single_tree_config(),
                     np.random.default_rng(0))
        with pytest.raises(ValidationError):
            fit_tree(np.zeros((4, 2)), np.zeros(4), np.array([]), single_tree_config(),
                     np.random.default_rng(0))
        for outside in (-1, 4):
            with pytest.raises(ValidationError):
                fit_tree(np.zeros((4, 2)), np.zeros(4), np.array([0, outside]),
                         single_tree_config(), np.random.default_rng(0))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_root_split_matches_brute_force_1d(self, n):
        # acceptance: exhaustive enumeration on every <=6-sample 1-D set
        for seed in range(40):
            rng = np.random.default_rng(1000 * n + seed)
            X = np.round(rng.uniform(0, 10, size=(n, 1)), 1)
            y = np.round(rng.uniform(0, 10, size=n), 1)
            tree = fit_tree(X, y, np.arange(n), single_tree_config(), np.random.default_rng(seed))
            best = brute_force_best_cost(X, y)
            if tree.feature[0] == -1:
                assert not np.isfinite(best) or np.ptp(y) == 0 or np.ptp(X) == 0
            else:
                got = partition_cost(X, y, tree.feature[0], tree.threshold[0])
                assert got <= best + 1e-9

    def test_root_split_matches_brute_force_2d(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            X = rng.uniform(0, 5, size=(6, 2))
            y = rng.uniform(0, 5, size=6)
            config = single_tree_config(max_features=2)
            tree = fit_tree(X, y, np.arange(6), config, np.random.default_rng(seed))
            best = brute_force_best_cost(X, y)
            got = partition_cost(X, y, tree.feature[0], tree.threshold[0])
            assert got <= best + 1e-9

    @staticmethod
    def tied_data(rng):
        # Values on a 0.1 grid plus a column that is exactly 1.0 in most rows, as
        # Cr-normalized features are: many ties, where segment-boundary slips
        # in a level-wise search would show.
        n = int(rng.integers(30, 61))
        X = np.round(rng.uniform(0, 3, size=(n, 3)), 1)
        X[:, 1] = np.where(rng.random(n) < 0.7, 1.0, np.round(rng.uniform(0, 2, size=n), 1))
        y = np.round(rng.uniform(0, 5, size=n), 1)
        return X, y

    @staticmethod
    def assert_every_split_is_best(tree, X, y):
        """Walk X through the tree; each split must be a brute-force best one for its
        node's rows and each leaf value their mean."""
        checked = 0
        stack = [(0, np.arange(y.size))]
        while stack:
            node, rows = stack.pop()
            f = tree.feature[node]
            if f < 0:
                assert tree.value[node] == pytest.approx(y[rows].mean(), abs=1e-12)
                continue
            go_left = X[rows, f] <= tree.threshold[node]
            assert 0 < go_left.sum() < rows.size
            got = partition_cost(X[rows], y[rows], f, tree.threshold[node])
            assert got == pytest.approx(brute_force_best_cost(X[rows], y[rows]), abs=1e-9)
            checked += 1
            stack += [(tree.left[node], rows[go_left]), (tree.right[node], rows[~go_left])]
        assert checked >= 5

    @pytest.mark.parametrize("seed", range(8))
    def test_every_internal_split_matches_brute_force(self, seed):
        X, y = self.tied_data(np.random.default_rng(500 + seed))
        tree = fit_tree(X, y, np.arange(y.size), single_tree_config(max_features=3),
                        np.random.default_rng(seed))
        self.assert_every_split_is_best(tree, X, y)

    @pytest.mark.parametrize("seed", range(8))
    def test_every_split_on_repeated_rows_matches_brute_force(self, seed):
        # A bootstrap multiset, unsorted: the tree grows on its distinct rows
        # weighted by multiplicity and must match brute force on the rows repeated.
        rng = np.random.default_rng(700 + seed)
        X, y = self.tied_data(rng)
        idx = rng.integers(0, y.size, size=y.size)
        assert np.unique(idx).size < idx.size
        tree = fit_tree(X, y, idx, single_tree_config(max_features=3), np.random.default_rng(seed))
        self.assert_every_split_is_best(tree, X[idx], y[idx])

    def test_threshold_is_midpoint_of_the_nodes_own_values(self):
        # rows 1 and 2 are outside the sample, so 0 and 3 are adjacent in the node
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 5.0, 5.0, 10.0])
        tree = fit_tree(X, y, np.array([0, 3]), single_tree_config(), np.random.default_rng(0))
        assert tree.threshold[0] == 1.5

    @pytest.mark.parametrize("a", [1.0, np.nextafter(1.0, 2.0)])
    def test_threshold_that_rounds_up_falls_back_to_lower_value(self, a):
        # the midpoint of two adjacent doubles rounds to one of them; with a
        # mantissa ending in 1 it rounds up to b and would send b left
        b = np.nextafter(a, 2.0)
        X = np.array([[a], [b]])
        y = np.array([0.0, 1.0])
        tree = fit_tree(X, y, np.arange(2), single_tree_config(), np.random.default_rng(0))
        assert tree.threshold[0] == a
        assert tree.predict_batch(X).tolist() == [0.0, 1.0]

    def test_more_rows_than_the_packed_key_holds_rejected(self):
        config = single_tree_config()
        # the packed key holds positions among the distinct rows, so a
        # multiset of more than MAX_ROWS copies of one row is one leaf
        many = np.broadcast_to(np.ones(1, dtype=np.intp), (MAX_ROWS + 1,))
        tree = fit_tree(np.zeros((2, 1)), np.array([3.0, 5.0]), many, config, np.random.default_rng(0))
        assert tree.n_nodes == 1 and tree.value.tolist() == [5.0]
        X = np.broadcast_to(np.zeros((1, 1)), (MAX_ROWS + 1, 1))
        with pytest.raises(ValidationError):
            fit_forest(X, np.broadcast_to(np.zeros(1), (MAX_ROWS + 1,)), config)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_input_rejected(self, bad):
        X = np.arange(12, dtype=float).reshape(6, 2)
        y = np.arange(6, dtype=float)
        X_bad = X.copy()
        X_bad[2, 1] = bad
        y_bad = y.copy()
        y_bad[4] = bad
        config = single_tree_config()
        for args in ((X_bad, y), (X, y_bad)):
            with pytest.raises(ValidationError):
                fit_forest(*args, config)
            with pytest.raises(ValidationError):
                fit_tree(*args, np.arange(6), config, np.random.default_rng(0))


def predict_single(tree, x):
    return float(tree.predict_batch(np.asarray(x, dtype=float)[None, :])[0])


class TestFitForest:
    def _data(self, n=60, d=5, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = X[:, 0] * 2.0 + np.sin(X[:, 1]) + 0.1 * rng.normal(size=n)
        return X, y

    def test_memorization_with_identity_bootstrap(self):
        X, y = self._data()
        config = ForestConfig(n_trees=1, max_features=5, min_leaf_size=1,
                              rng_seed=0, bootstrap="identity")
        model = fit_forest(X, y, config)
        pred = model.predict_matrix(X)[:, 0]
        assert np.array_equal(pred, y)

    def test_deterministic_rerun(self):
        X, y = self._data()
        config = ForestConfig(n_trees=5, max_features=3, min_leaf_size=2, rng_seed=42)
        a = fit_forest(X, y, config)
        b = fit_forest(X, y, config)
        for ta, tb in zip(a.forests[0], b.forests[0]):
            assert ta.equals(tb)

    def test_threaded_equals_serial(self):
        X, y = self._data(n=80)
        config = ForestConfig(n_trees=8, max_features=3, min_leaf_size=2, rng_seed=7)
        serial = fit_forest(X, y, config, threads=1)
        for threads in (2, 4):
            threaded = fit_forest(X, y, config, threads=threads)
            for ta, tb in zip(serial.forests[0], threaded.forests[0]):
                assert ta.equals(tb)
            assert np.array_equal(serial.oob_curves[0], threaded.oob_curves[0])

    def test_worker_processes_exit_with_fit_forest(self):
        X, y = self._data()
        fit_forest(X, y, ForestConfig(n_trees=4, max_features=3, rng_seed=2), threads=2)
        assert multiprocessing.active_children() == []

    def test_tree_job_error_reaches_caller(self, monkeypatch):
        def refuse(*args):
            raise ValidationError(f"tree {args[-1]} refused")

        # forked workers inherit the patched module attribute
        monkeypatch.setattr(forest, "_fit_one_tree", refuse)
        X, y = self._data()
        with pytest.raises(ValidationError) as caught:
            fit_forest(X, y, ForestConfig(n_trees=4, max_features=3, rng_seed=2), threads=2)
        assert type(caught.value) is ValidationError
        assert str(caught.value) == "tree 0 refused"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads, bound", [(1, 1.25), (2, 0.5)])
    def test_training_holds_one_copy_of_the_features(self, threads, bound):
        # no canonical copy of X; the (d, n) uint32 rank table is half of X, and
        # only a process that grows trees builds it, so at 2 workers the caller never does
        X, y = self._data(n=3000, d=300)
        tracemalloc.start()
        try:
            fit_forest(X, y, ForestConfig(n_trees=4, max_features=4, rng_seed=1), threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * X.nbytes

    def test_constant_target(self):
        X, _ = self._data()
        y = np.full(X.shape[0], 2.25)
        config = ForestConfig(n_trees=4, max_features=2, min_leaf_size=2, rng_seed=1)
        model = fit_forest(X, y, config)
        assert np.all(model.predict_matrix(X)[:, 0] == 2.25)
        assert model.oob_error("target_0") == 0.0

    def test_predictions_within_training_range(self):
        X, y = self._data(n=100)
        config = ForestConfig(n_trees=10, max_features=3, min_leaf_size=5, rng_seed=3)
        model = fit_forest(X, y, config)
        probe = np.random.default_rng(9).normal(scale=5.0, size=(50, X.shape[1]))
        pred = model.predict_matrix(probe)[:, 0]
        assert np.all(pred >= y.min()) and np.all(pred <= y.max())

    def test_permutation_invariance(self):
        X, y = self._data(n=40)
        config = ForestConfig(n_trees=6, max_features=3, min_leaf_size=2, rng_seed=11)
        model_a = fit_forest(X, y, config)
        perm = np.random.default_rng(5).permutation(40)
        model_b = fit_forest(X[perm], y[perm], config)
        probe = np.random.default_rng(6).normal(size=(30, X.shape[1]))
        assert np.array_equal(model_a.predict_matrix(probe), model_b.predict_matrix(probe))

    def test_permutation_invariance_with_tied_values(self):
        X, y = self._data(n=60)
        X = np.round(X, 1)
        X[::3, 1] = 1.0
        X[5] = X[17]
        y[5] = y[17]  # a duplicated row, too
        config = ForestConfig(n_trees=6, max_features=3, min_leaf_size=2, rng_seed=11)
        model_a = fit_forest(X, y, config)
        perm = np.random.default_rng(5).permutation(60)
        model_b = fit_forest(X[perm], y[perm], config)
        for ta, tb in zip(model_a.forests[0], model_b.forests[0]):
            assert ta.equals(tb)
        assert np.array_equal(model_a.oob_curves[0], model_b.oob_curves[0])

    def test_monotone_feature_transform_invariance(self):
        # thresholds are midpoints of node sample values, so routing is purely
        # ordinal for points whose values appear in the node; identity
        # bootstrap guarantees that for every training row
        X, y = self._data(n=50)
        config = ForestConfig(n_trees=5, max_features=3, min_leaf_size=3,
                              rng_seed=13, bootstrap="identity")
        base = fit_forest(X, y, config).predict_matrix(X)
        Xt = X.copy()
        Xt[:, 2] = np.exp(Xt[:, 2])  # strictly monotone on one feature, train and test alike
        transformed = fit_forest(Xt, y, config).predict_matrix(Xt)
        assert np.allclose(base, transformed, atol=1e-12)

    def test_tree_structure_invariant_under_monotone_transform(self):
        # with bootstrap sampling the grown trees still have identical shape
        # and leaf values; only threshold coordinates move
        X, y = self._data(n=50)
        config = ForestConfig(n_trees=5, max_features=3, min_leaf_size=2, rng_seed=13)
        a = fit_forest(X, y, config)
        Xt = X.copy()
        Xt[:, 2] = np.exp(Xt[:, 2])
        b = fit_forest(Xt, y, config)
        for ta, tb in zip(a.forests[0], b.forests[0]):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.left, tb.left)
            assert np.array_equal(ta.value, tb.value)

    def test_ensemble_variance_shrinks_with_more_trees(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(150, 6))
        y = X @ rng.normal(size=6) + 0.3 * rng.normal(size=150)
        probe = rng.normal(size=(10, 6))
        preds_1, preds_64 = [], []
        for seed in range(20):
            config = ForestConfig(n_trees=64, max_features=3, min_leaf_size=5, rng_seed=seed)
            model = fit_forest(X, y, config)
            preds_64.append(model.predict_matrix(probe)[:, 0])
            preds_1.append(slice_forest(model, 1).predict_matrix(probe)[:, 0])
        var_1 = np.var(np.asarray(preds_1), axis=0).mean()
        var_64 = np.var(np.asarray(preds_64), axis=0).mean()
        assert var_64 < var_1

    def test_target_independence(self):
        X, y0 = self._data(n=70, seed=2)
        y1 = np.cos(X[:, 3]) + X[:, 4]
        config = ForestConfig(n_trees=4, max_features=3, min_leaf_size=3, rng_seed=21)
        both = fit_forest(X, np.column_stack([y0, y1]), config, target_names=["a", "b"])
        only_b = RandomForestModel(config, ["b"], [both.forests[1]], [both.oob_curves[1]])
        probe = np.random.default_rng(8).normal(size=(20, X.shape[1]))
        assert np.array_equal(both.predict_matrix(probe)[:, 1], only_b.predict_matrix(probe)[:, 0])

    @staticmethod
    def _digest_fixture():
        rng = np.random.default_rng(31)
        X = np.round(rng.normal(size=(300, 12)), 2)
        Y = np.column_stack([X[:, 0] + np.sin(X[:, 1]), X[:, 2] * X[:, 3]])
        Y += 0.1 * rng.normal(size=Y.shape)
        return X, Y, ForestConfig(n_trees=4, max_features=5, min_leaf_size=3, rng_seed=9)

    def test_model_bytes_match_recorded_digest(self):
        # Recorded with trees grown on distinct bootstrap rows weighted by
        # multiplicity, with numpy 2.4 on x86-64.  Any change to the trees a
        # fixed training gives fails here, not only in a benchmark median.
        model = fit_forest(*self._digest_fixture())
        digest = hashlib.sha256()
        for trees in model.forests:
            for tree in trees:
                for field in (tree.feature, tree.threshold, tree.left, tree.right, tree.value):
                    digest.update(field.tobytes())
        assert digest.hexdigest() == "54ec13984c68939ac3b45304c48a27425f54c1e6a037bf497405786a6a079dbb"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_oob_curves_match_recorded_digest(self, threads):
        # Recorded when the main process walked every tree over its out-of-bag
        # rows after training; the curves must not move by a bit, whichever
        # process makes the predictions.
        model = fit_forest(*self._digest_fixture(), threads=threads)
        digest = hashlib.sha256()
        for curve in model.oob_curves:
            digest.update(curve.tobytes())
        assert digest.hexdigest() == "8fd50f6904abe3a3bf30e1296e3512952494c7cf8dd11656e9cf5793d645ffcd"

    def test_slice_matches_direct_training(self):
        X, y = self._data(n=60)
        big = fit_forest(X, y, ForestConfig(n_trees=8, max_features=3, min_leaf_size=2, rng_seed=4))
        small = fit_forest(X, y, ForestConfig(n_trees=3, max_features=3, min_leaf_size=2, rng_seed=4))
        sliced = slice_forest(big, 3)
        for ta, tb in zip(sliced.forests[0], small.forests[0]):
            assert ta.equals(tb)
        assert np.array_equal(sliced.oob_curves[0], small.oob_curves[0])

    def test_predict_map(self):
        # column t of predict_matrix is target_names[t], each row the mean of its forest
        X, y = self._data(n=30)
        config = ForestConfig(n_trees=2, max_features=2, min_leaf_size=3, rng_seed=5)
        model = fit_forest(X, np.column_stack([y, -y]), config, target_names=["NAA/Cr", "Cho/Cr"])
        out = model.predict_matrix(X[:1])
        assert out.shape == (1, 2)
        for t in range(2):
            trees = model.forests[t]
            assert out[0, t] == pytest.approx(np.mean([tree.predict_batch(X[:1])[0] for tree in trees]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            fit_forest(np.zeros((4, 2)), np.zeros(5),
                       ForestConfig(n_trees=1, max_features=1, rng_seed=0))

    def test_predict_feature_length_mismatch_rejected(self):
        X, y = self._data(n=30)
        config = ForestConfig(n_trees=2, max_features=3, min_leaf_size=3, rng_seed=5)
        model = fit_forest(X, y, config)
        with pytest.raises(ValidationError, match="2-D"):
            model.predict_matrix(X[0])
        model.feature_meta = FeatureMeta(AcquisitionParams(2500.0, 24), 4.7)
        model.predict_matrix(X[:3])
        for width in (2, 6):
            with pytest.raises(ValidationError, match="model expects 5"):
                model.predict_matrix(np.zeros((3, width)))

    def test_predict_narrower_than_split_features_rejected(self):
        X, y = self._data(n=40)
        model = fit_forest(X, y, ForestConfig(n_trees=4, max_features=3, min_leaf_size=2, rng_seed=5))
        assert model.feature_meta is None
        widest = max(int(tree.feature.max()) for tree in model.forests[0])
        assert widest >= 2
        with pytest.raises(ValidationError, match=f"splits on feature {widest}"):
            model.predict_matrix(np.zeros((2, 2)))
        model.predict_matrix(np.zeros((2, widest + 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected_at_predict(self, bad):
        X, y = self._data(n=30)
        model = fit_forest(X, y, ForestConfig(n_trees=2, max_features=3, rng_seed=5))
        x = X[0].copy()
        x[3] = bad
        with pytest.raises(ValidationError):
            model.predict_matrix(x[None, :])
        with pytest.raises(ValidationError):
            model.predict_matrix(np.vstack([X[:2], x]))

    def test_max_features_above_dimension_rejected(self):
        with pytest.raises(ValidationError):
            fit_forest(np.zeros((4, 2)), np.zeros(4),
                       ForestConfig(n_trees=1, max_features=3, rng_seed=0))


class TestOob:
    def test_identity_bootstrap_has_no_oob(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        config = ForestConfig(n_trees=3, max_features=2, min_leaf_size=2,
                              rng_seed=0, bootstrap="identity")
        model = fit_forest(X, y, config)
        assert np.all(np.isnan(model.oob_curves[0]))

    def test_oob_curve_counts_only_excluded_trees(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3))
        y = X[:, 0]
        config = ForestConfig(n_trees=10, max_features=2, min_leaf_size=2, rng_seed=9)
        model = fit_forest(X, y, config)
        curve = model.oob_curves[0]
        assert curve.size == 10
        assert np.all(curve[~np.isnan(curve)] >= 0)

    def test_exact_predictions_count_as_zero_error_at_zero_truth(self):
        assert oob_curve([np.zeros(4)], np.zeros(4))[0] == 0.0
        # Row 2 is in bag for every tree and stays out of the mean; row 1 is
        # first left out by the second tree and counts from there on.
        nan = np.nan
        y = np.array([1.0, 2.0, 4.0])
        preds = [np.array([1.5, nan, nan]), np.array([0.5, 3.0, nan]), np.array([nan, 2.0, nan])]
        assert oob_curve(preds, y).tolist() == [0.5, 0.25, 0.125]
        assert np.isnan(oob_curve([np.full(3, nan)], y)).all()
