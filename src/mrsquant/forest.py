"""Random forest regression built from scratch: bootstrap-aggregated CART trees
with per-node feature subsampling and out-of-bag error tracking.

One independent forest is grown per target.  Every tree draws its bootstrap
sample and split features from an RNG stream seeded by (rng_seed, target
index, tree index), and samples are re-indexed against a canonical sort
order before any draw, so a trained model is a pure function of the
(unordered) training set and the configuration regardless of row order or
how the trees are spread over worker processes.
"""

import contextlib
import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, integer
from .workers import ordered_map


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int
    max_features: int
    min_leaf_size: int = 5
    max_depth: int | None = None
    rng_seed: int = 0
    bootstrap: str = "sample"  # "identity" trains every tree on all samples once (test hook)

    def __post_init__(self):
        for name, low in (("n_trees", 1), ("max_features", 1), ("min_leaf_size", 1), ("rng_seed", 0)):
            object.__setattr__(self, name, integer(name, getattr(self, name), low))
        if self.max_depth is not None:
            object.__setattr__(self, "max_depth", integer("max_depth", self.max_depth, 1))
        if self.bootstrap not in ("sample", "identity"):
            raise ValidationError(f"bootstrap must be 'sample' or 'identity', got {self.bootstrap!r}")


class RegressionTree:
    """CART tree as flat arrays; feature[i] == -1 marks node i as a leaf.

    Children follow their parent (left[i], right[i] > i), so every walk from
    the root ends at a leaf; the constructor refuses any other layout, and a
    NaN or infinite threshold or value.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)
        n = self.feature.size
        if n == 0 or any(a.shape != (n,) for a in (self.feature, self.threshold, self.left,
                                                   self.right, self.value)):
            raise ValidationError("tree arrays must be nonempty, 1-D and of equal length")
        ids = np.arange(n)
        internal = self.feature >= 0
        children_ok = np.where(
            internal,
            (self.left > ids) & (self.left < n) & (self.right > ids) & (self.right < n),
            (self.left == -1) & (self.right == -1),
        )
        if (self.feature < -1).any() or not children_ok.all():
            raise ValidationError(
                "tree nodes must be leaves (feature -1, children -1) or splits on a feature "
                ">= 0 whose children lie after them"
            )
        if not (np.isfinite(self.threshold).all() and np.isfinite(self.value).all()):
            raise ValidationError("tree thresholds and values must be finite (no NaN or inf)")

    @property
    def n_nodes(self):
        return self.feature.size

    def predict_batch(self, X):
        X = np.asarray(X, dtype=np.float64)
        cur = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            f = self.feature[cur]
            internal = f >= 0
            if not internal.any():
                return self.value[cur]
            rows = np.nonzero(internal)[0]
            go_left = X[rows, f[rows]] <= self.threshold[cur[rows]]
            cur[rows] = np.where(go_left, self.left[cur[rows]], self.right[cur[rows]])

    def equals(self, other):
        return (
            np.array_equal(self.feature, other.feature)
            and np.array_equal(self.threshold, other.threshold)
            and np.array_equal(self.left, other.left)
            and np.array_equal(self.right, other.right)
            and np.array_equal(self.value, other.value)
        )


# The split search sorts uint64 keys packing (node, rank, position), 21 bits each.
_KEY_BITS = np.uint64(21)
_KEY_MASK = np.uint64((1 << 21) - 1)
MAX_ROWS = 1 << 21


def _check_finite(name, a):
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} contain NaN or infinite values")


def _check_training_inputs(X, Y, config):
    if X.shape[0] > MAX_ROWS:
        raise ValidationError(f"at most {MAX_ROWS} training rows are supported, got {X.shape[0]}")
    if config.max_features > X.shape[1]:
        raise ValidationError(
            f"max_features={config.max_features} exceeds feature dimension {X.shape[1]}"
        )
    _check_finite("training features", X)
    _check_finite("training targets", Y)


def _rank_table(X, order):
    """(d, n) uint32 dense ranks of the columns of X[order]; equal values share a rank.

    CART depends only on the order of feature values, so trees grow on the
    ranks and map each split back to the values of its node's samples.  One
    column at a time keeps the temporaries small.
    """
    ranks = np.empty((X.shape[1], order.size), dtype=np.uint32)
    for j in range(X.shape[1]):
        ranks[j] = np.unique(X[order, j], return_inverse=True)[1]
    return ranks


def _segments(counts):
    starts = np.zeros(counts.size, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts, np.repeat(np.arange(counts.size), counts)


def fit_tree(X, y, sample_indices, config, rng):
    """Grow one CART tree on the given bootstrap multiset of row indices."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size or y.size == 0:
        raise ValidationError("X must be (n, d) and y (n,) with n >= 1")
    idx0 = np.asarray(sample_indices, dtype=np.intp)
    if idx0.size == 0:
        raise ValidationError("sample_indices must be nonempty")
    if idx0.min() < 0 or idx0.max() >= y.size:
        raise ValidationError(f"sample_indices must lie in [0, {y.size})")
    _check_training_inputs(X, y, config)
    order = np.arange(y.size)
    return _grow_by_level(X, order, _rank_table(X, order), y, *np.unique(idx0, return_counts=True), config, rng)


def _grow_by_level(X, order, ranks, y, rows, weights, config, rng):
    """Grow one CART tree breadth first, splitting every open node of a depth level at once.

    rows holds the distinct bootstrap rows grouped by node, in node-id order,
    and weights their multiplicities, which node means and min_leaf_size
    count.  Per level, the splittable nodes draw their feature subsets in one
    (nodes, d) draw, and the ranks of their rows on those features form one
    (max_features, N) block, sorted once as packed (node, rank, position)
    keys.  Targets are centered per node, so S_R = -S_L and the usual
    S_L^2/n_L + S_R^2/n_R is S_L^2 * n/(n_L*n_R): a float prefix sum gives
    S_L, an integer one n_L, and each cut scores S_L^2/(n_L*n_R).  A node
    takes its first maximum (lowest drawn-feature row, then lowest rank) and
    its threshold is the midpoint of its own two adjacent values.  Node ids
    are breadth first, so children follow their parent.  Row indices point
    into X[order], the order of ranks and y; only the split midpoints read X.
    """
    d, n = ranks.shape
    flat_ranks = ranks.ravel()
    levels = []
    counts = np.array([rows.size])
    depth = 0
    while counts.size:
        starts, _ = _segments(counts)
        ys = y[rows]
        y_lo = np.minimum.reduceat(ys, starts)
        y_hi = np.maximum.reduceat(ys, starts)
        size = np.add.reduceat(weights, starts)
        mean = np.add.reduceat(ys * weights, starts) / size
        # a constant node keeps the exact constant, dodging mean rounding
        value = np.where(y_hi == y_lo, y_lo, mean)
        feature = np.full(counts.size, -1, dtype=np.int32)
        threshold = np.zeros(counts.size)
        levels.append((feature, threshold, value))
        splittable = (size >= 2 * config.min_leaf_size) & (y_hi > y_lo)
        ids = np.flatnonzero(splittable)
        if not ids.size or depth == config.max_depth:
            break
        keep = np.repeat(splittable, counts)
        rows, weights = rows[keep], weights[keep]
        counts, size = counts[ids], size[ids]
        starts, node = _segments(counts)
        ends = starts + counts - 1
        yw = (ys[keep] - mean[ids][node]) * weights
        cols = np.arange(rows.size)

        feats = rng.random((ids.size, d)).argsort(axis=1)[:, : config.max_features]
        # key goes from flat rank-table index to rank to packed key; np.take
        # keeps it in C order, which feats.T[:, node] would not.
        key = np.take(feats.T * n, node, axis=1)
        key += rows
        key[...] = np.take(flat_ranks, key)
        key = key.view(np.uint64)
        key <<= _KEY_BITS
        key |= (node.astype(np.uint64) << (_KEY_BITS + _KEY_BITS)) | cols.astype(np.uint64)
        key.sort(axis=1)
        pos = (key & _KEY_MASK).view(np.intp)  # a uint64 index would be cast on every gather
        score = np.take(yw, pos)
        n_left = np.take(weights, pos)
        del pos
        # every row holds a node's same rows, so taking the previous node's
        # weight total off each node's first entry restarts the exact sum there
        n_left[:, starts[1:]] -= size[:-1]
        np.cumsum(n_left, axis=1, out=n_left)
        # The float sum runs on across segments and rows; subtracting the
        # near-zero sum before each segment keeps out rounding from the others.
        flat = score.reshape(-1)
        np.cumsum(flat, out=flat)
        before = flat[starts + cols.size * np.arange(score.shape[0])[:, None] - 1]
        before[0, 0] = 0.0  # index -1 wrapped round to the last entry
        score -= np.take(before, node, axis=1)  # S_L
        score *= score  # S_L^2
        n_left *= size[node] - n_left  # n_L * n_R, zero at a node's last cut
        with np.errstate(divide="ignore", invalid="ignore"):
            score /= n_left
        del n_left
        # Scores are >= 0; a cut between equal (node, rank) keys or after a
        # node's last row is marked -1.
        cut = np.empty(key.shape, dtype=bool)
        np.less(key[:, 1:] ^ key[:, :-1], _KEY_MASK + np.uint64(1), out=cut[:, :-1])
        cut[:, ends] = True
        np.copyto(score, -1.0, where=cut)

        row_best = np.maximum.reduceat(score, starts, axis=1)
        best = row_best.max(axis=0)
        row = (row_best == best).argmax(axis=0)
        hits = np.flatnonzero(score[row[node], cols] == best[node])
        pos = hits[np.searchsorted(hits, starts)]
        del score
        f = feats[np.arange(ids.size), row]
        entry_a = key[row, pos]
        rank_a = (entry_a >> _KEY_BITS) & _KEY_MASK
        a = X[order[rows[entry_a & _KEY_MASK]], f]
        b = X[order[rows[key[row, pos + 1] & _KEY_MASK]], f]
        thr = a + (b - a) / 2.0
        # float midpoint may round up; keep a <= thr < b so routing matches the fit
        thr = np.where(thr >= b, a, thr)

        ok = best >= 0.0
        split_ids = ids[ok]
        feature[split_ids] = f[ok]
        threshold[split_ids] = thr[ok]
        value[split_ids] = 0.0
        slot = np.cumsum(ok) - 1
        moving = ok[node]
        node, rows, weights = node[moving], rows[moving], weights[moving]
        go_right = flat_ranks[f[node] * n + rows] > rank_a[node]
        child = 2 * slot[node] + go_right
        route = child.argsort(kind="stable")
        rows, weights = rows[route], weights[route]
        counts = np.bincount(child, minlength=2 * split_ids.size)
        depth += 1

    feature, threshold, value = (np.concatenate(field) for field in zip(*levels))
    internal = np.flatnonzero(feature >= 0)
    left = np.full(feature.size, -1, dtype=np.int32)
    right = np.full(feature.size, -1, dtype=np.int32)
    left[internal] = 1 + 2 * np.arange(internal.size)
    right[internal] = left[internal] + 1
    return RegressionTree(feature, threshold, left, right, value)


def _canonical_order(X, Y):
    # Primary key is feature column 0, then the remaining columns, then targets;
    # lexsort treats its last key as primary, hence the reversal.
    keys = tuple(Y[:, t] for t in range(Y.shape[1] - 1, -1, -1))
    keys = keys + tuple(X[:, j] for j in range(X.shape[1] - 1, -1, -1))
    return np.lexsort(keys)


@dataclass
class RandomForestModel:
    """Per-target tree ensembles plus everything needed to reuse them."""

    config: ForestConfig
    target_names: list
    forests: list  # list (per target) of lists of RegressionTree
    oob_curves: list  # per target: ndarray, mean relative OOB error after m trees
    feature_meta: object = None
    dataset_fingerprint: str | None = None
    # always None: kept only because perfbench/layers.py:model_stats reads it (ROADMAP item 15)
    inbag_counts = None

    def __post_init__(self):
        if not self.target_names:
            raise ValidationError("target_names must be nonempty")
        if len(set(self.target_names)) != len(self.target_names):
            raise ValidationError(f"target names must be unique, got {self.target_names}")
        for trees in self.forests:
            if len(trees) != self.config.n_trees:
                raise ValidationError("each ensemble must have exactly config.n_trees trees")

    def oob_error(self, target):
        curve = self.oob_curves[self.target_names.index(target)]
        return float(curve[-1]) if curve is not None and len(curve) else float("nan")

    def predict_matrix(self, X):
        """(n_samples, n_targets) ensemble means.

        When every tree agrees on a sample the common value is returned
        exactly, so constant forests reproduce constants bit-for-bit.  X must
        be 2-D, as wide as the model grid when the model has one, and wider
        than every feature a tree splits on.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(f"features must be a 2-D (samples, features) array, got shape {X.shape}")
        meta = self.feature_meta
        if meta is not None and X.shape[1] != meta.grid.size:
            raise ValidationError(f"feature rows have {X.shape[1]} entries, model expects {meta.grid.size}")
        widest = max(int(tree.feature.max()) for trees in self.forests for tree in trees)
        if X.shape[1] <= widest:
            raise ValidationError(f"feature rows have {X.shape[1]} entries, a tree splits on feature {widest}")
        _check_finite("features", X)
        out = np.zeros((X.shape[0], len(self.target_names)))
        for t, trees in enumerate(self.forests):
            acc = np.zeros(X.shape[0])
            lo = np.full(X.shape[0], np.inf)
            hi = np.full(X.shape[0], -np.inf)
            for tree in trees:
                p = tree.predict_batch(X)
                acc += p
                np.minimum(lo, p, out=lo)
                np.maximum(hi, p, out=hi)
            out[:, t] = np.where(lo == hi, lo, acc / len(trees))
        return out


def oob_curve(oob_preds, y):
    """Mean |pred - y| / |y| over OOB samples, after each prefix of the ensemble.

    oob_preds yields each tree's predictions in turn, NaN at the rows its
    bootstrap drew; running sums keep memory at O(rows).  Rows no tree has left
    out yet are skipped; exact predictions count as zero error even at y == 0.
    """
    sum_pred, cnt = np.zeros(y.size), np.zeros(y.size, dtype=np.int64)
    lo, hi = np.full(y.size, np.inf), np.full(y.size, -np.inf)
    curve = []
    for p in oob_preds:
        oob = ~np.isnan(p)
        np.add(sum_pred, p, out=sum_pred, where=oob)
        cnt += oob
        np.fmin(lo, p, out=lo)
        np.fmax(hi, p, out=hi)
        covered = cnt > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            pred = np.where(lo == hi, lo, sum_pred / cnt)[covered]
            truth = y[covered]
            rel = np.where(pred == truth, 0.0, np.abs(pred - truth) / np.abs(truth))
        curve.append(rel.mean() if rel.size else np.nan)
    return np.array(curve)


def _fit_one_tree(X, canon, ranks, yc, config, target_index, tree_index):
    """One tree and its predictions at the rows its bootstrap left out (NaN elsewhere), in X[canon]'s order."""
    n = yc.size
    rng = np.random.default_rng([config.rng_seed, target_index, tree_index])
    if config.bootstrap == "identity":
        drawn = np.ones(n, dtype=np.intp)
    else:
        drawn = np.bincount(rng.integers(0, n, size=n), minlength=n)
    # the distinct rows come out in row order, so the gathers walk memory forward
    rows = np.flatnonzero(drawn)
    tree = _grow_by_level(X, canon, ranks, yc, rows, drawn[rows], config, rng)
    oob_pred = np.full(n, np.nan)
    out = drawn == 0
    oob_pred[out] = tree.predict_batch(X[canon[out]])
    return tree, oob_pred


def fit_forest(X, Y, config, target_names=None, threads=1):
    """Train one forest per target column of Y; deterministic for a fixed config.

    The (target, tree) jobs run through workers.ordered_map over threads
    forked workers, which inherit X and its canonical row order instead of
    receiving a pickled copy; the first job in each process builds the rank
    table there, so the caller holds one only when the jobs run in it.  Each
    job sends back its tree and the tree's predictions at the rows its
    bootstrap left out (NaN at the rest), which oob_curve then averages.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValidationError(f"X rows ({X.shape}) must match Y rows ({Y.shape})")
    if X.shape[0] < 2:
        raise ValidationError("need at least 2 training samples")
    _check_training_inputs(X, Y, config)
    if target_names is None:
        target_names = [f"target_{t}" for t in range(Y.shape[1])]
    if len(target_names) != Y.shape[1]:
        raise ValidationError("target_names length must match Y columns")

    canon = _canonical_order(X, Y)
    Yc = np.ascontiguousarray(Y[canon].T)
    ranks = functools.cache(lambda: _rank_table(X, canon))

    jobs = [(t, i) for t in range(Y.shape[1]) for i in range(config.n_trees)]
    # _assemble takes each target's trees with islice, which leaves the map open; closing it ends the pool
    with contextlib.closing(ordered_map(lambda job: _fit_one_tree(X, canon, ranks(), Yc[job[0]], config, *job),
                                        jobs, threads)) as results:
        return _assemble(results, Yc, config, target_names)


def _assemble(results, Yc, config, target_names):
    """The model from (tree, OOB predictions) results in job order; oob_curve takes
    each target's predictions as they arrive, so the parent holds one at a time."""
    forests = [[] for _ in Yc]

    def oob_preds(trees):
        for tree, oob_pred in itertools.islice(results, config.n_trees):
            trees.append(tree)
            yield oob_pred

    curves = [oob_curve(oob_preds(trees), yc) for trees, yc in zip(forests, Yc)]
    return RandomForestModel(config, list(target_names), forests, curves)


def slice_forest(model, n_trees):
    """The model that training with the first n_trees would have produced.

    Valid because tree i of target t depends only on (seed, t, i); verified
    by the test suite against a direct smaller training run.
    """
    n_trees = integer("n_trees", n_trees, 1)
    if n_trees > model.config.n_trees:
        raise ValidationError(f"n_trees must be in [1, {model.config.n_trees}], got {n_trees}")
    return RandomForestModel(
        replace(model.config, n_trees=n_trees),
        list(model.target_names),
        [trees[:n_trees] for trees in model.forests],
        [None if c is None else c[:n_trees] for c in model.oob_curves],
        feature_meta=model.feature_meta,
        dataset_fingerprint=model.dataset_fingerprint,
    )
