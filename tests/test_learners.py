import dataclasses
import hashlib
import json
import os
import re

import numpy as np
import pytest

from handpass import synth
from handpass.codec import read_capture
from handpass.dataset import CaptureMeta, build_rows, feature_names, slice_dataset
from handpass.dsp import fit_scaler
from handpass.errors import (
    DegenerateLabels,
    DimensionMismatch,
    NonFiniteFeature,
    TooFewSamples,
    UnsupportedModel,
    _check_count,
)
from handpass.gatekeeper import EnrollmentStore, load_store, save_store
from handpass.learners import (
    HyperParams,
    cross_validate,
    default_hyper,
    feature_importance,
    model_from_doc,
    model_to_doc,
    predict,
    predict_scores,
    select_subcarriers,
    train,
)
from handpass.learners.base import MODEL_CLASSES, canonical_kind
from handpass.learners.forest import RandomForestModel
from handpass.learners.importance import _tree_importances
from handpass.learners.persist import arrays_hook
from handpass.learners import tree as tree_module
from handpass.learners import validate as validate_module
from handpass.learners.tree import SplitData, best_splits, gini, grow_tree, resolve_max_features
from handpass.learners.validate import confusion_matrix, metrics_from_confusion, stratified_folds

ALL_KINDS = ("dt", "rf", "knn", "nb", "svm")


def blobs(rng, n_per=12, n_classes=3, d=4, spread=0.3, gap=5.0):
    """Well-separated Gaussian clusters, one per class."""
    centers = rng.normal(size=(n_classes, d)) * gap
    X = np.vstack(
        [centers[c] + spread * rng.normal(size=(n_per, d)) for c in range(n_classes)]
    )
    y = np.repeat(np.arange(n_classes), n_per)
    return X, y


def gini_ref(labels):
    """Reference impurity, written independently of the tree module."""
    labels = np.asarray(labels)
    total = 0.0
    for v in set(labels.tolist()):
        total += (np.count_nonzero(labels == v) / labels.size) ** 2
    return 1.0 - total


def brute_best_split(X, y):
    """Exhaustive scan of every feature and every midpoint threshold.

    Returns the smallest achievable n_left*gini_left + n_right*gini_right,
    or None when no feature has two distinct values.
    """
    best = None
    for j in range(X.shape[1]):
        vals = np.unique(X[:, j])
        for lo, hi in zip(vals[:-1], vals[1:]):
            t = (lo + hi) / 2.0
            left = X[:, j] <= t
            n_l = int(left.sum())
            if n_l == 0 or n_l == len(y):
                continue
            q = n_l * gini_ref(y[left]) + (len(y) - n_l) * gini_ref(y[~left])
            if best is None or q < best - 1e-12:
                best = q
    return best


def onehot_best_split(X, y_codes, idx, feats, n_classes):
    """Reference split search over a one-hot (rows x features x classes)
    cumulative class-count tensor, with the tree module's tie-break:
    first row-major minimum within a chunk, earliest chunk across chunks.
    """
    n = idx.size
    y_node = y_codes[idx]
    best_w, best_f, best_t = np.inf, -1, 0.0
    for start in range(0, feats.size, 64):
        fc = feats[start : start + 64]
        Xc = X[np.ix_(idx, fc)]
        order = np.argsort(Xc, axis=0)
        Xs = np.take_along_axis(Xc, order, axis=0)
        ys = y_node[order]
        onehot = ys[:, :, None] == np.arange(n_classes)[None, None, :]
        cum = np.cumsum(onehot, axis=0, dtype=np.float64)
        total = cum[-1]
        left_n = np.arange(1, n, dtype=np.float64)[:, None]
        right_n = n - left_n
        cum = cum[:-1]
        ssl = np.einsum("imc,imc->im", cum, cum)
        rcounts = total[None, :, :] - cum
        ssr = np.einsum("imc,imc->im", rcounts, rcounts)
        w = (left_n - ssl / left_n) + (right_n - ssr / right_n)
        mids = 0.5 * (Xs[:-1] + Xs[1:])
        valid = (Xs[1:] > Xs[:-1]) & (Xs[:-1] <= mids) & (mids < Xs[1:])
        w = np.where(valid, w, np.inf)
        if w.size == 0:
            continue
        i, j = divmod(int(np.argmin(w)), w.shape[1])
        if w[i, j] < best_w:
            best_w, best_f, best_t = float(w[i, j]), int(fc[j]), float(mids[i, j])
    if not np.isfinite(best_w):
        return None
    return best_w, best_f, best_t


def per_tree_apply(tree, X):
    """Reference routing of one tree: rows still at an internal node
    step to a child until none is left."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = np.nonzero(tree.feature[node] >= 0)[0]
    while active.size:
        nd = node[active]
        go_left = X[active, tree.feature[nd]] <= tree.threshold[nd]
        node[active] = np.where(go_left, tree.left[nd], tree.right[nd])
        active = active[tree.feature[node[active]] >= 0]
    return node


def tree_depth(tree):
    """Steps from the root to the deepest leaf (children follow parents)."""
    depth = np.zeros(tree.n_nodes, dtype=np.int64)
    for i in np.nonzero(tree.feature >= 0)[0]:
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    return int(depth.max())


def per_tree_votes(forest, X):
    """Reference forest scores: route and vote one tree at a time, the
    vote going to the first maximum of the leaf's value row."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    votes = np.zeros((n, forest.classes.shape[0]))
    for tree in forest.trees:
        pred = np.argmax(tree.value[per_tree_apply(tree, X)], axis=1)
        votes[np.arange(n), pred] += 1.0
    return votes / len(forest.trees)


class TestGini:
    def test_pure(self):
        assert gini([5, 5, 5]) == 0.0

    def test_even_binary(self):
        assert gini([0, 1]) == 0.5

    def test_four_classes(self):
        assert abs(gini([0, 1, 2, 3]) - 0.75) < 1e-15

    def test_skewed(self):
        assert abs(gini([0, 0, 0, 1]) - 0.375) < 1e-15

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini([])


class TestMaxFeatures:
    def test_none_means_all(self):
        assert resolve_max_features(None, 468) == 468

    def test_sqrt(self):
        assert resolve_max_features("sqrt", 468) == 22
        assert resolve_max_features("sqrt", 4) == 2


class TestKinds:
    def test_aliases(self):
        assert canonical_kind("rf") == "RandomForest"
        assert canonical_kind("GaussianNB") == "GaussianNB"

    def test_unknown(self):
        with pytest.raises(ValueError):
            canonical_kind("xgboost")

    def test_dt_default_uses_all_features(self):
        assert default_hyper("dt").max_features is None
        assert default_hyper("rf").max_features == "sqrt"


class TestHyperParamsChecks:
    @pytest.mark.parametrize("field, value", [
        ("n_trees", 0), ("n_trees", -3), ("n_trees", 2.0), ("n_trees", True),
        ("max_depth", -1), ("max_depth", 1.5),
        ("k_neighbors", 0), ("k_neighbors", "5"),
        ("svm_epochs", 0), ("svm_epochs", -1),
        ("max_features", 2.7), ("max_features", True), ("max_features", "log2"),
        ("max_features", 0), ("max_features", "3"),
        ("bootstrap", "no"), ("bootstrap", 1), ("bootstrap", None),
        ("max_features", 1), ("max_features", np.int64(1)),
    ])
    def test_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            HyperParams(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} "):
            dataclasses.replace(default_hyper("rf"), **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_trees", 1), ("max_depth", 0), ("max_depth", None),
        ("k_neighbors", 1), ("svm_epochs", 1), ("n_trees", np.int64(1)),
        ("max_features", None), ("max_features", "sqrt"), ("bootstrap", False),
    ])
    def test_smallest_accepted(self, field, value):
        assert getattr(HyperParams(**{field: value}), field) == value


class TestTrainValidation:
    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            train("dt", np.ones((4, 2)), [1, 1, 1, 1])

    def test_non_finite_rejected(self):
        X = np.ones((4, 2))
        X[2, 1] = np.nan
        with pytest.raises(NonFiniteFeature):
            train("knn", X, [0, 0, 1, 1])

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError):
            train("nb", np.ones(4), [0, 0, 1, 1])

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            train("dt", np.ones((4, 2)), [0, 1])


class TestDecisionTree:
    def test_depth_one_threshold(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = train("dt", X, y)
        assert model.feature[0] == 0
        assert abs(model.threshold[0] - 1.5) < 1e-15
        assert np.array_equal(predict(model, X), y)

    def test_perfect_fit_on_distinct_rows(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 4, size=40)
        y[:4] = [0, 1, 2, 3]
        model = train("dt", X, y)
        assert np.array_equal(predict(model, X), y)

    def test_max_depth_respected(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(64, 3))
        y = rng.integers(0, 2, size=64)
        y[:2] = [0, 1]
        model = train("dt", X, y, HyperParams(max_depth=2, max_features=None))
        # depth 2 allows at most 7 nodes
        assert model.n_nodes <= 7

    def test_root_split_matches_brute_force(self):
        rng = np.random.default_rng(22)
        for case in range(30):
            n = int(rng.integers(3, 17))
            d = int(rng.integers(1, 4))
            X = rng.uniform(-5, 5, size=(n, d))
            y = rng.integers(0, int(rng.integers(2, 5)), size=n)
            if len(np.unique(y)) < 2:
                y[0] = y[0] + 1
            model = train("dt", X, y, HyperParams(max_depth=1, max_features=None))
            expected = brute_best_split(X, y)
            if model.feature[0] < 0:
                assert expected is None or expected >= n * gini_ref(y) - 1e-12
                continue
            left = X[:, model.feature[0]] <= model.threshold[0]
            got = left.sum() * gini_ref(y[left]) + (~left).sum() * gini_ref(y[~left])
            assert abs(got - expected) < 1e-12, f"case {case}"

    def test_scores_are_leaf_proportions(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 1, 1])
        model = train("dt", X, y, HyperParams(max_depth=1, max_features=None))
        s = model.scores(np.array([[3.0]]))
        row = s[0]
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert set(np.round(row, 12)) <= {0.0, 1.0, 0.5}

    def test_monotone_feature_transform_keeps_partitions(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 3, size=50)
        y[:3] = [0, 1, 2]
        a = train("dt", X, y, seed=7)
        b = train("dt", np.tanh(X), y, seed=7)
        assert np.array_equal(predict(a, X), predict(b, np.tanh(X)))

    def test_dimension_mismatch(self):
        model = train("dt", np.arange(8, dtype=float).reshape(4, 2), [0, 0, 1, 1])
        with pytest.raises(DimensionMismatch):
            predict(model, np.ones((2, 3)))


def split_one(X, y_codes, idx, feats, n_classes):
    """The batched split search on a batch of one node."""
    found = best_splits(SplitData(X, y_codes, n_classes), [(idx, feats)])
    assert len(found) == 1
    return found[0]


class TestSplitSearch:
    def test_matches_onehot_reference_on_random_nodes(self):
        rng = np.random.default_rng(31)
        # the corners first: smallest and largest node, one and all features
        sizes = np.concatenate([[2, 2, 240, 240], rng.integers(2, 241, size=296)])
        widths = np.concatenate([[1, 468, 1, 468], rng.integers(1, 469, size=296)])
        for case, (n, m) in enumerate(zip(sizes, widths)):
            decimals = int(rng.integers(1, 4))  # coarse values bring ties
            X = np.round(rng.normal(size=(240, 468)), decimals)
            n_classes = int(rng.integers(2, 21))
            y = rng.integers(0, n_classes, size=240)
            idx = rng.choice(240, size=n, replace=False)
            feats = np.sort(rng.choice(468, size=m, replace=False))
            want = onehot_best_split(X, y, idx, feats, n_classes)
            assert split_one(X, y, idx, feats, n_classes) == want, f"case {case}"
        assert (widths > 64).sum() > 100

    def test_equal_splits_in_later_chunks_lose(self):
        # class sizes 25/10/20: the best cut isolates class 0, after 25
        # rows sorted by c and after 30 rows sorted by -c, at the same w
        rng = np.random.default_rng(32)
        y = rng.permutation(np.repeat([0, 1, 2], [25, 10, 20]))
        c = 10.0 * y + rng.random(y.size)
        X = np.round(rng.normal(size=(y.size, 200)), 1)
        X[:, 10] = -c    # chunk 0, cut after row 30
        X[:, 100] = c    # chunk 1, cut after row 25
        X[:, 150] = c    # chunk 2, a duplicate of column 100
        idx, feats = np.arange(y.size), np.arange(200)
        got = split_one(X, y, idx, feats, 3)
        assert got == onehot_best_split(X, y, idx, feats, 3)
        # one argmin over all features would take column 100's earlier cut
        assert got[0] == 30 - 500 / 30 and got[1] == 10
        # without column 10 the duplicates tie; the earlier chunk wins
        got = split_one(X, y, idx, feats[feats != 10], 3)
        assert got == onehot_best_split(X, y, idx, feats[feats != 10], 3)
        assert got[1] == 100

    @pytest.mark.parametrize("m, sizes, decimals, n_classes, some_alone", [
        (22, (2, 30), 1, 20, False),     # forest-like nodes: many per batch, ties
        (22, (2, 240), 3, 2, False),     # mixed sizes
        (100, (2, 700), 1, 5, True),     # two feature chunks; the largest nodes go alone
        (1, (2, 12), 2, 3, False),       # a single feature
    ])
    def test_batch_matches_onehot_reference(self, m, sizes, decimals, n_classes, some_alone):
        rng = np.random.default_rng(33)
        X = np.round(rng.normal(size=(240, 468)), decimals)
        X[:, 5] = 1.5                           # a constant column
        y = rng.integers(0, n_classes, size=240)
        data = SplitData(X, y, n_classes)
        nodes = []
        for k in range(150):
            n = int(rng.integers(*sizes, endpoint=True))
            # half the nodes repeat rows, as a bootstrap sample does
            idx = rng.choice(240, size=n, replace=bool(k % 2) or n > 240)
            feats = np.sort(rng.choice(468, size=m, replace=False))
            if k % 7 == 0:
                feats[0] = 5
                feats.sort()
            nodes.append((idx, feats))
        cells = [idx.size * min(m, 64) for idx, _ in nodes]
        assert (max(cells) > tree_module._BATCH_CELLS) == some_alone
        want = [onehot_best_split(X, y, idx, feats, n_classes) for idx, feats in nodes]
        assert best_splits(data, nodes) == want

    def test_batch_past_the_uint16_key_range(self):
        # 300 nodes x 240 ranks: the (node, rank) keys do not fit 16 bits,
        # while all the nodes' cells still make one batch
        rng = np.random.default_rng(34)
        X = rng.normal(size=(240, 3))
        y = rng.integers(0, 4, size=240)
        data = SplitData(X, y, 4)
        nodes = [(rng.choice(240, size=int(rng.integers(2, 20)), replace=True),
                  np.array([int(rng.integers(0, 3))])) for _ in range(300)]
        assert data.n_ranks * len(nodes) > 1 << 16
        assert sum(idx.size for idx, _ in nodes) <= tree_module._BATCH_CELLS
        want = [onehot_best_split(X, y, idx, feats, 4) for idx, feats in nodes]
        assert best_splits(data, nodes) == want

    def searched_again(self, monkeypatch):
        """Nodes (as (start, end) segments) that the search had to search
        again because a winning midpoint did not separate its pair."""
        calls, real = [], tree_module._search_again
        monkeypatch.setattr(tree_module, "_search_again",
                            lambda *args: calls.append(args[-2:]) or real(*args))
        return calls

    def test_midpoint_on_the_upper_value_is_searched_again(self, monkeypatch):
        # column 0 parts the classes between adjacent floats whose
        # midpoint rounds onto the upper one, so no threshold cuts there;
        # column 1 parts them with one row on the wrong side
        lo = 1.0 + 2.0 ** -52
        hi = np.nextafter(lo, 2.0)
        assert (lo + hi) * 0.5 == hi
        y = np.repeat([0, 1], 5)
        X = np.stack([np.repeat([lo, hi], 5), np.arange(10.0)], axis=1)
        X[4, 1] = 7.5
        calls = self.searched_again(monkeypatch)
        idx, feats = np.arange(10), np.arange(2)
        got = split_one(X, y, idx, feats, 2)
        assert got == onehot_best_split(X, y, idx, feats, 2)
        assert got[1] == 1 and calls == [(0, 10)]

    @pytest.mark.parametrize("m, sizes", [(22, (2, 30)), (3, (100, 240))])
    def test_adjacent_floats_match_onehot_reference(self, monkeypatch, m, sizes):
        # every column holds three values, each up to two floats up
        # from it: adjacent pairs whose midpoint rounds onto the upper
        # value (half of them) or onto the lower one
        rng = np.random.default_rng(35)
        X = rng.normal(size=(3, 40))[rng.integers(0, 3, size=(240, 40)), np.arange(40)]
        steps = rng.integers(0, 3, size=X.shape)
        for s in (1, 2):
            X = np.where(steps >= s, np.nextafter(X, np.inf), X)
        y = rng.integers(0, 3, size=240)
        nodes = [(rng.choice(240, size=int(rng.integers(*sizes, endpoint=True))),
                  np.sort(rng.choice(40, size=m, replace=False))) for _ in range(60)]
        calls = self.searched_again(monkeypatch)
        want = [onehot_best_split(X, y, idx, feats, 3) for idx, feats in nodes]
        assert best_splits(SplitData(X, y, 3), nodes) == want
        assert len(calls) > 5

    def test_overflowing_midpoints_match_onehot_reference(self, monkeypatch):
        # values near +-1.7e308: two positive ones sum to +inf and two
        # negative ones to -inf, midpoints that separate nothing; equal
        # neighbours are no cut either way
        rng = np.random.default_rng(36)
        vals = np.array([-1.79e308, -1.75e308, -1.7e308, -1e-3, 1e-3, 1.7e308, 1.75e308, 1.79e308])
        X = vals[rng.integers(0, vals.size, size=(120, 6))]
        y = rng.integers(0, 2, size=120)
        nodes = [(rng.choice(120, size=int(rng.integers(2, 60))),
                  np.sort(rng.choice(6, size=3, replace=False))) for _ in range(80)]
        calls = self.searched_again(monkeypatch)
        with np.errstate(over="ignore"):
            want = [onehot_best_split(X, y, idx, feats, 2) for idx, feats in nodes]
            assert best_splits(SplitData(X, y, 2), nodes) == want
        assert calls
        assert all(np.isfinite(w[2]) for w in want if w)

    def test_tree_on_overflowing_midpoints(self):
        # the midpoint of the pair that parts the classes overflows to
        # -inf, so the root cuts at the other pair and its left child,
        # with no cut left, is a leaf
        X = np.array([[-1.75e308], [-1.7e308], [-1.7e308], [0.0]])
        with np.errstate(over="ignore"):
            model = train("dt", X, np.array([0, 1, 1, 1]),
                          HyperParams(max_features=None, max_depth=5))
        assert model.n_nodes == 3
        assert model.threshold[0] == -0.85e308

    def test_batch_of_64_bit_keys(self):
        # 1000 nodes x 4000 ranks, with 14 bits of position: the packed
        # keys do not fit 32 bits, while all the nodes make one batch
        rng = np.random.default_rng(37)
        X = rng.normal(size=(4000, 2))
        y = rng.integers(0, 5, size=4000)
        data = SplitData(X, y, 5)
        nodes = [(rng.choice(4000, size=int(rng.integers(2, 30))), np.array([k % 2]))
                 for k in range(1000)]
        n = sum(idx.size for idx, _ in nodes)
        assert n <= tree_module._BATCH_CELLS
        assert data.n_ranks * len(nodes) << n.bit_length() > 1 << 32
        want = [onehot_best_split(X, y, idx, feats, 5) for idx, feats in nodes]
        assert best_splits(data, nodes) == want

    @pytest.mark.parametrize("n_nodes", [1, 2, 37])
    def test_bootstrap_batches_match_onehot_reference(self, n_nodes):
        # one node alone, two and many, each a sample with repeats, on
        # tied coarse values; the many-node case spans several batches
        rng = np.random.default_rng(38 + n_nodes)
        X = np.round(rng.normal(size=(240, 100)), 1)
        y = rng.integers(0, 20, size=240)
        data = SplitData(X, y, 20)
        for _ in range(5):
            nodes = [(rng.choice(240, size=int(rng.integers(2, 241))),
                      np.sort(rng.choice(100, size=10, replace=False)))
                     for _ in range(n_nodes)]
            want = [onehot_best_split(X, y, idx, feats, 20) for idx, feats in nodes]
            assert best_splits(data, nodes) == want

    def test_nodes_of_one_row_have_no_split(self):
        X = np.arange(12.0).reshape(6, 2)
        y = np.array([0, 1, 0, 1, 0, 1])
        nodes = [(np.array([3]), np.arange(2)), (np.arange(6), np.arange(2))]
        got = best_splits(SplitData(X, y, 2), nodes)
        assert got[0] is None
        assert got[1] == onehot_best_split(X, y, np.arange(6), np.arange(2), 2)


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "n_node_samples", "impurity")


def tree_digest(trees):
    h = hashlib.sha256()
    for tree in trees:
        for name in TREE_ARRAYS:
            a = np.ascontiguousarray(getattr(tree, name))
            h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden_d1(tmp_path_factory):
    """10-user D1 slice (200 x 468) of a seed-42 synth corpus."""
    root = tmp_path_factory.mktemp("golden")
    cfg = synth.SynthConfig(
        users=10, captures_per_user=1, frames_per_capture=20,
        packets_per_second=20, noise_sigma=1.0, seed=42,
    )
    manifest = synth.generate(cfg, root)
    rows = []
    for e in manifest["captures"]:
        meta = CaptureMeta(capture_number=e["capture_number"], gender=e["gender"],
                           hand=e["hand"], user_id=e["user_id"])
        rows.extend(build_rows(read_capture(os.path.join(root, e["path"])), meta)[0])
    sl = slice_dataset(rows, "D1", cfg.packets_per_second)
    return sl.rows.features, sl.rows.labels


class TestSeededTreesGolden:
    """Every array of every tree, hashed; the digests were recorded from
    the one-hot split search, so any change to a split, a threshold, a
    leaf or the forest's seeding shows here."""

    def test_inputs_unchanged(self, golden_d1):
        X, y = golden_d1
        digest = hashlib.sha256(X.tobytes() + y.tobytes()).hexdigest()
        assert digest == "954adf30e3da01aa73f1ceba0e5cfafebfecc241b6c1aa4d7f3a8aa9b15d59a7", "the synth/DSP inputs changed, not the trees"

    def test_random_forest(self, golden_d1):
        model = train("rf", *golden_d1, seed=42)
        assert tree_digest(model.trees) == "539ca89b019c11280245357071b4222f01900b947f95e5b8441b1adc8ea11fcf"

    def test_decision_tree(self, golden_d1):
        model = train("dt", *golden_d1, seed=42)
        assert tree_digest([model]) == "b9c6b93a2de799005e4792c0a3e7ea99684956267757116b4e5c0430924a2d9c"


CV_PREDICTIONS_DIGEST = "ef40f01966768146f2c6f2e8f4618e3ba49713c68d357b3f4af6638b8702397f"


def test_cross_validate_fold_predictions_golden(golden_d1, monkeypatch):
    """Characterization: every fold's predictions of all five learners,
    from cross_validate's own folds and per-fold minmax scaling."""
    folds = []

    def recording(model, X):
        got = predict(model, X)
        folds.append(got.tolist())
        return got

    monkeypatch.setattr(validate_module, "predict", recording)
    for kind in ("rf", "dt", "knn", "nb", "svm"):
        cross_validate(kind, *golden_d1, k=10, seed=42, scaler="minmax", per_fold_scaler=True)
    assert len(folds) == 50
    digest = hashlib.sha256(json.dumps(folds).encode()).hexdigest()
    assert digest == CV_PREDICTIONS_DIGEST


# sha256 of the fold accuracies, fold F1s and confusion matrices below,
# recorded when the whole-matrix scaler was fitted once before the folds
WHOLE_MATRIX_CV_DIGEST = "d653e0e353398fca40482188f50af081fc529d4b2020f6577c5e4c474dd3de1f"


def test_cross_validate_whole_matrix_scaling_golden():
    """Characterization: every kind under every scaler fitted on the
    whole matrix, on columns of very different scales."""
    rng = np.random.default_rng(53)
    centers = rng.normal(size=(4, 30))
    X = np.vstack([centers[c] + 1.5 * rng.normal(size=(60, 30)) for c in range(4)])
    X = X * 10.0 ** rng.uniform(-2, 2, size=30) + rng.normal(size=30) * 50
    y = np.repeat(np.arange(4), 60)
    reports = []
    for kind in ("rf", "dt", "knn", "nb", "svm"):
        for scaler in ("minmax", "zscore", "robust"):
            rep = cross_validate(kind, X, y, k=5, seed=7, scaler=scaler)
            reports.append([rep.fold_accuracy, rep.fold_f1, rep.confusion.tolist()])
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == WHOLE_MATRIX_CV_DIGEST


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_tree(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(60, 6))
        y = rng.integers(0, 3, size=60)
        y[:3] = [0, 1, 2]
        hp = HyperParams(n_trees=1, bootstrap=False, max_features=None)
        forest = train("rf", X, y, hp, seed=11)
        tree = train("dt", X, y, HyperParams(max_features=None), seed=11)
        Q = rng.normal(size=(30, 6))
        assert np.array_equal(predict(forest, Q), predict(tree, Q))
        assert np.allclose(predict_scores(forest, Q), predict_scores(tree, Q))

    def test_unanimous_votes_on_separated_blobs(self):
        rng = np.random.default_rng(25)
        X, y = blobs(rng, n_per=15, n_classes=2, gap=20.0)
        model = train("rf", X, y, HyperParams(n_trees=10), seed=3)
        s = predict_scores(model, X)
        assert np.allclose(s.max(axis=1), 1.0)

    def test_scores_are_vote_fractions(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        model = train("rf", X, y, HyperParams(n_trees=8), seed=5)
        s = predict_scores(model, X)
        assert np.allclose(s * 8, np.round(s * 8), atol=1e-9)  # eighths
        assert np.allclose(s.sum(axis=1), 1.0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(27)
        X, y = blobs(rng, n_per=10, spread=2.0)
        a = train("rf", X, y, HyperParams(n_trees=5), seed=9)
        b = train("rf", X, y, HyperParams(n_trees=5), seed=9)
        Q = rng.normal(size=(20, 4))
        assert np.array_equal(predict_scores(a, Q), predict_scores(b, Q))

    def test_labels_kept_verbatim(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        model = train("rf", X, np.array([7, 7, 42, 42]), HyperParams(n_trees=3))
        assert set(predict(model, X).tolist()) <= {7, 42}


class TestFusedForestMatchesPerTree:
    """RandomForestModel.scores routes all trees through one stacked node
    table; it must give the per-tree loop's scores bit for bit."""

    def test_seeded_forests_on_synth_d1(self, golden_d1):
        X, y = golden_d1
        rng = np.random.default_rng(60)
        Q = np.vstack([X, X + 0.05 * rng.normal(size=X.shape)])
        for seed in (1, 2):
            model = train("rf", X, y, seed=seed)
            assert len(model.trees) == 100
            assert np.array_equal(predict_scores(model, Q), per_tree_votes(model, Q))
        dt = train("dt", X, y, seed=1)
        assert np.array_equal(dt.apply(Q), per_tree_apply(dt, Q))

    def test_rows_on_split_thresholds(self):
        rng = np.random.default_rng(61)
        X = np.round(rng.normal(size=(90, 3)), 1)
        y = rng.integers(0, 5, size=90)
        model = train("rf", X, y, HyperParams(n_trees=30), seed=4)
        # every query value is some split's threshold on that feature
        Q = np.empty((200, 3))
        for j in range(3):
            pool = np.concatenate([t.threshold[t.feature == j] for t in model.trees])
            Q[:, j] = rng.choice(pool, size=200)
        Q[:3] = [[np.nan, 0.0, 0.0], [np.inf, -np.inf, 0.0], [0.0, np.nan, np.inf]]
        # every row visits the roots: many of them sit exactly on a root split
        on_root = sum(int((Q[:, t.feature[0]] == t.threshold[0]).sum()) for t in model.trees)
        assert on_root > 100
        assert np.array_equal(predict_scores(model, Q), per_tree_votes(model, Q))

    def test_single_leaf_and_uneven_trees(self):
        rng = np.random.default_rng(62)
        X, y = blobs(rng, n_per=30, n_classes=5, spread=5.0)
        stumps = train("rf", X, y, HyperParams(n_trees=5, max_depth=0), seed=2)
        assert all(t.n_nodes == 1 for t in stumps.trees)
        deep = train("rf", X, y, HyperParams(n_trees=5), seed=3)
        shallow = [train("dt", X, y, HyperParams(max_depth=d), seed=d) for d in (1, 2, 4)]
        mixed = RandomForestModel(
            classes=deep.classes, trees=stumps.trees[:2] + shallow + deep.trees
        )
        depths = [tree_depth(t) for t in mixed.trees]
        assert depths[:5] == [0, 0, 1, 2, 4] and max(depths) >= 10
        assert mixed.table.depth == max(depths)
        Q = np.vstack([X, rng.normal(size=(50, 4)) * 6])
        for model in (stumps, mixed):
            assert np.array_equal(predict_scores(model, Q), per_tree_votes(model, Q))

    def test_after_store_round_trip(self, golden_d1, tmp_path):
        X, y = golden_d1
        model = train("rf", X, y, seed=5)
        store = EnrollmentStore(
            model=model, scaler=fit_scaler("minmax", X),
            roster={int(u): {"enter"} for u in np.unique(y)}, packets_per_second=20,
        )
        save_store(store, tmp_path / "store.json")
        back = load_store(tmp_path / "store.json").model
        rng = np.random.default_rng(63)
        Q = np.vstack([X, rng.random(size=(100, X.shape[1]))])
        assert np.array_equal(predict_scores(back, Q), per_tree_votes(model, Q))


def per_tree_forest(X, y, hyper, seed):
    """Reference forest: one tree after another, each grown alone on its
    own bootstrap copy of X, as the forest was grown before lockstep."""
    classes = np.unique(y)
    codes = np.searchsorted(classes, y)
    n, C = X.shape[0], classes.shape[0]
    trees = []
    for t in range(hyper.n_trees):
        rng = np.random.default_rng((seed, t))
        if hyper.bootstrap:
            sample = rng.integers(0, n, size=n)
            trees.append(grow_tree(X[sample], codes[sample], C, classes, hyper, rng))
        else:
            trees.append(grow_tree(X, codes, C, classes, hyper, rng))
    return trees


class TestLockstepForestMatchesPerTree:
    """grow_forest grows all trees in lockstep through batched split
    searches; every tree must be the one grown alone, bit for bit."""

    @staticmethod
    def data(n_classes, rows=90, width=30, seed=70):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rows, width))
        X[:, 3] = 0.25                          # constant
        X[:, 7] = np.round(X[:, 7])             # a few values, heavily tied
        X[:, 8:12] = np.round(X[:, 8:12], 1)
        y = rng.integers(0, n_classes, size=rows)
        y[:n_classes] = np.arange(n_classes)
        return X, y

    @pytest.mark.parametrize("changes", [
        {},
        {"bootstrap": False},
        {"max_depth": 5},
        {"max_features": None},
        {"max_features": None, "bootstrap": False},
        {"max_depth": 0},
        {"max_depth": 1},
        {"max_depth": 3},
        {"max_depth": 2, "max_features": None},
        {"max_depth": 2, "bootstrap": False},
        {"n_trees": 1},
        {"n_trees": 1, "bootstrap": False, "max_features": None},
        {"n_trees": 100},
    ])
    @pytest.mark.parametrize("n_classes", [2, 20])
    def test_forest_digest(self, changes, n_classes):
        X, y = self.data(n_classes)
        hp = dataclasses.replace(HyperParams(n_trees=7), **changes)
        forest = train("rf", X, y, hp, seed=3)
        assert len(forest.trees) == hp.n_trees
        assert tree_digest(forest.trees) == tree_digest(per_tree_forest(X, y, hp, 3))

    def test_rounded_wide_matrix(self):
        # every column tied: values on a 0.5 grid, 80 features in two chunks
        rng = np.random.default_rng(71)
        X = np.round(2 * rng.normal(size=(120, 80))) / 2
        y = rng.integers(0, 6, size=120)
        for hp in (HyperParams(n_trees=12), HyperParams(n_trees=3, max_features=None)):
            forest = train("rf", X, y, hp, seed=8)
            assert tree_digest(forest.trees) == tree_digest(per_tree_forest(X, y, hp, 8))


class TestKnn:
    def test_self_point_with_k1(self):
        rng = np.random.default_rng(28)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 4, size=20)
        y[:4] = [0, 1, 2, 3]
        model = train("knn", X, y, HyperParams(k_neighbors=1))
        assert np.array_equal(predict(model, X), y)

    def test_inverse_rank_scores(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 0])
        model = train("knn", X, y, HyperParams(k_neighbors=3))
        s = predict_scores(model, np.array([[0.1]]))[0]
        # ranks 1,2,3 -> weights 1, 1/2, 1/3; labels 0,1,0
        assert abs(s[0] - (1 + 1 / 3) / (11 / 6)) < 1e-12
        assert abs(s[1] - (1 / 2) / (11 / 6)) < 1e-12

    def test_distance_tie_prefers_earlier_row(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([0, 1])
        model = train("knn", X, y, HyperParams(k_neighbors=1))
        assert predict(model, np.array([[1.0]]))[0] == 0

    def test_affine_transform_invariance(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 3, size=40)
        y[:3] = [0, 1, 2]
        Q = rng.normal(size=(15, 5))
        a = train("knn", X, y)
        b = train("knn", 3.7 * X - 2.0, y)
        assert np.array_equal(predict(a, Q), predict(b, 3.7 * Q - 2.0))
        assert np.allclose(predict_scores(a, Q), predict_scores(b, 3.7 * Q - 2.0))

    def test_k_capped_by_training_size(self):
        X = np.array([[0.0], [1.0], [5.0]])
        y = np.array([0, 0, 1])
        model = train("knn", X, y, HyperParams(k_neighbors=50))
        s = predict_scores(model, np.array([[0.2]]))
        assert np.isfinite(s).all() and abs(s.sum() - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        model = train("knn", np.arange(8, dtype=float).reshape(4, 2), [0, 0, 1, 1])
        with pytest.raises(DimensionMismatch):
            predict(model, np.ones((2, 3)))


class TestGaussianNb:
    @staticmethod
    def oracle_scores(Xtr, ytr, Xte, var_smoothing=1e-9):
        classes = np.unique(ytr)
        eps = var_smoothing * Xtr.var(axis=0).max()
        if eps <= 0:
            eps = var_smoothing
        cols = []
        for c in classes:
            rows = Xtr[ytr == c]
            mu = rows.mean(axis=0)
            var = rows.var(axis=0) + eps
            lp = (
                np.log(rows.shape[0] / Xtr.shape[0])
                - 0.5 * np.sum(np.log(2 * np.pi * var))
                - 0.5 * ((Xte - mu) ** 2 / var).sum(axis=1)
            )
            cols.append(lp)
        L = np.stack(cols, axis=1)
        L -= L.max(axis=1, keepdims=True)
        p = np.exp(L)
        return p / p.sum(axis=1, keepdims=True)

    def test_posteriors_match_independent_formula(self):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(50, 4)) + rng.integers(0, 3, size=(50, 1)) * 2.0
        y = rng.integers(0, 3, size=50)
        y[:3] = [0, 1, 2]
        model = train("nb", X, y)
        Q = rng.normal(size=(12, 4))
        assert np.allclose(
            predict_scores(model, Q), self.oracle_scores(X, y, Q), atol=1e-9
        )

    def test_separated_unit_gaussians(self):
        rng = np.random.default_rng(31)
        X = np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + 10.0])
        y = np.repeat([0, 1], 30)
        model = train("nb", X, y)
        assert np.array_equal(predict(model, X), y)

    def test_exact_tie_scores_half_and_picks_lower_label(self):
        X = np.array([[-2.0], [0.0], [0.0], [2.0]])
        y = np.array([3, 3, 8, 8])  # mirrored classes around 0
        model = train("nb", X, y)
        s = predict_scores(model, np.array([[0.0]]))[0]
        assert s[0] == 0.5 and s[1] == 0.5
        assert predict(model, np.array([[0.0]]))[0] == 3

    def test_zero_variance_training_column(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 4.0], [1.0, 5.0]])
        y = np.array([0, 0, 1, 1])
        model = train("nb", X, y)  # constant column must not divide by zero
        assert np.isfinite(predict_scores(model, X)).all()
        assert np.array_equal(predict(model, X), y)


class TestLinearSvm:
    def test_separable_blobs(self):
        rng = np.random.default_rng(32)
        X, y = blobs(rng, n_per=20, n_classes=2, d=5, gap=4.0)
        model = train("svm", X, y)
        assert (predict(model, X) == y).mean() == 1.0

    def test_three_classes(self):
        rng = np.random.default_rng(33)
        X, y = blobs(rng, n_per=20, n_classes=3, d=6, gap=6.0)
        model = train("svm", X, y)
        assert (predict(model, X) == y).mean() >= 0.95

    def test_deterministic(self):
        rng = np.random.default_rng(34)
        X, y = blobs(rng, n_per=10, n_classes=2)
        a = train("svm", X, y)
        b = train("svm", X, y)
        assert np.array_equal(a.weights, b.weights)

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(35)
        X, y = blobs(rng, n_per=8, n_classes=3)
        s = predict_scores(train("svm", X, y), X)
        assert np.allclose(s.sum(axis=1), 1.0)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(36)
        X, y = blobs(rng, n_per=8, n_classes=2, d=4)
        with pytest.raises(DimensionMismatch):
            predict(train("svm", X, y), np.ones((2, 5)))


class TestPredictConsistency:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_predict_is_argmax_of_scores(self, kind):
        rng = np.random.default_rng(37)
        X, y = blobs(rng, n_per=10, n_classes=3, spread=2.0)
        model = train(kind, X, y, seed=2)
        Q = rng.normal(size=(25, 4)) * 3
        s = predict_scores(model, Q)
        assert np.array_equal(predict(model, Q), model.classes[s.argmax(axis=1)])
        assert np.allclose(s.sum(axis=1), 1.0)
        assert s.min() >= 0.0


class TestCrossValidate:
    def test_too_few_samples(self):
        X = np.ones((12, 2))
        y = np.array([0] * 10 + [1] * 2)
        with pytest.raises(TooFewSamples):
            cross_validate("dt", X, y, k=3)

    @pytest.mark.parametrize("scaler", ["minmax", "zscore", "robust"])
    @pytest.mark.parametrize("per_fold_scaler", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_refused_as_training_refuses_them(self, scaler, per_fold_scaler,
                                                              bad):
        X, y = blobs(np.random.default_rng(37), n_per=12, n_classes=3)
        X[0, 1] = bad
        with pytest.raises(NonFiniteFeature, match="^feature matrix contains NaN or infinity$"):
            cross_validate("dt", X, y, k=3, scaler=scaler, per_fold_scaler=per_fold_scaler)

    @pytest.mark.parametrize("k", [0, 1, -2, 2.0, True, "3", None])
    def test_k_refused(self, k):
        X, y = blobs(np.random.default_rng(36), n_per=12, n_classes=3)
        with pytest.raises(ValueError, match=f"^k {re.escape(repr(k))} is not an integer >= 2$"):
            cross_validate("dt", X, y, k=k)

    def test_k_two_and_numpy_integers_accepted(self):
        X, y = blobs(np.random.default_rng(36), n_per=12, n_classes=3)
        assert len(cross_validate("dt", X, y, k=2).fold_f1) == 2
        assert len(cross_validate("dt", X, y, k=np.int64(3)).fold_f1) == 3

    def test_fold_balance(self):
        y = np.repeat([0, 1, 2], [25, 17, 9])
        folds = stratified_folds(y, k=4, seed=1)
        for c in (0, 1, 2):
            per_fold = np.bincount(folds[y == c], minlength=4)
            assert per_fold.max() - per_fold.min() <= 1

    def test_separable_data_is_perfect(self):
        rng = np.random.default_rng(38)
        X, y = blobs(rng, n_per=12, n_classes=3, gap=8.0)
        for kind in ("dt", "knn"):
            report = cross_validate(kind, X, y, k=4)
            assert report.mean_f1 == 1.0
            assert np.array_equal(report.confusion, np.diag([12, 12, 12]))

    def test_confusion_rows_are_class_counts(self):
        rng = np.random.default_rng(39)
        X = rng.normal(size=(40, 3))
        y = np.repeat([0, 1], [24, 16])
        report = cross_validate("nb", X, y, k=4)
        assert report.confusion.sum(axis=1).tolist() == [24, 16]

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        X, y = blobs(rng, n_per=9, n_classes=3, spread=3.0)
        a = cross_validate("rf", X, y, k=3, hyper=HyperParams(n_trees=5), seed=4)
        b = cross_validate("rf", X, y, k=3, hyper=HyperParams(n_trees=5), seed=4)
        assert a.fold_f1 == b.fold_f1
        assert np.array_equal(a.confusion, b.confusion)

    def test_per_fold_scaler(self):
        rng = np.random.default_rng(42)
        X, y = blobs(rng, n_per=12, n_classes=3, gap=8.0)
        report = cross_validate(
            "knn", X, y, k=4, scaler="zscore", per_fold_scaler=True
        )
        assert report.mean_f1 == 1.0

    def test_fit_and_predict_seconds_summed_over_folds(self):
        rng = np.random.default_rng(54)
        X, y = blobs(rng, n_per=12)
        rep = cross_validate("rf", X, y, k=3, hyper=HyperParams(n_trees=3), seed=1)
        assert rep.fit_s > 0.0 and rep.predict_s > 0.0
        assert cross_validate("nb", X, y, k=3).fit_s > 0.0

    def test_mean_properties(self):
        rng = np.random.default_rng(43)
        X, y = blobs(rng, n_per=8, n_classes=2, spread=4.0, gap=2.0)
        report = cross_validate("nb", X, y, k=4)
        assert report.mean_accuracy == pytest.approx(np.mean(report.fold_accuracy))
        assert report.mean_f1 == pytest.approx(np.mean(report.fold_f1))
        assert len(report.fold_f1) == 4

    def test_metrics_hand_example(self):
        cm = np.array([[8, 2], [4, 6]])
        m = metrics_from_confusion(cm)
        assert m["accuracy"] == pytest.approx(14 / 20)
        p0, p1 = 8 / 12, 6 / 8
        r0, r1 = 8 / 10, 6 / 10
        assert m["precision"] == pytest.approx((p0 + p1) / 2)
        assert m["recall"] == pytest.approx((r0 + r1) / 2)
        f0 = 2 * p0 * r0 / (p0 + r0)
        f1 = 2 * p1 * r1 / (p1 + r1)
        assert m["f1"] == pytest.approx((f0 + f1) / 2)

    def test_absent_prediction_gets_zero_precision(self):
        cm = np.array([[5, 0], [5, 0]])  # nothing ever predicted as class 1
        m = metrics_from_confusion(cm)
        assert m["precision"] == pytest.approx(0.25)  # (5/10 + 0) / 2
        assert m["f1"] == pytest.approx(1 / 3)  # (2/3 + 0) / 2

    def test_confusion_matrix_layout(self):
        cm = confusion_matrix([0, 0, 1], [0, 1, 1], np.array([0, 1]))
        assert cm.tolist() == [[1, 1], [0, 1]]


def per_node_importances(tree):
    """Reference importances: one internal node at a time, in node order."""
    imp = np.zeros(tree.n_features)
    n_root = tree.n_node_samples[0]
    for nid in np.nonzero(tree.feature >= 0)[0]:
        l, r = tree.left[nid], tree.right[nid]
        decrease = (
            tree.n_node_samples[nid] * tree.impurity[nid]
            - tree.n_node_samples[l] * tree.impurity[l]
            - tree.n_node_samples[r] * tree.impurity[r]
        ) / n_root
        imp[tree.feature[nid]] += decrease
    total = imp.sum()
    return imp / total if total > 0 else imp


class TestImportance:
    def test_single_split_tree(self):
        X = np.array([[0.0, 5.0], [1.0, 5.0]])
        y = np.array([0, 1])
        imp = feature_importance(train("dt", X, y))
        assert np.allclose(imp, [1.0, 0.0])

    def test_stumpless_tree_is_all_zeros(self):
        X = np.ones((6, 3))  # constant features: nothing to split on
        y = np.array([0, 0, 0, 1, 1, 1])
        imp = feature_importance(train("dt", X, y))
        assert np.array_equal(imp, np.zeros(3))

    def test_forest_attributes_informative_features(self):
        rng = np.random.default_rng(44)
        y = rng.integers(0, 2, size=80)
        y[:2] = [0, 1]
        X = np.zeros((80, 6))
        X[:, 2] = y * 2.0 + 0.05 * rng.normal(size=80)
        X[:, 5] = -y + 0.05 * rng.normal(size=80)
        model = train("rf", X, y, HyperParams(n_trees=20), seed=6)
        imp = feature_importance(model)
        assert abs(imp.sum() - 1.0) < 1e-9
        assert imp[[0, 1, 3, 4]].max() == 0.0  # constants cannot split
        assert imp[2] > 0 and imp[5] > 0

    def test_matches_per_node_loop(self):
        rng = np.random.default_rng(46)
        X, y = blobs(rng, n_per=30, n_classes=4, d=12, spread=2.0)
        rf = train("rf", X, y, HyperParams(n_trees=10), seed=7)
        dt = train("dt", X, y, seed=7)
        stump = train("dt", np.ones((6, 3)), np.array([0, 0, 0, 1, 1, 1]))
        assert stump.n_nodes == 1
        for tree in rf.trees + [dt, stump]:
            assert np.array_equal(_tree_importances(tree), per_node_importances(tree))
        assert not per_node_importances(stump).any()

    def test_knn_unsupported(self):
        rng = np.random.default_rng(45)
        X, y = blobs(rng, n_per=5, n_classes=2)
        with pytest.raises(UnsupportedModel):
            feature_importance(train("knn", X, y))


class TestSelectSubcarriers:
    def test_amp_and_phase_pool(self):
        names = ("amp_-100", "amp_3", "phase_-100", "phase_3")
        ks = select_subcarriers([0.4, 0.1, 0.3, 0.2], top_m=1, names=names)
        assert ks == [-100]  # 0.4 + 0.3 beats 0.1 + 0.2

    def test_uniform_importance_breaks_ties_low_first(self):
        names = ("amp_5", "amp_-3", "amp_9", "phase_5", "phase_-3", "phase_9")
        ks = select_subcarriers(np.full(6, 1 / 6), top_m=2, names=names)
        assert ks == [-3, 5]

    def test_default_names_cover_all_useful(self):
        imp = np.full(468, 1 / 468)
        ks = select_subcarriers(imp, top_m=234, names=feature_names(prune=True))
        assert len(ks) == 234 and ks == sorted(ks)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            select_subcarriers([0.5, 0.5], top_m=1, names=("amp_1",))

    def test_bad_name(self):
        with pytest.raises(ValueError):
            select_subcarriers([1.0], top_m=1, names=("rssi",))

    @pytest.mark.parametrize("top_m", [0, -1, 1.0, True, None])
    def test_top_m_below_one_refused(self, top_m):
        # 0 would pick nothing, and -1 every subcarrier but one
        with pytest.raises(ValueError, match="^top_m .* is not an integer >= 1$"):
            select_subcarriers(np.full(468, 1 / 468), top_m=top_m,
                               names=feature_names(prune=True))


class TestCountRule:
    @pytest.mark.parametrize("value", [np.int64(3), np.int32(3), np.uint8(3), 3])
    def test_returns_a_plain_int(self, value):
        got = _check_count("n", value, 1)
        assert type(got) is int and got == 3

    @pytest.mark.parametrize("value", [0, True, 2.0, "3", None])
    def test_refused(self, value):
        with pytest.raises(ValueError, match=f"^n {re.escape(repr(value))} is not an integer >= 1$"):
            _check_count("n", value, 1)

    def test_knn_k_is_a_plain_int(self):
        X, y = blobs(np.random.default_rng(5))
        model = train("knn", X, y, HyperParams(k_neighbors=np.int64(3)))
        assert type(model.k) is int and model.k == 3


class TestModelClasses:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_classes_given_as_a_list_become_an_array(self, kind):
        X, y = blobs(np.random.default_rng(6))
        model = train(kind, X, y + 10, HyperParams(n_trees=3))
        rebuilt = dataclasses.replace(model, classes=model.classes.tolist())
        assert type(rebuilt.classes) is np.ndarray
        assert rebuilt.classes.dtype == model.classes.dtype
        assert np.array_equal(rebuilt.classes, model.classes)
        assert np.array_equal(predict(rebuilt, X), predict(model, X))


class TestPersistence:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_roundtrip_predictions(self, kind):
        rng = np.random.default_rng(46)
        X, y = blobs(rng, n_per=10, n_classes=3, spread=1.5)
        model = train(kind, X, y, seed=8)
        back = model_from_doc(json.loads(json.dumps(model_to_doc(model))))
        assert type(back) is MODEL_CLASSES[canonical_kind(kind)]
        Q = rng.normal(size=(20, 4)) * 2
        assert np.array_equal(predict(model, Q), predict(back, Q))
        assert np.allclose(predict_scores(model, Q), predict_scores(back, Q), atol=0)

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            model_from_doc({"format": "pickle", "version": 1})

    def test_rejects_wrong_version(self):
        rng = np.random.default_rng(47)
        X, y = blobs(rng, n_per=5, n_classes=2)
        doc = model_to_doc(train("nb", X, y))
        doc["version"] = 99
        with pytest.raises(ValueError):
            model_from_doc(doc)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_store_parse_builds_the_document_model(self, kind, tmp_path):
        rng = np.random.default_rng(51)
        X, y = blobs(rng, n_per=10, n_classes=3, d=468, spread=1.5)
        model = train(kind, X, y, HyperParams(n_trees=3, svm_epochs=20), seed=3)
        store = EnrollmentStore(model=model, scaler=fit_scaler("minmax", X),
                                roster={int(u): {"enter"} for u in np.unique(y)},
                                packets_per_second=20)
        path = tmp_path / "store.json"
        save_store(store, path)
        want = model_from_doc(json.loads(path.read_text())["model"])
        assert_same_fields(load_store(path).model, want)
        assert_same_fields(want, model)

    def test_arrays_hook_leaves_what_it_cannot_coerce(self):
        params = arrays_hook({"train_x": [[0.5, 1.0]], "train_codes": [0, "x"], "k": True})
        assert params["train_x"].dtype == np.float64
        assert params["train_codes"] == [0, "x"] and params["k"] is True
        scaler = {"kind": "minmax", "a": [1.0], "b": [2.0]}  # not a model's params
        assert arrays_hook(dict(scaler)) == scaler


def assert_same_fields(a, b):
    """a and b are of one type and hold equal values field by field,
    every array of one dtype."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_fields(x, y)
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_fields(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a == b


def _last_inner(t):
    return max(i for i, f in enumerate(t["feature"]) if f >= 0)


def _set(t, name, i, v):
    t[name][i] = v


TREE_CORRUPTIONS = {
    # an inner node whose children point back at the root: routing loops
    "cycle": lambda t: (_set(t, "left", _last_inner(t), 0), _set(t, "right", _last_inner(t), 0)),
    "child-is-self": lambda t: _set(t, "left", 0, 0),
    "child-past-end": lambda t: _set(t, "right", 0, len(t["feature"])),
    "leaf-with-child": lambda t: _set(t, "left", len(t["feature"]) - 1, 0),
    "inner-without-child": lambda t: _set(t, "right", 0, -1),
    "feature-past-width": lambda t: _set(t, "feature", 0, t["n_features"]),
    "feature-negative": lambda t: _set(t, "feature", 0, -2),
    "threshold-nan": lambda t: _set(t, "threshold", 0, float("nan")),
    "threshold-inf": lambda t: _set(t, "threshold", 0, float("inf")),
    "short-array": lambda t: t["impurity"].pop(),
    "value-too-wide": lambda t: [row.append(0.0) for row in t["value"]],
    "no-nodes": lambda t: t.update({k: [] for k in t if k != "n_features"}),
    # a width that is not a count
    "width-fraction": lambda t: t.update(n_features=t["n_features"] + 0.5),
    "width-bool": lambda t: t.update(n_features=True),
    "width-string": lambda t: t.update(n_features=str(t["n_features"])),
}


class TestTreeDocumentChecks:
    """A tree that routing could not walk to a leaf is refused on load."""

    @pytest.fixture(scope="class")
    def rf_doc(self):
        rng = np.random.default_rng(48)
        X, y = blobs(rng, n_per=20, n_classes=3, spread=3.0)
        doc = model_to_doc(train("rf", X, y, HyperParams(n_trees=4), seed=1))
        assert all(t["left"][0] > 0 for t in doc["params"]["trees"])
        return json.dumps(doc)

    @pytest.mark.parametrize("name", sorted(TREE_CORRUPTIONS))
    def test_corrupt_tree_rejected(self, rf_doc, name):
        for kind in ("RandomForest", "DecisionTree"):
            doc = json.loads(rf_doc)
            tree = doc["params"]["trees"][0]
            TREE_CORRUPTIONS[name](tree)
            if kind == "DecisionTree":
                doc["kind"], doc["params"] = kind, tree
            with pytest.raises(ValueError):
                model_from_doc(doc)

    def test_trees_of_different_widths_rejected(self, rf_doc):
        doc = json.loads(rf_doc)
        doc["params"]["trees"][1]["n_features"] += 1
        with pytest.raises(ValueError):
            model_from_doc(doc)

    def test_forest_without_trees_rejected(self, rf_doc):
        doc = json.loads(rf_doc)
        doc["params"]["trees"] = []
        with pytest.raises(ValueError):
            model_from_doc(doc)

    def test_intact_document_loads(self, rf_doc):
        model = model_from_doc(json.loads(rf_doc))
        assert len(model.trees) == 4


# sha256 of json.dumps(model_to_doc(model)), recorded from the per-kind
# writer that spelled out each kind's params by hand
DOC_DIGESTS = {
    "dt": "28ab174b717bb4bdf0a2da3f191ba638060647aa6268f20a58c32658a8138733",
    "rf": "933dbed9f398a9a57556ffefb047e98f4c238d12c297ce32634c365b80546813",
    "knn": "8a34473b5cefaf063eca4dd8a49706b2feb9b417dcd8d1414893876ac126d721",
    "nb": "3d65af3e1e93513a04fca64cc490c71a1ab85c9ff9f7f89aafd6f3a5e0dcecac",
    "svm": "f98dbd1157597c6a54c1a8d2037542dd343a3accb33fdfa79658cf8939957d45",
}


class TestDocumentGolden:
    """Model documents stay byte-identical, not just equal in what they predict."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_document_bytes(self, kind):
        rng = np.random.default_rng(49)
        X, y = blobs(rng, n_per=15, n_classes=4, spread=1.5)
        hyper = HyperParams(n_trees=5) if kind == "rf" else None
        doc = json.dumps(model_to_doc(train(kind, X, y, hyper, seed=9)))
        assert hashlib.sha256(doc.encode()).hexdigest() == DOC_DIGESTS[kind]


def _halve(name):
    return lambda p: p.update({name: p[name][: len(p[name]) // 2]})


# (kind, corruption of the document's params); every one loaded before
# the models checked their own fields
PARAM_CORRUPTIONS = {
    "svm-2-of-4-weight-rows": ("svm", lambda p: p.update(weights=p["weights"][:2])),
    "svm-flat-weights": ("svm", lambda p: p.update(weights=sum(p["weights"], []))),
    "knn-codes-cut-in-half": ("knn", _halve("train_codes")),
    "knn-code-9": ("knn", lambda p: _set(p, "train_codes", 0, 9)),
    "knn-code-negative": ("knn", lambda p: _set(p, "train_codes", 0, -1)),
    "knn-codes-nested": ("knn", lambda p: p.update(train_codes=[[c] for c in p["train_codes"]])),
    "knn-flat-train-x": ("knn", lambda p: p.update(train_x=sum(p["train_x"], []))),
    "knn-k-0": ("knn", lambda p: p.update(k=0)),
    "knn-k-null": ("knn", lambda p: p.update(k=None)),
    "knn-k-true": ("knn", lambda p: p.update(k=True)),
    "knn-k-float": ("knn", lambda p: p.update(k=5.0)),
    "tree-feature-past-int32": ("rf", lambda p: _set(p["trees"][0], "feature", 0, 2**40)),
    "forest-trees-not-a-list": ("rf", lambda p: p.update(trees=3)),
    "nb-variance-zero": ("nb", lambda p: _set(p["variances"], 1, 2, 0.0)),
    "nb-variance-negative": ("nb", lambda p: _set(p["variances"], 0, 0, -1.0)),
    "nb-variance-nan": ("nb", lambda p: _set(p["variances"], 3, 1, float("nan"))),
    "nb-means-row-missing": ("nb", lambda p: p["means"].pop()),
    "nb-variances-narrower": ("nb", lambda p: [row.pop() for row in p["variances"]]),
    "nb-prior-missing": ("nb", lambda p: p["log_priors"].pop()),
    "unknown-param": ("svm", lambda p: p.update(bias=0.0)),
    "missing-param": ("knn", lambda p: p.pop("k")),
    "nested-tree-unknown-param": ("rf", lambda p: p["trees"][0].update(depth=3)),
}


class TestModelDocumentChecks:
    """Every kind checks its own fields, so an inconsistent document is
    refused on load, not at the first predict."""

    @pytest.fixture(scope="class")
    def docs(self):
        rng = np.random.default_rng(50)
        X, y = blobs(rng, n_per=10, n_classes=4, d=468, spread=1.5)
        models = {kind: train(kind, X, y, HyperParams(n_trees=3, svm_epochs=20), seed=2)
                  for kind in ("rf", "knn", "nb", "svm")}
        store = EnrollmentStore(
            model=models["svm"], scaler=fit_scaler("minmax", X),
            roster={int(u): {"enter"} for u in np.unique(y)}, packets_per_second=20,
        )
        return {k: json.dumps(model_to_doc(m)) for k, m in models.items()}, store

    @pytest.mark.parametrize("name", sorted(PARAM_CORRUPTIONS))
    def test_corrupt_params_rejected(self, docs, name):
        kind, corrupt = PARAM_CORRUPTIONS[name]
        doc = json.loads(docs[0][kind])
        corrupt(doc["params"])
        with pytest.raises(ValueError):
            model_from_doc(doc)

    @pytest.mark.parametrize("name", sorted(PARAM_CORRUPTIONS))
    def test_corrupt_store_rejected(self, docs, name, tmp_path):
        kind, corrupt = PARAM_CORRUPTIONS[name]
        path = tmp_path / "store.json"
        save_store(docs[1], path)
        store_doc = json.loads(path.read_text())
        store_doc["model"] = json.loads(docs[0][kind])
        corrupt(store_doc["model"]["params"])
        path.write_text(json.dumps(store_doc))
        with pytest.raises(ValueError):
            load_store(path)

    @pytest.mark.parametrize("kind", ("rf", "knn", "nb", "svm"))
    def test_intact_document_loads(self, docs, kind, tmp_path):
        doc = json.loads(docs[0][kind])
        assert model_from_doc(doc).n_features == 468
        path = tmp_path / "store.json"
        save_store(docs[1], path)
        store_doc = json.loads(path.read_text())
        store_doc["model"] = doc
        path.write_text(json.dumps(store_doc))
        assert load_store(path).model.kind == doc["kind"]

    @pytest.mark.parametrize("corrupt", [
        lambda d: d.update(kind="Perceptron"),
        lambda d: d.pop("kind"),
        lambda d: d.pop("classes"),
        lambda d: d.pop("params"),
    ], ids=["unknown-kind", "no-kind", "no-classes", "no-params"])
    def test_bad_kind_or_missing_key_rejected(self, docs, corrupt):
        doc = json.loads(docs[0]["svm"])
        corrupt(doc)
        with pytest.raises(ValueError):
            model_from_doc(doc)

    def test_unpersistable_model_refused(self):
        with pytest.raises(UnsupportedModel):
            model_to_doc(object())
