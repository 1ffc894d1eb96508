"""Peak memory of the steps that build a table or a scoring block.

Each step allocates its result once.  tracemalloc counts numpy's data
buffers, so a traced peak is what a call holds at once beyond what it
was given.  Each test also checks that the values are bit-identical to
the expression that made a second full-size copy.
"""

import tracemalloc

import numpy as np
import pytest

from handpass.dataset import CaptureMeta, FeatureMatrix, FeatureRow, read_csv, write_csv
from handpass.dsp import fit_scaler
from handpass.learners.bayes import _LOG_2PI, fit_gnb

C, D = 20, 468  # the paper's 20 users and pruned feature width


def traced_peak(fn, *args):
    """fn(*args) and the most memory it held at once, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def three_block_log_joint(model, X):
    """GaussianNbModel.log_joint as it was: diff, its square and the
    quotient were three (256, C, d) blocks."""
    const = -0.5 * (_LOG_2PI + np.log(model.variances)).sum(axis=1)
    out = np.empty((X.shape[0], model.classes.shape[0]))
    for lo in range(0, X.shape[0], 256):
        diff = X[lo : lo + 256, None, :] - model.means[None, :, :]
        out[lo : lo + 256] = -0.5 * (diff * diff / model.variances[None, :, :]).sum(axis=2)
    return out + const[None, :] + model.log_priors[None, :]


@pytest.fixture(scope="module")
def gnb():
    rng = np.random.default_rng(17)
    y = np.arange(400) % C
    X = rng.normal(size=(400, D)) + y[:, None] * 0.1
    return fit_gnb(X, y, np.arange(C)), rng


class TestGaussianNb:
    def test_one_block_per_256_rows(self, gnb):
        model, rng = gnb
        X = rng.normal(size=(256, D))
        got, peak = traced_peak(model.log_joint, X)
        assert np.array_equal(got, three_block_log_joint(model, X))
        assert peak <= 1.1 * (256 * C * D * 8)

    @pytest.mark.parametrize("n", [1, 255, 257, 600])
    def test_blocks_bit_identical(self, gnb, n):
        model, rng = gnb
        X = rng.normal(size=(n, D)) * 3.0
        assert np.array_equal(model.log_joint(X), three_block_log_joint(model, X))


class TestFittedScaler:
    @pytest.mark.parametrize("kind", ["minmax", "zscore", "robust"])
    def test_output_is_the_one_block(self, kind):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(2000, D)) * 40.0
        X[:, 7] = 3.0  # a zero span maps to 0
        X[:, 9] = -2.5
        scaler = fit_scaler(kind, X)
        Y = rng.normal(size=(2000, D)) * 40.0
        Y[0, 7] = np.nan  # whatever a zero-span column holds
        got, peak = traced_peak(scaler.transform, Y)
        denom = scaler.b - scaler.a if kind == "minmax" else scaler.b
        want = np.zeros_like(Y)
        np.divide(Y - scaler.a, denom, out=want, where=denom != 0)
        assert np.array_equal(got, want)
        assert not got[:, [7, 9]].any()
        assert peak <= 1.1 * Y.nbytes


def feature_rows(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * 100.0
    meta = CaptureMeta(capture_number=2, gender="F", hand="Right", user_id=5)
    return X, [FeatureRow(features=x, meta=meta, frame_index=i) for i, x in enumerate(X)]


def test_from_rows_stacks_once():
    X, rows = feature_rows(3000, D, 19)
    names = tuple(f"f_{i}" for i in range(D))
    m, peak = traced_peak(FeatureMatrix.from_rows, rows, names)
    assert np.array_equal(m.features, np.stack([r.features for r in rows]).astype(np.float64))
    assert m.features.dtype == np.float64
    assert peak <= 1.1 * X.nbytes


def test_read_csv_fills_one_buffer(tmp_path):
    X, rows = feature_rows(1500, D, 20)
    path = tmp_path / "table.csv"
    write_csv(FeatureMatrix.from_rows(rows, tuple(f"f_{i}" for i in range(D))), path)
    m, peak = traced_peak(read_csv, path)
    lines = path.read_text().splitlines()[1:]
    want = np.stack([np.fromiter(map(float, line.split(",")[:D]), np.float64, D)
                     for line in lines])
    assert np.array_equal(m.features, want) and np.array_equal(m.features, X)
    assert m.features.flags.writeable
    assert peak <= 1.25 * X.nbytes
