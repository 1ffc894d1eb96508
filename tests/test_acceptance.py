"""End-to-end acceptance checks, one test per release criterion.

Each test prints (and records for the terminal summary) a single
pass/fail line including its runtime budget.  The heavyweight benchmarks
regenerate their synthetic corpora from pinned seeds, so the verdicts
are reproducible run to run.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

import conftest
from handpass import gatekeeper, synth
from handpass.codec import decode_payload, encode_payload, read_capture
from handpass.dataset import (
    CaptureMeta,
    FeatureMatrix,
    build_rows,
    feature_names,
    slice_dataset,
)
from handpass.dsp import (
    SanitizerConfig,
    SubcarrierMask,
    fft_shift,
    fit_scaler,
    normalize_cfr,
    sanitize_phase,
    to_cfr,
)
from handpass.errors import HandpassError
from handpass.learners import HyperParams, cross_validate, predict, predict_scores, train
from conftest import random_frame

K = np.arange(-128, 128)


def report(num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    line = f"criterion {num} [{name}]: {status} ({elapsed:.1f}s / budget {budget:.0f}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert status == "PASS", line


def rows_from_corpus(manifest, root, captures=None):
    rows = []
    for entry in manifest["captures"]:
        if captures is not None and entry["capture_number"] not in captures:
            continue
        cap = read_capture(os.path.join(root, entry["path"]))
        meta = CaptureMeta(
            capture_number=entry["capture_number"],
            gender=entry["gender"],
            hand=entry["hand"],
            user_id=entry["user_id"],
        )
        got, _ = build_rows(cap, meta)
        rows.extend(got)
    return rows


def test_criterion_1_structural_accounting():
    t0 = time.perf_counter()
    mask = SubcarrierMask()
    checks = [
        len(mask.null_indices) == 14,
        len(mask.pilot_indices) == 8,
        len(mask.useful) == 234,
        len(mask.null_indices) + len(mask.pilot_indices) + len(mask.useful) == 256,
        len(feature_names(prune=False)) == 512,
        len(feature_names(prune=True)) == 468,
    ]
    frame = random_frame(np.random.default_rng(0))
    meta = CaptureMeta(capture_number=1, gender="M", hand="Right", user_id=1)
    for prune, width in ((True, 472), (False, 516)):
        rows, _ = build_rows(
            type("C", (), {"csi": frame.csi[None]})(), meta, prune=prune
        )
        m = FeatureMatrix.from_rows(rows, feature_names(prune=prune))
        checks.append(m.n_columns == width)
    report(
        1, "structural accounting", all(checks), time.perf_counter() - t0, 1.0,
        "256 = 14 null + 8 pilot + 234 useful; 516 full / 472 pruned columns",
    )


def test_criterion_2_codec_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(1000):
        frame = random_frame(rng, ts=(int(rng.integers(0, 2**31)), int(rng.integers(0, 1_000_000))))
        payload = encode_payload(frame)
        back = decode_payload(payload, frame.ts_sec, frame.ts_usec)
        if encode_payload(back) != payload or back != frame:
            ok = False
            break
    crashes = 0
    for _ in range(10_000):
        size = int(rng.integers(0, 1500))
        blob = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        if rng.random() < 0.3:  # exercise the deeper paths past the magic check
            blob = b"\x11\x11" + blob[2:]
        try:
            decode_payload(blob)
        except HandpassError:
            pass
        except Exception:
            crashes += 1
    report(
        2, "codec round-trip", ok and crashes == 0, time.perf_counter() - t0, 30.0,
        "1000 frames encode/decode/encode bit-identical; 10k-payload fuzz, typed errors only",
    )


def test_criterion_3_dsp_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    checks = []

    # amplitude/phase against the direct formulas on the raw int16 pairs
    worst = 0.0
    frames = [random_frame(rng) for _ in range(100)]
    cfr = to_cfr(np.stack([f.csi for f in frames]))
    for frame, z in zip(frames, cfr):
        re = fft_shift(frame.csi[:, 0].astype(float))
        im = fft_shift(frame.csi[:, 1].astype(float))
        worst = max(
            worst,
            np.abs(np.abs(z) - np.hypot(re, im)).max(),
            np.abs(np.degrees(np.angle(z)) - np.degrees(np.arctan2(im, re))).max(),
        )
    checks.append(worst < 1e-9)

    v = rng.normal(size=256)
    checks.append(np.array_equal(fft_shift(fft_shift(v)), v))

    # scalers against hand-computed examples
    col = np.array([[1.0], [2.0], [3.0]])
    checks.append(
        np.abs(fit_scaler("minmax", col).transform(col).ravel()
               - [0.0, 0.5, 1.0]).max() < 1e-12
    )
    checks.append(
        np.abs(fit_scaler("zscore", col).transform(col).ravel()
               - [-np.sqrt(1.5), 0.0, np.sqrt(1.5)]).max() < 1e-12
    )
    col4 = np.array([[1.0], [2.0], [3.0], [4.0]])
    checks.append(
        np.abs(fit_scaler("robust", col4).transform(col4).ravel()
               - [-1.0, -1 / 3, 1 / 3, 1.0]).max() < 1e-12
    )

    # lam=0 zeroes an exact linear ramp
    ramp = np.exp(1j * (0.01 * K + 0.3))
    out = sanitize_phase(ramp[None], SanitizerConfig(lam=0.0))
    checks.append(np.abs(out).max() < 1e-9)

    # lam=0.1 against an independent 2x2 ridge solve
    mask = SubcarrierMask()
    phi = 0.002 * K + 0.1 + 0.05 * rng.normal(size=256)
    amp = rng.uniform(0.5, 2.0, size=256)
    cfr = amp * np.exp(1j * phi)
    got = sanitize_phase(cfr[None], SanitizerConfig(lam=0.1), mask)[0]
    k = np.asarray(mask.useful, dtype=float)
    A = np.array([[np.dot(k, k) + 0.1, k.sum()], [k.sum(), k.size + 0.1]])
    rhs = np.array([np.dot(k, phi[mask.useful_positions]), phi[mask.useful_positions].sum()])
    a, b = np.linalg.solve(A, rhs)
    checks.append(np.abs(got - (phi - (a * K + b))).max() < 1e-9)

    # normalization: mean amplitude exactly 1
    z = rng.normal(size=256) + 1j * rng.normal(size=256)
    normed, _ = normalize_cfr(z[None])
    checks.append(abs(np.abs(normed).mean() - 1.0) < 1e-12)

    report(
        3, "dsp oracles", all(checks), time.perf_counter() - t0, 10.0,
        "formula match 1e-9; scaler hand examples 1e-12; ridge oracle 1e-9",
    )


def gini_ref(labels):
    labels = np.asarray(labels)
    total = 0.0
    for v in set(labels.tolist()):
        total += (np.count_nonzero(labels == v) / labels.size) ** 2
    return 1.0 - total


def brute_best_split(X, y):
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


def test_criterion_4_learner_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)

    # 200-case exhaustive check of the root split
    split_failures = 0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        d = int(rng.integers(1, 4))
        if rng.random() < 0.3:  # discrete grids bring duplicated values and ties
            X = rng.integers(0, 4, size=(n, d)).astype(float)
        else:
            X = rng.uniform(-5, 5, size=(n, d))
        y = rng.integers(0, int(rng.integers(2, 5)), size=n)
        if np.unique(y).size < 2:
            y[0] += 1
        model = train("dt", X, y, HyperParams(max_depth=1, max_features=None))
        expected = brute_best_split(X, y)
        if model.feature[0] < 0:
            # tree declined to split: legal only when nothing beats the parent
            if expected is not None and expected < len(y) * gini_ref(y) - 1e-12:
                split_failures += 1
            continue
        left = X[:, model.feature[0]] <= model.threshold[0]
        got = left.sum() * gini_ref(y[left]) + (~left).sum() * gini_ref(y[~left])
        if expected is None or abs(got - expected) > 1e-12:
            split_failures += 1

    # GNB posteriors against the log-domain Bayes oracle
    gnb_worst = 0.0
    for _ in range(20):
        X = rng.normal(size=(40, 5)) + rng.integers(0, 3, size=(40, 1)) * 1.5
        y = rng.integers(0, 3, size=40)
        y[:3] = [0, 1, 2]
        Q = rng.normal(size=(10, 5))
        model = train("nb", X, y)
        eps = 1e-9 * X.var(axis=0).max()
        cols = []
        for c in (0, 1, 2):
            rows = X[y == c]
            mu, var = rows.mean(axis=0), rows.var(axis=0) + eps
            cols.append(
                np.log(rows.shape[0] / 40)
                - 0.5 * np.sum(np.log(2 * np.pi * var))
                - 0.5 * ((Q - mu) ** 2 / var).sum(axis=1)
            )
        L = np.stack(cols, axis=1)
        L -= L.max(axis=1, keepdims=True)
        P = np.exp(L)
        P /= P.sum(axis=1, keepdims=True)
        gnb_worst = max(gnb_worst, np.abs(predict_scores(model, Q) - P).max())

    # a single unbootstrapped full-feature tree is the forest's degenerate case
    rf_dt_equal = True
    for _ in range(10):
        X = rng.normal(size=(50, 6))
        y = rng.integers(0, 3, size=50)
        y[:3] = [0, 1, 2]
        Q = rng.normal(size=(20, 6))
        forest = train(
            "rf", X, y, HyperParams(n_trees=1, bootstrap=False, max_features=None),
            seed=17,
        )
        tree = train("dt", X, y, HyperParams(max_features=None), seed=17)
        if not np.array_equal(predict(forest, Q), predict(tree, Q)):
            rf_dt_equal = False
        if not np.allclose(predict_scores(forest, Q), predict_scores(tree, Q)):
            rf_dt_equal = False

    report(
        4, "learner oracles",
        split_failures == 0 and gnb_worst < 1e-9 and rf_dt_equal,
        time.perf_counter() - t0, 120.0,
        f"200/200 root splits optimal; GNB max err {gnb_worst:.1e}; RF(1)==DT",
    )


def test_criterion_5_synthetic_benchmark(tmp_path):
    t0 = time.perf_counter()
    cfg = synth.SynthConfig(
        users=20, captures_per_user=5, frames_per_capture=500,
        packets_per_second=100, seed=42,
    )
    manifest = synth.generate(cfg, tmp_path)
    rows = rows_from_corpus(manifest, tmp_path, captures={1})
    sl = slice_dataset(rows, "D1", cfg.packets_per_second)
    X, y = sl.rows.features, sl.rows.labels

    f1 = {}
    for kind in ("rf", "dt", "knn", "nb"):
        rep = cross_validate(
            kind, X, y, k=10, seed=42, scaler="minmax", per_fold_scaler=True
        )
        f1[kind] = rep.mean_f1
    ok = f1["rf"] >= 0.99 and all(f1["rf"] >= f1[k] for k in ("dt", "knn", "nb"))
    report(
        5, "synthetic benchmark", ok, time.perf_counter() - t0, 300.0,
        "D1 10-fold macro F1: " + " ".join(f"{k}={v:.4f}" for k, v in f1.items()),
    )


def test_criterion_6_dataset_size_trend(tmp_path):
    t0 = time.perf_counter()
    cfg = synth.SynthConfig(
        users=8, captures_per_user=5, frames_per_capture=100,
        packets_per_second=20, noise_sigma=1.0, seed=42,
    )
    manifest = synth.generate(cfg, tmp_path)
    rows = rows_from_corpus(manifest, tmp_path)
    hp = HyperParams(n_trees=30, max_depth=14)
    f1 = {}
    for name in ("D1", "D3", "D4", "D6"):
        sl = slice_dataset(rows, name, cfg.packets_per_second)
        rep = cross_validate(
            "rf", sl.rows.features, sl.rows.labels, k=10, hyper=hp, seed=42,
            scaler="minmax", per_fold_scaler=True,
        )
        f1[name] = rep.mean_f1
    ok = (
        f1["D1"] <= f1["D3"] + 0.005
        and f1["D4"] <= f1["D6"] + 0.005
        and f1["D6"] >= f1["D1"]
    )
    report(
        6, "dataset-size trend", ok, time.perf_counter() - t0, 600.0,
        "RF F1 " + " ".join(f"{k}={v:.3f}" for k, v in f1.items()),
    )


def test_criterion_7_gatekeeper_safety(tmp_path):
    t0 = time.perf_counter()
    cfg = synth.SynthConfig(
        users=4, captures_per_user=2, frames_per_capture=130,
        packets_per_second=20, noise_sigma=0.4, seed=2024,
    )
    manifest = synth.generate(cfg, tmp_path)
    rows_by_user, probes = {}, {}
    for entry in manifest["captures"]:
        cap = read_capture(os.path.join(tmp_path, entry["path"]))
        uid = entry["user_id"]
        if entry["capture_number"] == 1:
            if uid <= 3:  # user 4 never enrolls; they are the impostor
                meta = CaptureMeta(
                    capture_number=1, gender=entry["gender"],
                    hand="Right", user_id=uid,
                )
                got, _ = build_rows(cap, meta)
                rows_by_user[uid] = np.stack([r.features for r in got])
        else:
            probes[uid] = cap.csi
    store = gatekeeper.enroll(
        rows_by_user, HyperParams(n_trees=15, max_depth=12),
        seed=3, packets_per_second=20,
    )
    # user 3 is in the trained classes but stripped from the roster
    trimmed = dataclasses.replace(store, roster={1: {"enter"}, 2: {"enter"}})

    rng = np.random.default_rng(2024)

    def window(uid=None, mix=None, size=20):
        if mix is not None:
            (ua, na), (ub, nb) = mix
            return np.concatenate([probes[ua][:na], probes[ub][:nb]])
        frames = probes[uid]
        start = int(rng.integers(0, len(frames) - size + 1))
        return frames[start : start + size]

    # persistence: 100 random windows decide identically after save/load
    path = tmp_path / "store.json"
    gatekeeper.save_store(store, path)
    loaded = gatekeeper.load_store(path)
    persist_ok = all(
        gatekeeper.authenticate(store, w) == gatekeeper.authenticate(loaded, w)
        for w in (window(uid=int(rng.integers(1, 5))) for _ in range(100))
    )

    # threshold monotonicity on windows spanning the grant/deny boundary
    monotone_ok = True
    for mix in (((1, 20), (2, 0)), ((1, 12), (2, 8)), ((1, 11), (2, 9)), ((1, 10), (2, 10))):
        grants = [
            gatekeeper.authenticate(store, window(mix=mix), threshold=t).decision
            == "Grant"
            for t in (0.5, 0.6, 0.8)
        ]
        if grants != sorted(grants, reverse=True):
            monotone_ok = False

    # fuzz: across 1000 varied decisions, nobody outside the roster gets in
    bad_grants = 0
    grants = 0
    for _ in range(1000):
        threshold = float(rng.choice((0.5, 0.6, 0.8)))
        if rng.random() < 0.5:
            w = window(uid=int(rng.integers(1, 5)))
        else:
            na = int(rng.integers(0, 21))
            ua, ub = rng.choice((1, 2, 3, 4), size=2, replace=False)
            w = window(mix=((int(ua), na), (int(ub), 20 - na)))
        d = gatekeeper.authenticate(trimmed, w, threshold=threshold)
        if d.decision == "Grant":
            grants += 1
            if d.user_id not in trimmed.roster or d.vote_share < threshold:
                bad_grants += 1
    fuzz_ok = bad_grants == 0 and grants > 0

    report(
        7, "gatekeeper safety", persist_ok and monotone_ok and fuzz_ok,
        time.perf_counter() - t0, 120.0,
        f"100-window persistence; threshold monotone; {grants} grants / 1000, 0 off-roster",
    )
