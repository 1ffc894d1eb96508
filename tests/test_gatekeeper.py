import contextlib
import dataclasses
import hashlib
import json
import os
import re
import socket
import threading
import time
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handpass import gatekeeper, synth
from handpass.codec import CsiFrame, read_capture, write_capture
from handpass.dataset import CaptureMeta, build_rows
from handpass.errors import (
    BadPolicy,
    DegenerateLabels,
    NonFiniteFeature,
    TooFewFrames,
    WindowTooShort,
    ZeroSignal,
)
from handpass.gatekeeper import (
    AuditLog,
    AuthDecision,
    EnrollmentStore,
    authenticate,
    enroll,
    load_store,
    save_store,
)
from handpass.learners import HyperParams

from conftest import decodes_like_reference


def zero_frames(n):
    return np.zeros((n, 256, 2), dtype=np.int16)


@pytest.fixture(scope="module")
def auth_env(tmp_path_factory):
    """Store enrolled on capture 1; probe frames held out from capture 2."""
    root = tmp_path_factory.mktemp("gatekeeper")
    cfg = synth.SynthConfig(
        users=3, captures_per_user=2, frames_per_capture=130,
        packets_per_second=20, noise_sigma=0.3, seed=505,
    )
    manifest = synth.generate(cfg, root)
    rows_by_user, probes, probe_paths = {}, {}, {}
    for entry in manifest["captures"]:
        cap = read_capture(os.path.join(root, entry["path"]))
        uid = entry["user_id"]
        if entry["capture_number"] == 1:
            meta = CaptureMeta(
                capture_number=1, gender=entry["gender"], hand="Right", user_id=uid
            )
            rows, _ = build_rows(cap, meta)
            rows_by_user[uid] = np.stack([r.features for r in rows])
        else:
            probes[uid] = cap.csi
            probe_paths[uid] = os.path.join(root, entry["path"])
    store = enroll(
        rows_by_user,
        HyperParams(n_trees=15, max_depth=12),
        seed=3,
        packets_per_second=20,
    )
    return store, probes, probe_paths


class TestEnroll:
    def test_needs_two_users(self, auth_env):
        store, _, _ = auth_env
        rows = {1: np.zeros((120, 468))}
        with pytest.raises(DegenerateLabels):
            enroll(rows)

    def test_needs_hundred_frames(self):
        rows = {1: np.random.default_rng(1).normal(size=(120, 8)),
                2: np.random.default_rng(2).normal(size=(99, 8))}
        with pytest.raises(TooFewFrames):
            enroll(rows)

    def test_roster_covers_enrolled_users(self, auth_env):
        store, _, _ = auth_env
        assert sorted(store.roster) == [1, 2, 3]
        assert store.roster[1] == {"enter"}

    def test_roster_must_match_classes(self, auth_env):
        store, _, _ = auth_env
        with pytest.raises(ValueError):
            dataclasses.replace(store, roster={99: {"enter"}})

    @pytest.mark.parametrize("width, prune", [(468, True), (512, False), (500, None)])
    def test_layout_read_off_the_row_width(self, width, prune):
        rng = np.random.default_rng(9)
        rows = {u: rng.normal(size=(100, width)) for u in (1, 2)}
        if prune is None:  # neither layout
            with pytest.raises(ValueError):
                enroll(rows, HyperParams(n_trees=1))
        else:
            assert enroll(rows, HyperParams(n_trees=1)).prune is prune

    @pytest.mark.parametrize("scaler_kind", ["minmax", "zscore", "robust"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rows_refused_as_training_refuses_them(self, scaler_kind, bad):
        rng = np.random.default_rng(8)
        rows = {1: rng.normal(size=(100, 468)), 2: rng.normal(size=(100, 468))}
        rows[2][5, 7] = bad
        with pytest.raises(NonFiniteFeature, match="^feature matrix contains NaN or infinity$"):
            enroll(rows, HyperParams(n_trees=1), scaler_kind=scaler_kind)


class TestAuthenticate:
    def test_grant_on_genuine_window(self, auth_env):
        store, probes, _ = auth_env
        d = authenticate(store, probes[2][:20])
        assert (d.decision, d.reason) == ("Grant", "ok")
        assert d.user_id == 2
        assert d.vote_share >= 0.9
        assert d.frames_used == 20
        assert d.window_seconds == pytest.approx(1.0)

    def test_mixed_window_below_threshold(self, auth_env):
        store, probes, _ = auth_env
        window = np.concatenate([probes[1][:11], probes[2][:9]])  # 55% modal share at best
        d = authenticate(store, window)
        assert (d.decision, d.reason) == ("Deny", "below threshold")
        assert d.vote_share < 0.6

    def test_lower_threshold_grants_mixed_window(self, auth_env):
        store, probes, _ = auth_env
        window = np.concatenate([probes[1][:11], probes[2][:9]])
        d = authenticate(store, window, threshold=0.5)
        assert (d.decision, d.user_id) == ("Grant", 1)

    def test_equal_split_prefers_lower_user_id(self, auth_env):
        store, probes, _ = auth_env
        window = np.concatenate([probes[2][:10], probes[1][:10]])
        d = authenticate(store, window, threshold=0.4)
        assert d.user_id == 1

    def test_unenrolled_user_denied(self, auth_env):
        store, probes, _ = auth_env
        trimmed = dataclasses.replace(
            store, roster={1: {"enter"}, 2: {"enter"}}
        )
        d = authenticate(trimmed, probes[3][:20])
        assert (d.decision, d.reason) == ("Deny", "not enrolled")
        assert d.user_id == 3

    def test_missing_permission_denied(self, auth_env):
        store, probes, _ = auth_env
        relabeled = dataclasses.replace(
            store, roster={1: {"enter"}, 2: {"log"}, 3: {"enter"}}
        )
        d = authenticate(relabeled, probes[2][:20])
        assert (d.decision, d.reason) == ("Deny", "missing permission")

    def test_window_too_short(self, auth_env):
        store, probes, _ = auth_env
        with pytest.raises(WindowTooShort):
            authenticate(store, probes[1][:19])

    def test_all_zero_window(self, auth_env):
        store, _, _ = auth_env
        with pytest.raises(ZeroSignal):
            authenticate(store, zero_frames(20))

    def test_zero_frames_dropped_not_counted(self, auth_env):
        store, probes, _ = auth_env
        window = np.concatenate([probes[2][:20], zero_frames(4)])
        d = authenticate(store, window)
        assert d.decision == "Grant"
        assert d.frames_used == 20

    def test_threshold_grants_are_monotone(self, auth_env):
        store, probes, _ = auth_env
        window = np.concatenate([probes[1][:11], probes[2][:9]])
        grants = [
            authenticate(store, window, threshold=t).decision == "Grant"
            for t in (0.5, 0.6, 0.8)
        ]
        assert grants == sorted(grants, reverse=True)  # once denied, stays denied
        assert grants[0] and not grants[1]

    def test_longer_windows_are_more_accurate(self, tmp_path):
        cfg = synth.SynthConfig(
            users=3, captures_per_user=2, frames_per_capture=600,
            packets_per_second=20, noise_sigma=1.2, seed=404,
        )
        manifest = synth.generate(cfg, tmp_path)
        rows_by_user, probes = {}, {}
        for entry in manifest["captures"]:
            cap = read_capture(os.path.join(tmp_path, entry["path"]))
            uid = entry["user_id"]
            if entry["capture_number"] == 1:
                meta = CaptureMeta(
                    capture_number=1, gender=entry["gender"], hand="Right", user_id=uid
                )
                rows, _ = build_rows(cap, meta)
                rows_by_user[uid] = np.stack([r.features for r in rows[:120]])
            else:
                probes[uid] = cap.csi
        store = enroll(
            rows_by_user, HyperParams(n_trees=15, max_depth=12),
            seed=3, packets_per_second=20,
        )
        rng = np.random.default_rng(11)
        acc = {}
        for w in (2, 20, 100):  # 0.1 s, 1 s, 5 s at 20 pkt/s
            hits = trials = 0
            for uid, frames in probes.items():
                for _ in range(12):
                    start = int(rng.integers(0, len(frames) - w + 1))
                    d = authenticate(
                        store, frames[start : start + w],
                        window_seconds=w / 20, threshold=0.0,
                    )
                    hits += int(d.user_id == uid)
                    trials += 1
            acc[w] = hits / trials
        assert acc[2] <= acc[20] + 0.01
        assert acc[20] <= acc[100] + 0.01
        assert acc[100] >= 0.95


@pytest.fixture(scope="module")
def replay_env(tmp_path_factory):
    """RF-50 enrolled on 100 session-1 frames of users 1-4 of a 6-user
    corpus at 50 pkt/s; session-2 frames of all six users as probes."""
    root = tmp_path_factory.mktemp("replay")
    cfg = synth.SynthConfig(users=6, captures_per_user=2, frames_per_capture=200,
                            packets_per_second=50, noise_sigma=0.3, seed=1)
    rows_by_user, probes = {}, {}
    for entry in synth.generate(cfg, root)["captures"]:
        cap = read_capture(os.path.join(root, entry["path"]))
        uid = entry["user_id"]
        if entry["capture_number"] == 2:
            probes[uid] = cap.csi
        elif uid <= 4:
            meta = CaptureMeta(1, entry["gender"], entry["hand"], uid)
            rows, _ = build_rows(cap, meta)
            rows_by_user[uid] = np.stack([r.features for r in rows[:100]])
    store = enroll(rows_by_user, HyperParams(n_trees=50), seed=0, packets_per_second=50)
    return store, probes


class TestRepeatedFrames:
    """A window counts each distinct frame once: one frame sent 50 times
    is one frame of evidence, not a 1.0 vote share."""

    @pytest.mark.parametrize("uid", [2, 5], ids=["enrolled", "never-enrolled"])
    def test_one_frame_repeated_is_refused(self, replay_env, uid):
        store, probes = replay_env
        window = np.repeat(probes[uid][:1], 50, axis=0)
        with pytest.raises(WindowTooShort, match=r"^1 distinct non-zero frames .*\(need 50\)$"):
            authenticate(store, window)

    @pytest.mark.parametrize("uid", [1, 5])
    def test_repeats_are_decided_as_the_distinct_frames(self, replay_env, uid):
        store, probes = replay_env
        mixed = np.concatenate([probes[uid][:30], probes[3][:20]])   # 50 distinct frames
        # copies of user 3's frames, in and after the window, would tip the vote
        padded = np.concatenate([mixed[:10], mixed[40:45], mixed[10:], mixed[30:50],
                                 mixed[30:50]])
        want = authenticate(store, mixed)
        got = authenticate(store, padded)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert got.frames_used == 50

    def test_zero_frames_and_repeats_leave_too_few(self, replay_env):
        store, probes = replay_env
        window = np.concatenate([probes[1][:49], zero_frames(1), probes[1][:1]])
        with pytest.raises(WindowTooShort, match=r"^49 distinct non-zero frames"):
            authenticate(store, window)


class TestStorePersistence:
    def test_roundtrip_decisions(self, auth_env, tmp_path):
        store, probes, _ = auth_env
        path = tmp_path / "store.json"
        save_store(store, path)
        back = load_store(path)
        for uid in (1, 2, 3):
            assert authenticate(back, probes[uid][:20]) == authenticate(
                store, probes[uid][:20]
            )
        assert back.roster == store.roster
        assert back.packets_per_second == store.packets_per_second
        assert back.prune is store.prune is True

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "zip"}')
        with pytest.raises(ValueError):
            load_store(path)

    def test_rejects_wrong_version(self, auth_env, tmp_path):
        store, _, _ = auth_env
        path = tmp_path / "store.json"
        save_store(store, path)
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_store(path)

    def test_rejects_cyclic_tree(self, auth_env, tmp_path):
        # an inner node of tree 0 whose children are the root: routing
        # a window through it would never reach a leaf
        store, _, _ = auth_env
        path = tmp_path / "store.json"
        save_store(store, path)
        doc = json.loads(path.read_text())
        tree = doc["model"]["params"]["trees"][0]
        inner = max(i for i, f in enumerate(tree["feature"]) if f >= 0)
        tree["left"][inner] = tree["right"][inner] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_store(path)

    @pytest.mark.parametrize("field", ["a", "b", "both"])
    def test_rejects_scaler_of_wrong_width(self, auth_env, tmp_path, field):
        store, _, _ = auth_env
        path = tmp_path / "store.json"
        save_store(store, path)
        doc = json.loads(path.read_text())
        for key in ("a", "b") if field == "both" else (field,):
            doc["scaler"][key].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_store(path)

    def test_rejects_layout_of_wrong_width(self, auth_env, tmp_path):
        store, _, _ = auth_env
        path = tmp_path / "store.json"
        save_store(store, path)
        doc = json.loads(path.read_text())
        doc["prune"] = False  # 512 columns against a 468-wide model
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_store(path)


# Each of these loaded without error before the store's parts checked their
# own fields; several then granted (packets_per_second -5 grants any window).
STORE_CORRUPTIONS = {
    "scaler-kind-bogus": lambda d: d["scaler"].update(kind="bogus"),
    "scaler-a-nan": lambda d: d["scaler"]["a"].__setitem__(0, float("nan")),
    "scaler-b-null": lambda d: d["scaler"]["b"].__setitem__(3, None),
    "lam-nan": lambda d: d["sanitizer"].update(lam=float("nan")),
    "unwrap-no": lambda d: d["sanitizer"].update(unwrap="no"),
    "rate-0": lambda d: d.update(packets_per_second=0),
    "rate-negative": lambda d: d.update(packets_per_second=-5),
    "rate-string": lambda d: d.update(packets_per_second="20"),
    "rate-float": lambda d: d.update(packets_per_second=2.5),
    "rate-true": lambda d: d.update(packets_per_second=True),
    # integers that no float holds
    "scaler-a-no-float": lambda d: d["scaler"]["a"].__setitem__(0, 10**400),
    "rate-no-float": lambda d: d.update(packets_per_second=10**400),
    "prune-yes": lambda d: d.update(prune="yes"),
    "roster-string": lambda d: d["roster"].update({"1": "enter"}),
    # refused by those checks as well
    "unwrap-1": lambda d: d["sanitizer"].update(unwrap=1),
    "prune-1": lambda d: d.update(prune=1),
    "mask-null-missing": lambda d: d["mask"].pop("null"),
    "mask-null-number": lambda d: d["mask"].update(null=5),
    # These loaded until the store kept only what enrollment learned: a
    # document could change the preprocessing its model was trained on.
    "lam-0.5": lambda d: d["sanitizer"].update(lam=0.5),
    "lam-0": lambda d: d["sanitizer"].update(lam=0),
    "unwrap-false": lambda d: d["sanitizer"].update(unwrap=False),
    # a null bin swapped for a useful one keeps the width 468
    "null-swap": lambda d: d["mask"].update(
        null=sorted(set(d["mask"]["null"]) - {-128} | {-122})),
    "pilot-moved": lambda d: d["mask"].update(
        pilot=sorted(set(d["mask"]["pilot"]) - {11} | {12})),
}


class TestStoreFieldChecks:
    """The scaler, the sanitizer and the store check their own fields, so
    an inconsistent store is refused on load, not at the first request."""

    @pytest.mark.parametrize("name", sorted(STORE_CORRUPTIONS))
    def test_corrupt_store_refused(self, auth_env, tmp_path, name):
        store, _, _ = auth_env
        path = tmp_path / "store.json"
        save_store(store, path)
        doc = json.loads(path.read_text())
        STORE_CORRUPTIONS[name](doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_store(path)

    @pytest.mark.parametrize("changes", [
        {"packets_per_second": 0}, {"packets_per_second": 20.0},
        {"roster": {1: "enter"}}, {"roster": {1: {3}}},
    ], ids=["rate-0", "rate-float", "roster-string", "roster-int-permission"])
    def test_store_checks_its_fields(self, auth_env, changes):
        store, _, _ = auth_env
        with pytest.raises(ValueError):
            dataclasses.replace(store, **changes)

    def test_store_keeps_what_enrollment_learned(self, auth_env):
        store, _, _ = auth_env
        assert [f.name for f in dataclasses.fields(EnrollmentStore)] == [
            "model", "scaler", "roster", "packets_per_second", "created_at"]
        with pytest.raises(AttributeError):  # read off the model's width
            store.prune = False
        with pytest.raises(TypeError):
            dataclasses.replace(store, prune=False)

    def test_mask_lists_compared_as_sets(self, auth_env, tmp_path):
        store, probes, _ = auth_env
        path = tmp_path / "store.json"
        save_store(store, path)
        doc = json.loads(path.read_text())
        doc["mask"]["null"] = doc["mask"]["null"][::-1] + doc["mask"]["null"][:2]
        path.write_text(json.dumps(doc))
        back = load_store(path)
        assert authenticate(back, probes[2][:20]) == authenticate(store, probes[2][:20])

    @pytest.mark.parametrize("rate", [np.int64(20), np.int32(20), np.uint8(20)])
    def test_numpy_integer_rate_stored_as_int(self, rate, tmp_path):
        rng = np.random.default_rng(71)
        rows = {u: rng.normal(loc=0.1 * u, size=(100, 468)) for u in (1, 2, 3)}
        store = enroll(rows, HyperParams(n_trees=2, max_depth=3), seed=4,
                       packets_per_second=rate)
        assert type(store.packets_per_second) is int and store.packets_per_second == 20
        store = dataclasses.replace(store, created_at="2026-01-01T00:00:00Z")
        save_store(store, tmp_path / "store.json")
        data = (tmp_path / "store.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == STORE_DIGEST


# sha256 of the document below; any store byte that moves fails here
STORE_DIGEST = "b86c0e2ff1e72a29d7e18c6d8b7047f1a2e2d4f95d5bf31c162552a5ed89bf26"


def test_store_document_bytes(tmp_path):
    rng = np.random.default_rng(71)
    rows = {u: rng.normal(loc=0.1 * u, size=(100, 468)) for u in (1, 2, 3)}
    store = enroll(rows, HyperParams(n_trees=2, max_depth=3), seed=4, packets_per_second=20)
    store = dataclasses.replace(store, created_at="2026-01-01T00:00:00Z")
    save_store(store, tmp_path / "store.json")
    data = (tmp_path / "store.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == STORE_DIGEST


def decision(uid=1, verdict="Grant", reason="ok"):
    return AuthDecision(
        user_id=uid, vote_share=1.0, frames_used=20,
        window_seconds=1.0, decision=verdict, reason=reason,
    )


def audit_records(log: AuditLog) -> list:
    """The records of an audit log, one JSON document per line."""
    with open(log.path, encoding="ascii") as fh:
        return [json.loads(line) for line in fh]


class TestAuditLog:
    def test_appends_in_order(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        for uid in (1, 2, 3):
            log.append(decision(uid))
        records = audit_records(log)
        assert [r["user_id"] for r in records] == [1, 2, 3]
        ts = [r["ts"] for r in records]
        assert ts == sorted(ts) and len(set(ts)) == 3

    def test_timestamps_monotonic_under_frozen_clock(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gatekeeper.time, "time", lambda: 1234.5)
        log = AuditLog(tmp_path / "audit.jsonl")
        for uid in (1, 2, 3):
            log.append(decision(uid))
        ts = [r["ts"] for r in audit_records(log)]
        assert ts[0] == 1234.5
        assert ts[0] < ts[1] < ts[2]

    def test_authenticate_logs_decision(self, auth_env, tmp_path):
        store, probes, _ = auth_env
        log = AuditLog(tmp_path / "audit.jsonl")
        d = authenticate(store, probes[2][:20], log=log)
        records = audit_records(log)
        assert len(records) == 1
        assert records[0]["decision"] == d.decision
        assert records[0]["user_id"] == d.user_id
        assert records[0]["vote_share"] == d.vote_share


class TestPolicy:
    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf"), -0.1,
                                           pytest.param(10**400, id="int-1e400")])
    def test_out_of_policy_threshold_rejected(self, auth_env, threshold):
        store, probes, _ = auth_env
        window = np.concatenate([probes[1][:10], probes[2][:10]])  # denied at the default threshold
        with pytest.raises(BadPolicy):
            authenticate(store, window, threshold=threshold)

    # 1e308 s at 20 pkt/s is inf frames, and ceil(inf) raised OverflowError; an
    # integer that no float holds raised one, and 10**307 named a 309-digit count
    @pytest.mark.parametrize("window_seconds", [float("nan"), float("inf"), 0.0, -1.0, 1e308,
                                                pytest.param(10**400, id="int-1e400"),
                                                pytest.param(10**307, id="int-1e307")])
    def test_out_of_policy_window_rejected(self, auth_env, window_seconds):
        store, probes, _ = auth_env
        with pytest.raises(BadPolicy):
            authenticate(store, probes[2][:20], window_seconds=window_seconds)

    @pytest.mark.parametrize("field", ["threshold", "window_seconds"])
    @pytest.mark.parametrize("value", [False, True, np.False_, np.True_],
                             ids=["false", "true", "np-false", "np-true"])
    def test_bool_is_not_a_number(self, auth_env, field, value):
        # false read as 0 granted a window denied at the default threshold
        store, probes, _ = auth_env
        window = np.concatenate([probes[1][:10], probes[2][:10]])
        rule = f"^{field} {re.escape(repr(value))} is not a finite number >=? 0$"
        with pytest.raises(BadPolicy, match=rule):
            authenticate(store, window, **{field: value})

    def test_rejected_before_logging(self, auth_env, tmp_path):
        store, probes, _ = auth_env
        log = AuditLog(tmp_path / "audit.jsonl")
        with pytest.raises(BadPolicy):
            authenticate(store, probes[2][:20], threshold=float("nan"), log=log)
        assert not os.path.exists(log.path)

    def test_finite_thresholds_from_zero_up_accepted(self, auth_env):
        store, probes, _ = auth_env
        window = np.concatenate([probes[1][:10], probes[2][:10]])
        assert authenticate(store, window, threshold=0.0).decision == "Grant"
        for threshold in (1.0, 1.1):  # above 1 no share can pass: fail closed
            d = authenticate(store, window, threshold=threshold)
            assert (d.decision, d.reason) == ("Deny", "below threshold")


@contextlib.contextmanager
def running(store, log=None):
    server = gatekeeper.AuthServer(("127.0.0.1", 0), store, log)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


KEY_RULE = "a request's keys must be exactly op and frames; the policy is the server's"


def ask(addr, *payloads):
    """Send newline-delimited JSON requests on one connection."""
    replies = []
    with socket.create_connection(addr, timeout=10) as sock:
        fh = sock.makefile("rwb")
        for payload in payloads:
            line = payload if isinstance(payload, bytes) else (
                json.dumps(payload).encode() + b"\n"
            )
            fh.write(line)
            fh.flush()
            replies.append(json.loads(fh.readline()))
    return replies


class TestServer:
    def test_capture_op_refused(self, auth_env):
        # a request used to name a server-side file, which the service
        # then read to EOF; now only inline frames are served
        store, probes, probe_paths = auth_env
        frames = probes[2][:20].tolist()
        with running(store) as addr:
            alone, with_frames, intact = ask(
                addr,
                {"op": "authenticate", "capture": probe_paths[2]},
                {"op": "authenticate", "capture": probe_paths[2], "frames": frames},
                {"op": "authenticate", "frames": frames},
            )
        for reply in (alone, with_frames):
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad-request"
        assert intact["decision"]["user_id"] == 2

    def test_inline_frames_flow(self, auth_env):
        store, probes, _ = auth_env
        frames = probes[1][:20].tolist()
        with running(store) as addr:
            (reply,) = ask(addr, {"op": "authenticate", "frames": frames})
        assert reply["ok"] is True
        assert reply["decision"]["user_id"] == 1

    def test_bad_json_then_good_request_same_connection(self, auth_env):
        store, probes, _ = auth_env
        frames = probes[1][:20].tolist()
        with running(store) as addr:
            bad, good = ask(
                addr, b"this is not json\n", {"op": "authenticate", "frames": frames}
            )
        assert bad["ok"] is False and bad["error"]["code"] == "bad-request"
        assert good["ok"] is True  # the connection survived the error

    def test_unknown_op(self, auth_env):
        store, _, _ = auth_env
        with running(store) as addr:
            (reply,) = ask(addr, {"op": "enroll"})
        assert reply["error"]["code"] == "bad-request"

    def test_window_too_short_reported_in_band(self, auth_env):
        store, probes, _ = auth_env
        frames = probes[1][:3].tolist()
        with running(store) as addr:
            (reply,) = ask(addr, {"op": "authenticate", "frames": frames})
        assert reply["ok"] is False
        assert reply["error"]["code"] == "window-too-short"

    def test_malformed_inline_frame(self, auth_env):
        store, _, _ = auth_env
        with running(store) as addr:
            (reply,) = ask(addr, {"op": "authenticate", "frames": [[[1, 2]] * 8]})
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-request"

    def test_non_integer_inline_samples(self, auth_env):
        store, probes, _ = auth_env
        frames = probes[1][:20].tolist()
        requests = []
        for sample in (1.5, 2.0, "7"):
            damaged = [[pair[:] for pair in frame] for frame in frames]
            damaged[3][10][0] = sample
            requests.append({"op": "authenticate", "frames": damaged})
        with running(store) as addr:
            *refused, intact = ask(addr, *requests, {"op": "authenticate", "frames": frames})
        for reply in refused:
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad-request"
            assert "integers" in reply["error"]["message"]
        assert intact["ok"] is True

    def test_boolean_inline_sample_refused(self, auth_env):
        # JSON true is the int subclass bool in Python; as a sample it
        # would read as 1
        store, probes, _ = auth_env
        frames = probes[1][:20].tolist()
        frames[5][7][1] = True
        with running(store) as addr:
            (reply,) = ask(addr, {"op": "authenticate", "frames": frames})
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-request"
        assert "integers" in reply["error"]["message"]

    def test_threshold_override_and_logging(self, auth_env, tmp_path):
        # threshold 0.5 would grant this window; a request may not set it
        store, probes, _ = auth_env
        log = AuditLog(tmp_path / "server-audit.jsonl")
        mixed = np.concatenate([probes[1][:11], probes[2][:9]]).tolist()
        with running(store, log=log) as addr:
            strict, lenient = ask(
                addr,
                {"op": "authenticate", "frames": mixed},
                {"op": "authenticate", "frames": mixed, "threshold": 0.5},
            )
        assert strict["decision"]["decision"] == "Deny"
        assert lenient == {"ok": False, "error": {"code": "bad-request", "message": KEY_RULE}}
        assert [r["decision"] for r in audit_records(log)] == ["Deny"]

    def test_out_of_policy_values_reported_in_band(self, auth_env):
        store, probes, _ = auth_env
        mixed = np.concatenate([probes[1][:10], probes[2][:10]]).tolist()
        nan_line = json.dumps(
            {"op": "authenticate", "frames": mixed, "threshold": float("nan")}
        ).encode() + b"\n"
        assert b'"threshold": NaN' in nan_line  # the bare JSON literal json.loads accepts
        with running(store) as addr:
            nan, negative, no_window, huge, digits, text, default = ask(
                addr,
                nan_line,
                {"op": "authenticate", "frames": mixed, "threshold": -0.5},
                {"op": "authenticate", "frames": mixed, "window_seconds": 0},
                {"op": "authenticate", "frames": mixed, "window_seconds": 1e308},
                {"op": "authenticate", "frames": mixed, "threshold": 10**400},
                {"op": "authenticate", "frames": mixed, "threshold": "0.5"},
                {"op": "authenticate", "frames": mixed},
            )
        for reply in (nan, negative, no_window, huge, digits, text):
            assert reply == {"ok": False, "error": {"code": "bad-request", "message": KEY_RULE}}
        assert default["decision"]["decision"] == "Deny"  # connection survived

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "general"])
    def test_bool_policy_values_are_bad_requests(self, auth_env, fast):
        store, probes, _ = auth_env
        mixed = np.concatenate([probes[1][:10], probes[2][:10]]).tolist()
        lines = [request_line(mixed, **{field: value})
                 for field, value in [("threshold", False), ("threshold", True),
                                      ("window_seconds", True), ("window_seconds", False),
                                      ("threshold", "0.5"), ("window_seconds", None)]]
        if not fast:  # an escaped key: only json.loads reads it as "frames"
            lines = [line.replace(b'"frames"', b'"fr\\u0061mes"') for line in lines]
        assert all((gatekeeper._canonical_frames(line) is not None) is fast for line in lines)
        with running(store) as addr:
            *refused, default = ask(addr, *lines, {"op": "authenticate", "frames": mixed})
        for reply in refused:
            assert reply == {"ok": False, "error": {"code": "bad-request", "message": KEY_RULE}}
        assert default["decision"]["decision"] == "Deny"  # connection survived


class TestNoPerFrameObjects:
    """The hot paths move whole blocks: with CsiFrame unconstructible,
    synthesis, writing, reading, feature rows, authenticate and inline
    requests still work."""

    def test_hot_paths_build_no_frames(self, auth_env, monkeypatch, tmp_path):
        store, probes, probe_paths = auth_env

        def refuse(self):
            raise AssertionError("a CsiFrame was built on a hot path")

        monkeypatch.setattr(CsiFrame, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            CsiFrame()
        synth.generate(synth.SynthConfig(users=1, captures_per_user=1, frames_per_capture=5),
                       tmp_path)
        write_capture(read_capture(probe_paths[2]), str(tmp_path / "again.pcap"))
        cap = read_capture(str(tmp_path / "again.pcap"))
        meta = CaptureMeta(capture_number=2, gender="M", hand="Right", user_id=2)
        rows, _ = build_rows(cap, meta)
        assert len(rows) == len(cap.csi)
        assert authenticate(store, cap.csi[:20]).decision == "Grant"
        with running(store) as addr:
            (inline,) = ask(addr, {"op": "authenticate", "frames": probes[2][:20].tolist()})
        assert inline["ok"] is True and inline["decision"]["user_id"] == 2


def reference_block(frames):
    """The inline decode one frame and one sample at a time: each frame a
    list of 256 [re, im] lists of exact ints in the int16 range."""
    if type(frames) is not list:
        raise ValueError("frames is not a list")
    block = []
    for frame in frames:
        if type(frame) is not list or len(frame) != 256:
            raise ValueError("frame is not 256 pairs")
        for pair in frame:
            if type(pair) is not list or len(pair) != 2:
                raise ValueError("pair is not two samples")
            for v in pair:
                if type(v) is not int or not -32768 <= v <= 32767:
                    raise ValueError("sample is not an int16")
        block.append(frame)
    return np.array(block, dtype=np.int16).reshape(-1, 256, 2)


_leaves = st.one_of(
    st.integers(-40000, 40000), st.integers(), st.booleans(),
    st.floats(allow_nan=True), st.text(max_size=3), st.none(),
)


@st.composite
def _inline_requests(draw):
    """Valid blocks of 0-3 frames with one part swapped for an arbitrary
    value, or an arbitrary nested value of any shape."""
    if draw(st.booleans()):
        return draw(st.recursive(_leaves, lambda inner: st.lists(inner, max_size=4),
                                 max_leaves=20))
    n = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    frames = np.random.default_rng(seed).integers(-32768, 32768, size=(n, 256, 2)).tolist()
    if n and draw(st.booleans()):
        replacement = draw(st.one_of(_leaves, st.lists(_leaves, max_size=3)))
        i, k, j = draw(st.integers(0, n - 1)), draw(st.integers(0, 255)), draw(st.integers(0, 1))
        level = draw(st.sampled_from(["sample", "pair", "frame"]))
        if level == "sample":
            frames[i][k][j] = replacement
        elif level == "pair":
            frames[i][k] = replacement
        else:
            frames[i] = replacement
    return frames


class TestInlineDecode:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_inline_requests())
    def test_matches_per_frame_reference(self, frames):
        try:
            want = reference_block(frames)
        except ValueError:
            with pytest.raises(ValueError):
                gatekeeper._inline_csi(frames)
        else:
            got = gatekeeper._inline_csi(frames)
            assert got.dtype == np.int16 and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("sample", [True, False, 1.0, "1", None, 32768, -32769, 2 ** 70])
    def test_one_bad_sample_refused(self, sample):
        frames = np.ones((2, 256, 2), dtype=np.int16).tolist()
        frames[1][200][0] = sample
        with pytest.raises(ValueError):
            gatekeeper._inline_csi(frames)

    def test_extremes_and_empty_accepted(self):
        frames = np.full((1, 256, 2), -32768, dtype=np.int16)
        frames[0, :, 1] = 32767
        assert np.array_equal(gatekeeper._inline_csi(frames.tolist()), frames)
        assert gatekeeper._inline_csi([]).shape == (0, 256, 2)


# --- request decode: the fast path against json.loads + _inline_csi ------------

def answer(store, raw: bytes, fast: bool = True) -> dict:
    """The service's reply to one request line; with fast=False the line
    goes through json.loads and _inline_csi alone."""
    handler = object.__new__(gatekeeper._AuthHandler)
    handler.server = types.SimpleNamespace(store=store, log=None)
    if fast:
        return handler._answer(raw)
    with mock.patch.object(gatekeeper, "_canonical_frames", lambda raw: None):
        return handler._answer(raw)


def agrees_with_reference(store, raw: bytes) -> bool:
    took = decodes_like_reference(raw)
    assert answer(store, raw) == answer(store, raw, fast=False)
    return took


@pytest.fixture(scope="module")
def one_frame_store(auth_env):
    """The test store at 1 pkt/s: a window of one frame is decided, so a
    reply depends on every sample of a short request."""
    return dataclasses.replace(auth_env[0], packets_per_second=1)


def request_line(frames, separators=(", ", ": "), **fields) -> bytes:
    req = {"op": "authenticate", "frames": frames, **fields}
    return json.dumps(req, separators=separators).encode() + b"\n"


_NOISE_BYTES = (st.sampled_from(list(b'0123456789-+.eE,[]{}" \t\n\r:INaftru\\'))
                | st.integers(0, 255))


def mutate(raw: bytes, edits) -> bytes:
    """Apply (position, kind, byte) edits: replace, insert or delete."""
    out = bytearray(raw)
    for at, kind, byte in edits:
        at %= len(out) + 1
        if kind == "insert":
            out[at:at] = bytes([byte])
        elif at < len(out):
            out[at:at + 1] = b"" if kind == "delete" else bytes([byte])
    return bytes(out)


@st.composite
def request_lines(draw):
    """json.dumps lines of 0-4 random frames in three separator styles,
    with or without whitespace around every token, then 0-3 byte edits."""
    n = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    high = draw(st.sampled_from([2, 100, 32768]))  # small samples make 0 and -0 common
    fields = draw(st.sampled_from([{}, {"threshold": 0.5}, {"threshold": float("nan")},
                                   {"window_seconds": 1.0, "permission": "enter"}]))
    req = {"op": "authenticate", "frames": rng.integers(-high, high, size=(n, 256, 2)).tolist(),
           **fields}
    line = json.dumps(req, indent=draw(st.sampled_from([None, 0, "\t", " \r\n"])),
                      separators=draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,\t", " :")])))
    edits = draw(st.lists(st.tuples(st.integers(0, 2 ** 20),
                                    st.sampled_from(["replace", "insert", "delete"]),
                                    _NOISE_BYTES), max_size=3))
    return mutate(line.encode() + b"\n", edits)


def fuzz_against_reference(seed: int, count: int) -> tuple:
    """Random byte edits of 2-frame lines, each checked against the
    reference decode; returns (fast-path accepts, fallbacks)."""
    rng = np.random.default_rng(seed)
    b, c = (rng.integers(-40, 40, size=(2, 256, 2)).tolist() for _ in range(2))
    frames = json.dumps(b)
    bases = [
        request_line(b), request_line(b, separators=(",", ":")),
        request_line(b, threshold=0.5),
        b'{"op": "authenticate", "frames": %s, "frames": %s}\n' % (frames.encode(),
                                                                   json.dumps(c).encode()),
        b'{"op": "authenticate", "fr\\u0061mes": %s}\n' % frames.encode(),
        b'{"meta": {"frames": %s}, "op": "authenticate", "frames": %s}\n' % (
            json.dumps(c).encode(), frames.encode()),
    ]
    alphabet = list(b'0123456789-+.eE,[]{}" \t\n\r:INaf\\')
    took = 0
    for _ in range(count):
        raw = bases[rng.integers(len(bases))]
        edits = [(int(rng.integers(len(raw) + 1)), ("replace", "insert", "delete")[rng.integers(3)],
                  int(rng.choice(alphabet)) if rng.random() < 0.8 else int(rng.integers(256)))
                 for _ in range(rng.integers(1, 4))]
        took += decodes_like_reference(mutate(raw, edits))
    return took, count - took


class TestFastDecode:
    @settings(max_examples=300, deadline=None, database=None)
    @given(request_lines())
    def test_replies_match_reference(self, one_frame_store, raw):
        agrees_with_reference(one_frame_store, raw)

    def test_seeded_byte_edits_match_reference(self):
        took, fell_back = fuzz_against_reference(seed=10, count=10_000)
        assert took > 500 and fell_back > 5000  # both paths are exercised

    @pytest.mark.parametrize("separators", [(", ", ": "), (",", ":")])
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_plain_dumps_lines_take_the_fast_path(self, one_frame_store, separators, n):
        block = np.random.default_rng(n).integers(-32768, 32768, size=(n, 256, 2))
        block[0, :2] = [[-32768, 32767], [0, 0]]
        for fields in ({}, {"threshold": float("nan")}):
            raw = request_line(block.tolist(), separators, **fields)
            assert agrees_with_reference(one_frame_store, raw)
            _, csi = gatekeeper._read_request(raw)
            assert np.array_equal(csi, block)


def _frames(seed=0, n=2, high=40):
    return np.random.default_rng(seed).integers(-high, high, size=(n, 256, 2)).tolist()


def _with_first_pair(text: str) -> bytes:
    """A 2-frame request whose first [re, im] pair is written as ``text``."""
    frames = json.dumps(_frames())
    return b'{"op": "authenticate", "frames": [[%s%s}\n' % (
        text.encode(), frames[frames.index("]") + 1:].encode())


B, C = json.dumps(_frames(1)), json.dumps(_frames(2))

# (line, whether the fast path takes it)
NAMED_LINES = {
    "plain": (request_line(_frames(1)), True),
    "duplicate key, last wins": (
        b'{"op": "authenticate", "frames": %s, "frames": %s}' % (B.encode(), C.encode()), False),
    "escaped key": (b'{"op": "authenticate", "fr\\u0061mes": %s}' % B.encode(), False),
    "nested key before": (
        b'{"meta": {"frames": %s}, "op": "authenticate", "frames": %s}' % (C.encode(), B.encode()),
        False),
    "nested key after": (
        b'{"op": "authenticate", "frames": %s, "meta": {"frames": %s}}' % (B.encode(), C.encode()),
        True),
    "key ending in an escaped quote": (b'{"op": "authenticate", "x\\"frames": %s}' % B.encode(),
                                       False),
    "frames in a string": (b'{"op": "authenticate", "note": "\\"frames\\": %s"}' % B.encode(),
                           False),
    "1e999 frames, nested array": (
        b'{"op": "authenticate", "frames": 1e999, "meta": {"frames": %s}}' % B.encode(), False),
    "Infinity threshold": (b'{"op": "authenticate", "frames": %s, "threshold": Infinity}'
                           % B.encode(), False),
    "-Infinity threshold": (b'{"op": "authenticate", "frames": %s, "threshold": -Infinity}'
                            % B.encode(), False),
    "NaN threshold": (b'{"op": "authenticate", "frames": %s, "threshold": NaN}' % B.encode(),
                      True),
    "Infinity in a string": (b'{"op": "authenticate", "frames": %s, "note": "Infinity"}'
                             % B.encode(), False),
    "not JSON after the frames": (b'{"op": "authenticate", "frames": %s 5}' % B.encode(), False),
    "trailing comma": (b'{"op": "authenticate", "frames": %s,}' % B.encode(), False),
    "unclosed": (b'{"op": "authenticate", "frames": %s' % B.encode(), False),
    "wrong op": (b'{"op": "enroll", "frames": %s}' % B.encode(), True),
    "capture key": (b'{"op": "authenticate", "frames": %s, "capture": "x"}' % B.encode(), True),
    "top level array": (b'[{"op": "authenticate", "frames": %s}]' % B.encode(), False),
    "minus zero": (_with_first_pair("[-0, 7]"), True),
    "zero": (_with_first_pair("[0, 7]"), True),
    "leading zero": (_with_first_pair("[01, 7]"), False),
    "minus leading zero": (_with_first_pair("[-01, 7]"), False),
    "double zero": (_with_first_pair("[00, 7]"), False),
    "two numbers in a slot": (_with_first_pair("[1 2, 7]"), False),
    "minus then space": (_with_first_pair("[- 5, 7]"), False),
    "bare minus": (_with_first_pair("[-, 7]"), False),
    "double minus": (_with_first_pair("[--5, 7]"), False),
    "inner minus": (_with_first_pair("[5-5, 7]"), False),
    "plus sign": (_with_first_pair("[+5, 7]"), False),
    "empty slot": (_with_first_pair("[, 7]"), False),
    "number after a pair": (_with_first_pair("[1,2]3"), False),
    "number before a pair": (_with_first_pair("3[1,2]"), False),
    "32768": (_with_first_pair("[32768, 7]"), False),
    "-32769": (_with_first_pair("[-32769, 7]"), False),
    "int16 extremes": (_with_first_pair("[-32768,32767]"), True),
    "six digits": (_with_first_pair("[100000, 7]"), False),
    "beyond int64": (_with_first_pair("[99999999999999999999, 7]"), False),
    "below int64": (_with_first_pair("[-99999999999999999999, 7]"), False),
    "true sample": (_with_first_pair("[true, 7]"), False),
    "1.0 sample": (_with_first_pair("[1.0, 7]"), False),
    "1e2 sample": (_with_first_pair("[1e2, 7]"), False),
    "empty frames": (request_line([]), False),
    "one pair short": (request_line([_frames()[0][:255]]), False),
    "three samples": (_with_first_pair("[1, 2, 3]"), False),
    "spaced tokens": (b' {\t"op" :"authenticate" ,\r\n"frames"\n:\t%s } ' % json.dumps(
        _frames(1), indent="\t ", separators=(" ,\r\n", " :")).encode(), True),
    "not UTF-8 before the frames": (b'{"op": "authenticate", "note": "\xff", "frames": %s}'
                                    % B.encode(), False),
    "not UTF-8 after the frames": (b'{"op": "authenticate", "frames": %s, "note": "\xc3"}'
                                   % B.encode(), False),
    "UTF-8 text": (b'{"op": "authenticate", "frames": %s, "note": "\xc3\xa9"}' % B.encode(),
                   True),
    "BOM": (b"\xef\xbb\xbf" + request_line(_frames(1)), False),
}


class TestFastDecodeNamedCases:
    @pytest.mark.parametrize("name", list(NAMED_LINES))
    def test_reply_matches_reference(self, one_frame_store, name):
        raw, fast = NAMED_LINES[name]
        assert agrees_with_reference(one_frame_store, raw) is fast

    def test_duplicate_key_decides_on_the_last(self, one_frame_store):
        raw, _ = NAMED_LINES["duplicate key, last wins"]
        last_only = b'{"op": "authenticate", "frames": %s}' % C.encode()
        assert answer(one_frame_store, raw) == answer(one_frame_store, last_only)

    def test_named_lines_cover_each_outcome(self, one_frame_store):
        codes = {answer(one_frame_store, raw).get("error", {}).get("code", "ok")
                 for raw, _ in NAMED_LINES.values()}
        assert codes == {"ok", "bad-request", "window-too-short"}


_json_values = st.recursive(
    st.one_of(st.integers(-2, 2), st.integers(), st.floats(), st.booleans(), st.none(),
              st.text(max_size=4), st.sampled_from(["0", "0.5", "enter", "exit", "NaN"])),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6,
)
_extra_keys = st.sampled_from(["threshold", "window_seconds", "permission", "capture",
                               "Frames", "op ", ""]) | st.text(max_size=6)


@st.composite
def _windows_with_keys(draw):
    """A window of 15-25 frames of auth_env's probes, frames start to
    start + n of user a before cut and of user b from it, as (a, b, start,
    n, cut); and 0-3 other keys of any JSON value, with an order for all
    the request's keys."""
    n = draw(st.integers(15, 25))
    window = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 130 - n)),
              n, draw(st.integers(0, n)))
    extra = draw(st.dictionaries(_extra_keys.filter(lambda k: k not in ("op", "frames")),
                                 _json_values, max_size=3))
    return window, extra, draw(st.permutations(["op", "frames", *extra]))


class TestRequestKeys:
    """A request holds op and frames and nothing else, so no request is
    decided at any policy but the server's defaults."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(_windows_with_keys())
    def test_only_frames_are_decided_and_at_the_defaults(self, auth_env, drawn):
        store, probes, _ = auth_env
        (a, b, start, n, cut), extra, order = drawn
        window = np.concatenate([probes[a][start:start + cut], probes[b][start + cut:start + n]])
        req = {"op": "authenticate", "frames": window.tolist(), **extra}
        raw = json.dumps({key: req[key] for key in order}).encode() + b"\n"
        agrees_with_reference(store, raw)
        reply = answer(store, raw)
        if extra:
            assert reply == {"ok": False, "error": {"code": "bad-request", "message": KEY_RULE}}
            return
        try:
            want = {"ok": True, "decision": dataclasses.asdict(authenticate(store, window))}
        except WindowTooShort as exc:
            want = gatekeeper._error_reply(exc)
        assert reply == want


class TestRequestLineLimit:
    def test_limit_holds_the_widest_request(self):
        def width(n):
            return len(request_line(np.full((n, 256, 2), -32768).tolist(), threshold=0.6))
        widest = width(1) + (width(2) - width(1)) * (gatekeeper.MAX_REQUEST_FRAMES - 1)
        assert widest <= gatekeeper.MAX_REQUEST_BYTES

    def test_line_over_the_limit_refused_and_connection_closed(self, auth_env, monkeypatch):
        store, probes, _ = auth_env
        limit = 2 ** 20
        monkeypatch.setattr(gatekeeper, "MAX_REQUEST_BYTES", limit)
        request = request_line(probes[1][:20].tolist())[:-1]

        def padded(size):  # a line of ``size`` bytes, its newline included
            return request + b" " * (size - len(request) - 1) + b"\n"

        with running(store) as addr:
            (at_limit,) = ask(addr, padded(limit))
            with socket.create_connection(addr, timeout=10) as sock:
                sock.sendall(padded(limit + 1))
                fh = sock.makefile("rb")
                over = json.loads(fh.readline())
                try:
                    after = fh.readline()
                except ConnectionResetError:  # the unread newline may reset it
                    after = b""
            (still_served,) = ask(addr, padded(len(request) + 1))
        assert at_limit["ok"] is True and at_limit["decision"]["user_id"] == 1
        assert over["ok"] is False and over["error"]["code"] == "bad-request"
        assert f"exceeds {limit} bytes" in over["error"]["message"]
        assert after == b""  # the server closed the connection
        assert still_served["ok"] is True


class TestLineFraming:
    """However a request line arrives, the server reads it whole and
    answers it once: in pieces, pipelined with others, or at and just past
    the size of the handler's read buffer (64 KiB)."""

    def test_line_in_small_pieces_answered_as_sent_whole(self, auth_env):
        store, probes, _ = auth_env
        line = request_line(probes[1][:20].tolist())
        cuts = np.cumsum(np.random.default_rng(16).integers(1, 4000, size=len(line)))
        cuts = [0, *cuts[cuts < len(line)].tolist(), len(line)]
        with running(store) as addr:
            (whole,) = ask(addr, line)
            with socket.create_connection(addr, timeout=10) as sock:
                for lo, hi in zip(cuts, cuts[1:]):
                    sock.sendall(line[lo:hi])
                pieces = json.loads(sock.makefile("rb").readline())
        assert len(cuts) > 30
        assert whole["ok"] is True and whole["decision"]["user_id"] == 1
        assert pieces == whole

    def test_pipelined_lines_answered_in_order(self, auth_env):
        store, probes, _ = auth_env
        lines = [request_line(probes[1][:20].tolist()), b"not json\n",
                 request_line(probes[2][:20].tolist())]
        with running(store) as addr:
            alone = [ask(addr, line)[0] for line in lines]
            with socket.create_connection(addr, timeout=10) as sock:
                sock.sendall(b"".join(lines))
                fh = sock.makefile("rb")
                pipelined = [json.loads(fh.readline()) for _ in lines]
        assert [r["ok"] for r in alone] == [True, False, True]
        assert [alone[0]["decision"]["user_id"], alone[2]["decision"]["user_id"]] == [1, 2]
        assert pipelined == alone

    @pytest.mark.parametrize("size", [1 << 16, (1 << 16) + 1])
    def test_lines_of_the_read_buffer_size_answered(self, auth_env, size):
        store = dataclasses.replace(auth_env[0], packets_per_second=10)  # 10 frames: 1 s
        probes = auth_env[1]
        request = request_line(probes[1][:10].tolist())[:-1]
        line = request + b" " * (size - len(request) - 1) + b"\n"
        assert len(line) == size
        with running(store) as addr:
            (alone,) = ask(addr, request + b"\n")
            with socket.create_connection(addr, timeout=10) as sock:
                sock.sendall(line * 3)  # the next line starts where this one ends
                fh = sock.makefile("rb")
                replies = [json.loads(fh.readline()) for _ in range(3)]
        assert alone["ok"] is True and alone["decision"]["user_id"] == 1
        assert replies == [alone] * 3

    @pytest.mark.parametrize("limit", [4096, 50_000])
    def test_line_over_a_limit_inside_the_read_buffer_refused(self, auth_env, monkeypatch,
                                                                limit):
        # the whole over-long line may sit in the buffer; still only
        # MAX_REQUEST_BYTES of it are taken, and the connection ends
        store, probes, _ = auth_env
        monkeypatch.setattr(gatekeeper, "MAX_REQUEST_BYTES", limit)
        line = request_line(probes[1][:20].tolist())
        assert limit < len(line)
        with running(store) as addr:
            with socket.create_connection(addr, timeout=10) as sock:
                sock.sendall(line)
                fh = sock.makefile("rb")
                over = json.loads(fh.readline())
                try:
                    after = fh.readline()
                except ConnectionResetError:  # the unread rest may reset it
                    after = b""
            (still_served,) = ask(addr, {"op": "enroll"})
        assert over["ok"] is False and over["error"]["code"] == "bad-request"
        assert f"exceeds {limit} bytes" in over["error"]["message"]
        assert after == b""  # the server closed the connection
        assert still_served["error"]["message"] == "expected op=authenticate"


class TestIdleTimeout:
    """A connection that sends nothing for the handler's timeout is closed
    quietly, and the server goes on answering others."""

    def test_timeout_is_a_minute(self):
        assert gatekeeper._AuthHandler.timeout == 60

    @pytest.mark.parametrize("sent", [b"", b'{"op": "authenticate", "fra'],
                             ids=["nothing", "half-a-line"])
    def test_idle_connection_closed(self, auth_env, monkeypatch, capsys, sent):
        store, probes, _ = auth_env
        monkeypatch.setattr(gatekeeper._AuthHandler, "timeout", 0.2)
        with running(store) as addr:
            with socket.create_connection(addr, timeout=10) as idle:
                idle.sendall(sent)
                start = time.monotonic()
                closed = idle.recv(1)
                waited = time.monotonic() - start
            (reply,) = ask(addr, request_line(probes[1][:20].tolist()))
        assert closed == b"" and waited < 5
        assert reply["ok"] is True and reply["decision"]["user_id"] == 1
        assert capsys.readouterr().err == ""  # no traceback


GATE_DECISIONS_DIGEST = "84533960946bb1984b843cdc9059a1e46f98a342ffb161dcc773b8813fa42604"


@pytest.fixture(scope="module")
def criterion_7_env(tmp_path_factory):
    """Criterion 7's corpus and store: users 1-3 enroll from capture 1,
    user 4 never does, and user 3 is stripped from the roster."""
    root = tmp_path_factory.mktemp("criterion7")
    cfg = synth.SynthConfig(users=4, captures_per_user=2, frames_per_capture=130,
                            packets_per_second=20, noise_sigma=0.4, seed=2024)
    manifest = synth.generate(cfg, root)
    rows_by_user, probes = {}, {}
    for entry in manifest["captures"]:
        cap = read_capture(os.path.join(root, entry["path"]))
        uid = entry["user_id"]
        if entry["capture_number"] == 2:
            probes[uid] = cap.csi
        elif uid <= 3:
            meta = CaptureMeta(capture_number=1, gender=entry["gender"], hand="Right",
                               user_id=uid)
            rows_by_user[uid] = np.stack([r.features for r in build_rows(cap, meta)[0]])
    store = enroll(rows_by_user, HyperParams(n_trees=15, max_depth=12), seed=3,
                   packets_per_second=20)
    return dataclasses.replace(store, roster={1: {"enter"}, 2: {"enter"}}), probes


def test_gate_decisions_golden(criterion_7_env):
    """Characterization: the decisions on seeded windows, one user's or
    two users' frames, at varied thresholds and permissions, are pinned.
    Over TCP each window is decided at the defaults, as in-process, and
    refused when sent with a threshold and a permission."""
    store, probes = criterion_7_env
    rng = np.random.default_rng(7)
    requests = []
    for _ in range(60):
        if rng.random() < 0.5:
            frames = probes[int(rng.integers(1, 5))]
            start = int(rng.integers(0, len(frames) - 19))
            window = frames[start:start + 20]
        else:
            ua, ub = rng.choice((1, 2, 3, 4), size=2, replace=False)
            na = int(rng.integers(0, 21))
            window = np.concatenate([probes[ua][:na], probes[ub][:20 - na]])
        requests.append((window, float(rng.choice((0.5, 0.6, 0.8))),
                         str(rng.choice(("enter", "exit")))))
    direct = [dataclasses.asdict(authenticate(store, w, threshold=t, permission=p))
              for w, t, p in requests]
    with running(store) as addr:
        plain = ask(addr, *({"op": "authenticate", "frames": w.tolist()} for w, _, _ in requests))
        with_policy = ask(addr, *({"op": "authenticate", "frames": w.tolist(), "threshold": t,
                                   "permission": p} for w, t, p in requests))
    assert {d["reason"] for d in direct} == {"ok", "below threshold", "not enrolled",
                                             "missing permission"}
    digest = hashlib.sha256(json.dumps(direct, sort_keys=True).encode()).hexdigest()
    assert digest == GATE_DECISIONS_DIGEST
    assert [r["decision"] for r in plain] == [dataclasses.asdict(authenticate(store, w))
                                              for w, _, _ in requests]
    assert all(r["error"]["code"] == "bad-request" for r in with_policy)
