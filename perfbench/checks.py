"""Correctness checks, computed apart from the program.

Each check returns a list of problems (empty when the output is right),
so the self-test can plant a wrong output and see it rejected.  Nothing
here compares against a saved copy of earlier output: features are
recomputed from the raw int16 CSI, counts come from what the input step
wrote, and decisions are checked against the decision rule.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Subcarrier layout of an 80 MHz frame (docs/layout.md): 14 null, 8 pilot.
NULL = (-128, -127, -126, -125, -124, -123, -1, 0, 1, 123, 124, 125, 126, 127)
PILOT = (-103, -75, -39, -11, 11, 39, 75, 103)
USEFUL = np.array([k for k in range(-128, 128) if k not in NULL and k not in PILOT])
RIDGE_LAMBDA = 0.1
TOLERANCE = 1e-9
DEFAULT_THRESHOLD = 0.6
MIN_RF_F1 = 0.99


def _amp_phase(raw: np.ndarray):
    """Normalized amplitude and wrapped phase (radians) of the useful bins,
    from (n, 256, 2) int16 CSI in hardware order."""
    logical = np.arange(-128, 128) % 256          # hardware index of logical k
    re = raw[:, logical, 0].astype(np.float64)
    im = raw[:, logical, 1].astype(np.float64)
    amp = np.hypot(re, im)
    amp = amp / amp.mean(axis=1, keepdims=True)
    pos = USEFUL + 128
    return amp[:, pos], np.arctan2(im[:, pos], re[:, pos])


def _detrended(amp: np.ndarray, phi: np.ndarray, lam: float) -> np.ndarray:
    """Feature rows from unwrapped phases: the closed-form 2x2 ridge fit
    of a*k + b is subtracted, phases in degrees after the amplitudes."""
    k = USEFUL.astype(np.float64)
    normal = np.array([[k @ k + lam, k.sum()], [k.sum(), k.size + lam]])
    rhs = np.stack([phi @ k, phi.sum(axis=1)], axis=1)
    a, b = np.linalg.solve(normal, rhs.T)
    residual = phi - (a[:, None] * k + b[:, None])
    return np.concatenate([amp, np.degrees(residual)], axis=1)


def oracle_features(raw: np.ndarray, lam: float = RIDGE_LAMBDA) -> np.ndarray:
    """Pruned feature rows (amplitude block, phase block in degrees) from
    (n, 256, 2) int16 CSI in hardware order."""
    amp, phi = _amp_phase(raw)
    return _detrended(amp, np.unwrap(phi, axis=1), lam)


def other_unwraps(raw_frame: np.ndarray, lam: float = RIDGE_LAMBDA) -> list:
    """Feature rows for every other way of unwrapping one frame's steps of
    exactly +-pi between neighbouring useful bins.

    Two antipodal integer samples side by side, such as (-11, 10) and
    (825, -750), differ in phase by exactly pi, and unwrapping may keep
    the step or turn it by 2*pi depending on the last bit of rounding;
    both are right, and the detrend that follows differs.
    """
    amp, phi = _amp_phase(raw_frame[None])
    step = (np.diff(phi[0]) + np.pi) % (2 * np.pi) - np.pi
    ambiguous = np.nonzero(np.abs(np.abs(step) - np.pi) < 1e-12)[0]
    base = np.unwrap(phi[0])
    rows = []
    for r in range(1, ambiguous.size + 1):
        for subset in itertools.combinations(ambiguous, r):
            alt = base.copy()
            for j in subset:
                alt[j + 1:] -= 2 * np.pi * np.sign(step[j])
            rows.append(_detrended(amp, alt[None], lam)[0])
    return rows


def _row_errors(got: np.ndarray, want: np.ndarray):
    half = want.shape[-1] // 2
    amp_err = np.abs(got[..., :half] - want[..., :half]).max(axis=-1, initial=0.0)
    dphase = (got[..., half:] - want[..., half:] + 180.0) % 360.0 - 180.0
    return amp_err, np.abs(dphase).max(axis=-1, initial=0.0)


def feature_problems(got: np.ndarray, want: np.ndarray, raw: np.ndarray, where: str) -> list:
    """Amplitudes must match the oracle within TOLERANCE, phases modulo 360
    degrees; a frame with an exact +-pi step may match any of its unwraps."""
    if got.shape != want.shape:
        return [f"{where}: feature block {got.shape}, expected {want.shape}"]
    amp_err, phase_err = _row_errors(got, want)
    for i in np.nonzero((amp_err > TOLERANCE) | (phase_err > TOLERANCE))[0]:
        if not any(max(_row_errors(got[i], alt)) <= TOLERANCE for alt in other_unwraps(raw[i])):
            return [f"{where}: frame {i} differs from the oracle"
                    f" (amplitude {amp_err[i]:.3g}, phase {phase_err[i]:.3g} deg)"]
    return []


def capture_problems(entry: dict, n_frames: int, skipped: int, bad: int, dropped: int) -> list:
    out = []
    if n_frames != entry["frames"] or dropped != 0:
        out.append(f"{entry['path']}: decoded {n_frames} frames ({dropped} dropped),"
                   f" generator wrote {entry['frames']}")
    if skipped != entry["strays"] or bad != entry["malformed"]:
        out.append(f"{entry['path']}: skipped {skipped} / bad {bad},"
                   f" injected {entry['strays']} / {entry['malformed']}")
    return out


def slice_problems(matrix, captures: list, seconds: int, sessions: tuple, rate: int) -> list:
    """Row count users x sessions x ceil(s*rate); labels from the manifest."""
    need = math.ceil(seconds * rate)
    users = sorted({c["user_id"] for c in captures})
    want = np.repeat(users, len(sessions) * need)
    if matrix.n_rows != want.size:
        return [f"slice has {matrix.n_rows} rows, expected {want.size}"]
    if not np.array_equal(matrix.labels, want):
        return ["slice labels differ from the manifest's user ids"]
    return []


def csv_problems(written, read) -> list:
    same = (
        written.feature_names == read.feature_names
        and np.array_equal(written.features, read.features)
        and all(np.array_equal(getattr(written, c), getattr(read, c))
                for c in ("capture", "gender", "hand", "user_id"))
    )
    return [] if same else ["CSV read back differs from the matrix written"]


def macro_f1(cm: np.ndarray) -> float:
    cm = np.asarray(cm, dtype=np.float64)
    tp = np.diag(cm)
    precision = np.divide(tp, cm.sum(axis=0), out=np.zeros_like(tp), where=cm.sum(axis=0) > 0)
    recall = np.divide(tp, cm.sum(axis=1), out=np.zeros_like(tp), where=cm.sum(axis=1) > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros_like(tp), where=pr > 0)
    return float(f1.mean())


def crossval_problems(confusions: dict, labels: np.ndarray) -> list:
    """Each summed confusion matrix accounts for every row once, by class;
    the forest's macro-F1 against the ground-truth labels is at least 0.99."""
    _, sizes = np.unique(labels, return_counts=True)
    out = []
    for kind, cm in confusions.items():
        if cm.sum() != labels.size or not np.array_equal(cm.sum(axis=1), sizes):
            out.append(f"{kind}: confusion matrix does not add up to the class sizes")
    if "rf" in confusions and macro_f1(confusions["rf"]) < MIN_RF_F1:
        out.append(f"rf: macro-F1 {macro_f1(confusions['rf']):.4f} < {MIN_RF_F1}")
    return out


def reply_outcome(meta: dict, reply: dict, roster: set) -> tuple:
    """(failed, problems) for one gate reply.

    A request fails when the service answers with an error, or, for a
    NaN threshold, when it grants: no vote share is at least NaN.  The
    decision rule and the workload's expectations are checked on every
    request that did not fail.
    """
    nan = meta["threshold"] is not None
    if not reply.get("ok"):
        return (not nan), []
    d = reply["decision"]
    problems = []
    if not 0.0 <= d["vote_share"] <= 1.0:
        problems.append(f"vote_share {d['vote_share']} outside [0, 1]")
    if d["frames_used"] != meta["frames"]:
        problems.append(f"frames_used {d['frames_used']}, sent {meta['frames']}")
    if nan:
        return d["decision"] == "Grant", problems
    grant = d["vote_share"] >= DEFAULT_THRESHOLD and d["user_id"] in roster
    if (d["decision"] == "Grant") != grant:
        problems.append(f"{d['decision']} at vote share {d['vote_share']} breaks the decision rule")
    if meta["kind"] == "genuine" and (d["decision"] != "Grant" or d["user_id"] != meta["user"]):
        problems.append(f"genuine user {meta['user']} got {d['decision']} as {d['user_id']}")
    if meta["kind"] == "mixed" and d["decision"] == "Grant":
        problems.append("a two-user window was granted")
    return False, problems
