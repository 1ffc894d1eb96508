"""Access control on top of the trained pipeline.

Enrollment fits a scaler and a classifier over per-user feature rows and
keeps them, with the roster and the packet rate, in a store.
Authentication pushes a window of raw frames through the pipeline's one
preprocessing (``dataset``'s mask and sanitizer) and the stored scaler
and model, takes the modal per-frame prediction, and grants only
when the modal share clears the vote threshold and the user holds the
required permission.  Every decision can be appended to a JSON-lines
audit log; a small TCP service exposes the same operation.
"""

from __future__ import annotations

import json
import math
import numbers
import re
import socketserver
import threading
import time
from array import array
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .codec import N_SUBCARRIERS
from .dataset import _LAYOUTS, _MASK, _SANITIZER, features
from .dsp import FittedScaler, fit_scaler
from .errors import (
    BadPolicy,
    BadRequest,
    DegenerateLabels,
    HandpassError,
    TooFewFrames,
    WindowTooShort,
    ZeroSignal,
    _check_amount,
    _check_count,
    _check_header,
)
from .learners import HyperParams, model_from_doc, model_to_doc, predict, train
from .learners.persist import arrays_hook

STORE_FORMAT = "handpass-store"
STORE_VERSION = 1
MIN_ENROLL_USERS = 2
MIN_ENROLL_FRAMES = 100
DEFAULT_THRESHOLD = 0.6
DEFAULT_WINDOW_SECONDS = 1.0
DEFAULT_PERMISSION = "enter"
# The longest request the service reads: 10 s of frames at the paper's
# 1000 pkt/s, each frame at its widest ``json.dumps`` encoding (every
# sample -32768, plus the ", " before the next frame), and 64 KiB for
# the other fields.  A longer line is refused and its connection closed.
MAX_REQUEST_FRAMES = 10_000
MAX_REQUEST_BYTES = (
    MAX_REQUEST_FRAMES * (len(json.dumps([[-32768, -32768]] * N_SUBCARRIERS)) + 2) + 65536
)


@dataclass
class EnrollmentStore:
    """What enrollment learned; the preprocessing is the pipeline's own."""

    model: object
    scaler: FittedScaler
    roster: dict                    # user_id -> set of permission strings
    packets_per_second: int
    created_at: str = ""

    def __post_init__(self):
        self.packets_per_second = _check_count("packets_per_second", self.packets_per_second, 1)
        _check_amount("packets_per_second", self.packets_per_second, 1)  # one a float holds
        for perms in self.roster.values():
            if not isinstance(perms, (set, frozenset)) or set(map(type, perms)) - {str}:
                raise ValueError(f"roster permissions {perms!r} are not a set of strings")
        if not set(self.roster) <= set(int(c) for c in self.model.classes):
            raise ValueError("roster contains users the model was not trained on")
        a, b = len(self.scaler.a), len(self.scaler.b)
        model = self.model.n_features
        if model not in _LAYOUTS or not a == b == model:
            raise ValueError(f"store widths disagree: scaler {a}/{b}, model {model},"
                             f" feature layout {' or '.join(map(str, _LAYOUTS))}")

    @property
    def prune(self) -> bool:
        return _LAYOUTS[self.model.n_features]


@dataclass
class AuthDecision:
    user_id: int | None
    vote_share: float
    frames_used: int
    window_seconds: float
    decision: str                   # "Grant" | "Deny"
    reason: str


def enroll(
    rows_by_user: dict,
    hyper: HyperParams | None = None,
    seed: int = 0,
    kind: str = "rf",
    scaler_kind: str = "minmax",
    packets_per_second: int = 1000,
) -> EnrollmentStore:
    """Fit scaler + classifier on per-user feature rows and build a store.

    rows_by_user maps user_id -> (n_u, d) feature block from
    ``dataset.build_rows``: 468 wide pruned or 512 wide (the store refuses
    other widths).  The store lets every user ``enter``.
    """
    if len(rows_by_user) < MIN_ENROLL_USERS:
        raise DegenerateLabels(
            f"enrollment needs at least {MIN_ENROLL_USERS} users, got {len(rows_by_user)}"
        )
    blocks = {uid: np.asarray(rows, dtype=np.float64) for uid, rows in rows_by_user.items()}
    for uid, rows in blocks.items():
        if rows.shape[0] < MIN_ENROLL_FRAMES:
            raise TooFewFrames(
                f"user {uid} has {rows.shape[0]} frames, fewer than {MIN_ENROLL_FRAMES}"
            )
    users = sorted(blocks)
    X = np.vstack([blocks[u] for u in users])
    y = np.repeat(np.asarray(users, dtype=np.int64), [len(blocks[u]) for u in users])
    scaler = fit_scaler(scaler_kind, X)
    model = train(kind, scaler.transform(X), y, hyper, seed)
    return EnrollmentStore(
        model=model,
        scaler=scaler,
        roster={u: {DEFAULT_PERMISSION} for u in users},
        packets_per_second=packets_per_second,
        created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


def authenticate(
    store: EnrollmentStore,
    csi: np.ndarray,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    threshold: float = DEFAULT_THRESHOLD,
    permission: str = DEFAULT_PERMISSION,
    log: "AuditLog | None" = None,
) -> AuthDecision:
    """Decide one access attempt from a window of raw frames.

    csi is the window as an (n, 256, 2) int16 block in hardware order
    (``CaptureFile.csi``, or inline frames decoded by the service).  The
    window must span window_seconds at the store's packet rate, and so
    must its distinct frames: a frame sent more than once counts once, at
    its first copy, and frames that fail preprocessing (all-zero) are
    dropped.  The modal prediction over the rest must reach the
    vote-share threshold and be enrolled with the required permission.

    A threshold or window that no finite float holds, a threshold below
    0, a window <= 0 or one whose frame count at the store's rate is not
    finite raises BadPolicy: NaN compares false against every share and
    would grant anything.  A finite threshold above 1 is kept; no share
    reaches it, so it denies every window.  A value that is not a
    number, a bool (JSON true or false) included, raises TypeError,
    which the service answers with bad-request.
    """
    for name, value in (("threshold", threshold), ("window_seconds", window_seconds)):
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise TypeError(f"{name} {value!r} is not a number")
    try:
        _check_amount("threshold", threshold)
        frames = _check_amount("window_seconds", window_seconds, above=True) \
            * store.packets_per_second
    except ValueError as exc:
        raise BadPolicy(str(exc)) from None
    if frames == math.inf:  # a float product that overflowed; ceil(inf) raises
        raise BadPolicy(f"window_seconds {window_seconds!r} at {store.packets_per_second}"
                        " pkt/s is not a finite frame count")
    need = math.ceil(frames)
    if len(csi) < need:
        raise WindowTooShort(
            f"{len(csi)} frames span less than {window_seconds} s"
            f" at {store.packets_per_second} pkt/s (need {need})"
        )
    flat = np.ascontiguousarray(csi).reshape(len(csi), -1)
    # each frame's bytes as one item, which sorts far faster than np.unique(axis=0)
    _, first = np.unique(flat.view((np.void, flat.shape[1] * flat.itemsize)),
                         return_index=True)
    X, _ = features(csi[np.sort(first)], _MASK, _SANITIZER, store.prune)
    used = X.shape[0]
    if not used:
        raise ZeroSignal("every frame in the window was degenerate")
    if used < need:
        raise WindowTooShort(
            f"{used} distinct non-zero frames span less than {window_seconds} s"
            f" at {store.packets_per_second} pkt/s (need {need})"
        )
    preds = predict(store.model, store.scaler.transform(X))
    values, counts = np.unique(preds, return_counts=True)
    top = int(np.argmax(counts))  # ties resolve to the lowest label
    user = int(values[top])
    share = float(counts[top] / used)

    if share < threshold:
        verdict, reason = "Deny", "below threshold"
    elif user not in store.roster:
        verdict, reason = "Deny", "not enrolled"
    elif permission not in store.roster[user]:
        verdict, reason = "Deny", "missing permission"
    else:
        verdict, reason = "Grant", "ok"
    decision = AuthDecision(
        user_id=user,
        vote_share=share,
        frames_used=used,
        window_seconds=used / store.packets_per_second,
        decision=verdict,
        reason=reason,
    )
    if log is not None:
        log.append(decision)
    return decision


class AuditLog:
    """Append-only JSON-lines decision log with monotonic timestamps."""

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()
        self._last_ts = 0.0

    def append(self, decision: AuthDecision) -> None:
        with self._lock:
            ts = max(time.time(), math.nextafter(self._last_ts, math.inf))
            self._last_ts = ts
            record = {"ts": ts, **asdict(decision)}
            with open(self.path, "a", encoding="ascii") as fh:
                fh.write(json.dumps(record) + "\n")
                fh.flush()


def _scaler_to_doc(s: FittedScaler) -> dict:
    return {"kind": s.kind, "a": s.a.tolist(), "b": s.b.tolist()}


def save_store(store: EnrollmentStore, path) -> None:
    doc = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "created_at": store.created_at,
        "model": model_to_doc(store.model),
        "scaler": _scaler_to_doc(store.scaler),
        "mask": {"null": sorted(_MASK.null_indices), "pilot": sorted(_MASK.pilot_indices)},
        "sanitizer": {"lam": _SANITIZER.lam, "unwrap": True},
        "roster": {str(u): sorted(perms) for u, perms in store.roster.items()},
        "packets_per_second": store.packets_per_second,
        "prune": store.prune,
    }
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(doc))  # the C encoder; json.dump runs the Python one


def load_store(path) -> EnrollmentStore:
    """Read a store document; one that is malformed, inconsistent with
    itself or not made with the pipeline's preprocessing raises
    ValueError here rather than at the first request."""
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh, object_hook=arrays_hook)  # a forest's lists one tree at a time
    _check_header(doc, STORE_FORMAT, STORE_VERSION, "store")
    try:
        store = EnrollmentStore(
            model=model_from_doc(doc["model"]),
            scaler=FittedScaler(**doc["scaler"]),
            # a list becomes a set; anything else is left for the store to refuse
            roster={int(u): set(perms) if type(perms) is list else perms
                    for u, perms in doc["roster"].items()},
            packets_per_second=doc["packets_per_second"],
            created_at=doc.get("created_at", ""),
        )
        mask, sanitizer = doc["mask"], doc["sanitizer"]  # as save_store writes them
        if (set(mask["null"]) != _MASK.null_indices or set(mask["pilot"]) != _MASK.pilot_indices
                or sanitizer["lam"] != _SANITIZER.lam or sanitizer["unwrap"] is not True
                or doc["prune"] is not store.prune):  # `is`: JSON 1 is not true
            raise ValueError("store mask, sanitizer or prune is not the pipeline's")
        return store
    except KeyError as exc:
        raise ValueError(f"store document lacks {exc}") from exc
    except (TypeError, AttributeError) as exc:  # a field of the wrong type
        raise ValueError(f"malformed store document: {exc}") from exc


def _error_reply(exc: Exception) -> dict:
    """The in-band reply to a refused request.  A domain error's code is
    its class name (WindowTooShort -> "window-too-short"); any other
    exception is the client's malformed input, "bad-request"."""
    if not isinstance(exc, HandpassError):
        exc = BadRequest(str(exc))
    code = re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()
    return {"ok": False, "error": {"code": code, "message": str(exc)}}


class AuthServer(socketserver.ThreadingTCPServer):
    """Line-delimited JSON request/response service around authenticate.

    Requests: {"op": "authenticate", "frames": [[re, im] x 256, ...]},
    plus optional window_seconds / threshold / permission; a request that
    names a capture file is refused.  Errors come back in-band as
    {"ok": false, "error": {...}}; the connection survives, except after
    a line longer than MAX_REQUEST_BYTES, whose rest is never read.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, endpoint, store: EnrollmentStore, log: AuditLog | None = None):
        self.store = store
        self.log = log
        super().__init__(endpoint, _AuthHandler)


class _AuthHandler(socketserver.StreamRequestHandler):
    # A 50-frame line of about 172 KB takes 3 reads of 64 KiB, not 22 of the default 8 KiB
    rbufsize = 1 << 16
    # A client that sends nothing, or reads no reply, for a minute is dropped
    timeout = 60

    def handle(self):
        try:
            while raw := self.rfile.readline(MAX_REQUEST_BYTES):
                if len(raw) == MAX_REQUEST_BYTES and not raw.endswith(b"\n"):
                    # the rest of the line is never read, so the connection ends
                    self._send(_error_reply(
                        BadRequest(f"request line exceeds {MAX_REQUEST_BYTES} bytes")))
                    return
                self._send(self._answer(raw))
        except TimeoutError:  # the connection closes quietly
            pass

    def _send(self, reply: dict) -> None:
        self.wfile.write((json.dumps(reply) + "\n").encode("ascii"))
        self.wfile.flush()

    def _answer(self, raw: bytes) -> dict:
        try:
            return self._one_request(raw)
        except Exception as exc:  # malformed input must never kill the server
            return _error_reply(exc)

    def _one_request(self, raw: bytes) -> dict:
        req, csi = _read_request(raw)
        if not isinstance(req, dict) or req.get("op") != "authenticate":
            raise BadRequest("expected op=authenticate")
        if "capture" in req or "frames" not in req:
            raise BadRequest("need inline frames; no capture file is read")
        decision = authenticate(
            self.server.store,
            _inline_csi(req["frames"]) if csi is None else csi,
            window_seconds=req.get("window_seconds", DEFAULT_WINDOW_SECONDS),
            threshold=req.get("threshold", DEFAULT_THRESHOLD),
            permission=req.get("permission", DEFAULT_PERMISSION),
            log=self.server.log,
        )
        return {"ok": True, "decision": asdict(decision)}


def _read_request(raw: bytes) -> tuple:
    """Decode one request line into its JSON value and, when its frames
    took the fast path, their (n, 256, 2) int16 block.  Any other line
    is parsed whole by ``json.loads`` and comes back with block None:
    its frames, if any, are still the JSON value for ``_inline_csi``."""
    fast = _canonical_frames(raw)
    if fast is not None:
        return fast
    return json.loads(raw.decode("utf-8")), None


def _lists_of(items, length: int) -> bool:
    """Whether every item is a list of ``length`` elements."""
    return set(map(type, items)) <= {list} and set(map(len, items)) <= {length}


def _inline_csi(frames) -> np.ndarray:
    """Check the inline ``frames`` of a request and convert them as one
    (n, 256, 2) int16 block.

    Every frame must be a list of 256 [re, im] lists and every sample an
    int in the int16 range.  The checks map over whole levels of the
    request in C, with no Python loop per sample.  ``type(v) is int``
    refuses the int subclass bool (JSON true/false) as well as floats,
    strings and null.
    """
    pairs = samples = None
    if type(frames) is list and _lists_of(frames, N_SUBCARRIERS):
        pairs = list(chain.from_iterable(frames))
    if pairs is not None and _lists_of(pairs, 2):
        samples = list(chain.from_iterable(pairs))
    if samples is None or set(map(type, samples)) - {int}:
        raise ValueError(f"inline frames must be lists of {N_SUBCARRIERS} [re, im] pairs"
                         " of integers")
    try:
        samples = array("h", samples)  # C short: refuses values outside int16
    except OverflowError as exc:
        raise ValueError("inline frame values exceed int16 range") from exc
    return np.frombuffer(samples, dtype=np.short).reshape(-1, N_SUBCARRIERS, 2)


# The fast path's grammar for a ``frames`` value: frames of 256 [re, im]
# pairs, samples of the form -?(0|[1-9][0-9]*), JSON whitespace between
# any two tokens.  _FRAME is one frame with the samples and whitespace
# taken out.
_FRAMES_KEY = re.compile(rb'"frames"[ \t\n\r]*:[ \t\n\r]*\[')
_WHITESPACE = b" \t\n\r"
_FRAME = b"[" + b",".join([b"[,]"] * N_SUBCARRIERS) + b"]"
_OPEN, _COMMA, _CLOSE, _MINUS, _ZERO = b"[,]-0"
_PLACEHOLDER = object()
_CONSTANTS = {"NaN": math.nan, "-Infinity": -math.inf, "Infinity": _PLACEHOLDER}.__getitem__


def _canonical_frames(raw: bytes) -> tuple | None:
    """The fast path of ``_read_request``: the line's JSON value, with the
    int16 block of its ``frames`` array parsed straight from the bytes.

    The array is located after the first ``"frames":`` key and checked
    with C-level byte operations and numpy comparisons: its brackets and
    commas must be those of n frames of 256 pairs, every pair slot must
    hold one JSON integer of at most five digits (a leading minus, no
    leading zero, no whitespace inside it) and nothing else may sit
    between brackets.  ``np.fromstring`` then parses the integers, which
    must fit int16.  The rest of the line, with the array replaced by the
    only ``Infinity`` in it, goes through ``json.loads``, which decodes
    that literal to a private placeholder (not inf: ``1e999`` decodes to
    inf too).  The array is the request's frames exactly when the
    top-level ``"frames"`` is that placeholder.  That refuses a duplicate
    key (json.loads keeps the last), a nested or escaped ``frames`` key
    and an array inside a string.  Every refusal returns None and leaves
    the line to the general path, so the replies never differ.
    """
    key = _FRAMES_KEY.search(raw)
    if key is None:
        return None
    lo = key.end() - 1
    # the array holds no quote or brace; it ends at the last "]" before one
    stop = min((i for i in (raw.find(b'"', lo), raw.find(b"}", lo)) if i >= 0),
               default=len(raw))
    hi = raw.rfind(b"]", lo, stop) + 1
    span = raw[lo:hi]
    packed = span.translate(None, _WHITESPACE)
    skeleton = packed.translate(None, b"-0123456789")
    n, odd = divmod(len(skeleton) - 1, len(_FRAME) + 1)
    if odd or not n or skeleton != b"[" + b",".join([_FRAME] * n) + b"]":
        return None
    t = np.frombuffer(packed, np.uint8)
    digit = (t - ord("0")) < 10
    number = digit | (t == _MINUS)
    x, y = t[:-1], t[1:]
    bad = ((x == _OPEN) & (y == _COMMA)) | ((x == _COMMA) & (y == _CLOSE))  # empty slot
    bad |= (number[:-1] & (y == _OPEN)) | ((x == _CLOSE) & number[1:])     # outside a pair
    bad |= ((y == _MINUS) & number[:-1]) | ((x == _MINUS) & ~digit[1:])     # stray minus
    bad[1:] |= (t[1:-1] == _ZERO) & ~digit[:-2] & digit[2:]                # leading zero
    six = digit[5:] & digit[4:-1] & digit[3:-2] & digit[2:-3] & digit[1:-4] & digit[:-5]
    if bad.any() or six.any():
        return None
    # each slot holds one run of number bytes; whitespace inside a number
    # would split it into more runs than slots in the unpacked span
    spread = np.frombuffer(span, np.uint8)
    in_number = (spread == _MINUS) | ((spread - ord("0")) < 10)
    if np.count_nonzero(in_number[1:] > in_number[:-1]) != 2 * N_SUBCARRIERS * n:
        return None
    try:
        values = np.fromstring(packed.translate(None, b"[]"), dtype=np.int64, sep=",")
    except ValueError:
        return None
    if values.size != 2 * N_SUBCARRIERS * n or values.min() < -32768 or values.max() > 32767:
        return None
    rest = raw[:lo] + b"Infinity" + raw[hi:]
    if rest.count(b"Infinity") != 1:
        return None
    try:
        req = json.loads(rest.decode("utf-8"), parse_constant=_CONSTANTS)
    except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError too
        return None
    if type(req) is not dict or req.get("frames") is not _PLACEHOLDER:
        return None
    return req, values.astype(np.int16).reshape(n, N_SUBCARRIERS, 2)
