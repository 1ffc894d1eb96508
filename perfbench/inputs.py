"""Seeded inputs for the three workloads, made by a separate, untimed step.

Run as ``python3 perfbench/inputs.py <workload> <seed> <out_dir> <size>``
with handpass importable (run.py sets PYTHONPATH to the checkout's src).
The same seed and size always give byte-identical inputs.  Every corpus
comes from ``handpass.synth``; the benchmark adds the parts synth cannot
make itself: stray and malformed packets in the ingest captures, and the
gate's pre-encoded request lines.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass

import numpy as np

from checks import USEFUL


@dataclass(frozen=True)
class Sizes:
    # ingest: 20 users x 5 sessions, sliced to D3 (1 s of each session)
    ingest_users: int = 20
    ingest_sessions: int = 5
    ingest_frames: int = 60
    ingest_rate: int = 10
    ingest_slice: str = "D3"
    dirty_every: int = 4            # every 4th capture gets stray/malformed records
    strays_per_dirty: int = 3
    malformed_per_dirty: int = 2
    # crossval: 20-user D1 slice, five models, 10 folds
    cv_users: int = 20
    cv_rate: int = 12
    cv_noise: float = 0.2
    cv_folds: int = 10
    # gate: enrolled users, never-enrolled impostors, 1 s windows
    gate_enrolled: int = 8
    gate_impostors: int = 2
    gate_rate: int = 50
    gate_session_frames: int = 100
    gate_noise: float = 0.3
    gate_windows_per_user: int = 2
    gate_connections: int = 2
    gate_setups: int = 3            # enroll, save, serve: ~3 s each
    setups: int = 5                 # a fresh interpreter's imports: ~0.3 s each


FULL = Sizes()
TINY = Sizes(
    ingest_users=2, ingest_frames=12, dirty_every=3,
    cv_users=3, cv_rate=10,
    gate_enrolled=3, gate_impostors=1, gate_rate=20, gate_windows_per_user=1,
    gate_setups=2, setups=2,
)
SIZES = {"full": FULL, "tiny": TINY}

# PCAP framing of a synth record: 16-byte record header, then
# Ethernet (14) + IPv4 (20) + UDP (8) + 18-byte CSI header + 1024 bytes.
_CSI_OFFSET = 16 + 14 + 20 + 8 + 18
_CSI_MAGIC = b"\x11\x11"
_CSI_PAYLOAD_LEN = 1042


def _records(blob: bytes):
    """Split a little-endian classic PCAP into (global header, records)."""
    pos, out = 24, []
    while pos < len(blob):
        incl = struct.unpack_from("<I", blob, pos + 8)[0]
        out.append(blob[pos:pos + 16 + incl])
        pos += 16 + incl
    return blob[:24], out


def _udp_record(payload: bytes, port: int) -> bytes:
    udp = struct.pack(">HHHH", port, port, 8 + len(payload), 0) + payload
    ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(udp), 0, 0, 64, 17, 0,
                     bytes((10, 0, 0, 2)), bytes((10, 0, 0, 255)))
    pkt = b"\xff" * 6 + b"\x02\x00\x00\x00\x00\xfe" + b"\x08\x00" + ip + udp
    return struct.pack("<IIII", 0, 0, len(pkt), len(pkt)) + pkt


def stray_record(rng) -> bytes:
    """A UDP packet that is not CSI: its payload does not start with the magic."""
    body = rng.integers(0, 256, size=int(rng.integers(20, 200)), dtype=np.uint8).tobytes()
    return _udp_record(b"\x00\x01" + body, 53)


def malformed_record(rng) -> bytes:
    """A magic-matching payload of the wrong length: the codec's bad_csi path."""
    n = int(rng.integers(100, _CSI_PAYLOAD_LEN - len(_CSI_MAGIC)))   # never 1042 in all
    body = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
    return _udp_record(_CSI_MAGIC + body, 5500)


def raw_csi(records) -> np.ndarray:
    """(n, 256, 2) int16 CSI of clean synth records, read at fixed offsets."""
    out = np.empty((len(records), 256, 2), dtype=np.int16)
    for i, rec in enumerate(records):
        if rec[_CSI_OFFSET - 18:_CSI_OFFSET - 16] != _CSI_MAGIC:
            raise ValueError("synth record without the CSI magic")
        out[i] = np.frombuffer(rec, dtype="<i2", count=512, offset=_CSI_OFFSET).reshape(256, 2)
    return out


def nudge_zero_samples(records, raw) -> int:
    """Move every (0, 0) sample on a useful subcarrier to (1, 0), in both the
    records and ``raw``; returns how many were moved.

    handpass gives a zero-amplitude subcarrier the phase 0 instead of its
    detrended residual, so such a frame would fail the feature check on
    some seeds only (a few frames in a million).  See README.md.
    """
    frame, hw = np.nonzero((raw[:, USEFUL % 256] == 0).all(axis=2))
    for i, j in zip(frame, USEFUL[hw] % 256):
        raw[i, j, 0] = 1
        rec = bytearray(records[i])
        struct.pack_into("<h", rec, _CSI_OFFSET + 4 * int(j), 1)
        records[i] = bytes(rec)
    return int(frame.size)


def make_ingest(seed: int, out: str, sz: Sizes) -> None:
    from handpass import synth

    cfg = synth.SynthConfig(
        users=sz.ingest_users, captures_per_user=sz.ingest_sessions,
        frames_per_capture=sz.ingest_frames, packets_per_second=sz.ingest_rate, seed=seed,
    )
    corpus = os.path.join(out, "corpus")
    manifest = synth.generate(cfg, corpus)
    rng = np.random.default_rng((seed, 1))
    raw, captures = [], []
    for i, entry in enumerate(manifest["captures"]):
        path = os.path.join(corpus, entry["path"])
        with open(path, "rb") as fh:
            header, recs = _records(fh.read())
        csi = raw_csi(recs)
        nudged = nudge_zero_samples(recs, csi)
        raw.append(csi)
        strays = malformed = 0
        if i % sz.dirty_every == 0:
            strays, malformed = sz.strays_per_dirty, sz.malformed_per_dirty
            extra = [stray_record(rng) for _ in range(strays)]
            extra += [malformed_record(rng) for _ in range(malformed)]
            for rec in extra:
                recs.insert(int(rng.integers(0, len(recs) + 1)), rec)
        if nudged or strays:
            with open(path, "wb") as fh:
                fh.write(header + b"".join(recs))
        captures.append({**entry, "strays": strays, "malformed": malformed,
                         "zero_samples_nudged": nudged})
    np.save(os.path.join(out, "raw_csi.npy"), np.stack(raw))
    _write_json(os.path.join(out, "inputs.json"), {
        "corpus": corpus, "captures": captures, "rate": sz.ingest_rate,
        "slice": sz.ingest_slice,
    })


def _slice_rows(corpus, manifest, slice_name, rate):
    from handpass import codec, dataset

    rows = []
    for entry in manifest["captures"]:
        cap = codec.read_capture(os.path.join(corpus, entry["path"]))
        meta = dataset.CaptureMeta(entry["capture_number"], entry["gender"],
                                   entry["hand"], entry["user_id"])
        rows.extend(dataset.build_rows(cap, meta)[0])
    return dataset.slice_dataset(rows, slice_name, rate).rows


def make_crossval(seed: int, out: str, sz: Sizes) -> None:
    from handpass import dataset, synth

    cfg = synth.SynthConfig(
        users=sz.cv_users, captures_per_user=1, frames_per_capture=sz.cv_rate,
        packets_per_second=sz.cv_rate, noise_sigma=sz.cv_noise, seed=seed,
    )
    corpus = os.path.join(out, "corpus")
    manifest = synth.generate(cfg, corpus)
    csv = os.path.join(out, "d1.csv")
    dataset.write_csv(_slice_rows(corpus, manifest, "D1", sz.cv_rate), csv)
    labels = [e["user_id"] for e in manifest["captures"] for _ in range(sz.cv_rate)]
    _write_json(os.path.join(out, "inputs.json"), {"csv": csv, "labels": labels,
                                                   "folds": sz.cv_folds})


def make_gate(seed: int, out: str, sz: Sizes) -> None:
    from handpass import codec, dataset, synth

    users = sz.gate_enrolled + sz.gate_impostors
    cfg = synth.SynthConfig(
        users=users, captures_per_user=2, frames_per_capture=sz.gate_session_frames,
        packets_per_second=sz.gate_rate, noise_sigma=sz.gate_noise, seed=seed,
    )
    corpus = os.path.join(out, "corpus")
    manifest = synth.generate(cfg, corpus)
    blocks, probes = {}, {}
    for entry in manifest["captures"]:
        uid = entry["user_id"]
        cap = codec.read_capture(os.path.join(corpus, entry["path"]))
        if entry["capture_number"] == 2:
            probes[uid] = [f.csi.tolist() for f in cap.frames]
        elif uid <= sz.gate_enrolled:
            meta = dataset.CaptureMeta(1, entry["gender"], entry["hand"], uid)
            blocks[f"u{uid}"] = np.stack([r.features for r in dataset.build_rows(cap, meta)[0]])
    np.savez(os.path.join(out, "enroll.npz"), **blocks)

    rate, half = sz.gate_rate, sz.gate_rate // 2
    rng = np.random.default_rng((seed, 2))
    a, b = (int(u) for u in rng.choice(np.arange(1, sz.gate_enrolled + 1), 2, replace=False))
    mixed = probes[a][:half] + probes[b][half:rate]
    reqs = []
    for w in range(sz.gate_windows_per_user):
        for uid in range(1, sz.gate_enrolled + 1):
            reqs.append(("genuine", uid, probes[uid][w * rate:(w + 1) * rate], None))
    for uid in range(sz.gate_enrolled + 1, users + 1):
        reqs.append(("impostor", uid, probes[uid][:rate], None))
    reqs.append(("mixed", a, mixed, None))
    reqs.append(("mixed_nan", a, mixed, math.nan))
    order = rng.permutation(len(reqs))
    meta, lines = [], []
    for i in order:
        kind, uid, frames, threshold = reqs[i]
        req = {"op": "authenticate", "frames": frames}
        if threshold is not None:
            req["threshold"] = threshold
        lines.append(json.dumps(req))
        meta.append({"kind": kind, "user": uid, "frames": len(frames),
                     "threshold": "NaN" if threshold is not None else None})
    with open(os.path.join(out, "requests.jsonl"), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_json(os.path.join(out, "inputs.json"), {
        "requests": meta, "enrolled": list(range(1, sz.gate_enrolled + 1)),
        "rate": rate, "mixed_pair": [a, b],
    })


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)


MAKERS = {"ingest": make_ingest, "crossval": make_crossval, "gate": make_gate}


if __name__ == "__main__":
    workload, seed, out, size = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    os.makedirs(out, exist_ok=True)
    MAKERS[workload](seed, out, SIZES[size])
    print(json.dumps(asdict(SIZES[size])))
