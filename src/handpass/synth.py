"""Seeded synthetic CSI capture generator.

Emulates the capture protocol end to end so the pipeline can be
verified against known ground truth: each user gets a stable spectral
amplitude signature (baseline + Gaussian bumps) and a nonlinear phase
signature; each frame perturbs them with a random linear phase ramp and
offset (what phase sanitization must remove), a random gain (what
amplitude normalization must remove), and complex Gaussian noise.  This
is a software-verification stand-in, not a physical channel model.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .codec import CSI_MAGIC, HEADER_DTYPE, CaptureFile, write_capture
from .dataset import _MAX_CAPTURE, _MAX_USER_ID, CaptureMeta
from .dsp import fft_shift
from .errors import _check_amount, _check_count, _check_header

MANIFEST_FORMAT = "handpass-synth-manifest"
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"

_CHANSPEC = 0xE22A
_LOGICAL_K = np.arange(-128, 128, dtype=np.float64)
_BLOCK = 4096  # frames whose samples are computed at once, bounding the temporaries
# A bound on |g| for numpy's ziggurat standard normal: its tail draw is
# r + log(1/u) / r with r = 3.654 and u >= 2**-53, below 13.71; 16 leaves margin.
_GAUSS_BOUND = 16.0


@dataclass(frozen=True)
class SynthConfig:
    users: int = 20
    captures_per_user: int = 5
    frames_per_capture: int = 5500
    packets_per_second: int = 1000
    noise_sigma: float = 0.5
    bump_count: int = 4
    ramp_range: float = 0.05       # max |phase slope| in rad/subcarrier
    offset_range: float = np.pi    # max |phase offset| in rad
    gain_jitter: float = 0.2       # per-frame gain in 1 +/- gain_jitter
    quant_scale: float = 1000.0    # int16 quantization headroom
    seed: int = 42

    def __post_init__(self):
        """Refuse, with ValueError, a count that is not an integer >= 1, more
        users or captures per user than the dataset layout numbers, a
        seed that is not an integer >= 0, an amount that is not a finite
        number >= 0, a range r whose draw span 2 r is not finite, a
        ramp_range and offset_range whose largest phase is not finite and
        amounts whose largest sample magnitude is not finite; bools are
        neither integers nor numbers."""
        for name, least in (("users", 1), ("captures_per_user", 1),
                            ("frames_per_capture", 1), ("packets_per_second", 1),
                            ("bump_count", 1), ("seed", 0)):
            # stored as an int: the manifest echoes it, and numpy numbers are not JSON
            object.__setattr__(self, name, _check_count(name, getattr(self, name), least))
        for name, most, what in (("users", _MAX_USER_ID, "user ids"),
                                 ("captures_per_user", _MAX_CAPTURE, "capture numbers")):
            if getattr(self, name) > most:
                raise ValueError(f"{name} {getattr(self, name)} is more than the {most}"
                                 f" {what} of the dataset layout")
        for name in ("noise_sigma", "ramp_range", "offset_range",
                     "gain_jitter", "quant_scale"):
            object.__setattr__(self, name, _check_amount(name, getattr(self, name)))
        for name in ("ramp_range", "offset_range", "gain_jitter"):  # uniform(-r, r)
            if not math.isfinite(2 * getattr(self, name)):
                raise ValueError(f"{name} {getattr(self, name)!r} is too large:"
                                 f" the span 2 * {name} is not finite")
        # The largest |phase| _samples forms, summed in its order: the user's
        # (bump_count bumps, each below 1.5), the ramp at |k| = 128, the offset.
        # An infinite phase makes NaN samples, which no int16 cast can hold.
        bumps = 1.5 * min(self.bump_count, sys.float_info.max)  # no int overflows it
        if not math.isfinite(bumps + 128 * self.ramp_range + self.offset_range):
            raise ValueError(f"ramp_range {self.ramp_range!r} and offset_range"
                             f" {self.offset_range!r} are too large: the largest phase,"
                             " 1.5 * bump_count + 128 * ramp_range + offset_range,"
                             " is not finite")
        # The largest |sample| _samples forms, summed in its order: the gain
        # times the user's amplitude (baseline below 1.25, bumps each below
        # 1.5), plus the complex noise, all scaled to int16 by quant_scale.
        top = self.quant_scale * ((1.0 + self.gain_jitter) * (1.25 + bumps)
                                  + math.sqrt(2.0) * _GAUSS_BOUND * self.noise_sigma)
        if not math.isfinite(top):
            raise ValueError(f"gain_jitter {self.gain_jitter!r}, noise_sigma"
                             f" {self.noise_sigma!r} and quant_scale {self.quant_scale!r}"
                             " are too large: the largest sample, quant_scale * ((1 +"
                             " gain_jitter) * (1.25 + 1.5 * bump_count) + sqrt(2) *"
                             f" {_GAUSS_BOUND:g} * noise_sigma), is not finite")


def _user_gender(user_id: int) -> str:
    # alternate so any prefix of users stays near gender-balanced
    return "M" if user_id % 2 == 1 else "F"


def _user_signature(cfg: SynthConfig, user_id: int):
    """Per-user amplitude curve A(k) > 0 and nonlinear phase curve (rad).

    Both signatures are narrow Gaussian bumps on a shared smooth
    baseline, so the identifying information is concentrated in a few
    subcarriers rather than spread over the whole band.
    """
    rng = np.random.default_rng((cfg.seed, user_id, 0))
    cycles = rng.uniform(1.0, 3.0)
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    amp = 1.0 + 0.25 * np.cos(2.0 * np.pi * cycles * (_LOGICAL_K + 128) / 256.0 + phase0)
    for _ in range(cfg.bump_count):
        center = rng.uniform(-120.0, 120.0)
        width = rng.uniform(2.0, 8.0)
        height = rng.uniform(0.5, 1.5)
        amp = amp + height * np.exp(-((_LOGICAL_K - center) ** 2) / (2.0 * width**2))
    phase = np.zeros(256)
    for _ in range(cfg.bump_count):
        center = rng.uniform(-120.0, 120.0)
        width = rng.uniform(2.0, 8.0)
        height = rng.uniform(0.5, 1.5) * rng.choice((-1.0, 1.0))
        phase = phase + height * np.exp(-((_LOGICAL_K - center) ** 2) / (2.0 * width**2))
    return amp, phase


def _samples(cfg: SynthConfig, amp_u, phase_u, rng, n: int) -> np.ndarray:
    """The (n, 256, 2) int16 samples of the next n frames of a capture."""
    draws = np.empty((n, 3))
    gauss = np.empty((n, 2, 256))
    for t in range(n):  # each frame's draws, in the order that fixes the bytes
        draws[t] = (rng.uniform(-cfg.ramp_range, cfg.ramp_range),
                    rng.uniform(-cfg.offset_range, cfg.offset_range),
                    rng.uniform(-cfg.gain_jitter, cfg.gain_jitter))
        gauss[t] = rng.standard_normal((2, 256))
    ramp, offset, jitter = draws.T[:, :, None]
    noise = cfg.noise_sigma * (gauss[:, 0] + 1j * gauss[:, 1])
    z = (1.0 + jitter) * amp_u * np.exp(1j * (phase_u + ramp * _LOGICAL_K + offset)) + noise
    z = cfg.quant_scale * fft_shift(z)  # logical -> hardware order
    return np.clip(np.rint(np.stack([z.real, z.imag], axis=-1)), -32768, 32767).astype(np.int16)


def _capture(cfg: SynthConfig, user_id: int, capture_number: int) -> CaptureFile:
    amp_u, phase_u = _user_signature(cfg, user_id)
    rng = np.random.default_rng((cfg.seed, user_id, capture_number))
    n = cfg.frames_per_capture
    csi = np.concatenate([_samples(cfg, amp_u, phase_u, rng, min(_BLOCK, n - lo))
                          for lo in range(0, n, _BLOCK)])
    t = np.arange(n)
    headers = np.zeros(n, dtype=HEADER_DTYPE)
    headers[["magic", "rssi", "frame_control", "source_mac", "chanspec"]] = (
        CSI_MAGIC, -40, 0x80, bytes((0x02, 0x00, 0x00, 0x00, 0x00, user_id & 0xFF)), _CHANSPEC)
    headers["sequence_number"] = t & 0xFFFF
    micros = t * (1_000_000 // cfg.packets_per_second)
    return CaptureFile(csi=csi, headers=headers, ts_sec=micros // 1_000_000,
                       ts_usec=micros % 1_000_000, link_type=1)


def generate(cfg: SynthConfig, out_dir) -> dict:
    """Write every capture file plus manifest.json; returns the manifest.

    Captures are independent per (user, capture) random substream, so
    regeneration with the same config is byte-identical file by file.
    """
    os.makedirs(out_dir, exist_ok=True)
    captures = []
    for user_id in range(1, cfg.users + 1):
        for cap in range(1, cfg.captures_per_user + 1):
            rel = os.path.join(f"user_{user_id:02d}", "Right", f"capture_{cap}.pcap")
            path = os.path.join(out_dir, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_capture(_capture(cfg, user_id, cap), path)
            captures.append(
                {
                    "path": rel,
                    "user_id": user_id,
                    "gender": _user_gender(user_id),
                    "hand": "Right",
                    "capture_number": cap,
                    "frames": cfg.frames_per_capture,
                }
            )
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "config": asdict(cfg),
        "captures": captures,
    }
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


_META_FIELDS = tuple(f.name for f in fields(CaptureMeta))


def load_manifest(path) -> dict:
    """The manifest at path.  Refuse, with ValueError, a document that is
    not a manifest of this format and version, whose config SynthConfig
    refuses, or with a capture entry that lacks a string path or a
    CaptureMeta field, whose path leaves the manifest's directory (by
    name: symlinks are not resolved), or that holds a value CaptureMeta
    refuses."""
    with open(path, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    _check_header(manifest, MANIFEST_FORMAT, MANIFEST_VERSION, "manifest")
    config = manifest.get("config")
    if not isinstance(config, dict):
        raise ValueError("config is not an object")
    try:
        SynthConfig(**config)
    except (TypeError, ValueError) as exc:  # a key it does not take, or a value it refuses
        raise ValueError(f"config: {exc}") from exc
    captures = manifest.get("captures")
    if not isinstance(captures, list):
        raise ValueError("captures is not a list")
    for i, entry in enumerate(captures):
        if not isinstance(entry, dict):
            raise ValueError(f"capture {i} is not an object")
        missing = [key for key in ("path", *_META_FIELDS) if key not in entry]
        if missing:
            raise ValueError(f"capture {i} lacks {missing}")
        rel = entry["path"]
        if not isinstance(rel, str):
            raise ValueError(f"capture {i}: path {rel!r} is not a string")
        if os.path.isabs(rel) or os.path.normpath(rel).split(os.sep)[0] == os.pardir:
            raise ValueError(f"capture {i}: path {rel!r} is not inside the manifest's directory")
        try:
            CaptureMeta(**{name: entry[name] for name in _META_FIELDS})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"capture {i}: {exc}") from exc
    return manifest
