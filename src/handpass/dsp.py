"""Frequency-domain preprocessing for CSI frames.

Turns blocks of raw hardware-order subcarrier samples, one frame per
row, into sanitized amplitude and phase rows: FFT shift into logical
order, per-frame amplitude normalization, ridge-regularized linear phase
detrending over the unwrapped useful subcarriers, and the three
dataset-level feature scalers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .codec import N_SUBCARRIERS
from .errors import (DimensionMismatch, EmptyMatrix, NonFiniteFeature, OddLength,
                     _check_amount, _check_member)

LOGICAL_INDICES = np.arange(-128, 128)

# Subcarriers that carry no channel information at 80 MHz: guard/DC bins
# and fixed reference tones.  The remaining 234 are the useful set.
NULL_SUBCARRIERS = frozenset(
    (-128, -127, -126, -125, -124, -123, -1, 0, 1, 123, 124, 125, 126, 127)
)
PILOT_SUBCARRIERS = frozenset((-103, -75, -39, -11, 11, 39, 75, 103))


@dataclass(frozen=True)
class SubcarrierMask:
    """The 256 logical subcarrier indices split into the null and pilot
    constants above and the 234 useful bins; it takes no arguments."""

    null_indices: frozenset = field(default=NULL_SUBCARRIERS, init=False)
    pilot_indices: frozenset = field(default=PILOT_SUBCARRIERS, init=False)
    useful: tuple = field(default=tuple(
        sorted(set(range(-128, 128)) - NULL_SUBCARRIERS - PILOT_SUBCARRIERS)), init=False)

    @cached_property
    def useful_positions(self) -> np.ndarray:
        """Array positions (0-based) of the useful subcarriers, computed
        once per mask (read-only)."""
        pos = np.asarray(self.useful) + 128
        pos.flags.writeable = False
        return pos

    @cached_property
    def _ridge(self) -> tuple:
        """k (the useful indices as float64), k.k and sum(k): the mask's
        share of the detrend's normal equations, computed once per mask."""
        k = np.asarray(self.useful, dtype=np.float64)
        return k, float(np.dot(k, k)), float(k.sum())


@dataclass(frozen=True)
class SanitizerConfig:
    """Phase sanitization setting: the ridge weight."""

    lam: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_amount("lam", self.lam))


def fft_shift(values) -> np.ndarray:
    """Rotate the last axis by half its length: out[i] = in[(i + n/2) mod n].

    Maps hardware subcarrier order to logical order -n/2 .. n/2-1 and is
    its own inverse for even n.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    if n % 2 != 0:
        raise OddLength(f"fft_shift needs an even length, got {n}")
    half = n // 2
    return np.concatenate([values[..., half:], values[..., :half]], axis=-1)


def to_cfr(csi) -> np.ndarray:
    """Promote (n, 256, 2) int16 hardware-order samples to an (n, 256)
    complex CFR block in logical order (position i is subcarrier i - 128)."""
    csi = np.asarray(csi)
    if csi.ndim != 3 or csi.shape[1:] != (N_SUBCARRIERS, 2):
        raise ValueError(f"expected (n, {N_SUBCARRIERS}, 2) samples, got {csi.shape}")
    # Both halves land straight in one float64 (re, im) block that is
    # viewed as complex: the same values as x + 1j*y for integer samples.
    half = N_SUBCARRIERS // 2
    out = np.empty(csi.shape, dtype=np.float64)
    out[:, :half] = csi[:, half:]
    out[:, half:] = csi[:, :half]
    return out.view(np.complex128)[..., 0]


def normalize_cfr(cfr: np.ndarray) -> tuple:
    """Divide every row by its mean amplitude over all 256 bins.

    Removes per-frame gain (AGC and transmit-power variation); each
    resulting row has mean amplitude 1 and its phases are untouched.
    Returns (normalized rows, kept): rows whose mean amplitude is 0
    (all-zero frames) cannot be normalized and are left out, and the
    boolean ``kept`` marks the input rows that remain.
    """
    mean_amp = np.abs(cfr).mean(axis=1)
    kept = mean_amp > 0.0
    if kept.all():                  # the same division, without a masked copy
        return cfr / mean_amp[:, None], kept
    return cfr[kept] / mean_amp[kept, None], kept


def _unwrap(phi: np.ndarray) -> np.ndarray:
    """np.unwrap(phi, axis=1), bit for bit, in place.

    numpy's correction of a step d is mod(d + pi, 2 pi) - pi - d, and it is
    exactly 0 wherever |d| < pi; here that arithmetic runs only on the
    other steps (a NaN step among them, as in numpy), and the same
    cumulative sum of the same correction array is added.
    """
    d = np.diff(phi, axis=1)
    jump = ~(np.abs(d) < math.pi)
    dj = d[jump]
    ddmod = np.mod(dj - (-math.pi), 2 * math.pi) + (-math.pi)
    np.copyto(ddmod, math.pi, where=(ddmod == -math.pi) & (dj > 0))
    correct = np.zeros_like(d)
    correct[jump] = ddmod - dj
    phi[:, 1:] = phi[:, 1:] + correct.cumsum(axis=1)
    return phi


def sanitize_phase(
    cfr: np.ndarray,
    cfg: SanitizerConfig | None = None,
    mask: SubcarrierMask | None = None,
) -> np.ndarray:
    """Remove each row's linear phase trend (sampling/clock offsets).

    Phases are unwrapped across the ascending useful subcarriers, a line
    a*k + b is fitted to them by ridge-regularized least squares
    (penalty lam * (a^2 + b^2)), and the fitted trend is subtracted from
    every phase.  cfr holds all 256 logical subcarriers, or only the
    mask's useful ones in ascending order (the pruned layout); the
    returned residual phases, in radians, have the same columns.
    Amplitudes are not part of this stage.
    """
    if cfg is None:
        cfg = SanitizerConfig()
    if mask is None:
        mask = SubcarrierMask()
    k, kk, k_sum = mask._ridge
    if cfr.shape[1] not in (N_SUBCARRIERS, k.size):
        raise ValueError(f"expected {N_SUBCARRIERS} or {k.size} columns, got {cfr.shape[1]}")
    pruned = cfr.shape[1] == k.size

    phase = np.angle(cfr)
    # Strided rows round the dot product differently; contiguous rows give
    # the same sums as a per-frame np.dot and .sum().
    phi = _unwrap(np.ascontiguousarray(phase if pruned else phase[:, mask.useful_positions]))

    # Normal equations of the ridge problem, solved in closed form.
    s2 = kk + cfg.lam
    s1 = k_sum
    s0 = float(k.size) + cfg.lam
    r1 = np.vecdot(phi, k)
    r0 = phi.sum(axis=1)
    det = s2 * s0 - s1 * s1
    a = (s0 * r1 - s1 * r0) / det
    b = (s2 * r0 - s1 * r1) / det

    if pruned:
        return phi - (a[:, None] * k + b[:, None])
    phase[:, mask.useful_positions] = phi
    return phase - (a[:, None] * LOGICAL_INDICES + b[:, None])


@dataclass
class FittedScaler:
    """Per-feature affine normalization parameters.

    ``a``/``b`` hold (min, max) for minmax, (mean, stddev) for zscore and
    (median, iqr) for robust.  Features whose denominator is zero map
    to 0.  ``a`` and ``b`` are coerced to float64 (a JSON null becomes
    NaN).  A kind not in SCALER_KINDS, or a bound that is not one flat
    row of numbers that finite floats hold, raises ValueError.
    """

    kind: str
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.kind = _check_member("scaler kind", self.kind, SCALER_KINDS)
        for name in ("a", "b"):
            try:
                bound = np.asarray(getattr(self, name), dtype=np.float64)
            except OverflowError:  # an integer that no float holds
                bound = np.array(np.inf)
            if bound.ndim != 1 or not np.isfinite(bound).all():
                raise ValueError(f"scaler bound {name} is not a flat row of finite numbers")
            setattr(self, name, bound)

    @property
    def n_features(self) -> int:
        return self.a.shape[0]

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        x = np.asarray(matrix, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"matrix of shape {x.shape}, scaler was fitted on {self.n_features} columns"
            )
        denom = self.b - self.a if self.kind == "minmax" else self.b
        out = x - self.a  # the one full-size block, divided in place
        np.divide(out, denom, out=out, where=denom != 0)
        out[:, denom == 0] = 0.0
        return out


SCALER_KINDS = ("minmax", "zscore", "robust")


def fit_scaler(kind: str, matrix: np.ndarray) -> FittedScaler:
    """Fit per-column scaling parameters on a feature matrix.

    zscore uses the population standard deviation; robust uses
    linear-interpolation quartiles.
    """
    kind = _check_member("scaler kind", kind, SCALER_KINDS)
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"matrix of shape {x.shape} is not a 2-D block")
    if x.size == 0:
        raise EmptyMatrix("cannot fit a scaler on an empty matrix")
    # training refuses such rows with the same error; a robust quartile
    # need not reach a lone inf, so the cells are checked, not the statistics
    if not np.isfinite(x).all():
        raise NonFiniteFeature("feature matrix contains NaN or infinity")
    with np.errstate(invalid="ignore", over="ignore"):  # the check below refuses an overflow
        if kind == "minmax":
            a, b = x.min(axis=0), x.max(axis=0)
        elif kind == "zscore":
            a, b = x.mean(axis=0), x.std(axis=0)
        else:
            q1, q3 = np.percentile(x, [25, 75], axis=0)
            a, b = np.percentile(x, 50, axis=0), q3 - q1
    if not (np.isfinite(a).all() and np.isfinite(b).all()):  # a sum of finite cells overflowed
        raise NonFiniteFeature("feature matrix contains NaN or infinity")
    return FittedScaler(kind=kind, a=a, b=b)
