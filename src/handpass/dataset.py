"""Feature-table assembly: frames -> rows -> dataset slices -> CSV.

Each CSI frame becomes one row of amplitude values followed by phase
values (degrees), plus four metadata columns (capture, gender, hand,
user_id).  Six standard slicings (D1..D6) carve per-capture prefixes of
1 or 5 seconds from captures {1}, {1-3} or {1-5}.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .codec import CaptureFile, CsiFrame
from .dsp import (
    SanitizerConfig,
    SubcarrierMask,
    normalize_cfr,
    sanitize_phase,
    to_cfr,
)
from .errors import InsufficientRows, RaggedRows, ZeroSignal, _check_count, _check_member

GENDERS = ("M", "F")
HANDS = ("Right", "Left")
META_COLUMNS = ("capture", "gender", "hand", "user_id")
# The corpus layout: user ids 1.._MAX_USER_ID, capture numbers 1.._MAX_CAPTURE
# (the paper's 20 participants and five sessions each).
_MAX_USER_ID = 20
_MAX_CAPTURE = 5

# name -> (seconds per capture, capture numbers used)
SLICE_DEFS = {
    "D1": (1, (1,)),
    "D2": (1, (1, 2, 3)),
    "D3": (1, (1, 2, 3, 4, 5)),
    "D4": (5, (1,)),
    "D5": (5, (1, 2, 3)),
    "D6": (5, (1, 2, 3, 4, 5)),
}

# The pipeline's preprocessing, defined once: build_rows makes enrollment
# rows and gatekeeper.authenticate makes request rows with this mask and
# sanitizer, and a store document records them.
_MASK = SubcarrierMask()
_SANITIZER = SanitizerConfig()


@dataclass(frozen=True)
class CaptureMeta:
    """Identity of one capture session."""

    capture_number: int
    gender: str
    hand: str
    user_id: int

    def __post_init__(self):
        if _check_count("capture_number", self.capture_number, 1) > _MAX_CAPTURE:
            raise ValueError(f"capture_number out of range: {self.capture_number}")
        object.__setattr__(self, "gender", _check_member("gender", self.gender, GENDERS))
        object.__setattr__(self, "hand", _check_member("hand", self.hand, HANDS))
        if _check_count("user_id", self.user_id, 1) > _MAX_USER_ID:
            raise ValueError(f"user_id out of range: {self.user_id}")


@dataclass
class FeatureRow:
    """One preprocessed frame: amplitude block + phase block + its capture."""

    features: np.ndarray
    meta: CaptureMeta


@dataclass
class FeatureMatrix:
    """Column-named feature table with per-row metadata."""

    features: np.ndarray            # (n, d) float64
    feature_names: tuple
    capture: np.ndarray             # (n,) int
    gender: np.ndarray              # (n,) '<U1'
    hand: np.ndarray                # (n,) str
    user_id: np.ndarray             # (n,) int

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[1] != len(self.feature_names):
            raise RaggedRows("feature block does not match feature_names")
        n = self.features.shape[0]
        for col in (self.capture, self.gender, self.hand, self.user_id):
            if col.shape != (n,):
                raise RaggedRows("metadata column length does not match row count")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_columns(self) -> int:
        """Total column count including the 4 metadata columns."""
        return self.features.shape[1] + len(META_COLUMNS)

    @property
    def labels(self) -> np.ndarray:
        return self.user_id

    @classmethod
    def _of(cls, features: np.ndarray, feature_names: tuple, metas) -> "FeatureMatrix":
        """The table whose metadata columns hold one CaptureMeta per row."""
        return cls(
            features=features,
            feature_names=feature_names,
            capture=np.array([m.capture_number for m in metas], dtype=np.int64),
            gender=np.array([m.gender for m in metas], dtype="<U1"),
            hand=np.array([m.hand for m in metas], dtype="<U5"),
            user_id=np.array([m.user_id for m in metas], dtype=np.int64),
        )

    @classmethod
    def from_rows(cls, rows: Sequence[FeatureRow], feature_names) -> "FeatureMatrix":
        """Stack the rows' features straight into one float64 table, so the
        table is allocated once: the peak is about 1.1x the table."""
        names = tuple(feature_names)
        if rows:
            feats = np.stack([r.features for r in rows], dtype=np.float64)
        else:
            feats = np.empty((0, len(names)), dtype=np.float64)
        return cls._of(feats, names, [r.meta for r in rows])


@dataclass
class DatasetSlice:
    """The rows of one standard slicing."""

    rows: FeatureMatrix


def feature_names(prune: bool) -> tuple:
    """Column names amp_<k>, phase_<k> with k the logical subcarrier index."""
    ks = list(_MASK.useful) if prune else list(range(-128, 128))
    return tuple(f"amp_{k}" for k in ks) + tuple(f"phase_{k}" for k in ks)


# The two feature layouts, width -> prune: 468 with the 22 null/pilot
# subcarriers dropped, 512 with every subcarrier.
_LAYOUTS = {len(feature_names(prune)): prune for prune in (True, False)}


def feature_layout(names) -> bool:
    """The prune setting whose feature_names are names, in order; refuse,
    with ValueError, any other columns (a slice CSV whose blocks were
    reordered or renamed would train a model on the wrong features)."""
    prune = _LAYOUTS.get(len(names))
    if prune is None or tuple(names) != feature_names(prune):
        raise ValueError(f"{len(names)} feature columns are not a feature layout: amp_<k>"
                         " then phase_<k> over the 234 useful or all 256 subcarriers")
    return prune


def features(
    csi: np.ndarray,
    mask: SubcarrierMask,
    sanitizer: SanitizerConfig,
    prune: bool,
) -> tuple:
    """Run a block of frames through the preprocessing pipeline.

    csi is (n, 256, 2) int16 in hardware order.  Pipeline: logical
    reorder -> per-frame gain normalization -> phase detrending.  Returns
    (X, kept): X holds one row per kept frame, amplitudes then phases in
    degrees, and the boolean kept marks the frames that were not all zero
    (those cannot be normalized and are dropped).  With prune the 22
    null/pilot subcarriers are dropped from both blocks, right after the
    normalization, so no phase work is spent on them.
    """
    cfr, kept = normalize_cfr(to_cfr(csi))
    if prune:                       # every later stage sees the useful bins only
        cfr = cfr[:, mask.useful_positions]
    residual = sanitize_phase(cfr, sanitizer, mask)
    amp = np.abs(cfr)
    # The polar round trip sets the last bit of both blocks, so it stays.
    z = amp * np.exp(1j * residual)
    w = amp.shape[1]
    X = np.empty((amp.shape[0], 2 * w))
    np.abs(z, out=X[:, :w])
    phase = np.angle(z)
    # 0 * exp(i r) has no angle; a zero sample keeps its detrended phase.
    zero = amp == 0.0
    phase[zero] = np.angle(np.exp(1j * residual[zero]))
    np.degrees(phase, out=X[:, w:])
    return X, kept


def frame_to_features(
    frame: CsiFrame,
    mask: SubcarrierMask,
    sanitizer: SanitizerConfig,
    prune: bool,
) -> np.ndarray:
    """The feature row of one frame; raises ZeroSignal for an all-zero frame."""
    X, kept = features(frame.csi[None], mask, sanitizer, prune)
    if not kept[0]:
        raise ZeroSignal("all-zero frame cannot be normalized")
    return X[0]


def build_rows(capture: CaptureFile, meta: CaptureMeta, prune: bool = True) -> tuple:
    """Convert every frame of a capture into a FeatureRow, with the
    pipeline's mask and sanitizer, in file order.

    Returns (rows, dropped) where dropped counts all-zero frames that
    cannot be normalized.
    """
    X, kept = features(capture.csi, _MASK, _SANITIZER, prune)
    rows = [FeatureRow(features=x, meta=meta) for x in X]
    return rows, len(kept) - len(rows)


def slice_dataset(rows: Iterable[FeatureRow], slice_name: str,
                  packets_per_second: int) -> DatasetSlice:
    """Carve one of the six standard slicings out of a pool of rows.

    Takes the first ceil(seconds * rate) Right rows of each required
    capture for every user present, in the order given: no sort, as
    build_rows gives a capture's rows in file order.  Raises
    InsufficientRows when a user is missing a required capture or has
    too few rows in it, and RaggedRows for rows of mixed width or of a
    width that is not a feature layout's.
    """
    seconds, captures = SLICE_DEFS[_check_member("slice", slice_name, tuple(SLICE_DEFS))]
    need = math.ceil(seconds * _check_count("packets_per_second", packets_per_second, 1))

    pool = [r for r in rows if r.meta.hand == "Right"]
    if not pool:
        raise InsufficientRows("no rows to slice")
    width = pool[0].features.shape[0]
    by_key: dict = {}
    for r in pool:
        if r.features.shape[0] != width:
            raise RaggedRows("rows of mixed width cannot be sliced together")
        by_key.setdefault((r.meta.user_id, r.meta.capture_number), []).append(r)
    if width not in _LAYOUTS:
        raise RaggedRows(f"rows {width} wide are not a feature layout (468 or 512)")

    users = sorted({u for u, _ in by_key})
    picked = []
    for user in users:
        for cap in captures:
            have = by_key.get((user, cap))
            if have is None:
                raise InsufficientRows(f"user {user} has no capture {cap}")
            if len(have) < need:
                raise InsufficientRows(
                    f"user {user} capture {cap} has {len(have)} rows, needs {need}"
                )
            picked.extend(have[:need])

    return DatasetSlice(rows=FeatureMatrix.from_rows(picked, feature_names(_LAYOUTS[width])))


def write_csv(m: FeatureMatrix, path) -> None:
    """Write a FeatureMatrix as a headed CSV.

    Floats are rendered with repr so a read round-trips to the exact
    same values.
    """
    header = ",".join(m.feature_names + META_COLUMNS)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for i in range(m.n_rows):
            feats = ",".join(repr(v) for v in m.features[i].tolist())
            meta = f"{m.capture[i]},{m.gender[i]},{m.hand[i]},{m.user_id[i]}"
            fh.write(feats + "," + meta + "\n" if feats else meta + "\n")


def _csv_meta(capture, gender, hand, user_id) -> CaptureMeta:
    """The CaptureMeta of a CSV row's metadata cells.  capture and user_id
    must be decimal numerals, as write_csv writes them: int() also takes
    "+2", " 4" and "1_000"."""
    for name, cell in (("capture", capture), ("user_id", user_id)):
        if not cell.isdigit():          # the file is ASCII, so this is [0-9]+
            int(cell)                   # a cell that is no integer keeps int()'s message
            raise ValueError(f"{name} {cell!r} is not a decimal numeral")
    return CaptureMeta(int(capture), gender, hand, int(user_id))


_NON_ASCII = "a field holds a non-ASCII byte"


def read_csv(path) -> FeatureMatrix:
    """Read a CSV written by write_csv.  A header or row holding a byte
    outside ASCII, a row of the wrong width, a row holding "_" or a space
    (float("1_0") is 10.0), a feature that is not a float, or metadata
    that CaptureMeta refuses (captures 1-5, user ids 1-20, GENDERS,
    HANDS) raises RaggedRows naming its line.  Each distinct metadata
    tuple is checked once.

    Every row is parsed into one growing float64 buffer, which becomes
    the (n, d) table without a copy, so the table is allocated once: the
    peak is about 1.1x the table.
    """
    # a byte outside ASCII decodes to a lone surrogate, refused with its line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline()
        if not header:
            raise RaggedRows(f"{path}: empty file, expected a header")
        if not header.isascii():
            raise RaggedRows(f"{path}:1: {_NON_ASCII}")
        names = header.rstrip("\n").split(",")
        if len(names) < 4 or tuple(names[-4:]) != META_COLUMNS:
            raise RaggedRows(f"{path}: header must end with {META_COLUMNS}")
        fnames = tuple(names[:-4])
        d = len(fnames)
        feats, metas, known = array("d"), [], {}
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != d + 4:
                raise RaggedRows(
                    f"{path}:{lineno}: {len(parts)} fields, expected {d + 4}"
                )
            try:
                if not line.isascii():
                    raise ValueError(_NON_ASCII)
                if "_" in line or " " in line:
                    raise ValueError("a field holds '_' or ' '")
                feats.extend(map(float, parts[:d]))
                cells = tuple(parts[d:])
                meta = known.get(cells)
                if meta is None:
                    meta = known[cells] = _csv_meta(*cells)
                metas.append(meta)
            except ValueError as exc:
                raise RaggedRows(f"{path}:{lineno}: {exc}") from exc
    table = np.frombuffer(feats, dtype=np.float64).reshape(len(metas), d)
    return FeatureMatrix._of(table, fnames, metas)
