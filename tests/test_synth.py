import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

from handpass import synth
from handpass.codec import read_capture
from handpass.dataset import CaptureMeta, FeatureMatrix, build_rows, feature_names, features
from handpass.dsp import SanitizerConfig, SubcarrierMask, normalize_cfr, to_cfr
from handpass.learners import HyperParams, cross_validate


def tiny(**kw):
    base = dict(
        users=3,
        captures_per_user=2,
        frames_per_capture=8,
        packets_per_second=4,
        seed=7,
    )
    base.update(kw)
    return synth.SynthConfig(**base)


def quiet(**kw):
    """No noise and no per-frame nuisance effects: frames are repeatable."""
    return tiny(noise_sigma=0.0, ramp_range=0.0, offset_range=0.0, gain_jitter=0.0, **kw)


def largest_accepted(field, **fields):
    """The largest float that tiny() accepts for field, by bisection on the
    bits of the positive floats, whose order is the floats' order."""
    lo, hi = 0, int(np.float64(sys.float_info.max).view(np.int64))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            tiny(**fields, **{field: float(np.int64(mid).view(np.float64))})
            lo = mid
        except ValueError:
            hi = mid - 1
    return float(np.int64(lo).view(np.float64))


def matrix_from(manifest, root, prune=True):
    rows = []
    for entry in manifest["captures"]:
        cap = read_capture(os.path.join(root, entry["path"]))
        meta = CaptureMeta(
            capture_number=entry["capture_number"],
            gender=entry["gender"],
            hand=entry["hand"],
            user_id=entry["user_id"],
        )
        got, _ = build_rows(cap, meta, prune=prune)
        rows.extend(got)
    return FeatureMatrix.from_rows(rows, feature_names(prune=prune))


def corpus_digest(root) -> str:
    """sha256 over every file of a corpus: each relative path, then its
    bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# A corpus whose samples partly clip and whose timestamps cross a second,
# and its corpus_digest as the per-frame writer (one struct-packed record
# at a time) made it.
GOLDEN_CONFIG = dict(users=2, captures_per_user=2, frames_per_capture=25,
                     packets_per_second=20, quant_scale=20000.0, seed=2026)
GOLDEN_DIGEST = "42b1809291fdbffc2925210bf70cc9e15da3e970bc86faea9bb84f487e08d1d8"


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            synth.SynthConfig(users=0)
        with pytest.raises(ValueError):
            synth.SynthConfig(noise_sigma=-0.1)

    @pytest.mark.parametrize("field", ["noise_sigma", "ramp_range", "offset_range",
                                       "gain_jitter", "quant_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       np.float64("nan"), True, "0.5", None])
    def test_amount_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} .* is not a finite number >= 0$"):
            synth.SynthConfig(**{field: value})

    @pytest.mark.parametrize("field", ["users", "captures_per_user", "frames_per_capture",
                                       "packets_per_second", "bump_count"])
    @pytest.mark.parametrize("value", [2.0, 1.5, True, "3", None, float("nan")])
    def test_count_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} .* is not an integer >= 1$"):
            synth.SynthConfig(**{field: value})

    @pytest.mark.parametrize("field, value, want", [
        ("users", 21, "users 21 is more than the 20 user ids"),
        ("users", np.int64(1000), "users 1000 is more than the 20 user ids"),
        ("captures_per_user", 6, "captures_per_user 6 is more than the 5 capture numbers"),
    ])
    def test_more_than_the_dataset_layout_refused(self, field, value, want):
        # CaptureMeta takes user ids 1..20 and capture numbers 1..5 only
        with pytest.raises(ValueError, match=f"^{want} of the dataset layout$"):
            synth.SynthConfig(**{field: value})

    def test_largest_layout_is_one_dataset_reads(self, tmp_path):
        synth.generate(tiny(users=20, captures_per_user=5, frames_per_capture=1), tmp_path)
        manifest = synth.load_manifest(tmp_path / synth.MANIFEST_NAME)  # checks every entry
        assert len(manifest["captures"]) == 100
        assert {(e["user_id"], e["capture_number"]) for e in manifest["captures"]} == {
            (u, c) for u in range(1, 21) for c in range(1, 6)}

    @pytest.mark.parametrize("value", [-1, np.int64(-7), 2.0, True, None])
    def test_seed_refused(self, value):
        # numpy's seed sequence takes only integers >= 0
        with pytest.raises(ValueError, match="^seed .* is not an integer >= 0$"):
            synth.SynthConfig(seed=value)

    @pytest.mark.parametrize("field", ["ramp_range", "offset_range", "gain_jitter"])
    @pytest.mark.parametrize("value", [1e308, 9e307])
    def test_range_whose_span_overflows_refused(self, field, value):
        # uniform(-r, r) needs a finite span 2 r
        with pytest.raises(ValueError, match=f"^{field} .* the span 2 \\* {field} is not finite$"):
            synth.SynthConfig(**{field: value})

    @pytest.mark.parametrize("fields", [
        dict(ramp_range=1e307),  # 128 * ramp_range overflows
        dict(ramp_range=math.nextafter(sys.float_info.max / 256, math.inf),
             offset_range=sys.float_info.max / 2),
        dict(bump_count=10 ** 400),  # no float holds 1.5 * bump_count
    ])
    def test_ranges_whose_largest_phase_overflows_refused(self, fields):
        with pytest.raises(ValueError, match="^ramp_range .* and offset_range .* are too large:"
                                             " the largest phase, .* is not finite$"):
            synth.SynthConfig(**fields)

    def test_largest_accepted_phase_ranges_generate_cleanly(self, tmp_path):
        # 128 * ramp_range + offset_range is the largest finite float; an
        # overflowing phase would warn and cast NaN samples to int16
        cfg = tiny(ramp_range=sys.float_info.max / 256, offset_range=sys.float_info.max / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            synth.generate(cfg, tmp_path)
        for e in synth.load_manifest(tmp_path / synth.MANIFEST_NAME)["captures"]:
            assert read_capture(tmp_path / e["path"]).csi.shape == (8, 256, 2)

    @pytest.mark.parametrize("fields, why", [
        (dict(gain_jitter=8.99e307), "the span 2 \\* gain_jitter"),  # its span overflows first
        (dict(gain_jitter=8.9e307), "the largest sample"),
        (dict(gain_jitter=1e307), "the largest sample"),
        (dict(noise_sigma=1.797e308), "the largest sample"),
        (dict(noise_sigma=1e305), "the largest sample"),
        (dict(quant_scale=1e307), "the largest sample"),
        (dict(gain_jitter=1e300, noise_sigma=1e300, quant_scale=1e8), "the largest sample"),
    ])
    def test_amounts_whose_largest_sample_overflows_refused(self, fields, why):
        # an infinite sample is NaN once scaled, which no int16 cast can hold
        with pytest.raises(ValueError, match=f"too large: {why}.* is not finite$"):
            synth.SynthConfig(**fields)

    @pytest.mark.parametrize("field", ["gain_jitter", "noise_sigma", "quant_scale"])
    def test_largest_accepted_amount_generates_cleanly(self, tmp_path, field):
        value = largest_accepted(field)
        with pytest.raises(ValueError, match="the largest sample"):
            tiny(**{field: math.nextafter(value, math.inf)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            synth.generate(tiny(**{field: value}), tmp_path)
        for e in synth.load_manifest(tmp_path / synth.MANIFEST_NAME)["captures"]:
            csi = read_capture(tmp_path / e["path"]).csi
            assert csi.shape == (8, 256, 2) and np.abs(csi.astype(int)).max() >= 32767

    def test_numpy_numbers_accepted(self, tmp_path):
        cfg = tiny(users=np.int64(2), frames_per_capture=np.int32(3), noise_sigma=np.float32(0.5))
        assert type(cfg.users) is int and cfg.users == 2
        assert type(tiny(seed=np.int64(3)).seed) is int
        assert type(cfg.noise_sigma) is float and cfg.noise_sigma == 0.5
        manifest = synth.generate(cfg, tmp_path)  # the manifest's config is JSON
        assert manifest["config"]["users"] == 2 and len(manifest["captures"]) == 4

    def test_gender_alternates(self):
        assert [synth._user_gender(u) for u in (1, 2, 3, 4)] == ["M", "F", "M", "F"]


class TestGenerate:
    def test_layout_and_manifest(self, tmp_path):
        cfg = tiny()
        manifest = synth.generate(cfg, tmp_path)
        assert manifest["format"] == synth.MANIFEST_FORMAT
        assert manifest["config"]["users"] == 3
        assert len(manifest["captures"]) == 6
        for entry in manifest["captures"]:
            assert (tmp_path / entry["path"]).exists()
            assert entry["hand"] == "Right"
        on_disk = synth.load_manifest(tmp_path / synth.MANIFEST_NAME)
        assert on_disk == manifest

    def test_wrong_manifest_format_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            synth.load_manifest(path)

    def test_regeneration_is_byte_identical(self, tmp_path):
        cfg = tiny(noise_sigma=0.7)
        a, b = tmp_path / "a", tmp_path / "b"
        synth.generate(cfg, a)
        synth.generate(cfg, b)
        for entry in synth.load_manifest(a / synth.MANIFEST_NAME)["captures"]:
            assert (a / entry["path"]).read_bytes() == (b / entry["path"]).read_bytes()
        assert (a / synth.MANIFEST_NAME).read_bytes() == (
            b / synth.MANIFEST_NAME
        ).read_bytes()

    def test_golden_corpus_bytes(self, tmp_path):
        manifest = synth.generate(synth.SynthConfig(**GOLDEN_CONFIG), tmp_path)
        cap = read_capture(tmp_path / manifest["captures"][0]["path"])
        assert 0 < np.isin(cap.csi, (-32768, 32767)).sum() < cap.csi.size // 2
        assert corpus_digest(tmp_path) == GOLDEN_DIGEST

    def test_different_seed_changes_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        ma = synth.generate(tiny(seed=1), a)
        synth.generate(tiny(seed=2), b)
        rel = ma["captures"][0]["path"]
        assert (a / rel).read_bytes() != (b / rel).read_bytes()

    def test_frame_metadata(self, tmp_path):
        manifest = synth.generate(tiny(packets_per_second=2), tmp_path)
        cap = read_capture(tmp_path / manifest["captures"][0]["path"])
        frames = cap.frames
        assert len(frames) == 8
        assert frames[0].source_mac[-1] == 1  # user id in the MAC
        # 2 packets/s -> half-second spacing
        micros = [f.ts_sec * 1_000_000 + f.ts_usec for f in frames]
        assert np.all(np.diff(micros) == 500_000)
        assert [f.sequence_number for f in frames] == list(range(8))

    def test_int16_bounds_under_clipping(self, tmp_path):
        # oversized quantization scale must clip, not overflow
        manifest = synth.generate(tiny(quant_scale=30000.0), tmp_path)
        cap = read_capture(tmp_path / manifest["captures"][0]["path"])
        stacked = np.stack([f.csi for f in cap.frames])
        assert stacked.dtype == np.int16
        assert stacked.max() == 32767  # clipping actually engaged


class TestGroundTruth:
    def test_noiseless_frames_collapse_per_user(self, tmp_path):
        manifest = synth.generate(quiet(), tmp_path)
        m = matrix_from(manifest, tmp_path)
        for user in (1, 2, 3):
            rows = m.features[m.user_id == user]
            spread = np.abs(rows - rows[0]).max()
            assert spread < 1e-6  # every frame carries the same signature
        centroids = {u: m.features[m.user_id == u][0] for u in (1, 2, 3)}
        for a in (1, 2, 3):
            for b in range(a + 1, 4):
                assert np.abs(centroids[a] - centroids[b]).max() > 1e-3

    def test_signatures_stable_across_captures(self, tmp_path):
        manifest = synth.generate(quiet(), tmp_path)
        m = matrix_from(manifest, tmp_path)
        one = m.features[(m.user_id == 2) & (m.capture == 1)][0]
        two = m.features[(m.user_id == 2) & (m.capture == 2)][0]
        assert np.abs(one - two).max() < 1e-6


class TestPreprocessingContract:
    """The per-frame nuisances are exactly what the two DSP stages remove."""

    def frames_for_user(self, tmp_path, **kw):
        manifest = synth.generate(tiny(users=1, captures_per_user=1, **kw), tmp_path)
        return read_capture(tmp_path / manifest["captures"][0]["path"]).frames

    def test_normalization_cancels_gain_jitter(self, tmp_path):
        frames = self.frames_for_user(
            tmp_path, noise_sigma=0.0, ramp_range=0.0, offset_range=0.0,
            gain_jitter=0.8, frames_per_capture=20,
        )
        csi = np.stack([f.csi for f in frames])
        raw_means = np.abs(to_cfr(csi)).mean(axis=1)
        assert raw_means.std() / raw_means.mean() > 0.2  # gain is visible raw
        normed = np.abs(normalize_cfr(to_cfr(csi))[0])
        assert np.abs(normed.mean(axis=1) - 1.0).max() < 1e-12
        assert np.abs(normed - normed[0]).max() < 1e-2  # only quantization left

    def test_sanitization_cancels_ramp_and_offset(self, tmp_path):
        frames = self.frames_for_user(
            tmp_path, noise_sigma=0.0, gain_jitter=0.0, frames_per_capture=20,
        )
        csi = np.stack([f.csi for f in frames])
        raw = np.degrees(np.angle(to_cfr(csi)))
        X, _ = features(csi, SubcarrierMask(), SanitizerConfig(), prune=False)
        clean = X[:, 256:]
        # raw phases scatter over the full circle; sanitized ones collapse
        assert raw.std(axis=0).max() > 30.0
        assert np.abs(clean - clean[0]).max() < 0.5


class TestSeparability:
    def test_f1_degrades_with_noise(self, tmp_path):
        scores = []
        for i, sigma in enumerate((0.6, 1.2, 2.5)):
            root = tmp_path / f"s{i}"
            cfg = synth.SynthConfig(
                users=5, captures_per_user=1, frames_per_capture=60,
                packets_per_second=20, noise_sigma=sigma, seed=99,
            )
            manifest = synth.generate(cfg, root)
            m = matrix_from(manifest, root)
            report = cross_validate(
                "rf", m.features, m.labels, k=4,
                hyper=HyperParams(n_trees=20, max_depth=12), seed=5,
            )
            scores.append(report.mean_f1)
        assert scores[0] > 0.85  # clean corpus is clearly separable
        assert scores[0] > scores[1] + 0.05
        assert scores[1] > scores[2] + 0.05
