import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from handpass.codec import CsiFrame
from handpass.dataset import features, frame_to_features
from handpass.dsp import (
    FittedScaler,
    SanitizerConfig,
    SubcarrierMask,
    fft_shift,
    fit_scaler,
    normalize_cfr,
    sanitize_phase,
    _unwrap,
    to_cfr,
)
from handpass.errors import DimensionMismatch, EmptyMatrix, NonFiniteFeature, OddLength, ZeroSignal

K = np.arange(-128, 128)


class TestMask:
    def test_partition_counts(self):
        mask = SubcarrierMask()
        assert len(mask.null_indices) == 14
        assert len(mask.pilot_indices) == 8
        assert len(mask.useful) == 256 - 14 - 8 == 234

    def test_partition_is_disjoint_and_total(self):
        mask = SubcarrierMask()
        union = set(mask.null_indices) | set(mask.pilot_indices) | set(mask.useful)
        assert union == set(range(-128, 128))

    def test_useful_indices_sum_to_zero(self):
        # the index set is symmetric, which makes the detrend system diagonal
        assert sum(SubcarrierMask().useful) == 0

    def test_bad_partition_rejected(self):
        # no other partition can be built: the mask takes no arguments
        with pytest.raises(TypeError):
            SubcarrierMask(null_indices=frozenset({0}), pilot_indices=frozenset({0}))

    def test_useful_positions(self):
        mask = SubcarrierMask()
        pos = mask.useful_positions
        assert pos.min() >= 0 and pos.max() < 256
        assert np.array_equal(np.asarray(mask.useful) + 128, pos)


class TestFftShift:
    def test_four_elements(self):
        assert np.array_equal(fft_shift([0, 1, 2, 3]), [2, 3, 0, 1])

    def test_involution(self):
        rng = np.random.default_rng(1)
        for n in (2, 8, 256):
            v = rng.normal(size=n)
            assert np.array_equal(fft_shift(fft_shift(v)), v)

    def test_odd_length_rejected(self):
        with pytest.raises(OddLength):
            fft_shift([1, 2, 3])

    def test_matches_reference_reordering(self):
        v = np.arange(256)
        expected = np.array([v[(i + 128) % 256] for i in range(256)])
        assert np.array_equal(fft_shift(v), expected)


class TestToCfr:
    def test_three_four_five_triangle(self):
        csi = np.zeros((1, 256, 2), dtype=np.int16)
        csi[..., 0], csi[..., 1] = 3, 4
        z = to_cfr(csi)
        assert np.allclose(np.abs(z), 5.0, atol=1e-9)
        assert np.allclose(np.degrees(np.angle(z)), np.degrees(np.arctan2(4, 3)), atol=1e-9)

    def test_matches_direct_formulas(self):
        rng = np.random.default_rng(2)
        csi = rng.integers(-3000, 3000, size=(256, 2), dtype=np.int16)
        z = to_cfr(csi[None])[0]
        re = fft_shift(csi[:, 0].astype(float))
        im = fft_shift(csi[:, 1].astype(float))
        assert np.allclose(np.abs(z), np.sqrt(re**2 + im**2), atol=1e-9)
        assert np.allclose(np.degrees(np.angle(z)), np.degrees(np.arctan2(im, re)), atol=1e-9)

    def test_views_are_consistent(self):
        # every row of a block is the frame's own CFR, whatever its neighbours
        rng = np.random.default_rng(3)
        csi = rng.integers(-100, 100, size=(5, 256, 2), dtype=np.int16)
        z = to_cfr(csi)
        for i in range(5):
            assert np.array_equal(z[i], to_cfr(csi[i : i + 1])[0])
        with pytest.raises(ValueError):
            to_cfr(csi[0])


class TestNormalize:
    def test_half_and_three_halves(self):
        amps = np.where(K % 2 == 0, 1.0, 3.0)  # mean amplitude = 2
        out, kept = normalize_cfr(amps[None].astype(np.complex128))
        assert kept.tolist() == [True]
        assert np.allclose(np.abs(out[0])[K % 2 == 0], 0.5, atol=1e-12)
        assert np.allclose(np.abs(out[0])[K % 2 == 1], 1.5, atol=1e-12)

    def test_mean_amplitude_becomes_one(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(3, 256)) + 1j * rng.normal(size=(3, 256))
        out, _ = normalize_cfr(z)
        assert np.abs(np.abs(out).mean(axis=1) - 1.0).max() < 1e-12

    def test_phase_unchanged(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(1, 256)) + 1j * rng.normal(size=(1, 256))
        out, _ = normalize_cfr(z)
        assert np.allclose(np.angle(out), np.angle(z), atol=1e-12)

    def test_zero_signal(self):
        z = np.zeros((3, 256), dtype=np.complex128)
        z[1] = 1.0
        out, kept = normalize_cfr(z)
        assert kept.tolist() == [False, True, False]
        assert out.shape == (1, 256)
        frame = CsiFrame(csi=np.zeros((256, 2), dtype=np.int16))
        with pytest.raises(ZeroSignal):
            frame_to_features(frame, SubcarrierMask(), SanitizerConfig(), True)


def ridge_oracle(k, phi, lam):
    """Closed-form 2x2 ridge solve, independently coded."""
    A = np.array([[np.dot(k, k) + lam, k.sum()], [k.sum(), len(k) + lam]])
    rhs = np.array([np.dot(k, phi), phi.sum()])
    return np.linalg.solve(A, rhs)


class TestSanitizePhase:
    def test_exact_ramp_zeroed_without_penalty(self):
        a, b = 0.01, 0.3
        z = np.exp(1j * (a * K + b))
        out = sanitize_phase(z[None], SanitizerConfig(lam=0.0))
        assert np.max(np.abs(out)) < 1e-9

    def test_matches_ridge_oracle(self):
        rng = np.random.default_rng(6)
        mask = SubcarrierMask()
        phi = 0.002 * K + 0.1 + 0.05 * rng.normal(size=256)
        amp = rng.uniform(0.5, 2.0, size=256)
        z = amp * np.exp(1j * phi)
        cfg = SanitizerConfig(lam=0.1)
        out = sanitize_phase(z[None], cfg, mask)[0]
        a, b = ridge_oracle(
            np.asarray(mask.useful, dtype=float), phi[mask.useful_positions], cfg.lam
        )
        expected = phi - (a * K + b)
        assert np.max(np.abs(out - expected)) < 1e-9

    def test_amplitude_untouched(self):
        # the amplitude block is the normalized amplitude, through the polar
        # round trip that rebuilds each sample from its detrended phase
        rng = np.random.default_rng(7)
        csi = rng.integers(-900, 900, size=(4, 256, 2), dtype=np.int16)
        X, _ = features(csi, SubcarrierMask(), SanitizerConfig(), prune=False)
        normed, _ = normalize_cfr(to_cfr(csi))
        assert np.allclose(X[:, :256], np.abs(normed), atol=1e-12)

    def test_unwrap_recovers_steep_ramp(self):
        # slope large enough that raw phases wrap several times
        a, b = 0.08, -0.7
        z = np.exp(1j * (a * K + b))
        out = sanitize_phase(z[None], SanitizerConfig(lam=0.0))
        # null/pilot bins are not unwrapped, so compare the wrapped residual
        assert np.max(np.abs(np.angle(np.exp(1j * out)))) < 1e-9

    def test_unpenalized_fit_is_idempotent(self):
        # lam=0 leaves a residual orthogonal to the trend, so a second
        # pass fits (0, 0); the ridge version re-shrinks by ~lam/n.
        rng = np.random.default_rng(8)
        cfg = SanitizerConfig(lam=0.0)
        z = rng.uniform(0.5, 2, 256) * np.exp(1j * 0.3 * rng.normal(size=256))
        once = sanitize_phase(z[None], cfg)
        twice = sanitize_phase(np.abs(z) * np.exp(1j * once), cfg)
        assert np.allclose(once, twice, atol=1e-9)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            SanitizerConfig(lam=-0.1)

    def test_lambda_no_float_holds_rejected(self):
        with pytest.raises(ValueError, match=r"^lam 10+ is not a finite number >= 0$"):
            SanitizerConfig(lam=10**400)


def oracle_row(csi, lam=0.1):
    """Pruned feature row of one frame from hypot, arctan2, unwrap and a
    2x2 ridge solve; phases in degrees, unwrapped (not wrapped to 180)."""
    mask = SubcarrierMask()
    hw = K % 256                      # hardware index of logical k
    re, im = csi[hw, 0].astype(float), csi[hw, 1].astype(float)
    amp = np.hypot(re, im)
    amp = amp / amp.mean()
    pos, k = mask.useful_positions, np.asarray(mask.useful, dtype=float)
    phi = np.unwrap(np.arctan2(im[pos], re[pos]))
    a, b = ridge_oracle(k, phi, lam)
    return np.concatenate([amp[pos], np.degrees(phi - (a * k + b))])


class TestZeroAmplitudePhase:
    def test_zero_sample_keeps_detrended_phase(self):
        rng = np.random.default_rng(11)
        csi = rng.integers(-900, 900, size=(256, 2), dtype=np.int16)
        csi[-17 % 256] = 0            # one useful subcarrier, k = -17
        got = frame_to_features(CsiFrame(csi=csi), SubcarrierMask(), SanitizerConfig(), True)
        want = oracle_row(csi)
        assert np.abs(got[:234] - want[:234]).max() < 1e-9
        off = (got[234:] - want[234:] + 180.0) % 360.0 - 180.0
        assert np.abs(off).max() < 1e-9


def chain_row(csi, mask, cfg, prune, unwrap):
    """One frame through the per-frame chain that the batched pass
    replaced: every stage rebuilt the complex vector and took abs and
    angle again, and the unwrap could be switched off.  Returns None for
    an all-zero frame."""
    c = csi.astype(np.float64)
    z = c[:, 0] + 1j * c[:, 1]
    z = np.concatenate([z[128:], z[:128]])
    mean_amp = float(np.abs(z).mean())
    if mean_amp <= 0.0:
        return None
    z = z / mean_amp
    amplitude, phase = np.abs(z), np.angle(z)
    pos = mask.useful_positions
    k = np.asarray(mask.useful, dtype=np.float64)
    phi = phase[pos]
    if unwrap:
        phi = np.unwrap(phi)
    s2 = float(np.dot(k, k)) + cfg.lam
    s1 = float(k.sum())
    s0 = float(k.size) + cfg.lam
    r1 = float(np.dot(k, phi))
    r0 = float(phi.sum())
    det = s2 * s0 - s1 * s1
    a = (s0 * r1 - s1 * r0) / det
    b = (s2 * r0 - s1 * r1) / det
    full_phase = phase.copy()
    full_phase[pos] = phi
    z = amplitude * np.exp(1j * (full_phase - (a * K + b)))
    amp, phase_deg = np.abs(z), np.degrees(np.angle(z))
    if prune:
        amp, phase_deg = amp[pos], phase_deg[pos]
    return np.concatenate([amp, phase_deg])


def pi_step_block(rng):
    """A frame whose useful neighbours k = 20, 21 are antipodal integer
    samples: their phases differ by exactly pi."""
    csi = rng.integers(-900, 900, size=(1, 256, 2), dtype=np.int16)
    csi[0, 20], csi[0, 21] = (-11, 10), (825, -750)
    return csi


class TestBatchedPassMatchesChain:
    """features() is bit-equal to the per-frame chain with its unwrap on,
    except at (0, 0) samples, whose phase the chain lost
    (TestZeroAmplitudePhase); the chain with its unwrap off gives other
    rows, since the pass always unwraps."""

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("unwrap", [True, False])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 5.0])
    def test_bit_equal(self, lam, unwrap, prune):
        rng = np.random.default_rng(12)
        full = rng.integers(-32768, 32768, size=(40, 256, 2), dtype=np.int16)
        full[3] = 0                   # an all-zero frame is dropped
        small = rng.integers(-3, 4, size=(40, 256, 2), dtype=np.int16)
        mask, cfg = SubcarrierMask(), SanitizerConfig(lam=lam)
        cols = mask.useful_positions if prune else np.arange(256)
        for csi in (full, small, pi_step_block(rng)):
            X, kept = features(csi, mask, cfg, prune)
            rows = [chain_row(f, mask, cfg, prune, unwrap) for f in csi]
            assert kept.tolist() == [r is not None for r in rows]
            want = np.stack([r for r in rows if r is not None])
            zero = (to_cfr(csi[kept]) == 0)[:, cols]
            same = (X == want) | np.concatenate([zero, zero], axis=1)
            assert X.shape == want.shape and same.all() == unwrap


def reference_features(csi, mask, cfg, prune):
    """The batched pass as it was before it computed only what it emits:
    a boolean-index copy in normalization, angle, np.unwrap, the ridge fit
    and the residual on all 256 bins, and np.concatenate at the end."""
    cfr = to_cfr(csi)
    mean_amp = np.abs(cfr).mean(axis=1)
    kept = mean_amp > 0.0
    cfr = cfr[kept] / mean_amp[kept, None]
    phase = np.angle(cfr)
    pos = np.asarray(mask.useful) + 128
    k = np.asarray(mask.useful, dtype=np.float64)
    phi = np.ascontiguousarray(np.unwrap(phase[:, pos], axis=1))
    s2 = float(np.dot(k, k)) + cfg.lam
    s1 = float(k.sum())
    s0 = float(k.size) + cfg.lam
    r1 = np.vecdot(phi, k)
    r0 = phi.sum(axis=1)
    det = s2 * s0 - s1 * s1
    a = (s0 * r1 - s1 * r0) / det
    b = (s2 * r0 - s1 * r1) / det
    phase[:, pos] = phi
    residual = phase - (a[:, None] * K + b[:, None])
    cols = pos if prune else slice(None)
    amp, residual = np.abs(cfr[:, cols]), residual[:, cols]
    z = amp * np.exp(1j * residual)
    phase = np.angle(z)
    zero = amp == 0.0
    phase[zero] = np.angle(np.exp(1j * residual[zero]))
    return np.concatenate([np.abs(z), np.degrees(phase)], axis=1), kept


@st.composite
def csi_blocks(draw):
    """(n, 256, 2) int16 blocks with all-zero frames, (0, 0) samples on
    useful bins and neighbouring bins whose phases differ by exactly pi."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["full", "small", "ramp"]))
    if kind == "full":
        csi = rng.integers(-32768, 32768, size=(n, 256, 2), dtype=np.int16)
    elif kind == "small":         # many (0, 0) samples and exact +-pi steps
        csi = rng.integers(-3, 4, size=(n, 256, 2), dtype=np.int16)
    else:                         # a wrapping phase ramp, as synth captures have
        slope, offset = rng.uniform(-0.4, 0.4, size=(n, 1)), rng.uniform(-4, 4, size=(n, 1))
        z = rng.uniform(200, 900, size=(n, 256)) * np.exp(1j * (slope * K + offset))
        z = fft_shift(z)          # to hardware order
        csi = np.stack([z.real, z.imag], axis=-1).round().astype(np.int16)
    for k in draw(st.lists(st.integers(-128, 127), max_size=6)):
        csi[:, k % 256] = 0
    for k in draw(st.lists(st.integers(-128, 126), max_size=3)):
        first, second = ((-11, 10), (825, -750))[:: draw(st.sampled_from([1, -1]))]
        csi[:, k % 256], csi[:, (k + 1) % 256] = first, second
    csi[draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0
    return csi


def bits(x):
    return x.view(np.int64)


class TestPassMatchesReference:
    """features() gives the reference pass's output bit for bit."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(csi_blocks(), st.booleans(), st.sampled_from([0, 0.1, 2.5]))
    def test_bit_equal(self, csi, prune, lam):
        mask, cfg = SubcarrierMask(), SanitizerConfig(lam=lam)
        X, kept = features(csi, mask, cfg, prune)
        want, want_kept = reference_features(csi, mask, cfg, prune)
        assert np.array_equal(kept, want_kept)
        assert X.shape == want.shape and np.array_equal(bits(X), bits(want))

    @pytest.mark.parametrize("prune", [True, False])
    def test_all_zero_block(self, prune):
        X, kept = features(np.zeros((3, 256, 2), dtype=np.int16),
                           SubcarrierMask(), SanitizerConfig(), prune)
        assert X.shape == (0, 468 if prune else 512) and not kept.any()

    def test_pruned_residual_is_the_full_residual_at_useful_bins(self):
        mask = SubcarrierMask()
        rng = np.random.default_rng(13)
        cfr, _ = normalize_cfr(to_cfr(rng.integers(-900, 900, size=(6, 256, 2),
                                                   dtype=np.int16)))
        pos = mask.useful_positions
        full = sanitize_phase(cfr, SanitizerConfig(), mask)
        pruned = sanitize_phase(cfr[:, pos], SanitizerConfig(), mask)
        assert pruned.shape == (6, len(mask.useful))
        assert np.array_equal(bits(pruned), bits(full[:, pos]))

    def test_other_widths_refused(self):
        with pytest.raises(ValueError):
            sanitize_phase(np.ones((2, 100), dtype=np.complex128))

    def test_normalize_leaves_its_input_alone(self):
        rng = np.random.default_rng(14)
        z = rng.normal(size=(4, 256)) + 1j * rng.normal(size=(4, 256))
        before = z.copy()
        out, kept = normalize_cfr(z)
        assert kept.all() and not np.shares_memory(out, z)
        assert np.array_equal(bits(z.view(np.float64)), bits(before.view(np.float64)))
        mean_amp = np.abs(z).mean(axis=1)
        masked = z[kept] / mean_amp[kept, None]
        assert np.array_equal(bits(out.view(np.float64)), bits(masked.view(np.float64)))

    def test_mask_constants_are_computed_once(self):
        mask = SubcarrierMask()
        pos = mask.useful_positions
        assert mask.useful_positions is pos and not pos.flags.writeable
        assert mask._ridge is mask._ridge
        assert mask == SubcarrierMask()         # cached values are not fields


def phase_rows():
    """Rows of phases with exact +-pi (and 2 pi) steps between neighbours,
    NaN and infinities among ordinary values."""
    special = st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2,
                               2 * math.pi, math.nan, math.inf, -math.inf])
    values = st.one_of(special, st.floats(-20.0, 20.0))
    shape = st.tuples(st.integers(1, 4), st.integers(1, 30))
    return arrays(np.float64, shape, elements=values)


class TestUnwrap:
    @settings(max_examples=500, deadline=None, database=None)
    @given(phase_rows())
    def test_matches_np_unwrap(self, phi):
        with np.errstate(invalid="ignore"):     # inf - inf and mod(inf) are NaN
            want = np.unwrap(phi, axis=1)
            got = _unwrap(phi.copy())
        assert np.array_equal(bits(got), bits(want))

    def test_pi_steps_and_nan(self):
        phi = np.array([[0.0, math.pi, 0.0, -math.pi, 3.5, -3.0, math.nan, 1.0, 0.5]])
        want = np.unwrap(phi, axis=1)
        assert np.array_equal(bits(_unwrap(phi.copy())), bits(want))
        assert np.isnan(want[0, 6:]).all()      # NaN spreads to the right, as in numpy


class TestScalers:
    def test_minmax_hand_example(self):
        col = np.array([[1.0], [2.0], [3.0]])
        out = fit_scaler("minmax", col).transform(col)
        assert np.allclose(out.ravel(), [0.0, 0.5, 1.0], atol=1e-12)

    def test_zscore_hand_example(self):
        col = np.array([[1.0], [2.0], [3.0]])
        out = fit_scaler("zscore", col).transform(col)
        root = np.sqrt(1.5)
        assert np.allclose(out.ravel(), [-root, 0.0, root], atol=1e-12)

    def test_zscore_uses_population_std(self):
        col = np.array([[1.0], [2.0], [3.0], [4.0]])
        s = fit_scaler("zscore", col)
        assert abs(s.b[0] - np.sqrt(1.25)) < 1e-12  # ddof=0

    def test_robust_hand_example(self):
        col = np.array([[1.0], [2.0], [3.0], [4.0]])
        out = fit_scaler("robust", col).transform(col)
        # median 2.5, q1 1.75, q3 3.25 with linear interpolation
        assert np.allclose(out.ravel(), [-1.0, -1 / 3, 1 / 3, 1.0], atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        col = np.full((5, 2), 7.0)
        for kind in ("minmax", "zscore", "robust"):
            out = fit_scaler(kind, col).transform(col)
            assert np.array_equal(out, np.zeros((5, 2)))

    def test_scaling_is_per_column(self):
        X = np.array([[0.0, 100.0], [10.0, 300.0]])
        out = fit_scaler("minmax", X).transform(X)
        assert np.allclose(out, [[0, 0], [1, 1]], atol=1e-12)

    def test_transform_new_data_uses_fitted_params(self):
        X = np.array([[0.0], [10.0]])
        s = fit_scaler("minmax", X)
        assert np.allclose(s.transform(np.array([[5.0], [20.0]])).ravel(), [0.5, 2.0])

    def test_dimension_mismatch(self):
        s = fit_scaler("minmax", np.ones((3, 4)))
        with pytest.raises(DimensionMismatch):
            s.transform(np.ones((2, 5)))

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            fit_scaler("zscore", np.empty((0, 3)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_scaler("maxabs", np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("kind", ["minmax", "zscore", "robust"])
    def test_non_finite_rows_raise_without_a_warning(self, kind, bad):
        X = np.random.default_rng(3).normal(size=(8, 3))
        X[4:, 1] = bad  # half a column, so that robust's quartiles reach it too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteFeature, match="^feature matrix contains NaN or infinity$"):
                fit_scaler(kind, X)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("kind", ["minmax", "zscore", "robust"])
    def test_a_single_non_finite_cell_is_refused(self, kind, bad):
        # no robust quartile of column 0 reaches row 3, so its statistics
        # come out finite; the cell itself is what is refused
        X = np.arange(16.0).reshape(8, 2)
        X[3, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteFeature, match="^feature matrix contains NaN or infinity$"):
                fit_scaler(kind, X)

    def test_roundtrip_through_params(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 6))
        s = fit_scaler("robust", X)
        clone = FittedScaler(kind=s.kind, a=s.a.copy(), b=s.b.copy())
        assert np.array_equal(s.transform(X), clone.transform(X))
