import hashlib

import numpy as np
import pytest

from conftest import capture_of, random_frame
from handpass import synth
from handpass.codec import CsiFrame, read_capture
from handpass.dataset import (
    META_COLUMNS,
    SLICE_DEFS,
    CaptureMeta,
    FeatureMatrix,
    FeatureRow,
    build_rows,
    feature_layout,
    feature_names,
    read_csv,
    slice_dataset,
    write_csv,
)
from handpass.dsp import SubcarrierMask
from handpass.errors import InsufficientRows, RaggedRows

META = CaptureMeta(capture_number=1, gender="M", hand="Right", user_id=3)


def flat_row(width, user, cap, idx, hand="Right"):
    """A FeatureRow with trivially small feature payload, for slicing tests."""
    meta = CaptureMeta(capture_number=cap, gender="F", hand=hand, user_id=user)
    return FeatureRow(
        features=np.full(width, float(user)), meta=meta, frame_index=idx
    )


class TestMeta:
    def test_label_is_user_id(self):
        m = FeatureMatrix.from_rows([flat_row(4, 7, 1, 0)], feature_names(prune=False)[:4])
        assert m.labels.tolist() == [7]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capture_number": 0},
            {"capture_number": 6},
            {"gender": "X"},
            {"hand": "right"},
            {"user_id": 0},
            {"user_id": 21},
            {"user_id": 1.5},
            {"user_id": True},
            {"capture_number": True},
            {"capture_number": 2.0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(capture_number=1, gender="M", hand="Right", user_id=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            CaptureMeta(**base)


class TestFeatureNames:
    def test_full_layout(self):
        names = feature_names(prune=False)
        assert len(names) == 512
        assert names[0] == "amp_-128" and names[255] == "amp_127"
        assert names[256] == "phase_-128" and names[511] == "phase_127"

    def test_pruned_layout(self):
        mask = SubcarrierMask()
        names = feature_names(prune=True)
        assert len(names) == 468
        ks = sorted(mask.useful)
        assert names[: len(ks)] == tuple(f"amp_{k}" for k in ks)
        assert names[len(ks):] == tuple(f"phase_{k}" for k in ks)

    def test_no_null_or_pilot_when_pruned(self):
        names = feature_names(prune=True)
        for bad in (0, 1, -1, 11, -39, 127, -128):
            assert f"amp_{bad}" not in names

    @pytest.mark.parametrize("prune", [True, False])
    def test_layout_of_a_header(self, prune):
        assert feature_layout(feature_names(prune)) is prune

    @pytest.mark.parametrize("names", [
        feature_names(True)[234:] + feature_names(True)[:234],  # phase block first
        tuple(f"f_{i}" for i in range(468)),
        feature_names(True)[:100],
        (),
    ], ids=["swapped", "renamed", "narrow", "none"])
    def test_other_headers_refused(self, names):
        with pytest.raises(ValueError, match="feature layout"):
            feature_layout(names)


class TestBuildRows:
    def test_pruned_width(self):
        rng = np.random.default_rng(10)
        rows, dropped = build_rows(capture_of([random_frame(rng)]), META)
        assert dropped == 0
        assert rows[0].features.shape == (468,)

    def test_full_width(self):
        rng = np.random.default_rng(11)
        rows, _ = build_rows(capture_of([random_frame(rng)]), META, prune=False)
        assert rows[0].features.shape == (512,)

    def test_constant_frame_amplitudes_are_one(self):
        csi = np.zeros((256, 2), dtype=np.int16)
        csi[:, 0] = 2  # 2 + 0j everywhere: flat spectrum, zero phase
        rows, _ = build_rows(capture_of([CsiFrame(csi=csi)]), META)
        feats = rows[0].features
        assert np.allclose(feats[:234], 1.0, atol=1e-12)
        assert np.allclose(feats[234:], 0.0, atol=1e-9)

    def test_zero_frames_are_dropped_and_counted(self):
        rng = np.random.default_rng(12)
        zero = CsiFrame(csi=np.zeros((256, 2), dtype=np.int16))
        frames = [random_frame(rng), zero, random_frame(rng), zero]
        rows, dropped = build_rows(capture_of(frames), META)
        assert dropped == 2
        assert [r.frame_index for r in rows] == [0, 2]

    def test_rows_carry_meta(self):
        rng = np.random.default_rng(13)
        rows, _ = build_rows(capture_of([random_frame(rng)]), META)
        assert rows[0].meta is META

    def test_matrix_column_accounting(self):
        rng = np.random.default_rng(14)
        frames = [random_frame(rng) for _ in range(3)]
        pruned, _ = build_rows(capture_of(frames), META)
        full, _ = build_rows(capture_of(frames), META, prune=False)
        m_pruned = FeatureMatrix.from_rows(pruned, feature_names(prune=True))
        m_full = FeatureMatrix.from_rows(full, feature_names(prune=False))
        assert m_pruned.n_columns == 468 + 4 == 472
        assert m_full.n_columns == 512 + 4 == 516
        assert m_pruned.n_rows == m_full.n_rows == 3


def keyset(sl):
    m = sl.rows
    return {
        (int(u), int(c), i)
        for i, (u, c) in enumerate(zip(m.user_id, m.capture))
    }


class TestSliceDefs:
    def test_table(self):
        assert SLICE_DEFS["D1"] == (1, (1,))
        assert SLICE_DEFS["D2"] == (1, (1, 2, 3))
        assert SLICE_DEFS["D3"] == (1, (1, 2, 3, 4, 5))
        assert SLICE_DEFS["D4"] == (5, (1,))
        assert SLICE_DEFS["D5"] == (5, (1, 2, 3))
        assert SLICE_DEFS["D6"] == (5, (1, 2, 3, 4, 5))


class TestSliceDataset:
    def pool(self, users=2, captures=5, per_capture=20, width=4):
        return [
            flat_row(width, u, c, i)
            for u in range(1, users + 1)
            for c in range(1, captures + 1)
            for i in range(per_capture)
        ]

    def test_row_counts_per_slice(self):
        pool = self.pool(users=3, per_capture=20)
        for name, (seconds, caps) in SLICE_DEFS.items():
            sl = slice_dataset(pool, name, packets_per_second=4)
            assert sl.rows.n_rows == 3 * len(caps) * seconds * 4

    def test_prefix_rows_are_taken(self):
        pool = self.pool(per_capture=10)
        sl = slice_dataset(pool, "D1", packets_per_second=3)
        got = sorted(zip(sl.rows.user_id, sl.rows.capture))
        assert got == [(1, 1)] * 3 + [(2, 1)] * 3

    def test_ceil_rounding(self):
        pool = self.pool(users=1, captures=1, per_capture=10)
        sl = slice_dataset(pool, "D1", packets_per_second=7)
        assert sl.rows.n_rows == 7  # ceil(1 * 7)

    def test_nested_slicings(self):
        pool = self.pool(users=2, captures=5, per_capture=30)
        rows = {
            name: {
                (int(u), int(c))
                for u, c in zip(
                    slice_dataset(pool, name, 5).rows.user_id,
                    slice_dataset(pool, name, 5).rows.capture,
                )
            }
            for name in ("D1", "D2", "D3")
        }
        assert rows["D1"] <= rows["D2"] <= rows["D3"]

    def test_frame_order_preserved_after_shuffle(self):
        pool = self.pool(users=1, captures=1, per_capture=12)
        rng = np.random.default_rng(15)
        shuffled = [pool[i] for i in rng.permutation(len(pool))]
        ordered = slice_dataset(pool, "D1", 6)
        scrambled = slice_dataset(shuffled, "D1", 6)
        assert np.array_equal(ordered.rows.features, scrambled.rows.features)

    def test_missing_capture(self):
        pool = [flat_row(4, 1, 1, i) for i in range(10)]
        with pytest.raises(InsufficientRows):
            slice_dataset(pool, "D2", 2)  # needs captures 2 and 3 too

    def test_too_few_rows(self):
        pool = [flat_row(4, 1, 1, i) for i in range(4)]
        with pytest.raises(InsufficientRows):
            slice_dataset(pool, "D1", packets_per_second=5)

    def test_left_hand_excluded_by_default(self):
        pool = [flat_row(4, 1, 1, i) for i in range(5)]
        pool += [flat_row(4, 2, 1, i, hand="Left") for i in range(5)]
        sl = slice_dataset(pool, "D1", 5)
        assert set(sl.rows.user_id) == {1}
        both = slice_dataset(pool, "D1", 5, right_hand_only=False)
        assert set(both.rows.user_id) == {1, 2}

    def test_all_left_pool_is_empty(self):
        pool = [flat_row(4, 1, 1, i, hand="Left") for i in range(5)]
        with pytest.raises(InsufficientRows):
            slice_dataset(pool, "D1", 5)

    def test_unknown_slice_name(self):
        with pytest.raises(ValueError):
            slice_dataset(self.pool(), "D7", 5)

    def test_mixed_width_rejected(self):
        pool = [flat_row(4, 1, 1, 0), flat_row(5, 1, 1, 1)]
        with pytest.raises(RaggedRows):
            slice_dataset(pool, "D1", 1)

    @pytest.mark.parametrize("rate", [-5, 0])
    def test_rate_below_one_refused(self, rate):
        # a negative rate made have[:need] drop the last rows of each capture
        with pytest.raises(ValueError, match=f"^packets_per_second {rate} is not an integer >= 1$"):
            slice_dataset(self.pool(), "D1", rate)

    def test_each_user_contributes_equally(self):
        pool = self.pool(users=4, per_capture=25)
        sl = slice_dataset(pool, "D3", packets_per_second=5)
        _, counts = np.unique(sl.rows.user_id, return_counts=True)
        assert np.array_equal(counts, [25, 25, 25, 25])


class TestCsv:
    def make_matrix(self, n=6, width=4):
        rng = np.random.default_rng(16)
        rows = [
            flat_row(width, u, 1, i)
            for i, u in enumerate(rng.integers(1, 4, size=n))
        ]
        for r in rows:
            r.features[:] = rng.normal(size=width)
        names = tuple(f"f_{i}" for i in range(width))
        return FeatureMatrix.from_rows(rows, names)

    def test_roundtrip_is_exact(self, tmp_path):
        m = self.make_matrix()
        path = tmp_path / "rows.csv"
        write_csv(m, path)
        back = read_csv(path)
        assert back.feature_names == m.feature_names
        assert np.array_equal(back.features, m.features)  # repr round-trip
        assert np.array_equal(back.user_id, m.user_id)
        assert list(back.gender) == list(m.gender)
        assert list(back.hand) == list(m.hand)
        assert np.array_equal(back.capture, m.capture)

    def test_header_order(self, tmp_path):
        m = self.make_matrix(width=3)
        path = tmp_path / "rows.csv"
        write_csv(m, path)
        header = path.read_text().splitlines()[0]
        assert header == "f_0,f_1,f_2," + ",".join(META_COLUMNS)

    def test_ragged_line_rejected(self, tmp_path):
        m = self.make_matrix()
        path = tmp_path / "rows.csv"
        write_csv(m, path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1])  # drop one field
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RaggedRows):
            read_csv(path)

    @pytest.mark.parametrize("column, cell, message", [
        (0, "abc", "could not convert string to float: 'abc'"),
        (2, "x", "could not convert string to float: 'x'"),
        (3, "one", "invalid literal for int() with base 10: 'one'"),    # capture
        (6, "7.5", "invalid literal for int() with base 10: '7.5'"),    # user_id
        (4, "Male", "gender must be one of ('M', 'F'): 'Male'"),
        (4, "", "gender must be one of ('M', 'F'): ''"),
        (5, "Righteous", "hand must be one of ('Right', 'Left'): 'Righteous'"),
        (5, "right", "hand must be one of ('Right', 'Left'): 'right'"),
        (3, "0", "capture_number 0 is not an integer >= 1"),
        (3, "6", "capture_number out of range: 6"),
        (6, "21", "user_id out of range: 21"),
        (6, "+2", "user_id '+2' is not a decimal numeral"),
        (0, "1_0", "a field holds '_' or ' '"),                          # float() reads 10.0
        (6, "1 ", "a field holds '_' or ' '"),
    ], ids=["feature-abc", "feature-x", "capture", "user_id", "gender-Male", "gender-empty",
            "hand-Righteous", "hand-right", "capture-0", "capture-6", "user_id-21",
            "user_id-plus", "feature-underscore", "user_id-space"])
    def test_bad_fields_name_their_line(self, tmp_path, column, cell, message):
        m = self.make_matrix(width=3)
        path = tmp_path / "rows.csv"
        write_csv(m, path)
        lines = path.read_text().splitlines()
        good = lines[:]
        fields = lines[3].split(",")
        fields[column] = cell
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RaggedRows) as exc:
            read_csv(path)
        assert str(exc.value) == f"{path}:4: {message}"
        good[4] += ",1"
        path.write_text("\n".join(good) + "\n")
        with pytest.raises(RaggedRows, match=r"rows\.csv:5: 8 fields, expected 7$"):
            read_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("1_0,2,0,M,Right,-3", "a field holds '_' or ' '"),
        ("3,4,9,F,Left,1_000", "a field holds '_' or ' '"),
        ("10,2,1,M,Right,-3", "user_id '-3' is not a decimal numeral"),
    ], ids=["row-1", "row-2", "user_id-minus"])
    def test_metadata_follows_the_manifest_rules(self, tmp_path, row, message):
        # the two rows read back as features [10.0, 2.0], capture 0 and user -3,
        # and as capture 9 and user 1000, before the cells were checked
        path = tmp_path / "rows.csv"
        path.write_text("f_0,f_1," + ",".join(META_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(RaggedRows) as exc:
            read_csv(path)
        assert str(exc.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("lineno", [1, 4], ids=["header", "data-line"])
    def test_non_ascii_byte_names_its_line(self, tmp_path, lineno):
        # the byte used to escape as UnicodeDecodeError, naming no line
        m = self.make_matrix(width=3)
        path = tmp_path / "rows.csv"
        write_csv(m, path)
        lines = path.read_bytes().split(b"\n")
        lines[lineno - 1] = b"\xff" + lines[lineno - 1]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(RaggedRows) as exc:
            read_csv(path)
        assert str(exc.value) == f"{path}:{lineno}: a field holds a non-ASCII byte"

    def test_crlf_file_reads(self, tmp_path):
        # text mode folds CRLF into LF, so no '\r' is left in the hand or user id
        m = self.make_matrix()
        path = tmp_path / "rows.csv"
        write_csv(m, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        back = read_csv(path)
        assert back.feature_names == m.feature_names
        assert np.array_equal(back.features, m.features)
        assert list(back.hand) == list(m.hand)
        assert np.array_equal(back.user_id, m.user_id)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(RaggedRows):
            read_csv(path)

    def test_header_must_end_with_meta(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(RaggedRows):
            read_csv(path)

    def test_empty_matrix_roundtrip(self, tmp_path):
        names = ("f_0", "f_1")
        m = FeatureMatrix(
            features=np.empty((0, 2)),
            feature_names=names,
            capture=np.empty(0, dtype=int),
            gender=np.empty(0, dtype="<U1"),
            hand=np.empty(0, dtype="<U5"),
            user_id=np.empty(0, dtype=int),
        )
        path = tmp_path / "none.csv"
        write_csv(m, path)
        back = read_csv(path)
        assert back.n_rows == 0 and back.feature_names == names

    def test_zero_feature_matrix_roundtrip(self, tmp_path):
        # read_csv reshapes its one buffer by the row count, which a width of 0 needs
        m = self.make_matrix(n=3, width=0)
        assert m.features.shape == (3, 0)
        path = tmp_path / "meta.csv"
        write_csv(m, path)
        back = read_csv(path)
        assert back.features.shape == (3, 0) and back.feature_names == ()
        assert np.array_equal(back.user_id, m.user_id)
        assert np.array_equal(back.capture, m.capture)
        assert list(back.hand) == list(m.hand)

    def test_header_only_roundtrip(self, tmp_path):
        names = feature_names(prune=True)
        path = tmp_path / "header.csv"
        write_csv(FeatureMatrix.from_rows([], names), path)
        assert path.read_text().count("\n") == 1
        back = read_csv(path)
        assert back.features.shape == (0, len(names)) and back.feature_names == names


D3_CSV_DIGEST = "f10b62d9ed078124d4c718f9efdba508242bb50f691317c329d5ae844ab48455"


def test_d3_slice_csv_bytes_golden(tmp_path):
    """Characterization: the write_csv bytes of a seeded D3 slice."""
    cfg = synth.SynthConfig(users=3, captures_per_user=5, frames_per_capture=6,
                            packets_per_second=4, noise_sigma=0.5, seed=16)
    manifest = synth.generate(cfg, tmp_path / "corpus")
    rows = []
    for e in manifest["captures"]:
        meta = CaptureMeta(capture_number=e["capture_number"], gender=e["gender"],
                           hand=e["hand"], user_id=e["user_id"])
        rows.extend(build_rows(read_capture(tmp_path / "corpus" / e["path"]), meta)[0])
    sl = slice_dataset(rows, "D3", cfg.packets_per_second)
    assert sl.rows.n_rows == 3 * 5 * 4
    write_csv(sl.rows, tmp_path / "d3.csv")
    digest = hashlib.sha256((tmp_path / "d3.csv").read_bytes()).hexdigest()
    assert digest == D3_CSV_DIGEST
