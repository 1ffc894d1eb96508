import json
import logging
import os
import re
import shutil

import numpy as np
import pytest

from handpass.cli import main
from handpass.dataset import FeatureMatrix, read_csv, write_csv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def config_line(stdout):
    first = stdout.splitlines()[0]
    assert first.startswith("config: ")
    return json.loads(first[len("config: "):])


@pytest.fixture(scope="module")
def clean_corpus(tmp_path_factory):
    """Noise-free 3-user corpus, 25 frames per capture at 20 pkt/s."""
    root = str(tmp_path_factory.mktemp("cli-corpus"))
    code = main([
        "synth", "--out", root, "--users", "3", "--captures", "1",
        "--frames", "25", "--rate", "20", "--noise", "0",
        "--ramp", "0", "--offset-range", "0", "--gain-jitter", "0",
        "--seed", "21",
    ])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def d1_csv(clean_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli-data") / "D1.csv")
    code = main([
        "dataset", "--in", clean_corpus, "--slice", "D1", "--out", out,
    ])
    assert code == 0
    return out


class TestPlumbing:
    def test_config_line_is_json(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "synth", "--out", str(tmp_path / "c"), "--users", "2",
            "--captures", "1", "--frames", "3", "--rate", "4", "--seed", "5",
        )
        assert code == 0
        cfg = config_line(out)
        assert cfg["users"] == 2 and cfg["seed"] == 5
        assert cfg["command"] == "synth"

    def test_seed_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HANDPASS_SEED", "77")
        code, out, _ = run(
            capsys, "synth", "--out", str(tmp_path / "c"), "--users", "2",
            "--captures", "1", "--frames", "3", "--rate", "4",
        )
        assert code == 0
        assert config_line(out)["seed"] == 77

    @pytest.mark.parametrize("argv", [
        ["synth", "--out", "x"], ["crossval", "--data", "x.csv"],
        ["select", "--data", "x.csv"], ["enroll", "--data", "x.csv"],
    ])
    def test_seed_from_environment_not_an_integer(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("HANDPASS_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["synth", "--out", "x"], ["crossval", "--data", "x.csv"],
        ["select", "--data", "x.csv"], ["enroll", "--data", "x.csv"],
    ])
    @pytest.mark.parametrize("source", ["option", "environment"])
    def test_negative_seed_is_a_usage_error(self, capsys, monkeypatch, argv, source):
        if source == "option":
            argv = argv + ["--seed", "-1"]
        else:
            monkeypatch.setenv("HANDPASS_SEED", "-1")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --seed: -1 is not an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dataset", "auth", "serve"])
    def test_commands_that_draw_no_random_number_take_no_seed(self, capsys, monkeypatch,
                                                              command):
        monkeypatch.setenv("HANDPASS_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--seed" not in capsys.readouterr().out

    def test_unknown_model_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["crossval", "--data", "whatever.csv", "--model", "xgboost"])
        assert exc.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_input_dir_fails_politely(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "dataset", "--in", str(tmp_path / "nope"),
            "--slice", "D1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "error:" in err

    def test_auth_without_store_fails(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("HANDPASS_STORE", raising=False)
        code, _, err = run(
            capsys, "auth", "--capture", str(tmp_path / "x.pcap"),
        )
        assert code == 1
        assert "HANDPASS_STORE" in err


class TestDataset:
    def test_d1_shape_and_labels(self, d1_csv):
        m = read_csv(d1_csv)
        assert m.n_columns == 472
        assert m.n_rows == 3 * 20  # ceil(1 s x 20 pkt/s) rows per user
        assert sorted(set(m.user_id.tolist())) == [1, 2, 3]

    def test_d6_needs_five_captures(self, tmp_path, capsys):
        root = str(tmp_path / "five")
        main([
            "synth", "--out", root, "--users", "2", "--captures", "5",
            "--frames", "20", "--rate", "4", "--noise", "0.2", "--seed", "31",
        ])
        out = str(tmp_path / "D6.csv")
        code, stdout, _ = run(
            capsys, "dataset", "--in", root, "--slice", "D6", "--out", out,
        )
        assert code == 0
        m = read_csv(out)
        assert m.n_rows == 2 * 5 * 20  # every capture contributes 5 s x 4 pkt/s
        assert m.n_columns == 472
        assert "D6" in stdout

    def test_insufficient_captures_fail(self, clean_corpus, capsys, tmp_path):
        code, _, err = run(
            capsys, "dataset", "--in", clean_corpus, "--slice", "D2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1  # corpus has one capture per user, D2 needs three
        assert "error:" in err

    def test_no_prune_gives_full_width(self, clean_corpus, tmp_path, capsys):
        out = str(tmp_path / "full.csv")
        code, _, _ = run(
            capsys, "dataset", "--in", clean_corpus, "--slice", "D1",
            "--out", out, "--no-prune",
        )
        assert code == 0
        assert read_csv(out).n_columns == 516

    def test_scaler_flag_removed(self, clean_corpus, tmp_path):
        # scaling belongs to crossval (--scaler) and enroll, which fit it
        # on the rows they train on
        with pytest.raises(SystemExit) as exc:
            main(["dataset", "--in", clean_corpus, "--slice", "D1",
                  "--out", str(tmp_path / "scaled.csv"), "--scaler", "minmax"])
        assert exc.value.code == 2

    def test_lam_flag_removed(self, clean_corpus, tmp_path):
        # enroll stores the default sanitizer, so rows built under another
        # ridge weight would be served under the wrong one
        with pytest.raises(SystemExit) as exc:
            main(["dataset", "--in", clean_corpus, "--slice", "D1",
                  "--out", str(tmp_path / "lam.csv"), "--lam", "1000"])
        assert exc.value.code == 2


    def test_verbose_logs_stage_seconds(self, clean_corpus, tmp_path, capsys, caplog):
        caplog.set_level(logging.INFO, logger="handpass")
        code, _, _ = run(capsys, "dataset", "-v", "--in", clean_corpus, "--slice", "D1",
                         "--out", str(tmp_path / "v.csv"))
        assert code == 0
        timed = [r.getMessage() for r in caplog.records if "read_capture" in r.getMessage()]
        assert len(timed) == 1
        match = re.fullmatch(r"3 captures, 75 frames: read_capture (\d+\.\d{3}) s"
                             r" \((\d+) frames/s\), build_rows (\d+\.\d{3}) s"
                             r" \((\d+) frames/s\)", timed[0])
        assert match, timed[0]
        assert int(match[2]) > 0 and int(match[4]) > 0


class TestCrossval:
    def test_noise_free_model_is_perfect(self, d1_csv, capsys):
        code, out, _ = run(
            capsys, "crossval", "--data", d1_csv, "--model", "rf",
            "--trees", "10", "--k", "3", "--seed", "1",
        )
        assert code == 0
        assert "RandomForest" in out
        assert "1.0000" in out

    def test_all_models_with_report(self, d1_csv, tmp_path, capsys):
        report = str(tmp_path / "folds.csv")
        code, out, _ = run(
            capsys, "crossval", "--data", d1_csv, "--model", "all",
            "--trees", "5", "--k", "3", "--report", report, "--seed", "1",
        )
        assert code == 0
        for name in ("RandomForest", "DecisionTree", "KNN", "GaussianNB", "LinearSVM"):
            assert name in out
        lines = open(report).read().splitlines()
        assert lines[0] == "slice,model,fold,accuracy,f1"
        assert len(lines) == 1 + 5 * 3  # five models x three folds
        assert all(line.startswith("D1,") for line in lines[1:])

    @pytest.mark.parametrize("before", [True, False])
    def test_verbose_logs_fit_and_predict_seconds(self, d1_csv, capsys, caplog, before):
        caplog.set_level(logging.INFO, logger="handpass")
        argv = ["crossval", "--data", d1_csv, "--model", "all", "--trees", "3", "--k", "3"]
        code, _, _ = run(capsys, *(["-v"] + argv if before else argv + ["-v"]))
        assert code == 0
        timed = [r.getMessage() for r in caplog.records if "over 3 folds" in r.getMessage()]
        names = ("RandomForest", "DecisionTree", "KNN", "GaussianNB", "LinearSVM")
        assert [line.split(":")[0] for line in timed] == [f"D1 {n}" for n in names]
        assert all(" s, predict " in line for line in timed)

    def test_per_fold_scaler_needs_a_scaler(self, d1_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["crossval", "--data", d1_csv, "--model", "nb", "--per-fold-scaler"])
        assert exc.value.code == 2
        assert "--per-fold-scaler needs a --scaler" in capsys.readouterr().err
        code, _, _ = run(
            capsys, "crossval", "--data", d1_csv, "--model", "nb", "--k", "3",
            "--scaler", "minmax", "--per-fold-scaler",
        )
        assert code == 0

    def test_table_layout(self, d1_csv, capsys):
        code, out, _ = run(
            capsys, "crossval", "--data", d1_csv, "--model", "nb", "--k", "3",
        )
        assert code == 0
        lines = out.splitlines()
        header = next(l for l in lines if l.startswith("Model"))
        assert header.split() == ["Model", "Accuracy", "Precision", "Recall", "F1-Score"]


class TestSelect:
    def test_prints_ranked_subcarriers(self, d1_csv, capsys, tmp_path):
        report = str(tmp_path / "imp.csv")
        code, out, _ = run(
            capsys, "select", "--data", d1_csv, "--top", "5",
            "--model", "dt", "--report", report, "--seed", "1",
        )
        assert code == 0
        assert "top 5 subcarriers" in out
        ks = [int(tok) for tok in out.splitlines()[-2].split()]
        assert len(ks) == 5
        assert all(-128 <= k <= 127 for k in ks)
        lines = open(report).read().splitlines()
        assert lines[0] == "subcarrier,importance"
        assert len(lines) == 1 + 234


@pytest.fixture(scope="module")
def enroll_env(tmp_path_factory):
    """Corpus long enough for a 5 s enrollment slice (100+ frames)."""
    root = tmp_path_factory.mktemp("enroll")
    corpus = str(root / "corpus")
    main([
        "synth", "--out", corpus, "--users", "3", "--captures", "1",
        "--frames", "110", "--rate", "20", "--noise", "0.3", "--seed", "41",
    ])
    csv = str(root / "D4.csv")
    assert main(["dataset", "--in", corpus, "--slice", "D4", "--out", csv]) == 0
    return corpus, csv, str(root / "store.json")


class TestEnrollAuth:
    def test_enroll_then_auth_via_env(self, enroll_env, capsys, monkeypatch, tmp_path):
        corpus, csv, store = enroll_env
        monkeypatch.setenv("HANDPASS_STORE", store)
        code, out, _ = run(
            capsys, "enroll", "--data", csv, "--rate", "20",
            "--trees", "15", "--seed", "2",
        )
        assert code == 0
        assert "enrolled 3 users" in out
        assert os.path.exists(store)

        probe = os.path.join(corpus, "user_02", "Right", "capture_1.pcap")
        audit = str(tmp_path / "audit.jsonl")
        code, out, _ = run(capsys, "auth", "--capture", probe, "--log", audit)
        assert code == 0
        row = next(l for l in out.splitlines() if l.startswith("Grant"))
        assert row.split()[:2] == ["Grant", "2"]
        assert len(open(audit).read().splitlines()) == 1

    def test_auth_threshold_override_denies(self, enroll_env, capsys, monkeypatch):
        corpus, csv, store = enroll_env
        monkeypatch.setenv("HANDPASS_STORE", store)
        if not os.path.exists(store):
            assert main(["enroll", "--data", csv, "--rate", "20",
                         "--trees", "15", "--seed", "2"]) == 0
            capsys.readouterr()
        probe = os.path.join(corpus, "user_02", "Right", "capture_1.pcap")
        code, out, _ = run(
            capsys, "auth", "--capture", probe, "--threshold", "1.1",
        )
        assert code == 0
        assert "Deny" in out
        assert "below threshold" in out

    def test_auth_nan_threshold_is_an_error(self, enroll_env, capsys, monkeypatch):
        corpus, csv, store = enroll_env
        monkeypatch.setenv("HANDPASS_STORE", store)
        if not os.path.exists(store):
            assert main(["enroll", "--data", csv, "--rate", "20",
                         "--trees", "15", "--seed", "2"]) == 0
            capsys.readouterr()
        probe = os.path.join(corpus, "user_02", "Right", "capture_1.pcap")
        code, out, err = run(capsys, "auth", "--capture", probe, "--threshold", "nan")
        assert code == 1
        assert "Grant" not in out
        assert err.startswith("error: threshold nan")

    def test_verbose_logs_fit_save_and_store_bytes(self, enroll_env, capsys, caplog, tmp_path):
        caplog.set_level(logging.INFO, logger="handpass")
        _, csv, _ = enroll_env
        store = str(tmp_path / "store.json")
        code, _, _ = run(capsys, "enroll", "-v", "--data", csv, "--store", store,
                         "--rate", "20", "--trees", "3")
        assert code == 0
        timed = [r.getMessage() for r in caplog.records if r.getMessage().startswith("enroll:")]
        assert len(timed) == 1
        match = re.fullmatch(r"enroll: fit (\d+\.\d{3}) s, save_store (\d+\.\d{3}) s,"
                             r" store (\d+) bytes", timed[0])
        assert match, timed[0]
        assert int(match[3]) == os.path.getsize(store)

    def test_enroll_on_short_slice_fails(self, clean_corpus, tmp_path, capsys):
        csv = str(tmp_path / "D1.csv")
        assert main(["dataset", "--in", clean_corpus, "--slice", "D1",
                     "--out", csv]) == 0
        capsys.readouterr()
        code, _, err = run(
            capsys, "enroll", "--data", csv, "--store",
            str(tmp_path / "s.json"), "--rate", "20",
        )
        assert code == 1  # 20 rows per user is under the enrollment minimum
        assert "error:" in err


def add_strays(src, dst, non_csi, bad_csi):
    """Copy a synth capture and append copies of its last CSI record:
    ``non_csi`` as ARP frames, ``bad_csi`` with the payload cut to 1041
    bytes by the UDP length field."""
    with open(src, "rb") as fh:
        data = fh.read()
    record = data[-(16 + 14 + 20 + 8 + 1042):]
    head, pkt = record[:16], bytearray(record[16:])
    arp = bytearray(pkt)
    arp[12:14] = b"\x08\x06"
    short = bytearray(pkt)
    short[14 + 20 + 4:14 + 20 + 6] = (8 + 1041).to_bytes(2, "big")
    with open(dst, "wb") as fh:
        fh.write(data + (head + arp) * non_csi + (head + short) * bad_csi)


class TestCodecCounters:
    def test_dataset_sums_counters(self, clean_corpus, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(clean_corpus, corpus)
        for user, (non_csi, bad) in ((1, (2, 1)), (3, (1, 2))):
            path = corpus / f"user_0{user}" / "Right" / "capture_1.pcap"
            add_strays(path, path, non_csi, bad)
        code, out, _ = run(capsys, "dataset", "--in", str(corpus), "--slice", "D1",
                           "--out", str(tmp_path / "D1.csv"))
        assert code == 0
        assert "codec: 3 non-CSI packets skipped, 3 bad CSI records" in out.splitlines()

    def test_auth_reports_its_capture(self, enroll_env, capsys, tmp_path):
        corpus, csv, _ = enroll_env
        store = str(tmp_path / "store.json")
        assert main(["enroll", "--data", csv, "--store", store, "--rate", "20",
                     "--trees", "5", "--seed", "2"]) == 0
        probe = str(tmp_path / "probe.pcap")
        add_strays(os.path.join(corpus, "user_02", "Right", "capture_1.pcap"), probe, 4, 1)
        capsys.readouterr()
        code, out, _ = run(capsys, "auth", "--store", store, "--capture", probe)
        assert code == 0
        assert "codec: 4 non-CSI packets skipped, 1 bad CSI records" in out.splitlines()


class TestRefusedStore:
    """A store that loading refuses is a domain error (exit 1 with an
    error line) for every command that loads one, not a traceback."""

    @pytest.mark.parametrize("command", ["auth", "serve"])
    @pytest.mark.parametrize("damage", ["child-is-root", "no-model"])
    def test_refused_store_is_an_error(self, enroll_env, capsys, tmp_path, command, damage):
        corpus, csv, _ = enroll_env
        store = str(tmp_path / "store.json")
        assert main(["enroll", "--data", csv, "--store", store, "--rate", "20",
                     "--trees", "3", "--seed", "2"]) == 0
        with open(store) as fh:
            doc = json.load(fh)
        if damage == "child-is-root":
            doc["model"]["params"]["trees"][0]["left"][0] = 0
        else:
            del doc["model"]
        with open(store, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        probe = os.path.join(corpus, "user_02", "Right", "capture_1.pcap")
        rest = ["--capture", probe] if command == "auth" else ["--port", "0"]
        code, out, err = run(capsys, command, "--store", store, *rest)
        assert code == 1
        assert err.startswith(f"error: store {store}: ")
        assert "serving" not in out and "Grant" not in out


class TestInconsistentStore:
    """A store whose own fields disagree is refused on load too, with the
    same error line, rather than granting or failing at each request."""

    @pytest.mark.parametrize("command", ["auth", "serve"])
    @pytest.mark.parametrize("field, value", [
        ("packets_per_second", -5), ("packets_per_second", 0), ("prune", "yes"),
    ])
    def test_refused_on_load(self, enroll_env, capsys, tmp_path, command, field, value):
        corpus, csv, _ = enroll_env
        store = str(tmp_path / "store.json")
        assert main(["enroll", "--data", csv, "--store", store, "--rate", "20",
                     "--trees", "3", "--seed", "2"]) == 0
        with open(store) as fh:
            doc = json.load(fh)
        doc[field] = value
        with open(store, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        probe = os.path.join(corpus, "user_02", "Right", "capture_1.pcap")
        rest = ["--capture", probe] if command == "auth" else ["--port", "0"]
        code, out, err = run(capsys, command, "--store", store, *rest)
        assert code == 1
        assert err.startswith(f"error: store {store}: ")
        assert "serving" not in out and "Grant" not in out


class TestRefusedHyperParams:
    """A hyper-parameter that HyperParams refuses, or a fold count that
    cross_validate refuses, is an error line that names the option
    (exit 1), given before any model is fitted."""

    @pytest.mark.parametrize("option, value, want", [
        ("--trees", "0", "n_trees 0 is not an integer >= 1"),
        ("--knn-k", "0", "k_neighbors 0 is not an integer >= 1"),
        ("--max-depth", "-1", "max_depth -1 is not an integer >= 0"),
        ("--svm-epochs", "-1", "svm_epochs -1 is not an integer >= 1"),
        ("--k", "0", "k 0 is not an integer >= 2"),
        ("--k", "1", "k 1 is not an integer >= 2"),
    ])
    def test_crossval(self, d1_csv, capsys, option, value, want):
        code, out, err = run(capsys, "crossval", "--data", d1_csv, "--model", "all",
                             "--k", "3", option, value)
        assert code == 1
        assert err == f"error: {option}: {want}\n"
        assert "cross-validation" not in out

    def test_enroll(self, enroll_env, capsys, tmp_path):
        _, csv, _ = enroll_env
        store = str(tmp_path / "store.json")
        code, out, err = run(capsys, "enroll", "--data", csv, "--store", store,
                             "--rate", "20", "--trees", "0")
        assert code == 1
        assert err == "error: --trees: n_trees 0 is not an integer >= 1\n"
        assert "enrolled" not in out and not os.path.exists(store)


class TestRefusedSynth:
    """A synth setting that SynthConfig refuses is an error line (exit 1),
    and no capture is written."""

    @pytest.mark.parametrize("option, value, want", [
        ("--noise", "nan", "noise_sigma nan is not a finite number >= 0"),
        ("--ramp", "inf", "ramp_range inf is not a finite number >= 0"),
        ("--offset-range", "nan", "offset_range nan is not a finite number >= 0"),
        ("--users", "0", "users 0 is not an integer >= 1"),
        ("--ramp", "1e308", "ramp_range 1e+308 is too large:"
                            " the span 2 * ramp_range is not finite"),
        ("--offset-range", "1e308", "offset_range 1e+308 is too large:"
                                    " the span 2 * offset_range is not finite"),
        ("--gain-jitter", "1e308", "gain_jitter 1e+308 is too large:"
                                   " the span 2 * gain_jitter is not finite"),
        ("--ramp", "1e307", "ramp_range 1e+307 and offset_range 3.141592653589793 are"
                            " too large: the largest phase, 1.5 * bump_count"
                            " + 128 * ramp_range + offset_range, is not finite"),
    ])
    def test_refused(self, capsys, tmp_path, option, value, want):
        out_dir = tmp_path / "corpus"
        code, _, err = run(capsys, "synth", "--out", str(out_dir), "--users", "2",
                           "--captures", "1", "--frames", "3", "--rate", "4", option, value)
        assert code == 1
        assert err == f"error: {want}\n"
        assert not out_dir.exists()


class TestUnparsableCsv:
    """A CSV cell that does not parse is an error line naming the file and
    line (exit 1) in every command that reads a slice CSV."""

    @pytest.mark.parametrize("command", ["crossval", "select", "enroll"])
    @pytest.mark.parametrize("column, cell", [(0, "x"), (-4, "one")])
    def test_refused(self, d1_csv, capsys, tmp_path, command, column, cell):
        lines = open(d1_csv).read().splitlines()
        fields = lines[2].split(",")
        fields[column] = cell
        lines[2] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        extra = ["--store", str(tmp_path / "store.json")] if command == "enroll" else []
        code, _, err = run(capsys, command, "--data", str(bad), *extra)
        assert code == 1
        assert err.startswith(f"error: {bad}:3: ") and f"'{cell}'" in err
        assert not (tmp_path / "store.json").exists()


class TestRefusedEnroll:
    """A store that enroll builds but the store refuses is a domain error
    (exit 1 with an error line), not a traceback, and nothing is written."""

    def enroll(self, capsys, csv, store, *extra):
        return run(capsys, "enroll", "--data", csv, "--store", store, "--trees", "3",
                   "--seed", "2", *extra)

    def test_rate_zero(self, enroll_env, capsys, tmp_path):
        _, csv, _ = enroll_env
        store = str(tmp_path / "store.json")
        code, out, err = self.enroll(capsys, csv, store, "--rate", "0")
        assert code == 1
        assert err.startswith("error: ") and "packets_per_second 0" in err
        assert "enrolled" not in out and not os.path.exists(store)

    def test_csv_100_features_wide(self, enroll_env, capsys, tmp_path):
        _, csv, _ = enroll_env
        m = read_csv(csv)
        narrow = str(tmp_path / "narrow.csv")
        write_csv(FeatureMatrix(
            features=m.features[:, :100], feature_names=tuple(f"f_{i}" for i in range(100)),
            capture=m.capture, gender=m.gender, hand=m.hand, user_id=m.user_id,
        ), narrow)
        store = str(tmp_path / "store.json")
        code, out, err = self.enroll(capsys, narrow, store, "--rate", "20")
        assert code == 1
        assert err.startswith("error: ") and "feature layout" in err
        assert "enrolled" not in out and not os.path.exists(store)
