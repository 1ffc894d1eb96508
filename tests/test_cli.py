import argparse
import json
import logging
import os
import re
import select
import shutil
import subprocess
import sys

import numpy as np
import pytest

from handpass import cli, synth
from handpass.cli import build_parser, main
from handpass.dataset import FeatureMatrix, read_csv, write_csv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def module_env():
    """The environment for running ``python -m handpass`` from this checkout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


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

    @pytest.mark.parametrize("rate", ["-5", "0"])
    def test_rate_below_one_is_refused_before_any_read(self, clean_corpus, tmp_path, capsys,
                                                       monkeypatch, rate):
        # -5 wrote a short slice (have[:-5]) and 0 took the manifest's rate, both with exit 0
        monkeypatch.setattr(cli, "read_capture", lambda *a: pytest.fail("a capture was read"))
        out = tmp_path / "D1.csv"
        code, stdout, err = run(capsys, "dataset", "--in", clean_corpus, "--slice", "D1",
                                "--out", str(out), "--rate", rate)
        assert code == 1
        assert err == f"error: --rate: packets_per_second {rate} is not an integer >= 1\n"
        assert "rows x" not in stdout and not out.exists()

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

    @pytest.mark.parametrize("model", ["rf", "dt", "knn", "nb", "svm"])
    def test_matrix_of_no_feature_columns_is_an_error(self, tmp_path, capsys, model):
        data = tmp_path / "z.csv"
        data.write_text("capture,gender,hand,user_id\n"
                        + "".join(f"1,M,Right,{1 + i % 2}\n" for i in range(24)))
        code, out, err = run(capsys, "crossval", "--data", str(data), "--model", model)
        assert code == 1
        assert err == "error: feature matrix has no feature columns\n"
        assert "Traceback" not in err and "F1-Score" not in out


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

    def test_unpruned_slice_reports_every_subcarrier(self, clean_corpus, capsys, tmp_path):
        # the names come from the CSV, so the 512-wide layout maps to all 256 bins
        data, report = str(tmp_path / "full.csv"), str(tmp_path / "imp.csv")
        assert main(["dataset", "--in", clean_corpus, "--slice", "D1", "--out", data,
                     "--no-prune"]) == 0
        code, _, _ = run(capsys, "select", "--data", data, "--report", report, "--seed", "1")
        assert code == 0
        lines = open(report).read().splitlines()
        assert lines[0] == "subcarrier,importance"
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(-128, 128))


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

    def test_auth_window_of_no_finite_frame_count_is_an_error(self, enroll_env, capsys,
                                                              monkeypatch):
        corpus, csv, store = enroll_env
        monkeypatch.setenv("HANDPASS_STORE", store)
        if not os.path.exists(store):
            assert main(["enroll", "--data", csv, "--rate", "20",
                         "--trees", "15", "--seed", "2"]) == 0
            capsys.readouterr()
        probe = os.path.join(corpus, "user_02", "Right", "capture_1.pcap")
        code, out, err = run(capsys, "auth", "--capture", probe, "--window", "1e308")
        assert code == 1
        assert "Grant" not in out
        assert err.startswith("error: window_seconds 1e+308 ")

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

    # In a child process: a store that wrongly loads would leave `serve`
    # running, and a traceback shows only on stderr
    @pytest.mark.parametrize("command", ["auth", "serve"])
    @pytest.mark.parametrize("damage", ["scaler-a-no-float", "rate-no-float"])
    def test_number_no_float_holds_is_an_error(self, enroll_env, tmp_path, command, damage):
        corpus, csv, _ = enroll_env
        store = str(tmp_path / "store.json")
        assert main(["enroll", "--data", csv, "--store", store, "--rate", "20",
                     "--trees", "3", "--seed", "2"]) == 0
        with open(store) as fh:
            doc = json.load(fh)
        if damage == "scaler-a-no-float":
            doc["scaler"]["a"][0] = 10**400
        else:
            doc["packets_per_second"] = 10**400
        with open(store, "w") as fh:
            json.dump(doc, fh)
        probe = os.path.join(corpus, "user_02", "Right", "capture_1.pcap")
        rest = ["--capture", probe] if command == "auth" else ["--port", "0"]
        proc = subprocess.run([sys.executable, "-m", "handpass", command, "--store", store,
                               *rest], env=module_env(), capture_output=True, text=True,
                              timeout=30)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: store {store}: ")
        assert "Traceback" not in proc.stderr
        assert "serving" not in proc.stdout and "Grant" not in proc.stdout


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


LARGEST_SAMPLE = ("are too large: the largest sample, quant_scale * ((1 + gain_jitter)"
                  " * (1.25 + 1.5 * bump_count) + sqrt(2) * 16 * noise_sigma), is not finite")


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
        ("--gain-jitter", "8.99e307", "gain_jitter 8.99e+307 is too large:"
                                      " the span 2 * gain_jitter is not finite"),
        ("--gain-jitter", "1e307", "gain_jitter 1e+307, noise_sigma 0.5 and quant_scale"
                                   f" 1000.0 {LARGEST_SAMPLE}"),
        ("--noise", "1e306", f"gain_jitter 0.2, noise_sigma 1e+306 and quant_scale 1000.0"
                             f" {LARGEST_SAMPLE}"),
        # more than the user ids and capture numbers that CaptureMeta takes
        ("--users", "21", "users 21 is more than the 20 user ids of the dataset layout"),
        ("--captures", "6", "captures_per_user 6 is more than the 5 capture numbers"
                            " of the dataset layout"),
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

    @pytest.mark.parametrize("command", ["crossval", "select", "enroll"])
    def test_non_ascii_byte(self, d1_csv, capsys, tmp_path, command):
        data = bytearray(open(d1_csv, "rb").read())
        third = data.index(b"\n", data.index(b"\n") + 1) + 1
        data[third + 5] = 0xFF
        bad = tmp_path / "bad.csv"
        bad.write_bytes(bytes(data))
        extra = ["--store", str(tmp_path / "store.json")] if command == "enroll" else []
        code, _, err = run(capsys, command, "--data", str(bad), *extra)
        assert code == 1
        assert err == f"error: {bad}:3: a field holds a non-ASCII byte\n"
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

    @pytest.mark.parametrize("columns", ["swapped", "renamed"])
    def test_columns_of_no_layout_refused_before_any_fit(self, enroll_env, capsys, tmp_path,
                                                         monkeypatch, columns):
        # the swapped CSV enrolled, and auth then granted users 1 and 3 as user 2
        _, csv, _ = enroll_env
        data = rewrite_columns(csv, tmp_path, columns)
        monkeypatch.setattr(cli.gk, "train", lambda *a, **kw: pytest.fail("a model was fitted"))
        store = str(tmp_path / "store.json")
        code, out, err = self.enroll(capsys, data, store, "--rate", "20")
        assert code == 1
        assert err.startswith("error: cannot enroll: ") and "feature layout" in err
        assert "enrolled" not in out and not os.path.exists(store)


def rewrite_columns(csv, tmp_path, columns):
    """A copy of the slice CSV with its phase block first, named with it
    ("swapped"), or with its feature columns named f_0, f_1, ... ("renamed")."""
    m = read_csv(csv)
    features, names = m.features, m.feature_names
    if columns == "swapped":
        w = len(names) // 2
        features, names = np.hstack([features[:, w:], features[:, :w]]), names[w:] + names[:w]
    else:
        names = tuple(f"f_{i}" for i in range(len(names)))
    path = str(tmp_path / f"{columns}.csv")
    write_csv(FeatureMatrix(features=features, feature_names=names, capture=m.capture,
                            gender=m.gender, hand=m.hand, user_id=m.user_id), path)
    return path


def _drop(index, key):
    def damage(doc):
        del doc["captures"][index][key]
        return doc
    return damage


def _put(index, key, value):
    def damage(doc):
        doc["captures"][index][key] = value
        return doc
    return damage


def _top(key, value):
    def damage(doc):
        doc[key] = value
        return doc
    return damage


class TestMalformedManifest:
    """A manifest that load_manifest refuses is an error line naming the
    manifest (exit 1), not a traceback, and no slice CSV is written."""

    @pytest.mark.parametrize("damage, want", [
        (lambda doc: [1, 2], "not a handpass-synth-manifest document"),
        (lambda doc: "manifest", "not a handpass-synth-manifest document"),
        (_top("format", "other"), "not a handpass-synth-manifest document"),
        (_top("version", 2), "unsupported manifest version 2"),
        (_top("config", None), "config is not an object"),
        (_top("config", {"bumps_per_user": 6}), "config: SynthConfig.__init__() got an"
                                                " unexpected keyword argument 'bumps_per_user'"),
        (_top("config", {"users": 21}), "config: users 21 is more than the 20 user ids"
                                        " of the dataset layout"),
        (_top("captures", {}), "captures is not a list"),
        (_put(0, "user_id", 21), "capture 0: user_id out of range: 21"),
        (_put(1, "capture_number", 6), "capture 1: capture_number out of range: 6"),
        (_put(2, "gender", "X"), "capture 2: gender must be one of ('M', 'F'): 'X'"),
        (_put(0, "hand", None), "capture 0: hand must be one of ('Right', 'Left'): None"),
        (_put(0, "path", 7), "capture 0: path 7 is not a string"),
        (_top("captures", [1]), "capture 0 is not an object"),
    ] + [
        (_drop(0, key), f"capture 0 lacks ['{key}']")
        for key in ("path", "user_id", "gender", "hand", "capture_number")
    ] + [
        (_put(0, "user_id", 1.5), "capture 0: user_id 1.5 is not an integer >= 1"),
        (_put(0, "user_id", True), "capture 0: user_id True is not an integer >= 1"),
        (_put(1, "capture_number", True), "capture 1: capture_number True is not an integer >= 1"),
        (_put(1, "capture_number", 1.0), "capture 1: capture_number 1.0 is not an integer >= 1"),
    ] + [
        (_put(0, "path", path), f"capture 0: path {path!r} is not inside the manifest's directory")
        for path in ("/etc/hostname", "../x.pcap", "user_01/../../x.pcap")
    ] + [
        # one file per capture session: user 2's file listed again as user 1's
        # capture 1 mixed both people's frames in user 1's rows
        (_put(1, "user_id", 1), "capture 1: (user_id, hand, capture_number) (1, 'Right', 1)"
                                " repeats capture 0's"),
        (_put(2, "path", "user_01/Right/capture_1.pcap"),
         "capture 2: path 'user_01/Right/capture_1.pcap' repeats capture 0's"),
        (_put(1, "path", "user_02/../user_01/Right/capture_1.pcap"),
         "capture 1: path 'user_01/Right/capture_1.pcap' repeats capture 0's"),
    ] + [
        pytest.param(_top("config", {"noise_sigma": 10**400}),
                     f"config: noise_sigma {10**400} is not a finite number >= 0",
                     id="damage-config: noise_sigma 10**400 is not a finite number >= 0"),
    ])
    def test_refused(self, clean_corpus, capsys, tmp_path, damage, want):
        with open(os.path.join(clean_corpus, synth.MANIFEST_NAME)) as fh:
            doc = damage(json.load(fh))
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        manifest = corpus / synth.MANIFEST_NAME
        manifest.write_text(json.dumps(doc))
        out_csv = tmp_path / "D1.csv"
        code, out, err = run(capsys, "dataset", "--in", str(corpus), "--slice", "D1",
                             "--out", str(out_csv))
        assert code == 1
        assert err == f"error: {manifest}: {want}\n"
        assert "rows x" not in out and not out_csv.exists()

    def test_path_through_a_parent_inside_the_corpus_accepted(self, clean_corpus, capsys,
                                                              tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(clean_corpus, corpus)
        manifest = corpus / synth.MANIFEST_NAME
        doc = json.loads(manifest.read_text())
        doc["captures"][0]["path"] = "user_01/../user_01/Right/capture_1.pcap"
        manifest.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "dataset", "--in", str(corpus), "--slice", "D1",
                           "--out", str(tmp_path / "D1.csv"))
        assert code == 0 and "slice D1: 60 rows" in out


class TestServePort:
    """A port outside 0..65535 is a usage error (exit 2) at parse time,
    before the store loads and before any socket is bound."""

    @pytest.mark.parametrize("port", ["70000", "65536", "-1"])
    def test_out_of_range_is_a_usage_error(self, enroll_env, capsys, tmp_path, port):
        _, csv, _ = enroll_env
        store = str(tmp_path / "store.json")
        assert main(["enroll", "--data", csv, "--store", store, "--rate", "20",
                     "--trees", "3", "--seed", "2"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--store", store, "--port", port])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"argument --port: {port} is not a port in 0..65535" in err
        assert "serving" not in out


class TestServeOutput:
    def test_serving_line_is_written_while_stdout_is_a_pipe(self, enroll_env, tmp_path):
        # a pipe makes stdout block-buffered; with --port 0 the line is the only
        # place the port shows, so it must arrive while the server runs
        _, csv, _ = enroll_env
        store = str(tmp_path / "store.json")
        assert main(["enroll", "--data", csv, "--store", store, "--rate", "20",
                     "--trees", "3", "--seed", "2"]) == 0
        proc = subprocess.Popen([sys.executable, "-m", "handpass", "serve", "--store", store,
                                 "--port", "0"], env=module_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready, "no output within 10 s"
            assert proc.stdout.readline().startswith("config: ")
            line = proc.stdout.readline()
            assert re.fullmatch(r"serving on 127\.0\.0\.1:[1-9]\d* \(ctrl-c to stop\)\n", line)
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()


class TestSelectTop:
    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_below_one_is_refused_before_any_fit(self, d1_csv, capsys, monkeypatch, top):
        monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("a model was fitted"))
        code, out, err = run(capsys, "select", "--data", d1_csv, "--top", top)
        assert code == 1
        assert err == f"error: --top: top_m {top} is not an integer >= 1\n"
        assert "subcarriers by" not in out

    def test_unmapped_feature_name_is_refused_before_any_fit(self, d1_csv, capsys, tmp_path,
                                                             monkeypatch):
        # this trained the tree, then ended in a ValueError traceback
        renamed = rewrite_columns(d1_csv, tmp_path, "renamed")
        monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("a model was fitted"))
        code, out, err = run(capsys, "select", "--data", renamed, "--top", "3")
        assert code == 1
        assert err == f"error: {renamed}: feature name 'f_0' does not map to a subcarrier\n"
        assert "subcarriers by" not in out


# Every subcommand's options in declaration order: option strings, dest,
# default, type and choices, written out literally, so that options built
# from the layers that own each setting cannot drift from what users type.
OPTION_INVENTORY = {
    "synth": [
        (("--out",), "out", None, None, None),
        (("--users",), "users", 20, "int", None),
        (("--captures",), "captures", 5, "int", None),
        (("--frames",), "frames", 5500, "int", None),
        (("--rate",), "rate", 1000, "int", None),
        (("--noise",), "noise", 0.5, "float", None),
        (("--bumps",), "bumps", 4, "int", None),
        (("--ramp",), "ramp", 0.05, "float", None),
        (("--offset-range",), "offset_range", 3.141592653589793, "float", None),
        (("--gain-jitter",), "gain_jitter", 0.2, "float", None),
        (("--quant-scale",), "quant_scale", 1000.0, "float", None),
        (("--seed",), "seed", 42, "_seed", None),
        (("-v", "--verbose"), "verbose", argparse.SUPPRESS, None, None),
    ],
    "dataset": [
        (("--in",), "indir", None, None, None),
        (("--slice",), "slice", None, None, ("D1", "D2", "D3", "D4", "D5", "D6")),
        (("--out",), "out", None, None, None),
        (("--prune", "--no-prune"), "prune", True, None, None),
        (("--rate",), "rate", None, "int", None),
        (("-v", "--verbose"), "verbose", argparse.SUPPRESS, None, None),
    ],
    "crossval": [
        (("--data",), "data", None, None, None),
        (("--model",), "model", "rf", None, ("rf", "dt", "knn", "nb", "svm", "all")),
        (("--k",), "k", 10, "int", None),
        (("--scaler",), "scaler", "none", None, ("minmax", "zscore", "robust", "none")),
        (("--per-fold-scaler",), "per_fold_scaler", False, None, None),
        (("--trees",), "trees", None, "int", None),
        (("--max-depth",), "max_depth", None, "int", None),
        (("--knn-k",), "knn_k", None, "int", None),
        (("--svm-epochs",), "svm_epochs", None, "int", None),
        (("--report",), "report", None, None, None),
        (("--seed",), "seed", 42, "_seed", None),
        (("-v", "--verbose"), "verbose", argparse.SUPPRESS, None, None),
    ],
    "select": [
        (("--data",), "data", None, None, None),
        (("--top",), "top", 20, "int", None),
        (("--model",), "model", "dt", None, ("dt", "rf")),
        (("--trees",), "trees", None, "int", None),
        (("--max-depth",), "max_depth", None, "int", None),
        (("--report",), "report", None, None, None),
        (("--seed",), "seed", 42, "_seed", None),
        (("-v", "--verbose"), "verbose", argparse.SUPPRESS, None, None),
    ],
    "enroll": [
        (("--data",), "data", None, None, None),
        (("--store",), "store", None, None, None),
        (("--model",), "model", "rf", None, ("dt", "knn", "nb", "rf", "svm")),
        (("--scaler",), "scaler", "minmax", None, ("minmax", "zscore", "robust")),
        (("--rate",), "rate", 1000, "int", None),
        (("--trees",), "trees", None, "int", None),
        (("--max-depth",), "max_depth", None, "int", None),
        (("--knn-k",), "knn_k", None, "int", None),
        (("--svm-epochs",), "svm_epochs", None, "int", None),
        (("--seed",), "seed", 42, "_seed", None),
        (("-v", "--verbose"), "verbose", argparse.SUPPRESS, None, None),
    ],
    "auth": [
        (("--store",), "store", None, None, None),
        (("--capture",), "capture", None, None, None),
        (("--window",), "window", 1.0, "float", None),
        (("--threshold",), "threshold", 0.6, "float", None),
        (("--permission",), "permission", "enter", None, None),
        (("--log",), "log", None, None, None),
        (("-v", "--verbose"), "verbose", argparse.SUPPRESS, None, None),
    ],
    "serve": [
        (("--store",), "store", None, None, None),
        (("--host",), "host", "127.0.0.1", None, None),
        (("--port",), "port", 5501, "int", None),
        (("--log",), "log", None, None, None),
        (("-v", "--verbose"), "verbose", argparse.SUPPRESS, None, None),
    ],
}


class TestOptionInventory:
    @staticmethod
    def subparsers(monkeypatch):
        monkeypatch.delenv("HANDPASS_SEED", raising=False)
        parser = build_parser()
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def test_every_command_declares_the_same_options(self, monkeypatch):
        commands = self.subparsers(monkeypatch)
        assert list(commands) == list(OPTION_INVENTORY)
        for name, sp in commands.items():
            got = [(tuple(a.option_strings), a.dest, a.default,
                    getattr(a.type, "__name__", None),
                    None if a.choices is None else tuple(a.choices))
                   for a in sp._actions if not isinstance(a, argparse._HelpAction)]
            # repr tells 1000 from 1000.0 and True from 1
            assert repr(got) == repr(OPTION_INVENTORY[name]), name

    def test_synth_defaults_build_the_default_config(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("HANDPASS_SEED", raising=False)
        made = []
        monkeypatch.setattr(synth, "generate",
                            lambda cfg, out: made.append(cfg) or {"captures": []})
        code, out, _ = run(capsys, "synth", "--out", str(tmp_path))
        assert code == 0
        assert made == [synth.SynthConfig()]
        assert config_line(out) == {
            "bumps": 4, "captures": 5, "command": "synth", "frames": 5500,
            "gain_jitter": 0.2, "noise": 0.5, "offset_range": 3.141592653589793,
            "out": str(tmp_path), "quant_scale": 1000.0, "ramp": 0.05, "rate": 1000,
            "seed": 42, "users": 20, "verbose": 0,
        }
