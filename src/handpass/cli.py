"""handpass command line: one binary, git-style subcommands.

synth     generate synthetic capture files + manifest
dataset   parse captures, preprocess, slice (D1..D6), write CSV
crossval  stratified k-fold CV of one or all models over slice CSVs
select    rank subcarriers by tree feature importance
enroll    train + persist an enrollment store from a slice CSV
auth      one authentication decision from a capture file
serve     line-JSON authentication service

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import sys
from dataclasses import replace
from time import perf_counter

import numpy as np

from . import dataset as ds
from . import gatekeeper as gk
from . import synth
from .codec import read_capture
from .dsp import SCALER_KINDS
from .errors import HandpassError, _check_count
from .learners import (
    KINDS,
    HyperParams,
    cross_validate,
    default_hyper,
    feature_importance,
    select_subcarriers,
    train,
)
from .learners.importance import subcarrier_importance, subcarriers

log = logging.getLogger("handpass")

MODEL_CHOICES = list(KINDS) + ["all"]


def _print_config(args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config: {json.dumps(cfg, default=str)}")


def _print_table(headers, rows) -> None:
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    for i, row in enumerate(cells):
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


# command-line option (argparse dest) -> the HyperParams field it sets
_HYPER_OPTIONS = {"trees": "n_trees", "max_depth": "max_depth",
                  "knn_k": "k_neighbors", "svm_epochs": "svm_epochs"}
# command-line option (argparse dest) -> the SynthConfig field it sets
_SYNTH_OPTIONS = {"users": "users", "captures": "captures_per_user",
                  "frames": "frames_per_capture", "rate": "packets_per_second",
                  "noise": "noise_sigma", "bumps": "bump_count", "ramp": "ramp_range",
                  "offset_range": "offset_range", "gain_jitter": "gain_jitter",
                  "quant_scale": "quant_scale"}


def _hyper_from(args: argparse.Namespace, kind: str) -> HyperParams:
    hp = default_hyper(kind)
    for option, name in _HYPER_OPTIONS.items():
        value = getattr(args, option, None)
        if value is not None:
            try:
                hp = replace(hp, **{name: value})
            except ValueError as exc:  # HyperParams refuses the value
                raise HandpassError(f"{_flag(option)}: {exc}") from exc
    return hp


def _count_option(option: str, name: str, value, least: int) -> int:
    """A count given on the command line, refused before any fit."""
    try:
        return _check_count(name, value, least)
    except ValueError as exc:
        raise HandpassError(f"{_flag(option)}: {exc}") from exc


def cmd_synth(args) -> int:
    try:
        cfg = synth.SynthConfig(seed=args.seed, **{name: getattr(args, option)
                                                   for option, name in _SYNTH_OPTIONS.items()})
    except ValueError as exc:  # SynthConfig refuses the value
        raise HandpassError(str(exc)) from exc
    manifest = synth.generate(cfg, args.out)
    n = len(manifest["captures"])
    print(f"wrote {n} captures ({cfg.users} users x {cfg.captures_per_user})"
          f" to {args.out}")
    print(f"manifest: {os.path.join(args.out, synth.MANIFEST_NAME)}")
    return 0


def _codec_counters(skipped: int, bad_csi: int) -> str:
    return f"codec: {skipped} non-CSI packets skipped, {bad_csi} bad CSI records"


def _rows_from_manifest(args, manifest):
    rows, dropped, skipped, bad_csi = [], 0, 0, 0
    frames, read_s, build_s = 0, 0.0, 0.0
    for entry in manifest["captures"]:
        meta = ds.CaptureMeta(
            capture_number=entry["capture_number"],
            gender=entry["gender"],
            hand=entry["hand"],
            user_id=entry["user_id"],
        )
        start = perf_counter()
        capture = read_capture(os.path.join(args.indir, entry["path"]))
        read_at = perf_counter()
        got, bad = ds.build_rows(capture, meta, prune=args.prune)
        read_s += read_at - start
        build_s += perf_counter() - read_at
        rows.extend(got)
        frames += len(capture.csi)
        dropped += bad
        skipped += capture.skipped_non_csi
        bad_csi += capture.bad_csi
        log.info("parsed %s: %d rows", entry["path"], len(got))
    log.info("%d captures, %d frames: read_capture %.3f s (%.0f frames/s),"
             " build_rows %.3f s (%.0f frames/s)", len(manifest["captures"]), frames,
             read_s, frames / read_s if read_s else 0, build_s,
             frames / build_s if build_s else 0)
    return rows, dropped, skipped, bad_csi


def cmd_dataset(args) -> int:
    if args.rate is not None:   # as slice_dataset checks it, before any capture is read
        _count_option("rate", "packets_per_second", args.rate, 1)
    path = os.path.join(args.indir, synth.MANIFEST_NAME)
    try:
        manifest = synth.load_manifest(path)
    except ValueError as exc:  # a document that is not a manifest load_manifest takes
        raise HandpassError(f"{path}: {exc}") from exc
    rate = manifest["config"]["packets_per_second"] if args.rate is None else args.rate
    rows, dropped, skipped, bad_csi = _rows_from_manifest(args, manifest)
    matrix = ds.slice_dataset(rows, args.slice, rate).rows
    ds.write_csv(matrix, args.out)
    print(f"slice {args.slice}: {matrix.n_rows} rows x {matrix.n_columns} columns"
          f" ({dropped} frames dropped) -> {args.out}")
    print(_codec_counters(skipped, bad_csi))
    return 0


def cmd_crossval(args) -> int:
    kinds = list(KINDS) if args.model == "all" else [args.model]
    hypers = {kind: _hyper_from(args, kind) for kind in kinds}   # refused before any fit
    _count_option("k", "k", args.k, 2)   # as cross_validate checks it
    report_rows = []
    for data_path in args.data:
        slice_name = os.path.splitext(os.path.basename(data_path))[0]
        m = ds.read_csv(data_path)
        X, y = m.features, m.labels
        table = []
        for kind in kinds:
            rep = cross_validate(
                kind, X, y, k=args.k, hyper=hypers[kind],
                seed=args.seed, scaler=None if args.scaler == "none" else args.scaler,
                per_fold_scaler=args.per_fold_scaler,
            )
            log.info("%s %s: fit %.3f s, predict %.3f s over %d folds",
                     slice_name, KINDS[kind], rep.fit_s, rep.predict_s, args.k)
            table.append([
                KINDS[kind],
                f"{rep.mean_accuracy:.4f}",
                f"{rep.mean_precision:.4f}",
                f"{rep.mean_recall:.4f}",
                f"{rep.mean_f1:.4f}",
            ])
            for fold, f1 in enumerate(rep.fold_f1):
                report_rows.append([
                    slice_name, KINDS[kind], fold,
                    repr(rep.fold_accuracy[fold]), repr(f1),
                ])
        print(f"\n{slice_name}: {args.k}-fold cross-validation"
              f" ({X.shape[0]} rows, {len(np.unique(y))} classes)")
        _print_table(["Model", "Accuracy", "Precision", "Recall", "F1-Score"], table)
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write("slice,model,fold,accuracy,f1\n")
            for row in report_rows:
                fh.write(",".join(map(str, row)) + "\n")
        print(f"\nreport: {args.report}")
    return 0


def cmd_select(args) -> int:
    hyper = _hyper_from(args, args.model)
    _count_option("top", "top_m", args.top, 1)   # as select_subcarriers checks it
    m = ds.read_csv(args.data)
    try:
        subcarriers(m.feature_names)   # as the ranking maps them, before any fit
    except ValueError as exc:
        raise HandpassError(f"{args.data}: {exc}") from exc
    model = train(args.model, m.features, m.labels, hyper, args.seed)
    imp = feature_importance(model)
    picked = select_subcarriers(imp, args.top, names=m.feature_names)
    print(f"top {args.top} subcarriers by {KINDS[args.model]} importance:")
    print(" ".join(str(k) for k in picked))
    if args.report:
        per_k = subcarrier_importance(imp, m.feature_names)
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write("subcarrier,importance\n")
            for k in sorted(per_k):
                fh.write(f"{k},{repr(per_k[k])}\n")
        print(f"report: {args.report}")
    return 0


def _store_path(args) -> str:
    path = args.store or os.environ.get("HANDPASS_STORE")
    if not path:
        raise HandpassError("no store path: pass --store or set HANDPASS_STORE")
    return path


def cmd_enroll(args) -> int:
    path = _store_path(args)
    m = ds.read_csv(args.data)
    X, y = m.features, m.labels
    by_user = {int(u): X[y == u] for u in np.unique(y)}
    hyper = _hyper_from(args, args.model)
    start = perf_counter()
    try:
        ds.feature_layout(m.feature_names)   # the columns the store's layout builds
        store = gk.enroll(
            by_user,
            hyper=hyper,
            seed=args.seed,
            kind=args.model,
            scaler_kind=args.scaler,
            packets_per_second=args.rate,
        )
    except ValueError as exc:  # e.g. a rate, or columns, that the store refuses
        raise HandpassError(f"cannot enroll: {exc}") from exc
    fitted = perf_counter()
    gk.save_store(store, path)
    log.info("enroll: fit %.3f s, save_store %.3f s, store %d bytes", fitted - start,
             perf_counter() - fitted, os.path.getsize(path))
    print(f"enrolled {len(by_user)} users ({X.shape[0]} rows,"
          f" {KINDS[args.model]}) -> {path}")
    return 0


def _load_store(args) -> gk.EnrollmentStore:
    path = _store_path(args)
    try:
        return gk.load_store(path)
    except ValueError as exc:  # a document that loading refuses
        raise HandpassError(f"store {path}: {exc}") from exc


def cmd_auth(args) -> int:
    store = _load_store(args)
    capture = read_capture(args.capture)
    audit = gk.AuditLog(args.log) if args.log else None
    decision = gk.authenticate(
        store,
        capture.csi,
        window_seconds=args.window,
        threshold=args.threshold,
        permission=args.permission,
        log=audit,
    )
    _print_table(
        ["Decision", "User", "VoteShare", "Frames", "Window(s)", "Reason"],
        [[
            decision.decision,
            decision.user_id,
            f"{decision.vote_share:.3f}",
            decision.frames_used,
            f"{decision.window_seconds:.3f}",
            decision.reason,
        ]],
    )
    print(_codec_counters(capture.skipped_non_csi, capture.bad_csi))
    return 0


def cmd_serve(args) -> int:
    store = _load_store(args)
    audit = gk.AuditLog(args.log) if args.log else None
    server = gk.AuthServer((args.host, args.port), store, audit)
    host, port = server.server_address[:2]
    # flushed: a redirected stdout is block-buffered, and with --port 0 this
    # line is the only place the port shows
    print(f"serving on {host}:{port} (ctrl-c to stop)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, as numpy's seeded generators need."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not an integer >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="handpass", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add_hyper(sp, options=_HYPER_OPTIONS):
        for option in options:
            sp.add_argument(_flag(option), type=int, default=None)

    def add_common(sp, seed=True):
        if seed:  # a string default is parsed, and refused, as --seed would be
            sp.add_argument("--seed", type=_seed, default=os.environ.get("HANDPASS_SEED") or 42,
                            help="RNG seed (env HANDPASS_SEED, default 42)")
        # -v works after the command too; SUPPRESS keeps one given before it
        sp.add_argument("-v", "--verbose", action="count", default=argparse.SUPPRESS,
                        help="log progress and timings")

    sp = sub.add_parser("synth", help="generate synthetic captures")
    sp.add_argument("--out", required=True)
    synth_defaults = synth.SynthConfig()
    for option, name in _SYNTH_OPTIONS.items():
        default = getattr(synth_defaults, name)
        sp.add_argument(_flag(option), type=type(default), default=default)
    add_common(sp)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("dataset", help="build a slice CSV from captures")
    sp.add_argument("--in", dest="indir", required=True)
    sp.add_argument("--slice", required=True, choices=sorted(ds.SLICE_DEFS))
    sp.add_argument("--out", required=True)
    sp.add_argument("--prune", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--rate", type=int, default=None,
                    help="packets per second (default: manifest value)")
    add_common(sp, seed=False)
    sp.set_defaults(func=cmd_dataset)

    sp = sub.add_parser("crossval", help="k-fold cross-validation")
    sp.add_argument("--data", nargs="+", required=True, help="slice CSV(s)")
    sp.add_argument("--model", choices=MODEL_CHOICES, default="rf")
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--scaler", choices=[*SCALER_KINDS, "none"], default="none")
    sp.add_argument("--per-fold-scaler", action="store_true",
                    help="refit the scaler inside each training fold")
    add_hyper(sp)
    sp.add_argument("--report", default=None, help="per-fold CSV output")
    add_common(sp)
    sp.set_defaults(func=cmd_crossval)

    sp = sub.add_parser("select", help="rank subcarriers by importance")
    sp.add_argument("--data", required=True)
    sp.add_argument("--top", type=int, default=20)
    sp.add_argument("--model", choices=["dt", "rf"], default="dt")
    add_hyper(sp, ("trees", "max_depth"))
    sp.add_argument("--report", default=None)
    add_common(sp)
    sp.set_defaults(func=cmd_select)

    sp = sub.add_parser("enroll", help="train + save an enrollment store")
    sp.add_argument("--data", required=True, help="slice CSV of enrollment rows")
    sp.add_argument("--store", default=None, help="output path (env HANDPASS_STORE)")
    sp.add_argument("--model", choices=sorted(KINDS), default="rf")
    enroll_defaults = inspect.signature(gk.enroll).parameters  # the store's own defaults
    sp.add_argument("--scaler", choices=SCALER_KINDS,
                    default=enroll_defaults["scaler_kind"].default)
    sp.add_argument("--rate", type=int, default=enroll_defaults["packets_per_second"].default)
    add_hyper(sp)
    add_common(sp)
    sp.set_defaults(func=cmd_enroll)

    sp = sub.add_parser("auth", help="authenticate one capture")
    sp.add_argument("--store", default=None)
    sp.add_argument("--capture", required=True)
    sp.add_argument("--window", type=float, default=gk.DEFAULT_WINDOW_SECONDS)
    sp.add_argument("--threshold", type=float, default=gk.DEFAULT_THRESHOLD)
    sp.add_argument("--permission", default=gk.DEFAULT_PERMISSION)
    sp.add_argument("--log", default=None, help="audit log path")
    add_common(sp, seed=False)
    sp.set_defaults(func=cmd_auth)

    sp = sub.add_parser("serve", help="run the authentication service")
    sp.add_argument("--store", default=None)
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=5501)
    sp.add_argument("--log", default=None)
    add_common(sp, seed=False)
    sp.set_defaults(func=cmd_serve)

    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="log progress and timings")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "per_fold_scaler", False) and args.scaler == "none":
        parser.error("--per-fold-scaler needs a --scaler to refit in each fold")
    if not 0 <= getattr(args, "port", 0) <= 65535:  # before the store loads
        parser.error(f"argument --port: {args.port} is not a port in 0..65535")
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    _print_config(args)
    try:
        return args.func(args)
    except (HandpassError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
