"""Fast self-test of the benchmark itself (``run.py --selftest``).

Runs every workload at the tiny size, traced and untraced, and shows
that each correctness check accepts the program's real output and
rejects a planted wrong one: a dropped frame, a miscounted skip, a
perturbed feature, a relabelled row, a changed CSV value, a confusion
matrix that loses a row, a Grant below the threshold, and so on.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

import checks
import speed
import workloads

FAILURES = []


def expect(name: str, ok: bool) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        FAILURES.append(name)


def check_spec(root: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    expect("BENCHMARK.json end_to_end matches the code",
           {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END)
    expect("BENCHMARK.json per_layer matches the code",
           {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER)
    expect("BENCHMARK.json workloads match the code",
           [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))


def check_runs(run_one) -> None:
    for workload in workloads.WORKLOADS:
        result, record = run_one(workload, 5, 0.5, False, "tiny")
        per_round = result.extra.get("requests_per_round")
        want_failed = result.attempted // per_round if workload == "gate" else 0
        expect(f"{workload}: tiny run is correct", result.correct)
        expect(f"{workload}: failed = {want_failed} of {result.attempted}",
               result.attempted >= 1 and result.failed == want_failed)
        expect(f"{workload}: every end-to-end metric is positive",
               set(result.metrics) == set(workloads.END_TO_END)
               and all(v > 0 for v in result.metrics.values()))
        traced, _ = run_one(workload, 5, 0.5, True, "tiny")
        expect(f"{workload}: traced run reports every per-layer metric",
               traced.correct and set(traced.layers) == set(workloads.PER_LAYER))
        expect(f"{workload}: traced spans cover the measured time",
               0.5 < traced.layers["trace.layer_share"] <= 1.0)


def check_ingest_checks(root: str) -> None:
    from handpass import codec, dataset, dsp

    run = workloads.Run(root, "ingest", 5, 0.5, False, "tiny")
    try:
        spec = run.make_inputs()
        raw = np.load(os.path.join(run.work, "raw_csi.npy"))
        entry = spec["captures"][0]                  # the first capture is a dirty one
        cap = codec.read_capture(os.path.join(spec["corpus"], entry["path"]))
        meta = dataset.CaptureMeta(entry["capture_number"], entry["gender"],
                                   entry["hand"], entry["user_id"])
        rows, dropped = dataset.build_rows(cap, meta)
        n, skipped, bad = len(cap.frames), cap.skipped_non_csi, cap.bad_csi
        expect("capture counts accepted", not checks.capture_problems(entry, n, skipped, bad, dropped))
        expect("dropped frame rejected", checks.capture_problems(entry, n - 1, skipped, bad, dropped))
        expect("miscounted stray rejected",
               checks.capture_problems(entry, n, skipped - 1, bad, dropped))
        expect("miscounted malformed record rejected",
               checks.capture_problems(entry, n, skipped, bad + 1, dropped))

        feats, want = np.stack([r.features for r in rows]), checks.oracle_features(raw[0])
        half = want.shape[1] // 2
        expect("features accepted against the oracle",
               not checks.feature_problems(feats, want, raw[0], "c0"))
        wrapped = feats.copy()
        wrapped[3, half + 7] += 360.0
        expect("phase 360 degrees apart accepted",
               not checks.feature_problems(wrapped, want, raw[0], "c0"))
        for label, planted in (("amplitude off by 1e-6", (2, 5, 1e-6)),
                               ("phase off by 1e-6 deg", (2, half + 5, 1e-6))):
            bad_feats = feats.copy()
            bad_feats[planted[0], planted[1]] += planted[2]
            expect(f"{label} rejected", checks.feature_problems(bad_feats, want, raw[0], "c0"))
        expect("dropped row rejected", checks.feature_problems(feats[1:], want, raw[0], "c0"))

        # antipodal neighbours k = 20, 21: a phase step of exactly pi
        frame = raw[0][:1].copy()
        frame[0, 20], frame[0, 21] = (-11, 10), (825, -750)
        want1 = checks.oracle_features(frame)
        alts = checks.other_unwraps(frame[0])
        program = dataset.frame_to_features(
            codec.CsiFrame(csi=frame[0]), dsp.SubcarrierMask(), dsp.SanitizerConfig(), True)
        expect("exact pi step has a second unwrap", len(alts) == 1)
        expect("either unwrap of an exact pi step accepted",
               not checks.feature_problems(alts[0][None], want1, frame, "pi")
               and not checks.feature_problems(program[None], want1, frame, "pi"))
        expect("other unwrap off by 1e-6 deg rejected",
               checks.feature_problems(alts[0][None] + 1e-6, want1, frame, "pi"))

        pool = []
        for c in spec["captures"]:
            cap_c = codec.read_capture(os.path.join(spec["corpus"], c["path"]))
            pool += dataset.build_rows(cap_c, dataset.CaptureMeta(
                c["capture_number"], c["gender"], c["hand"], c["user_id"]))[0]
        sliced = dataset.slice_dataset(pool, spec["slice"], spec["rate"]).rows
        seconds, sessions = dataset.SLICE_DEFS[spec["slice"]]
        args = (spec["captures"], seconds, sessions, spec["rate"])
        expect("slice accepted", not checks.slice_problems(sliced, *args))
        sliced.user_id[4] = sliced.user_id[-1] if sliced.user_id[4] != sliced.user_id[-1] else 1
        expect("relabelled row rejected", checks.slice_problems(sliced, *args))

        csv = os.path.join(run.work, "s.csv")
        dataset.write_csv(sliced, csv)
        back = dataset.read_csv(csv)
        expect("CSV round trip accepted", not checks.csv_problems(sliced, back))
        back.features[1, 1] = np.nextafter(back.features[1, 1], np.inf)
        expect("CSV value one ulp off rejected", checks.csv_problems(sliced, back))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def check_crossval_checks() -> None:
    labels = np.repeat([1, 2, 3], 10)
    good = np.diag([10, 10, 10])
    expect("confusion matrices accepted", not checks.crossval_problems({"rf": good}, labels))
    lost = good.copy()
    lost[0, 0] -= 1
    expect("confusion matrix missing a row rejected", checks.crossval_problems({"rf": lost}, labels))
    moved = good.copy()
    moved[0, 0] -= 1
    moved[1, 0] += 1
    expect("row counted under the wrong class rejected",
           checks.crossval_problems({"dt": moved}, labels))
    weak = good.copy()
    weak[0, 0] -= 2
    weak[0, 1] += 2
    expect("forest macro-F1 below 0.99 rejected", checks.crossval_problems({"rf": weak}, labels))
    expect("other models may score below 0.99", not checks.crossval_problems({"nb": weak}, labels))


def check_gate_checks() -> None:
    roster = {1, 2, 3}

    def reply(decision, user, share, frames=20):
        return {"ok": True, "decision": {"user_id": user, "vote_share": share,
                                         "frames_used": frames, "window_seconds": 1.0,
                                         "decision": decision, "reason": ""}}

    genuine = {"kind": "genuine", "user": 1, "frames": 20, "threshold": None}
    impostor = {"kind": "impostor", "user": 4, "frames": 20, "threshold": None}
    mixed = {"kind": "mixed", "user": 1, "frames": 20, "threshold": None}
    nan = {"kind": "mixed_nan", "user": 1, "frames": 20, "threshold": "NaN"}
    error = {"ok": False, "error": {"code": "bad-request", "message": ""}}
    cases = [
        ("genuine Grant accepted", genuine, reply("Grant", 1, 1.0), (False, False)),
        ("Grant below the threshold rejected", genuine, reply("Grant", 1, 0.55), (False, True)),
        ("Deny above the threshold rejected", impostor, reply("Deny", 2, 0.9), (False, True)),
        ("impostor Grant at 0.9 follows the rule", impostor, reply("Grant", 2, 0.9), (False, False)),
        ("genuine granted as another user rejected", genuine, reply("Grant", 2, 1.0), (False, True)),
        ("vote share above 1 rejected", genuine, reply("Grant", 1, 1.2), (False, True)),
        ("frames_used differing from frames sent rejected", genuine,
         reply("Grant", 1, 1.0, frames=19), (False, True)),
        ("mixed window Deny accepted", mixed, reply("Deny", 1, 0.5), (False, False)),
        ("mixed window Grant rejected", mixed, reply("Grant", 1, 0.6), (False, True)),
        ("NaN-threshold Grant counted failed", nan, reply("Grant", 1, 0.5), (True, False)),
        ("NaN-threshold Deny counted done", nan, reply("Deny", 1, 0.5), (False, False)),
        ("NaN-threshold refusal counted done", nan, error, (False, False)),
        ("error reply to a genuine request counted failed", genuine, error, (True, False)),
    ]
    for name, meta, rep, (failed, problem) in cases:
        got_failed, problems = checks.reply_outcome(meta, rep, roster)
        expect(name, got_failed == failed and bool(problems) == problem)


def check_speed_scaling() -> None:
    smp = speed.Sampler()
    # the kernel ran at the reference speed until t = 1 s, then half as fast
    smp.at = [speed.INTERVAL_S * (i + 0.5) for i in range(100)]
    smp.took = [speed.REF_S if t < 1.0 else 2 * speed.REF_S for t in smp.at]
    fast = smp.piece(0.2, 0.21)
    slow = smp.piece(1.5, 1.51)
    both = smp.piece(0.0, 2.0)
    waited = smp.piece(1.6, 1.7, net=0.05)
    scaled = smp.scaled()
    expect("piece at the reference speed keeps its time", abs(scaled[fast] - 0.01) < 1e-12)
    expect("piece at half speed is scaled to half its time", abs(scaled[slow] - 0.005) < 1e-12)
    expect("piece across both speeds is scaled by their mean",
           abs(scaled[both] - 2.0 * 0.75) < 1e-12)
    expect("net time is scaled, not wall time", abs(scaled[waited] - 0.025) < 1e-12)
    expect("inactive sampler reports net times",
           speed.Sampler(active=False).scaled().size == 0)


def main(root: str, run_one) -> int:
    print("benchmark spec")
    check_spec(root)
    print("planted wrong outputs")
    check_ingest_checks(root)
    check_crossval_checks()
    check_gate_checks()
    print("speed scaling")
    check_speed_scaling()
    print("tiny runs")
    check_runs(run_one)
    print(f"selftest: {'FAILED ' + str(len(FAILURES)) if FAILURES else 'all passed'}")
    return 1 if FAILURES else 0
