"""The three workloads: ingest, crossval and gate.

Each workload makes its inputs in a child process (untimed), sets up
several times (``Sizes.setups``, ``Sizes.gate_setups``) and reports the
median, then runs whole rounds of the same operations until ``seconds``
have passed, checking every round's outputs with ``checks``.  Untraced
runs time under a ``speed.Sampler`` and report times scaled to the
reference host speed, with the net times as measured in ``extra``;
traced runs report net times.  A run returns a ``Result`` holding the
end-to-end metrics and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
import speed
import tracing
from inputs import SIZES, Sizes
from tracing import Spans, median, ratio

HERE = os.path.dirname(os.path.abspath(__file__))
KINDS = ("rf", "dt", "knn", "nb", "svm")
CANONICAL = {"rf": "RandomForest", "dt": "DecisionTree", "knn": "KNN",
             "nb": "GaussianNB", "svm": "LinearSVM"}
GATE_KINDS = ("genuine", "impostor", "mixed", "mixed_nan")

# name -> unit; every workload reports all of them (0 where a workload
# never calls the layer).
END_TO_END = {"setup_s": "s", "latency_p50_ms": "ms", "throughput_per_s": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "codec.read_us_per_frame": "us", "codec.frames": "count",
    "codec.skipped_non_csi": "count", "codec.bad_csi": "count",
    "codec.frames_per_record": "ratio",
    "dsp.us_per_frame": "us", "dsp.to_cfr_us": "us", "dsp.normalize_us": "us",
    "dsp.sanitize_us": "us", "dsp.scale_ms": "ms",
    "dataset.build_rows_self_ms": "ms", "dataset.slice_s": "s",
    "dataset.write_csv_s": "s", "dataset.read_csv_s": "s", "dataset.csv_mb": "MB",
    **{f"learners.fit_s.{k}": "s" for k in KINDS},
    **{f"learners.predict_s.{k}": "s" for k in KINDS},
    "validate.self_s": "s", "tree.nodes": "count", "tree.fit_ms_per_node": "ms",
    "forest.predict_us_per_row": "us",
    "gatekeeper.enroll_s": "s", "persist.save_s": "s", "persist.load_s": "s",
    "persist.store_mb": "MB",
    "gate.decode_ms": "ms", "gate.inproc_auth_ms": "ms", "gate.auth_self_ms": "ms",
    "gate.service_ms": "ms", "gate.auth_p95_ms": "ms", "gate.auth_samples": "count",
    **{f"gate.{k}.{c}": "count" for k in GATE_KINDS
       for c in ("sent", "granted", "denied", "errored")},
    "trace.layer_share": "ratio",
}
TAIL_PERCENTILE = 95

INGEST_SETUP = """
import sys
from handpass import codec, dataset, dsp, synth
manifest = synth.load_manifest(sys.argv[1])
metas = [dataset.CaptureMeta(c["capture_number"], c["gender"], c["hand"], c["user_id"])
         for c in manifest["captures"]]
dsp.SubcarrierMask(), dsp.SanitizerConfig()
"""

CROSSVAL_SETUP = """
import sys
from handpass import dataset, learners
dataset.read_csv(sys.argv[1])
"""


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    layers: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class Run:
    """One run's settings, working directory and tracer."""

    def __init__(self, root, workload, seed, seconds, trace, size="full"):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.size: Sizes = SIZES[size]
        self.size_name = size
        self.tracer = tracing.Tracer() if trace else None
        self.work = os.path.join(root, ".perfbench", f"work-{workload}-{seed}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def make_inputs(self) -> dict:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "inputs.py"), self.workload,
             str(self.seed), self.work, self.size_name],
            env=self.env, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        with open(os.path.join(self.work, "inputs.json"), encoding="ascii") as fh:
            return json.load(fh)

    def timed_child(self, smp, code, *args) -> int:
        """Times a fresh interpreter running ``code``, spawn to exit, as a
        piece of ``smp``; returns the piece's index."""
        with smp.waiting() as at:
            proc = subprocess.Popen([sys.executable, "-c", code, *args], env=self.env)
            # wait() without a timeout blocks in waitpid; with one it polls in
            # steps of up to 50 ms, which would quantize the set-up time.
            watchdog = threading.Timer(60.0, proc.kill)
            watchdog.start()
            try:
                status = proc.wait()
            finally:
                watchdog.cancel()
        if status != 0:
            raise subprocess.CalledProcessError(status, proc.args)
        return at[0]


def another_round(start: float, round_s: list, seconds: float) -> bool:
    """Whole rounds only: at least one, and none expected to end past ``seconds``."""
    if not round_s:
        return True
    return perf_counter() - start + sum(round_s) / len(round_s) <= seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- ingest -------------------------------------------------------------------

def run_ingest(run: Run) -> Result:
    from handpass import codec, dataset

    spec = run.make_inputs()
    caps = spec["captures"]
    raw = np.load(os.path.join(run.work, "raw_csi.npy"))
    oracle = [checks.oracle_features(block) for block in raw]
    metas = [dataset.CaptureMeta(c["capture_number"], c["gender"], c["hand"], c["user_id"])
             for c in caps]
    paths = [os.path.join(spec["corpus"], c["path"]) for c in caps]
    seconds_per_capture, sessions = dataset.SLICE_DEFS[spec["slice"]]
    csv = os.path.join(run.work, "slice.csv")
    manifest = os.path.join(spec["corpus"], "manifest.json")

    def one_round(smp):
        """Times one round; returns its piece indices and outputs."""
        r_tok = smp.start()
        rows, decoded, caps_at = [], [], []
        for path, meta in zip(paths, metas):
            c_tok = smp.start()
            cap = codec.read_capture(path)
            got, dropped = dataset.build_rows(cap, meta)
            caps_at.append(smp.stop(c_tok))
            rows.extend(got)
            decoded.append((cap, got, dropped))
        sliced = dataset.slice_dataset(rows, spec["slice"], spec["rate"])
        dataset.write_csv(sliced.rows, csv)
        back = dataset.read_csv(csv)
        return smp.stop(r_tok), caps_at, decoded, sliced, back

    def round_problems(decoded, sliced, back) -> list:
        out = []
        for entry, want, block, (cap, got, dropped) in zip(caps, oracle, raw, decoded):
            out += checks.capture_problems(entry, len(cap.frames), cap.skipped_non_csi,
                                           cap.bad_csi, dropped)
            out += checks.feature_problems(np.stack([r.features for r in got]), want,
                                           block, entry["path"])
        out += checks.slice_problems(sliced.rows, caps, seconds_per_capture, sessions,
                                     spec["rate"])
        return out + checks.csv_problems(sliced.rows, back)

    rounds_at, caps_at, round_s = [], [], []
    with speed.Sampler(active=not run.tracer) as smp:
        setups_at = [run.timed_child(smp, INGEST_SETUP, manifest) for _ in range(run.size.setups)]
        # One untimed round first: imports, caches and allocator warm up.
        problems = round_problems(*one_round(smp)[2:])
        if run.tracer:
            tracing.install(run.tracer)
        start = perf_counter()
        while another_round(start, round_s, run.seconds):
            r_at, c_at, *outputs = one_round(smp)
            rounds_at.append(r_at)
            caps_at += c_at
            round_s.append(smp.net()[r_at])
            problems += round_problems(*outputs)
            del outputs                 # one round's outputs in memory at a time
    net, scaled = smp.net(), smp.scaled()

    frames = sum(c["frames"] for c in caps)
    result = Result(
        correct=not problems, attempted=len(round_s) * (len(caps) + 3), failed=0,
        metrics={
            "setup_s": median(scaled[setups_at]),
            "latency_p50_ms": median(scaled[caps_at]) * 1e3,
            "throughput_per_s": frames * len(round_s) / scaled[rounds_at].sum(),
            "peak_rss_mb": peak_rss_mb(),
        },
        problems=problems,
        extra={"rounds": len(round_s), "frames_per_round": frames,
               "ops_per_round": len(caps) + 3, "capture_samples": len(caps_at),
               "net_setup_s": median(net[setups_at]),
               "net_latency_p50_ms": median(net[caps_at]) * 1e3,
               "net_throughput_per_s": frames * len(round_s) / net[rounds_at].sum(),
               "speed": smp.kernel_stats()},
    )
    if run.tracer:
        sp = Spans(run.tracer.spans)
        result.layers = layer_metrics(sp, units=len(round_s), wall=sum(round_s))
        result.layers["dataset.csv_mb"] = os.path.getsize(csv) / 1e6
        result.extra["self_s_per_round"] = per_unit(sp.self_by_name(), len(round_s))
    return result


# --- crossval -----------------------------------------------------------------

def run_crossval(run: Run) -> Result:
    from handpass import dataset
    from handpass.learners import cross_validate

    spec = run.make_inputs()
    matrix = dataset.read_csv(spec["csv"])
    X, y = matrix.features, matrix.labels
    truth = np.array(spec["labels"], dtype=np.int64)
    problems = [] if np.array_equal(y, truth) else ["slice labels differ from the manifest's"]

    rounds_at, round_s = [], []
    with speed.Sampler(active=not run.tracer) as smp:
        setups_at = [run.timed_child(smp, CROSSVAL_SETUP, spec["csv"])
                     for _ in range(run.size.setups)]
        if run.tracer:
            tracing.install(run.tracer)
        start = perf_counter()
        while another_round(start, round_s, run.seconds):
            tok = smp.start()
            reports = {kind: cross_validate(kind, X, y, k=spec["folds"], seed=run.seed,
                                            scaler="minmax", per_fold_scaler=True)
                       for kind in KINDS}
            rounds_at.append(smp.stop(tok))
            round_s.append(smp.net()[rounds_at[-1]])
            problems += checks.crossval_problems(
                {kind: rep.confusion for kind, rep in reports.items()}, truth)
    net, scaled = smp.net(), smp.scaled()

    fits = len(KINDS) * spec["folds"]
    result = Result(
        correct=not problems, attempted=len(round_s) * len(KINDS), failed=0,
        metrics={
            "setup_s": median(scaled[setups_at]),
            "latency_p50_ms": median(scaled[rounds_at]) * 1e3,
            "throughput_per_s": fits * len(round_s) / scaled[rounds_at].sum(),
            "peak_rss_mb": peak_rss_mb(),
        },
        problems=problems,
        extra={"rounds": len(round_s), "round_s": round_s,
               "net_setup_s": median(net[setups_at]),
               "net_latency_p50_ms": median(round_s) * 1e3,
               "net_throughput_per_s": fits * len(round_s) / sum(round_s),
               "speed": smp.kernel_stats(),
               "mean_f1": {k: float(r.mean_f1) for k, r in reports.items()}},
    )
    if run.tracer:
        sp = Spans(run.tracer.spans)
        result.layers = layer_metrics(sp, units=len(round_s), wall=sum(round_s))
        result.extra["self_s_per_round"] = per_unit(sp.self_by_name(), len(round_s))
    return result


# --- gate ---------------------------------------------------------------------

class Server:
    """``handpass serve`` in its own process, on an ephemeral port."""

    def __init__(self, run: Run, store: str, spans_out: str | None):
        cmd = [sys.executable, "-u"]
        cmd += [os.path.join(HERE, "serve_traced.py"), spans_out] if spans_out else ["-m", "handpass"]
        cmd += ["serve", "--store", store, "--port", "0"]
        self.err = open(os.path.join(run.work, "server.err"), "ab")
        self.proc = subprocess.Popen(cmd, cwd=run.root, env=run.env,
                                     stdout=subprocess.PIPE, stderr=self.err)
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            self.port = None
            for line in self.proc.stdout:
                if line.startswith(b"serving on "):
                    self.port = int(line.split()[2].rsplit(b":", 1)[1])
                    break
            if self.port is None:
                raise RuntimeError("handpass serve exited before serving; see server.err")
            # Ready means answering: an empty object gets an in-band bad-request.
            with socket.create_connection(("127.0.0.1", self.port), timeout=60) as sock:
                sock.sendall(b"{}\n")
                sock.makefile("rb").readline()
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


class Feeder:
    """Hands out request numbers to the client threads, in whole rounds:
    once the deadline has passed, the next round is not started."""

    def __init__(self, per_round: int, deadline: float):
        self._lock = threading.Lock()
        self._next = 0
        self.per_round, self.deadline = per_round, deadline

    def next(self):
        with self._lock:
            if self._next % self.per_round == 0 and self._next and perf_counter() >= self.deadline:
                return None
            self._next += 1
            return self._next - 1


def _client(port, lines, feeder, out, errors):
    # The speed sampler's SIGALRM goes to the main thread, not into recv().
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            local_port = sock.getsockname()[1]
            replies = sock.makefile("rb")
            seq = 0
            while (k := feeder.next()) is not None:
                t0 = perf_counter()
                sock.sendall(lines[k % len(lines)])
                reply = replies.readline()
                out.append((k, t0, perf_counter(), f"{local_port}:{seq}", reply))
                seq += 1
    except Exception as exc:  # reported by the main thread after join
        errors.append(exc)


def run_gate(run: Run) -> Result:
    from handpass import gatekeeper

    spec = run.make_inputs()
    with np.load(os.path.join(run.work, "enroll.npz")) as npz:
        blocks = {int(name[1:]): npz[name] for name in npz.files}
    with open(os.path.join(run.work, "requests.jsonl"), "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    metas, roster = spec["requests"], set(spec["enrolled"])
    store_path = os.path.join(run.work, "store.json")
    spans_out = [os.path.join(run.work, f"spans-{i}.json") for i in range(run.size.gate_setups)]

    if run.tracer:
        tracing.install(run.tracer)
    setups_at, server = [], None
    with speed.Sampler(active=not run.tracer) as smp:
        try:
            for i in range(run.size.gate_setups):
                if server is not None:
                    server.stop()
                tok = smp.start()
                store = gatekeeper.enroll(blocks, seed=run.seed, packets_per_second=spec["rate"])
                gatekeeper.save_store(store, store_path)
                fit_at = smp.stop(tok)
                with smp.waiting() as serve_at:
                    server = Server(run, store_path, spans_out[i] if run.tracer else None)
                setups_at.append((fit_at, serve_at[0]))

            feeder = Feeder(len(lines), perf_counter() + run.seconds)
            outs, errors = [[] for _ in range(run.size.gate_connections)], []
            threads = [threading.Thread(target=_client,
                                        args=(server.port, lines, feeder, out, errors))
                       for out in outs]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
    if errors:
        raise errors[0]

    sent = sorted((s for out in outs for s in out), key=lambda s: s[0])
    failed, problems = 0, []
    counts = {f"gate.{k}.{c}": 0 for k in GATE_KINDS for c in ("sent", "granted", "denied", "errored")}
    for k, _, _, _, raw in sent:
        meta = metas[k % len(lines)]
        try:
            reply = json.loads(raw)
        except json.JSONDecodeError:
            reply = {"ok": False}
            problems.append(f"request {k}: no JSON reply")
        bad, probs = checks.reply_outcome(meta, reply, roster)
        failed += bad
        problems += [f"request {k} ({meta['kind']}): {p}" for p in probs]
        outcome = ("errored" if not reply.get("ok")
                   else "granted" if reply["decision"]["decision"] == "Grant" else "denied")
        counts[f"gate.{meta['kind']}.sent"] += 1
        counts[f"gate.{meta['kind']}.{outcome}"] += 1

    rtt_at = [smp.piece(t0, t1) for _, t0, t1, _, _ in sent]
    wall_at = smp.piece(min(s[1] for s in sent), max(s[2] for s in sent))
    net, scaled = smp.net(), smp.scaled()
    setup = [scaled[a] + scaled[b] for a, b in setups_at]
    rtt = scaled[rtt_at]
    rounds = len(sent) // len(lines)
    result = Result(
        correct=not problems, attempted=len(sent), failed=failed,
        metrics={
            "setup_s": median(setup),
            "latency_p50_ms": median(rtt) * 1e3,
            "throughput_per_s": len(sent) / scaled[wall_at],
            "peak_rss_mb": rss,
        },
        problems=problems,
        extra={"rounds": rounds, "requests_per_round": len(lines),
               "auth_p95_ms": float(np.percentile(rtt, TAIL_PERCENTILE)) * 1e3,
               "auth_samples": int(rtt.size),
               "net_setup_s": median([net[a] + net[b] for a, b in setups_at]),
               "net_latency_p50_ms": median(net[rtt_at]) * 1e3,
               "net_throughput_per_s": len(sent) / net[wall_at],
               "speed": smp.kernel_stats(),
               "store_mb": os.path.getsize(store_path) / 1e6,
               "counts_per_round": {k: v / rounds for k, v in counts.items()}},
    )
    if run.tracer:
        result.layers = gate_layers(run, spans_out, sent, setups_at, result)
    return result


def gate_layers(run: Run, spans_out, sent, setups_at, result: Result) -> dict:
    """Per-layer metrics of the gate: set-up layers from the load generator's
    spans, request layers from the spans of the server that was measured."""
    loaded = []
    for path in spans_out:
        with open(path, encoding="ascii") as fh:
            loaded.append(json.load(fh))
    rtt = {rid: t1 - t0 for _, t0, t1, rid, _ in sent}
    served = Spans([s for s in loaded[-1] if s[tracing.RID] in rtt])
    requests = served.named("gate.request")
    auths = served.named("gatekeeper.authenticate")
    client = Spans(run.tracer.spans)

    def dur(span):
        return span[tracing.END] - span[tracing.START]

    layers = layer_metrics(served, units=len(requests), wall=sum(rtt.values()))
    setup_layers = layer_metrics(client, units=len(setups_at), wall=0.0)
    for name in ("tree.nodes", "tree.fit_ms_per_node", *(f"learners.fit_s.{k}" for k in KINDS)):
        layers[name] = setup_layers[name]
    layers.update({
        "gatekeeper.enroll_s": median(client.dur("gatekeeper.enroll")),
        "persist.save_s": median(client.dur("persist.save_store")),
        "persist.load_s": median([dur(s) for spans in loaded for s in spans
                                  if s[tracing.NAME] == "persist.load_store"]),
        "persist.store_mb": result.extra["store_mb"],
        "gate.decode_ms": median([served.self_time(s) for s in requests]) * 1e3,
        "gate.inproc_auth_ms": median([dur(s) for s in auths]) * 1e3,
        "gate.auth_self_ms": median([served.self_time(s) for s in auths]) * 1e3,
        "gate.service_ms": median([rtt[s[tracing.RID]] - dur(s) for s in requests]) * 1e3,
        "gate.auth_p95_ms": result.extra["auth_p95_ms"],
        "gate.auth_samples": result.extra["auth_samples"],
        **result.extra["counts_per_round"],
    })
    result.extra["self_s_per_request"] = per_unit(served.self_by_name(), len(requests))
    return layers


# --- per-layer metrics from spans ---------------------------------------------

def per_unit(totals: dict, units: int) -> dict:
    return {name: value / units for name, value in sorted(totals.items())}


def layer_metrics(sp: Spans, units: int, wall: float) -> dict:
    """Every PER_LAYER metric that spans can give, per unit of work (a
    round, or one gate request); layers the workload never calls read 0."""
    out = {name: 0.0 for name in PER_LAYER}
    reads = sp.named("codec.read_capture")
    frames = sum(s[tracing.INFO][0] for s in reads)
    skipped = sum(s[tracing.INFO][1] for s in reads)
    bad = sum(s[tracing.INFO][2] for s in reads)
    n_feat = len(sp.named("dsp.frame_to_features"))
    nodes = sp.info_sum("tree.grow_tree")
    rf_rows = sp.info_sum("forest.scores")
    top = sum(s[tracing.END] - s[tracing.START] for s in sp.spans if s[tracing.PARENT] < 0)
    out.update({
        "codec.read_us_per_frame": ratio(sp.total("codec.read_capture"), frames) * 1e6,
        "codec.frames": frames / units,
        "codec.skipped_non_csi": skipped / units,
        "codec.bad_csi": bad / units,
        "codec.frames_per_record": ratio(frames, frames + skipped + bad),
        "dsp.us_per_frame": ratio(sp.total("dsp.frame_to_features"), n_feat) * 1e6,
        "dsp.to_cfr_us": ratio(sp.total("dsp.to_cfr"), n_feat) * 1e6,
        "dsp.normalize_us": ratio(sp.total("dsp.normalize_cfr"), n_feat) * 1e6,
        "dsp.sanitize_us": ratio(sp.total("dsp.sanitize_phase"), n_feat) * 1e6,
        "dsp.scale_ms": (sp.total("dsp.fit_scaler") + sp.total("dsp.transform")) / units * 1e3,
        "dataset.build_rows_self_ms": float(sp.self_times("dataset.build_rows").sum()) / units * 1e3,
        "dataset.slice_s": sp.total("dataset.slice_dataset") / units,
        "dataset.write_csv_s": sp.total("dataset.write_csv") / units,
        "dataset.read_csv_s": sp.total("dataset.read_csv") / units,
        "validate.self_s": float(sp.self_times("validate.cross_validate").sum()) / units,
        "tree.nodes": nodes / units,
        "tree.fit_ms_per_node": ratio(sp.total("tree.grow_tree"), nodes) * 1e3,
        "forest.predict_us_per_row": ratio(sp.total("forest.scores"), rf_rows) * 1e6,
        "trace.layer_share": ratio(top, wall),
    })
    for short, kind in CANONICAL.items():
        out[f"learners.fit_s.{short}"] = sp.total("learners.train", kind) / units
        out[f"learners.predict_s.{short}"] = sp.total("learners.predict", kind) / units
    return out


WORKLOADS = {"ingest": run_ingest, "crossval": run_crossval, "gate": run_gate}
