"""The benchmark's contract with handpass.  Its tracer wraps handpass
functions by name; every name it patches must exist, or a traced run
(``perfbench/run.py --trace 1``) fails before it measures anything.  Its
input step reads synth records at fixed byte offsets, so a writer that
moves one byte must fail here rather than in a later benchmark run.  Its
gate requests must take the service's fast decode path, or the gate
workload would time the general path instead.  And every workload must
run: each calls the library as a user would (``build_rows(cap, meta)``,
``enroll(blocks, seed=, packets_per_second=)``, ``SubcarrierMask()``), so
a changed call fails here and not in a later benchmark run."""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from handpass import dataset, dsp  # noqa: E402
from handpass.codec import read_capture  # noqa: E402
from handpass.learners import forest, tree  # noqa: E402

from conftest import decodes_like_reference  # noqa: E402


def traced_names():
    return (dataset.frame_to_features, dsp.to_cfr, dsp.FittedScaler.transform,
            forest.RandomForestModel.scores, tree.grow_tree)


def test_tracer_patches_every_name_and_restores_them():
    originals = traced_names()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        # forest.predict_us_per_row is read off the RandomForestModel.scores span,
        # tree.nodes and tree.fit_ms_per_node off the grow_tree spans
        assert all(now is not then for now, then in zip(traced_names(), originals))
    finally:
        tracer.unpatch()
    assert traced_names() == originals


def test_input_step_reads_what_the_codec_reads(tmp_path):
    for name, make in inputs.MAKERS.items():
        make(1, str(tmp_path / name), inputs.TINY)
    ingest = tmp_path / "ingest"
    doc = json.loads((ingest / "inputs.json").read_text())
    raw = np.load(ingest / "raw_csi.npy")
    assert len(doc["captures"]) == len(raw) > 0
    for entry, want in zip(doc["captures"], raw):
        cap = read_capture(os.path.join(doc["corpus"], entry["path"]))
        assert np.array_equal(cap.csi, want)
        assert (cap.skipped_non_csi, cap.bad_csi) == (entry["strays"], entry["malformed"])
    with open(tmp_path / "gate" / "requests.jsonl", "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    assert lines
    assert all(decodes_like_reference(line) for line in lines)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(workload):
    # the call run.py --selftest makes; a tiny run takes one or two seconds
    result, _ = run.run_one(workload, 5, 0.5, False, "tiny")
    assert result.correct, result.problems
    assert result.attempted >= 1 and result.failed == 0
