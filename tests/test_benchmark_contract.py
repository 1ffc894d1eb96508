"""The benchmark's tracer wraps handpass functions by name; every name it
patches must exist, or a traced run (``perfbench/run.py --trace 1``)
fails before it measures anything."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import tracing  # noqa: E402

from handpass import dataset, dsp  # noqa: E402
from handpass.learners import forest, tree  # noqa: E402


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
