"""The benchmark's tracer wraps handpass functions by name; every name it
patches must exist, or a traced run (``perfbench/run.py --trace 1``)
fails before it measures anything."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import tracing  # noqa: E402

from handpass import dataset, dsp  # noqa: E402


def test_tracer_patches_every_name_and_restores_them():
    originals = (dataset.frame_to_features, dsp.to_cfr, dsp.FittedScaler.transform)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert dataset.frame_to_features is not originals[0]
    finally:
        tracer.unpatch()
    assert (dataset.frame_to_features, dsp.to_cfr, dsp.FittedScaler.transform) == originals
