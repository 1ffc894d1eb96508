"""Wi-Fi CSI palm-print authentication pipeline.

Capture codec -> amplitude/phase preprocessing -> feature tables and
slicings -> from-scratch classifiers with cross-validation -> windowed
enrollment/authentication, plus a seeded synthetic capture generator
for end-to-end verification.
"""

__version__ = "0.1.0"

__all__ = ["codec", "dsp", "dataset", "learners", "synth", "gatekeeper", "errors", "__version__"]
