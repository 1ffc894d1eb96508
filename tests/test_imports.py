"""What a fresh interpreter loads.  Each command and each pipeline step
runs in a new process, so a layer that imports more than it uses costs
every one of them start-up time.  The package root imports no layer;
callers import the layers they use, and numpy stays the only runtime
dependency."""

import json
import os
import subprocess
import sys

SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
LAYERS = ["codec", "dataset", "dsp", "errors", "gatekeeper", "learners", "synth"]


def fresh(*args):
    """Run a new interpreter with src first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def loaded_after(statement):
    """The names in a fresh sys.modules after the statement has run."""
    proc = fresh("-c", f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_ingest_layers_leave_the_gate_and_the_learners_unloaded():
    loaded = loaded_after("from handpass import codec, dataset, dsp, synth")
    assert {"handpass.codec", "handpass.dataset", "handpass.dsp", "handpass.synth"} <= loaded
    assert not {"handpass.gatekeeper", "handpass.learners", "socketserver"} & loaded


def test_the_cli_loads_every_layer_and_no_test_only_package():
    loaded = loaded_after("import handpass.cli")
    assert {f"handpass.{layer}" for layer in LAYERS} <= loaded
    assert not {"scipy", "hypothesis", "pytest"} & loaded


def test_star_import_binds_every_layer():
    proc = fresh("-c", "from handpass import *\n"
                       f"print(sorted(n for n in {LAYERS!r} if n in globals()))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(LAYERS)


def test_module_help_exits_0():
    proc = fresh("-m", "handpass", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


# The names the learners package binds: what program code, the benchmark,
# README and the release criteria import from it.  The model classes, the
# kind table and the fold helpers stay in their own modules.
LEARNERS_SURFACE = ["HyperParams", "KINDS", "cross_validate", "default_hyper",
                    "feature_importance", "model_from_doc", "model_to_doc", "predict",
                    "predict_scores", "select_subcarriers", "train"]


def test_learners_binds_only_the_names_its_callers_import():
    proc = fresh("-c", "import json, types\nimport handpass.learners as L\n"
                       "print(json.dumps(sorted(n for n, v in vars(L).items()"
                       " if n == '__all__' or not (n.startswith('__')"
                       " or isinstance(v, types.ModuleType)))))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == LEARNERS_SURFACE
