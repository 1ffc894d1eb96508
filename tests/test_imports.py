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
