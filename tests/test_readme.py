"""README's "Library use" block, run as written in the directory of the
quickstart's corpus, so the documented API cannot drift from the code."""

import os
import re

from handpass import synth

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_block() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Library use\n"):]
    return re.search(r"\n```python\n(.*?)\n```\n", section, re.S).group(1)


def test_library_use_block_runs_and_grants(tmp_path, monkeypatch, capsys):
    # the quickstart's `handpass synth` command
    synth.generate(synth.SynthConfig(users=3, captures_per_user=1, frames_per_capture=120,
                                     packets_per_second=20, noise_sigma=0.3, seed=7),
                   str(tmp_path / "corpus"))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_block(), "README.md", "exec"), namespace)
    decision = namespace["decision"]
    assert (decision.decision, decision.user_id) == ("Grant", 2)
    assert capsys.readouterr().out.splitlines()[-1].startswith("Grant 2 ")
