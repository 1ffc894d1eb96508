import json

import numpy as np
import pytest

from handpass import gatekeeper
from handpass.codec import HEADER_DTYPE, CaptureFile, CsiFrame

# one line per acceptance criterion, echoed after the test summary so the
# verdicts are visible without -s (see test_acceptance.report)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_frame(rng: np.random.Generator, ts: tuple = (0, 0)) -> CsiFrame:
    """One CSI frame with random metadata and random int16 subcarriers."""
    return CsiFrame(
        rssi=int(rng.integers(-128, 128)),
        frame_control=int(rng.integers(0, 256)),
        source_mac=bytes(rng.integers(0, 256, size=6, dtype=np.uint8).tolist()),
        sequence_number=int(rng.integers(0, 65536)),
        core_spatial=int(rng.integers(0, 65536)),
        chanspec=int(rng.integers(0, 65536)),
        chip_version=int(rng.integers(0, 65536)),
        csi=rng.integers(-32768, 32768, size=(256, 2), dtype=np.int16),
        ts_sec=ts[0],
        ts_usec=ts[1],
    )


def capture_of(frames) -> CaptureFile:
    """The columns of a capture holding ``frames``: their sample blocks,
    headers and timestamps, row i being frame i."""
    return CaptureFile(
        csi=np.array([f.csi for f in frames], dtype=np.int16).reshape(-1, 256, 2),
        headers=np.array([
            (f.magic, f.rssi, f.frame_control, f.source_mac, f.sequence_number,
             f.core_spatial, f.chanspec, f.chip_version) for f in frames
        ], dtype=HEADER_DTYPE),
        ts_sec=np.array([f.ts_sec for f in frames], dtype=np.uint32),
        ts_usec=np.array([f.ts_usec for f in frames], dtype=np.uint32),
        link_type=1,
    )


def decodes_like_reference(raw: bytes) -> bool:
    """Whether the fast path took the line; if it did, json.loads +
    _inline_csi must accept it too, with an equal block and equal fields."""
    fast = gatekeeper._canonical_frames(raw)
    if fast is None:
        return False
    req, block = fast
    want = json.loads(raw.decode("utf-8"))
    want_block = gatekeeper._inline_csi(want.pop("frames"))
    req.pop("frames")
    assert repr(req) == repr(want)  # repr: NaN fields compare equal
    assert block.dtype == np.int16 and block.shape == want_block.shape
    assert np.array_equal(block, want_block)
    return True


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Shared tiny synthetic corpus: 4 users x 2 captures x 60 frames @ 20/s."""
    from handpass import synth

    out = tmp_path_factory.mktemp("corpus")
    cfg = synth.SynthConfig(
        users=4,
        captures_per_user=2,
        frames_per_capture=60,
        packets_per_second=20,
        noise_sigma=0.4,
        seed=1234,
    )
    manifest = synth.generate(cfg, out)
    return out, cfg, manifest
