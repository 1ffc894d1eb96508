import dataclasses
import itertools
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from handpass.codec import (
    CSI_MAGIC,
    HEADER_DTYPE,
    HEADER_LEN,
    PAYLOAD_LEN,
    CaptureFile,
    CsiFrame,
    decode_payload,
    encode_payload,
    read_capture,
    write_capture,
)
from handpass.errors import BadCsiPayload, MalformedPcapHeader, TruncatedRecord

from conftest import capture_of, random_frame

MAC = bytes.fromhex("aabbccddeeff")


def make_payload(
    rssi=-60, fctl=0x88, mac=MAC, seq=17, core_spatial=0x0009,
    chanspec=0xE22A, chip=0x0001, csi_bytes=None, magic=CSI_MAGIC,
):
    header = struct.pack("<HbB6sHHHH", magic, rssi, fctl, mac, seq,
                         core_spatial, chanspec, chip)
    if csi_bytes is None:
        csi_bytes = struct.pack("<hh", 3, 4) + b"\x00" * (255 * 4)
    return header + csi_bytes


def packet(payload: bytes, ihl=5, udp_len=None, version=4, proto=17,
           ethertype=b"\x08\x00", mac=MAC, port=5500) -> bytes:
    """Ethernet/IPv4/UDP around ``payload``, from and to ``port``; ``ihl``
    > 5 adds IP options and ``udp_len`` overrides the UDP length field."""
    if udp_len is None:
        udp_len = 8 + len(payload)
    udp = struct.pack(">HHHH", port, port, udp_len, 0) + payload
    options = bytes(range(1, 1 + 4 * max(ihl - 5, 0)))
    ip = struct.pack(
        ">BBHHHBBH4s4s", version << 4 | ihl, 0, 20 + len(options) + len(udp), 0, 0, 64,
        proto, 0, b"\x0a\x0a\x0a\x0a", b"\xff\xff\xff\xff",
    ) + options
    return b"\xff" * 6 + mac + ethertype + ip + udp


def pcap_bytes(packets, endian="<", link_type=1) -> bytes:
    out = struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, link_type)
    for i, pkt in enumerate(packets):
        out += struct.pack(endian + "IIII", i, i * 10, len(pkt), len(pkt))
        out += pkt
    return out


class TestDecodePayload:
    def test_header_fields(self):
        frame = decode_payload(make_payload())
        assert frame.rssi == -60
        assert frame.frame_control == 0x88
        assert frame.source_mac == MAC
        assert frame.sequence_number == 17
        assert frame.core_spatial == 0x0009
        assert frame.chanspec == 0xE22A
        assert frame.chip_version == 0x0001

    def test_negative_rssi_byte(self):
        # 0xC4 as a signed byte is -60
        payload = bytearray(make_payload())
        assert payload[2] == 0xC4
        assert decode_payload(bytes(payload)).rssi == -60

    def test_first_subcarrier_pair(self):
        frame = decode_payload(make_payload())
        assert frame.csi[0, 0] == 3 and frame.csi[0, 1] == 4
        assert frame.csi.shape == (256, 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(BadCsiPayload):
            decode_payload(b"\x11" * 100)
        with pytest.raises(BadCsiPayload):
            decode_payload(make_payload() + b"\x00")

    def test_wrong_magic_rejected(self):
        with pytest.raises(BadCsiPayload):
            decode_payload(make_payload(magic=0x2222))

    def test_int16_extremes_roundtrip(self):
        csi = struct.pack("<hh", -32768, 32767) * 256
        frame = decode_payload(make_payload(csi_bytes=csi))
        assert frame.csi[0, 0] == -32768 and frame.csi[0, 1] == 32767
        assert encode_payload(frame) == make_payload(csi_bytes=csi)


class TestEncodeDecode:
    def test_roundtrip_seeded(self):
        rng = np.random.default_rng(20260816)
        for _ in range(50):
            frame = random_frame(rng)
            payload = encode_payload(frame)
            assert len(payload) == PAYLOAD_LEN
            again = encode_payload(decode_payload(payload))
            assert again == payload

    def test_frame_equality_semantics(self):
        rng = np.random.default_rng(7)
        a = random_frame(rng)
        b = decode_payload(encode_payload(a))
        assert a == b
        b.csi[100, 0] += 1
        assert a != b


# one changed value for each of CsiFrame's 11 fields; the defaults differ from all
FIELD_CHANGES = {
    "magic": 0x2222, "rssi": -60, "frame_control": 0x88, "source_mac": b"\x00" * 5 + b"\x01",
    "sequence_number": 17, "core_spatial": 9, "chanspec": 0xE22A, "chip_version": 1,
    "csi": np.ones((256, 2), dtype=np.int16), "ts_sec": 1, "ts_usec": 1,
}


class TestFrameEquality:
    def test_changes_cover_every_field(self):
        assert sorted(FIELD_CHANGES) == sorted(f.name for f in dataclasses.fields(CsiFrame))

    @pytest.mark.parametrize("name", sorted(FIELD_CHANGES))
    def test_any_one_field_changed_is_unequal(self, name):
        base = CsiFrame()
        changed = dataclasses.replace(base, **{name: FIELD_CHANGES[name]})
        assert base != changed and changed != base
        assert not base == changed

    def test_identical_copy_is_equal(self):
        a = random_frame(np.random.default_rng(3), ts=(5, 6))
        b = dataclasses.replace(a, csi=a.csi.copy())
        assert a == b and b == a and not a != b

    @pytest.mark.parametrize("other", [None, 0, "frame", b"\x11\x11", object()])
    def test_non_frame_is_unequal(self, other):
        frame = CsiFrame()
        assert frame != other and other != frame
        assert not frame == other


class TestReadCapture:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.pcap"
        p.write_bytes(b"")
        with pytest.raises(MalformedPcapHeader):
            read_capture(str(p))

    def test_unknown_magic(self, tmp_path):
        p = tmp_path / "junk.pcap"
        p.write_bytes(b"\x00" * 24)
        with pytest.raises(MalformedPcapHeader):
            read_capture(str(p))

    def test_write_read_roundtrip(self, tmp_path):
        rng = np.random.default_rng(99)
        frames = [random_frame(rng, ts=(i, i * 100)) for i in range(5)]
        p = tmp_path / "cap.pcap"
        write_capture(capture_of(frames), str(p))
        cap = read_capture(str(p))
        assert cap.link_type == 1
        assert cap.skipped_non_csi == 0 and cap.bad_csi == 0
        assert cap.frames == frames
        assert [f.ts_sec for f in cap.frames] == [0, 1, 2, 3, 4]

    def test_port_is_not_the_discriminator(self, tmp_path):
        rng = np.random.default_rng(3)
        frame = random_frame(rng)
        p = tmp_path / "odd_port.pcap"
        p.write_bytes(pcap_bytes([packet(encode_payload(frame), port=9999)]))
        assert read_capture(str(p)).frames == [frame]

    def test_big_endian_header(self, tmp_path):
        frame = decode_payload(make_payload())
        pkt = packet(encode_payload(frame))
        p = tmp_path / "be.pcap"
        p.write_bytes(pcap_bytes([pkt], endian=">"))
        cap = read_capture(str(p))
        assert len(cap.frames) == 1 and cap.frames[0].source_mac == MAC

    def test_non_csi_packets_skipped(self, tmp_path):
        csi_pkt = packet(make_payload())
        arp_pkt = packet(make_payload(), ethertype=b"\x08\x06")
        other_udp = packet(b"not a csi payload")
        tcp_pkt = packet(make_payload(), proto=6)
        p = tmp_path / "mixed.pcap"
        p.write_bytes(pcap_bytes([csi_pkt, arp_pkt, other_udp, csi_pkt, tcp_pkt]))
        cap = read_capture(str(p))
        assert len(cap.frames) == 2
        assert cap.skipped_non_csi == 3
        assert cap.bad_csi == 0

    def test_non_ethernet_link_skips_everything(self, tmp_path):
        pkt = packet(make_payload())
        p = tmp_path / "raw.pcap"
        p.write_bytes(pcap_bytes([pkt, pkt], link_type=105))
        cap = read_capture(str(p))
        assert cap.frames == [] and cap.skipped_non_csi == 2

    def test_bad_csi_counted(self, tmp_path):
        torn = make_payload()[:200]  # right magic, wrong length
        p = tmp_path / "bad.pcap"
        p.write_bytes(pcap_bytes([packet(torn), packet(make_payload())]))
        cap = read_capture(str(p))
        assert len(cap.frames) == 1 and cap.bad_csi == 1

    def test_truncated_record_header(self, tmp_path):
        p = tmp_path / "trunc1.pcap"
        p.write_bytes(pcap_bytes([]) + b"\x00" * 10)
        with pytest.raises(TruncatedRecord):
            read_capture(str(p))

    def test_truncated_record_body(self, tmp_path):
        pkt = packet(make_payload())
        data = pcap_bytes([pkt])
        p = tmp_path / "trunc2.pcap"
        p.write_bytes(data[:-20])
        with pytest.raises(TruncatedRecord):
            read_capture(str(p))

    def test_fuzz_records_never_crash(self, tmp_path):
        rng = np.random.default_rng(555)
        for trial in range(60):
            n = int(rng.integers(1, 5))
            pkts = [
                bytes(rng.integers(0, 256, size=int(rng.integers(0, 1500)),
                                   dtype=np.uint8).tolist())
                for _ in range(n)
            ]
            p = tmp_path / f"fuzz{trial}.pcap"
            p.write_bytes(pcap_bytes(pkts))
            cap = read_capture(str(p))
            assert len(cap.frames) + cap.skipped_non_csi + cap.bad_csi == n

    def test_fuzz_whole_file_only_typed_errors(self, tmp_path):
        rng = np.random.default_rng(556)
        for trial in range(60):
            blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 400)),
                                      dtype=np.uint8).tolist())
            p = tmp_path / f"blob{trial}.pcap"
            p.write_bytes(blob)
            try:
                read_capture(str(p))
            except (MalformedPcapHeader, TruncatedRecord, BadCsiPayload):
                pass


# --- reference writer -----------------------------------------------------------
# The per-frame writer that the record-array write_capture replaced: one
# struct-packed packet per frame and a Python ones'-complement checksum.
# write_capture must produce its bytes.

def _reference_checksum(header: bytes) -> int:
    total = sum(struct.unpack(">10H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def reference_write(frames) -> bytes:
    out = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    for frame in frames:
        payload = encode_payload(frame)
        udp = struct.pack(">HHHH", 5500, 5500, 8 + len(payload), 0) + payload
        ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(udp), frame.sequence_number,
                         0, 64, 17, 0, bytes((10, 10, 10, 10)), b"\xff" * 4)
        ip = ip[:10] + struct.pack(">H", _reference_checksum(ip)) + ip[12:]
        pkt = b"\xff" * 6 + frame.source_mac + b"\x08\x00" + ip + udp
        out += struct.pack("<IIII", frame.ts_sec, frame.ts_usec, len(pkt), len(pkt)) + pkt
    return out


@st.composite
def capture_columns(draw):
    """The columns of 0-4 records: random samples (int16 extremes included),
    random headers with the CSI magic, MACs that may end in NUL bytes and
    timestamps over the whole uint32 range."""
    n = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    csi = rng.integers(-32768, 32768, size=(n, 256, 2), dtype=np.int16)
    headers = rng.integers(0, 256, size=(n, HEADER_LEN), dtype=np.uint8).view(HEADER_DTYPE)
    headers = headers.reshape(n)
    headers["magic"] = CSI_MAGIC
    for i in range(n):
        csi[i, draw(st.integers(0, 255))] = draw(st.sampled_from([-32768, 32767]))
        nuls = draw(st.integers(0, 6))
        headers["source_mac"][i] = headers["source_mac"][i].tobytes()[:6 - nuls] + b"\0" * nuls
    stamps = st.lists(st.integers(0, 2 ** 32 - 1), min_size=n, max_size=n)
    return CaptureFile(csi=csi, headers=headers,
                       ts_sec=np.array(draw(stamps), dtype=np.uint32),
                       ts_usec=np.array(draw(stamps), dtype=np.uint32), link_type=1)


class TestWriteCapture:
    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(capture_columns())
    def test_columns_round_trip(self, tmp_path, columns):
        path = str(tmp_path / "cap.pcap")
        write_capture(columns, path)
        cap = read_capture(path)
        assert (cap.link_type, cap.skipped_non_csi, cap.bad_csi) == (1, 0, 0)
        assert cap.csi.dtype == np.int16 and np.array_equal(cap.csi, columns.csi)
        assert cap.headers.dtype == HEADER_DTYPE
        assert cap.headers.tobytes() == columns.headers.tobytes()
        assert cap.ts_sec.tolist() == columns.ts_sec.tolist()
        assert cap.ts_usec.tolist() == columns.ts_usec.tolist()
        with open(path, "rb") as fh:
            assert fh.read() == reference_write(columns.frames)

    def test_rewriting_a_synth_capture_reproduces_its_bytes(self, small_corpus, tmp_path):
        root, _, manifest = small_corpus
        for entry in manifest["captures"]:
            path = os.path.join(root, entry["path"])
            again = tmp_path / "again.pcap"
            write_capture(read_capture(path), str(again))
            with open(path, "rb") as fh:
                assert again.read_bytes() == fh.read()

    @pytest.mark.parametrize("column, value", [("ts_sec", 2 ** 32 + 5), ("ts_usec", -1)])
    def test_timestamp_outside_uint32_refused(self, tmp_path, column, value):
        # numpy would wrap these to 5 and 4294967295 in the record header
        rng = np.random.default_rng(12)
        capture = capture_of([random_frame(rng, (7, 8)), random_frame(rng, (9, 10))])
        setattr(capture, column, np.array([3, value], dtype=np.int64))
        path = tmp_path / "cap.pcap"
        with pytest.raises(ValueError, match=column):
            write_capture(capture, str(path))
        assert not path.exists()


# --- reference reader -----------------------------------------------------------
# The per-record reader that the columnar read_capture replaced: one Python
# pass per record and one CsiFrame per CSI payload, raising as it meets
# each error.  read_capture must agree with it on every input.

def _udp_payload(data: bytes) -> bytes | None:
    """Extract the UDP payload from an Ethernet frame, or None if not IPv4/UDP."""
    if len(data) < 14 + 20 + 8:
        return None
    if data[12:14] != b"\x08\x00":
        return None
    ip = data[14:]
    if ip[0] >> 4 != 4:
        return None
    ihl = (ip[0] & 0x0F) * 4
    if ihl < 20 or len(ip) < ihl + 8:
        return None
    if ip[9] != 17:
        return None
    udp = ip[ihl:]
    udp_len = (udp[4] << 8) | udp[5]
    if udp_len < 8 or udp_len > len(udp):
        return None
    return udp[8:udp_len]


def reference_read(path):
    """(frames, link_type, skipped_non_csi, bad_csi) of a capture file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 24:
        raise MalformedPcapHeader(f"{path}: file too short for a PCAP global header")
    first = struct.unpack("<I", data[:4])[0]
    if first == 0xA1B2C3D4:
        endian = "<"
    elif struct.unpack(">I", data[:4])[0] == 0xA1B2C3D4:
        endian = ">"
    else:
        raise MalformedPcapHeader(f"{path}: unrecognized magic 0x{first:08x}")
    link_type = struct.unpack(endian + "IHHiIII", data[:24])[6]

    record = struct.Struct(endian + "IIII")
    frames, skipped, bad = [], 0, 0
    pos, size = 24, len(data)
    magic_bytes = struct.pack("<H", CSI_MAGIC)
    while pos < size:
        if pos + 16 > size:
            raise TruncatedRecord(f"{path}: record header truncated at offset {pos}")
        ts_sec, ts_usec, incl_len, _orig_len = record.unpack_from(data, pos)
        pos += 16
        if pos + incl_len > size:
            raise TruncatedRecord(f"{path}: record at offset {pos - 16} declares {incl_len} bytes past EOF")
        pkt = data[pos:pos + incl_len]
        pos += incl_len
        if link_type != 1:
            skipped += 1
            continue
        payload = _udp_payload(pkt)
        if payload is None or payload[:2] != magic_bytes:
            skipped += 1
            continue
        try:
            frames.append(decode_payload(payload, ts_sec=ts_sec, ts_usec=ts_usec))
        except BadCsiPayload:
            bad += 1
    return frames, link_type, skipped, bad


def outcome(read, path):
    """(error, result) of reading a file; error is (type, message) or None."""
    try:
        return None, read(path)
    except (MalformedPcapHeader, TruncatedRecord, BadCsiPayload) as exc:
        return (type(exc), str(exc)), None


def assert_matches_reference(path):
    error, want = outcome(reference_read, path)
    got_error, got = outcome(read_capture, path)
    assert got_error == error
    if error:
        return
    frames, link_type, skipped, bad = want
    assert (got.link_type, got.skipped_non_csi, got.bad_csi) == (link_type, skipped, bad)
    assert got.csi.dtype == np.int16 and got.csi.dtype.isnative
    assert got.csi.shape == (len(frames), 256, 2) and got.csi.flags.c_contiguous
    assert np.array_equal(got.csi, np.array([f.csi for f in frames]).reshape(-1, 256, 2))
    heads = np.array([
        (f.magic, f.rssi, f.frame_control, f.source_mac, f.sequence_number,
         f.core_spatial, f.chanspec, f.chip_version) for f in frames
    ], dtype=HEADER_DTYPE)
    assert got.headers.dtype == HEADER_DTYPE and got.headers.tobytes() == heads.tobytes()
    assert got.ts_sec.tolist() == [f.ts_sec for f in frames]
    assert got.ts_usec.tolist() == [f.ts_usec for f in frames]
    assert got.frames == frames


def seeded_payloads(rng, n):
    """n CSI payloads with random headers; every MAC ends in NUL bytes."""
    out = []
    for _ in range(n):
        frame = random_frame(rng)
        frame.source_mac = frame.source_mac[:4] + b"\x00\x00"
        out.append(encode_payload(frame))
    return out


class TestMatchesReference:
    """read_capture against the per-record reference reader, on clean and
    damaged captures."""

    @pytest.fixture
    def check(self, tmp_path):
        names = itertools.count()

        def check_bytes(blob):
            path = tmp_path / f"cap{next(names)}.pcap"
            path.write_bytes(blob)
            assert_matches_reference(str(path))
        return check_bytes

    @staticmethod
    def mixed_capture(rng, endian="<", link_type=1) -> bytes:
        good = seeded_payloads(rng, 4)
        pkts = [packet(good[0]), packet(b"not a csi payload"), packet(good[1]),
                packet(good[2], ethertype=b"\x08\x06"), packet(good[3], ihl=9),
                packet(good[0], version=6), packet(good[1], proto=6)]
        return pcap_bytes(pkts, endian=endian, link_type=link_type)

    def test_clean_and_mixed(self, check):
        rng = np.random.default_rng(8)
        check(self.mixed_capture(rng))
        check(pcap_bytes([]))

    def test_mac_trailing_nuls_survive(self, tmp_path):
        payload = seeded_payloads(np.random.default_rng(9), 1)[0]
        path = tmp_path / "nul.pcap"
        path.write_bytes(pcap_bytes([packet(payload)]))
        cap = read_capture(str(path))
        assert cap.headers["source_mac"][0].tobytes() == payload[4:10]
        assert cap.frames[0].source_mac == payload[4:10]
        assert payload[8:10] == b"\x00\x00"

    def test_byte_flips(self, check):
        rng = np.random.default_rng(10)
        base = bytearray(self.mixed_capture(rng))
        for _ in range(150):
            blob = base.copy()
            for pos in rng.integers(24, len(blob), size=int(rng.integers(1, 4))):
                blob[pos] ^= int(rng.integers(1, 256))
            check(bytes(blob))

    def test_truncation_in_record_header_and_body(self, check):
        rng = np.random.default_rng(11)
        blob = self.mixed_capture(rng)
        first_body = 24 + 16
        for cut in [*range(25, first_body + 60, 3), *range(len(blob) - 1100, len(blob), 37)]:
            check(blob[:cut])

    @pytest.mark.parametrize("ihl", range(16))
    def test_ihl_with_ip_options(self, check, ihl):
        payload = seeded_payloads(np.random.default_rng(12), 1)[0]
        check(pcap_bytes([packet(payload, ihl=ihl), packet(payload)]))

    @pytest.mark.parametrize("delta", [-1042, -1041, -1040, -1034, -1, 1, 2, 60])
    def test_udp_length_short_or_long(self, check, delta):
        payload = seeded_payloads(np.random.default_rng(13), 1)[0]
        check(pcap_bytes([packet(payload, udp_len=8 + len(payload) + delta), packet(payload)]))

    @pytest.mark.parametrize("link_type", [0, 105, 113])
    def test_link_type_other_than_ethernet(self, check, link_type):
        check(self.mixed_capture(np.random.default_rng(14), link_type=link_type))

    def test_big_endian_file(self, check):
        check(self.mixed_capture(np.random.default_rng(15), endian=">"))

    def test_wrong_magic(self, check):
        payload = seeded_payloads(np.random.default_rng(16), 1)[0]
        other = b"\x22\x22" + payload[2:]
        check(pcap_bytes([packet(other), packet(payload)]))

    @pytest.mark.parametrize("size", [0, 1, 2, 18, 1041, 1043])
    def test_payload_lengths(self, check, size):
        payload = seeded_payloads(np.random.default_rng(17), 1)[0]
        wrong = (payload * 2)[:size]
        check(pcap_bytes([packet(payload), packet(wrong), packet(payload)]))

    def test_zero_length_records(self, check):
        payload = seeded_payloads(np.random.default_rng(18), 1)[0]
        check(pcap_bytes([b"", packet(payload), b"", b""]))

    def test_bad_payload_before_truncation(self, check, tmp_path):
        payload = seeded_payloads(np.random.default_rng(19), 1)[0]
        blob = pcap_bytes([packet(payload[:1041]), packet(payload)])[:-5]
        check(blob)
        path = tmp_path / "both.pcap"
        path.write_bytes(blob)
        with pytest.raises(TruncatedRecord):
            read_capture(str(path))
