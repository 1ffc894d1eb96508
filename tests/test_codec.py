import struct

import numpy as np
import pytest

from handpass.codec import (
    CSI_MAGIC,
    HEADER_LEN,
    PAYLOAD_LEN,
    CsiFrame,
    decode_payload,
    encode_payload,
    read_capture,
    write_capture,
)
from handpass.errors import BadCsiPayload, MalformedPcapHeader, TruncatedRecord

from conftest import random_frame

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


def wrap_udp(payload: bytes, ethertype=b"\x08\x00", proto=17) -> bytes:
    """Minimal Ethernet/IPv4/UDP wrapper for arbitrary payload bytes."""
    udp = struct.pack(">HHHH", 5500, 5500, 8 + len(payload), 0) + payload
    ip = struct.pack(
        ">BBHHHBBH4s4s", 0x45, 0, 20 + len(udp), 0, 0, 64, proto, 0,
        b"\x0a\x0a\x0a\x0a", b"\xff\xff\xff\xff",
    )
    eth = b"\xff" * 6 + MAC + ethertype
    return eth + ip + udp


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
        assert frame.core == 1
        assert frame.spatial_stream == 1
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
        write_capture(frames, str(p))
        cap = read_capture(str(p))
        assert cap.link_type == 1
        assert cap.skipped_non_csi == 0 and cap.bad_csi == 0
        assert cap.frames == frames
        assert [f.ts_sec for f in cap.frames] == [0, 1, 2, 3, 4]

    def test_port_is_not_the_discriminator(self, tmp_path):
        rng = np.random.default_rng(3)
        frames = [random_frame(rng)]
        p = tmp_path / "odd_port.pcap"
        write_capture(frames, str(p), port=9999)
        assert read_capture(str(p)).frames == frames

    def test_big_endian_header(self, tmp_path):
        frame = decode_payload(make_payload())
        pkt = wrap_udp(encode_payload(frame))
        p = tmp_path / "be.pcap"
        p.write_bytes(pcap_bytes([pkt], endian=">"))
        cap = read_capture(str(p))
        assert len(cap.frames) == 1 and cap.frames[0].source_mac == MAC

    def test_non_csi_packets_skipped(self, tmp_path):
        csi_pkt = wrap_udp(make_payload())
        arp_pkt = wrap_udp(make_payload(), ethertype=b"\x08\x06")
        other_udp = wrap_udp(b"not a csi payload")
        tcp_pkt = wrap_udp(make_payload(), proto=6)
        p = tmp_path / "mixed.pcap"
        p.write_bytes(pcap_bytes([csi_pkt, arp_pkt, other_udp, csi_pkt, tcp_pkt]))
        cap = read_capture(str(p))
        assert len(cap.frames) == 2
        assert cap.skipped_non_csi == 3
        assert cap.bad_csi == 0

    def test_non_ethernet_link_skips_everything(self, tmp_path):
        pkt = wrap_udp(make_payload())
        p = tmp_path / "raw.pcap"
        p.write_bytes(pcap_bytes([pkt, pkt], link_type=105))
        cap = read_capture(str(p))
        assert cap.frames == [] and cap.skipped_non_csi == 2

    def test_bad_csi_counted(self, tmp_path):
        torn = make_payload()[:200]  # right magic, wrong length
        p = tmp_path / "bad.pcap"
        p.write_bytes(pcap_bytes([wrap_udp(torn), wrap_udp(make_payload())]))
        cap = read_capture(str(p))
        assert len(cap.frames) == 1 and cap.bad_csi == 1

    def test_bad_csi_strict_raises(self, tmp_path):
        torn = make_payload()[:200]
        p = tmp_path / "bad.pcap"
        p.write_bytes(pcap_bytes([wrap_udp(torn)]))
        with pytest.raises(BadCsiPayload):
            read_capture(str(p), strict=True)

    def test_truncated_record_header(self, tmp_path):
        p = tmp_path / "trunc1.pcap"
        p.write_bytes(pcap_bytes([]) + b"\x00" * 10)
        with pytest.raises(TruncatedRecord):
            read_capture(str(p))

    def test_truncated_record_body(self, tmp_path):
        pkt = wrap_udp(make_payload())
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
