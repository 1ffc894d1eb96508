"""Bit-exact reader/writer for CSI capture files.

Captures are classic PCAP files whose UDP payloads carry one CSI record
per packet: an 18-byte little-endian metadata header followed by 256
complex subcarrier samples as interleaved signed 16-bit (re, im) pairs.
CSI records are recognized by the payload magic, not by port, so stray
traffic in a capture is skipped and counted rather than breaking the
parse.  See docs/format.md for the byte-level layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BadCsiPayload, MalformedPcapHeader, TruncatedRecord

CSI_MAGIC = 0x1111          # first two payload bytes of a CSI record
N_SUBCARRIERS = 256         # 80 MHz configuration
HEADER_LEN = 18
PAYLOAD_LEN = HEADER_LEN + N_SUBCARRIERS * 4   # 1042 bytes
CSI_UDP_PORT = 5500         # emission port; readers match on magic only

_PCAP_MAGIC = 0xA1B2C3D4
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_CSI_HEADER = struct.Struct("<HbB6sHHHH")

_ETH_BROADCAST = b"\xff\xff\xff\xff\xff\xff"
_IP_SRC = bytes((10, 10, 10, 10))
_IP_DST = bytes((255, 255, 255, 255))


@dataclass(eq=False)
class CsiFrame:
    """One parsed CSI record: radio metadata plus the raw subcarrier block.

    ``csi`` is a (256, 2) int16 array of (re, im) pairs in hardware
    (pre-FFT-shift) order.  ``ts_sec``/``ts_usec`` come from the PCAP
    record header and default to zero for frames decoded straight from
    payload bytes.
    """

    magic: int = CSI_MAGIC
    rssi: int = 0
    frame_control: int = 0
    source_mac: bytes = b"\x00" * 6
    sequence_number: int = 0
    core_spatial: int = 0
    chanspec: int = 0
    chip_version: int = 0
    csi: np.ndarray = field(default_factory=lambda: np.zeros((N_SUBCARRIERS, 2), dtype=np.int16))
    ts_sec: int = 0
    ts_usec: int = 0

    def __post_init__(self):
        self.csi = np.asarray(self.csi, dtype=np.int16)
        if self.csi.shape != (N_SUBCARRIERS, 2):
            raise ValueError(f"csi must have shape ({N_SUBCARRIERS}, 2), got {self.csi.shape}")
        if len(self.source_mac) != 6:
            raise ValueError("source_mac must be 6 bytes")

    @property
    def core(self) -> int:
        return self.core_spatial & 0x7

    @property
    def spatial_stream(self) -> int:
        return (self.core_spatial >> 3) & 0x7

    def __eq__(self, other) -> bool:
        if not isinstance(other, CsiFrame):
            return NotImplemented
        return (
            self.magic == other.magic
            and self.rssi == other.rssi
            and self.frame_control == other.frame_control
            and self.source_mac == other.source_mac
            and self.sequence_number == other.sequence_number
            and self.core_spatial == other.core_spatial
            and self.chanspec == other.chanspec
            and self.chip_version == other.chip_version
            and self.ts_sec == other.ts_sec
            and self.ts_usec == other.ts_usec
            and np.array_equal(self.csi, other.csi)
        )


@dataclass
class CaptureFile:
    """All CSI frames from one capture, in on-disk order, plus skip counters."""

    frames: list[CsiFrame]
    source_path: str
    link_type: int
    skipped_non_csi: int = 0
    bad_csi: int = 0


def decode_payload(payload: bytes, ts_sec: int = 0, ts_usec: int = 0) -> CsiFrame:
    """Decode one UDP payload into a CsiFrame.

    Raises BadCsiPayload on wrong length or wrong magic.
    """
    if len(payload) != PAYLOAD_LEN:
        raise BadCsiPayload(f"payload is {len(payload)} bytes, expected {PAYLOAD_LEN}")
    magic, rssi, fctl, mac, seq, core_spatial, chanspec, chip = _CSI_HEADER.unpack_from(payload, 0)
    if magic != CSI_MAGIC:
        raise BadCsiPayload(f"bad magic 0x{magic:04x}")
    csi = np.frombuffer(payload, dtype="<i2", offset=HEADER_LEN).reshape(N_SUBCARRIERS, 2).copy()
    return CsiFrame(
        magic=magic,
        rssi=rssi,
        frame_control=fctl,
        source_mac=mac,
        sequence_number=seq,
        core_spatial=core_spatial,
        chanspec=chanspec,
        chip_version=chip,
        csi=csi,
        ts_sec=ts_sec,
        ts_usec=ts_usec,
    )


def encode_payload(frame: CsiFrame) -> bytes:
    """Inverse of decode_payload; bit-exact for any frame the decoder accepts."""
    header = _CSI_HEADER.pack(
        frame.magic,
        frame.rssi,
        frame.frame_control,
        frame.source_mac,
        frame.sequence_number,
        frame.core_spatial,
        frame.chanspec,
        frame.chip_version,
    )
    return header + np.ascontiguousarray(frame.csi, dtype="<i2").tobytes()


def _ip_checksum(header: bytes) -> int:
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) | header[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _wrap_packet(frame: CsiFrame, port: int) -> bytes:
    """Wrap a CSI payload in deterministic Ethernet/IPv4/UDP headers."""
    payload = encode_payload(frame)
    udp_len = 8 + len(payload)
    udp = struct.pack(">HHHH", port, port, udp_len, 0) + payload
    total_len = 20 + udp_len
    ip_wo_ck = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, total_len,
        frame.sequence_number & 0xFFFF, 0,
        64, 17, 0,
        _IP_SRC, _IP_DST,
    )
    ck = _ip_checksum(ip_wo_ck)
    ip = ip_wo_ck[:10] + struct.pack(">H", ck) + ip_wo_ck[12:]
    eth = _ETH_BROADCAST + frame.source_mac + struct.pack(">H", 0x0800)
    return eth + ip + udp


def _udp_payload(data: bytes) -> bytes | None:
    """Extract the UDP payload from an Ethernet frame, or None if not IPv4/UDP.

    Bounds-checked against the record's captured bytes only; never reads
    outside ``data``.
    """
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


def read_capture(path: str, strict: bool = False, magic: int = CSI_MAGIC) -> CaptureFile:
    """Parse a PCAP file and decode every CSI record in it.

    Packets that are not CSI (wrong protocol stack or wrong payload magic)
    are skipped and counted in ``skipped_non_csi``.  Payloads that match
    the magic but fail validation are counted in ``bad_csi``, or raise
    BadCsiPayload when ``strict`` is set.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    if len(data) < 24:
        raise MalformedPcapHeader(f"{path}: file too short for a PCAP global header")
    first = struct.unpack("<I", data[:4])[0]
    if first == _PCAP_MAGIC:
        endian = "<"
    elif struct.unpack(">I", data[:4])[0] == _PCAP_MAGIC:
        endian = ">"
    else:
        raise MalformedPcapHeader(f"{path}: unrecognized magic 0x{first:08x}")
    link_type = struct.unpack(endian + "IHHiIII", data[:24])[6]

    record = struct.Struct(endian + "IIII")
    frames: list[CsiFrame] = []
    skipped = 0
    bad = 0
    pos = 24
    size = len(data)
    magic_bytes = struct.pack("<H", magic)
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
            if strict:
                raise
            bad += 1

    return CaptureFile(
        frames=frames,
        source_path=path,
        link_type=link_type,
        skipped_non_csi=skipped,
        bad_csi=bad,
    )


def write_capture(frames: list[CsiFrame], path: str, port: int = CSI_UDP_PORT) -> None:
    """Write frames as a little-endian classic PCAP accepted by read_capture."""
    out = bytearray()
    out += _GLOBAL_HEADER.pack(_PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
    for frame in frames:
        pkt = _wrap_packet(frame, port)
        out += _RECORD_HEADER.pack(frame.ts_sec, frame.ts_usec, len(pkt), len(pkt))
        out += pkt
    with open(path, "wb") as fh:
        fh.write(out)
