"""Bit-exact reader/writer for CSI capture files.

Captures are classic PCAP files whose UDP payloads carry one CSI record
per packet: an 18-byte little-endian metadata header followed by 256
complex subcarrier samples as interleaved signed 16-bit (re, im) pairs.
CSI records are recognized by the payload magic, not by port, so stray
traffic in a capture is skipped and counted rather than breaking the
parse.  A capture is read into columns: one (n, 256, 2) int16 block of
samples plus row-aligned header and timestamp arrays, with no object per
record.  See docs/format.md for the byte-level layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import BadCsiPayload, MalformedPcapHeader, TruncatedRecord

CSI_MAGIC = 0x1111          # first two payload bytes of a CSI record
N_SUBCARRIERS = 256         # 80 MHz configuration
HEADER_LEN = 18
PAYLOAD_LEN = HEADER_LEN + N_SUBCARRIERS * 4   # 1042 bytes
CSI_UDP_PORT = 5500         # emission port; readers match on magic only

_PCAP_MAGIC = 0xA1B2C3D4
_GLOBAL_HEADER = struct.Struct("<IHHiIII")

# The 18-byte CSI header as one record, fields in CsiFrame order.  The MAC
# is raw bytes: a string dtype ("S6") would drop its trailing NULs.
HEADER_DTYPE = np.dtype([
    ("magic", "<u2"), ("rssi", "i1"), ("frame_control", "u1"), ("source_mac", "V6"),
    ("sequence_number", "<u2"), ("core_spatial", "<u2"), ("chanspec", "<u2"),
    ("chip_version", "<u2"),
])
_PAYLOAD_DTYPE = np.dtype([("header", HEADER_DTYPE), ("csi", "<i2", (N_SUBCARRIERS, 2))])

# One written record: the PCAP record header, then Ethernet II, IPv4
# without options and UDP, all big-endian, then the CSI payload.
_IPV4_DTYPE = np.dtype([
    ("version_ihl", "u1"), ("tos", "u1"), ("total_len", ">u2"), ("ident", ">u2"),
    ("fragment", ">u2"), ("ttl", "u1"), ("protocol", "u1"), ("checksum", ">u2"),
    ("src", "V4"), ("dst", "V4"),
])
_RECORD_DTYPE = np.dtype([
    ("ts_sec", "<u4"), ("ts_usec", "<u4"), ("incl_len", "<u4"), ("orig_len", "<u4"),
    ("eth_dst", "V6"), ("eth_src", "V6"), ("ethertype", ">u2"),
    ("ip", _IPV4_DTYPE),
    ("udp", [("src_port", ">u2"), ("dst_port", ">u2"), ("length", ">u2"), ("checksum", ">u2")]),
    ("payload", _PAYLOAD_DTYPE),
])


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, CsiFrame):
            return NotImplemented
        return np.array_equal(self.csi, other.csi) and all(
            getattr(self, f.name) == getattr(other, f.name) for f in fields(self) if f.name != "csi"
        )


@dataclass(eq=False)
class CaptureFile:
    """All CSI records from one capture, in on-disk order, as columns.

    ``csi`` is the (n, 256, 2) native int16 block of (re, im) pairs in
    hardware order, ``headers`` the n CSI headers (HEADER_DTYPE) and
    ``ts_sec``/``ts_usec`` the PCAP record timestamps; row i of each is
    record i.  The counters tally the packets that were not read.
    """

    csi: np.ndarray
    headers: np.ndarray
    ts_sec: np.ndarray
    ts_usec: np.ndarray
    link_type: int
    skipped_non_csi: int = 0
    bad_csi: int = 0

    @cached_property
    def frames(self) -> list[CsiFrame]:
        """The records as CsiFrame objects, built on first use.  Each
        frame's ``csi`` is a view of its row of the block."""
        return [
            CsiFrame(*head, csi=csi, ts_sec=sec, ts_usec=usec)
            for head, csi, sec, usec in zip(
                self.headers.tolist(), self.csi, self.ts_sec.tolist(), self.ts_usec.tolist()
            )
        ]


def decode_payload(payload: bytes, ts_sec: int = 0, ts_usec: int = 0) -> CsiFrame:
    """Decode one UDP payload into a CsiFrame.

    Raises BadCsiPayload on wrong length or wrong magic.
    """
    if len(payload) != PAYLOAD_LEN:
        raise BadCsiPayload(f"payload is {len(payload)} bytes, expected {PAYLOAD_LEN}")
    (record,) = np.frombuffer(payload, dtype=_PAYLOAD_DTYPE)
    header = record["header"].tolist()
    if header[0] != CSI_MAGIC:
        raise BadCsiPayload(f"bad magic 0x{header[0]:04x}")
    return CsiFrame(*header, csi=record["csi"].copy(), ts_sec=ts_sec, ts_usec=ts_usec)


def encode_payload(frame: CsiFrame) -> bytes:
    """Inverse of decode_payload; bit-exact for any frame the decoder accepts."""
    record = np.empty((), dtype=_PAYLOAD_DTYPE)
    record["header"] = tuple(getattr(frame, name) for name in HEADER_DTYPE.names)
    record["csi"] = frame.csi
    return record.tobytes()


def _gather(buf: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
    """Copy ``buf[o:o + width]`` for every offset into an (n, width) block."""
    if not len(offsets):  # a file shorter than width has no window to index
        return np.empty((0, width), dtype=np.uint8)
    return np.lib.stride_tricks.sliding_window_view(buf, width)[offsets]


def read_capture(path: str) -> CaptureFile:
    """Parse a PCAP file and decode every CSI record in it.

    Packets that are not CSI (wrong protocol stack, or a payload that does
    not start with CSI_MAGIC) are skipped and counted in
    ``skipped_non_csi``.  Payloads that start with the magic but are not
    PAYLOAD_LEN bytes long are counted in ``bad_csi``.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    if len(data) < _GLOBAL_HEADER.size:
        raise MalformedPcapHeader(f"{path}: file too short for a PCAP global header")
    first = struct.unpack("<I", data[:4])[0]
    if first == _PCAP_MAGIC:
        endian = "<"
    elif struct.unpack(">I", data[:4])[0] == _PCAP_MAGIC:
        endian = ">"
    else:
        raise MalformedPcapHeader(f"{path}: unrecognized magic 0x{first:08x}")
    # _GLOBAL_HEADER's layout, in the file's byte order
    link_type = struct.unpack_from(endian + _GLOBAL_HEADER.format[1:], data)[6]
    magic_lo, magic_hi = struct.pack("<H", CSI_MAGIC)

    # The record walk is the one per-record loop: each header gives the
    # offset of the next.
    incl_len = struct.Struct(endian + "I").unpack_from
    starts = []
    pos = _GLOBAL_HEADER.size
    size = len(data)
    while pos < size:
        if pos + 16 > size:
            raise TruncatedRecord(f"{path}: record header truncated at offset {pos}")
        end = pos + 16 + incl_len(data, pos + 8)[0]
        if end > size:
            raise TruncatedRecord(
                f"{path}: record at offset {pos} declares {end - pos - 16} bytes past EOF")
        starts.append(pos)
        pos = end

    # Every packet check runs once over all records.  Offsets past a
    # record's end read other bytes (clipped at EOF); the length checks
    # mask those records out.
    buf = np.frombuffer(data, dtype=np.uint8)
    starts = np.array(starts, dtype=np.intp)
    records = _gather(buf, starts, 16).view(endian + "u4").astype(np.uint32)
    length = records[:, 2].astype(np.intp)
    last = size - 1

    def at(offsets):
        return buf[np.minimum(offsets, last)]

    eth = starts + 16
    ip = eth + 14
    ihl = (at(ip) & 0x0F).astype(np.intp) * 4
    udp = ip + ihl
    udp_len = at(udp + 4).astype(np.intp) << 8 | at(udp + 5)
    payload = udp + 8
    n_payload = udp_len - 8
    is_csi = (
        (link_type == 1)
        & (length >= 14 + 20 + 8)
        & (at(eth + 12) == 0x08) & (at(eth + 13) == 0x00)
        & (at(ip) >> 4 == 4)
        & (ihl >= 20)
        & (at(ip + 9) == 17)
        & (udp_len >= 8) & (udp_len <= length - 14 - ihl)   # UDP header inside the record
        & (n_payload >= 2) & (at(payload) == magic_lo) & (at(payload + 1) == magic_hi)
    )
    good = is_csi & (n_payload == PAYLOAD_LEN)

    # Both columns are contiguous copies, so neither keeps the rows alive.
    payloads = _gather(buf, payload[good], PAYLOAD_LEN).view(_PAYLOAD_DTYPE).reshape(-1)
    return CaptureFile(
        csi=payloads["csi"].astype(np.int16),
        headers=payloads["header"].copy(),
        ts_sec=records[good, 0],
        ts_usec=records[good, 1],
        link_type=link_type,
        skipped_non_csi=int(len(starts) - is_csi.sum()),
        bad_csi=int((is_csi & ~good).sum()),
    )


def write_capture(capture, path: str) -> None:
    """Write the columns of a capture as a little-endian classic PCAP that
    read_capture reads back.

    ``capture`` holds ``csi``, ``headers``, ``ts_sec`` and ``ts_usec`` as
    a CaptureFile does.  Each record is one packet with deterministic
    Ethernet/IPv4/UDP headers, to and from CSI_UDP_PORT, and all records
    go out as one block.  A timestamp outside the record header's uint32
    raises ValueError before the file is opened.
    """
    for name in ("ts_sec", "ts_usec"):
        column = np.asarray(getattr(capture, name))
        if column.size and not (0 <= column.min() and column.max() < 2**32):
            raise ValueError(f"{name} outside the uint32 range of a PCAP record header")
    records = np.zeros(len(capture.csi), dtype=_RECORD_DTYPE)
    records["ts_sec"] = capture.ts_sec
    records["ts_usec"] = capture.ts_usec
    records["incl_len"] = records["orig_len"] = _RECORD_DTYPE.itemsize - 16
    records["eth_dst"] = b"\xff" * 6
    records["eth_src"] = capture.headers["source_mac"]
    records["ethertype"] = 0x0800
    ip = records["ip"]
    ip[["version_ihl", "total_len", "ttl", "protocol", "src", "dst"]] = (
        0x45, _IPV4_DTYPE.itemsize + 8 + PAYLOAD_LEN, 64, 17, bytes((10,) * 4), b"\xff" * 4)
    ip["ident"] = capture.headers["sequence_number"]
    # The header checksum is the ones' complement of the ones'-complement
    # sum of its ten words; two folds carry every overflow of such a sum.
    total = np.ascontiguousarray(ip).view((">u2", 10)).sum(axis=1, dtype=np.uint32)
    total = (total & 0xFFFF) + (total >> 16)
    ip["checksum"] = ~((total & 0xFFFF) + (total >> 16)) & 0xFFFF
    records["udp"] = (CSI_UDP_PORT, CSI_UDP_PORT, 8 + PAYLOAD_LEN, 0)
    records["payload"]["header"] = capture.headers
    records["payload"]["csi"] = capture.csi
    with open(path, "wb") as fh:
        fh.write(_GLOBAL_HEADER.pack(_PCAP_MAGIC, 2, 4, 0, 0, 65535, 1))
        fh.write(records.tobytes())
