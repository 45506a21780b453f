"""From-scratch JPEG codec (stdlib + numpy — no image libs).

Decoder: baseline sequential DCT (SOF0/1) AND progressive DCT (SOF2,
spectral selection + successive approximation per ITU-T T.81 G.1.2 —
DC first/refine scans interleaved in MCU order, per-component AC
first/refine scans with EOB-run coding), 8-bit, grey or YCbCr with
arbitrary sampling factors (4:4:4 / 4:2:0 / 4:2:2), DQT/DHT/DRI/RST
markers, byte-stuffing. Encoder: baseline 4:4:4 / 4:2:0 (or grey)
with the ITU-T T.81 Annex K quantization + Huffman tables and a
quality knob using the libjpeg scaling convention, plus a progressive
encoder (``encode_jpeg_progressive``) that emits a DC-first /
DC-refine / AC-first / AC-refine scan script with cross-block EOB-run
accumulation — it exists to pin the SOF2 decoder with real
multi-scan streams.

The DCT runs as two 8x8 orthonormal-basis matmuls (numpy, float64);
IDCT is the transpose pair, rounded and clamped. Baseline ENCODE
entropy coding is fully vectorized (`_entropy_encode`: token arrays
in scan order, one np.packbits bit pack, vectorized 0xFF stuffing;
pinned bit-identical to the per-block reference coder it replaced by
tests/test_jpeg_vectorized.py). Huffman DECODE and the progressive
encoder still walk per-block in python — inherently sequential
bitstreams; the map tasks parallelize across images, and a 100 TB
image pipeline would swap the decode kernel for a compiled codec
while keeping every Ray-side contract identical.

Conformance: spec-derived unit tests (zigzag, DCT orthonormality,
Annex K table checksums), lossy round trips with bounded error, and
foreign-encoder fixtures from CPython's own test media
(tests/test_foreign_conformance.py) within lossy tolerance. Streams
using features outside these profiles (arithmetic coding, lossless,
hierarchical, 12-bit) raise loudly.
"""

from __future__ import annotations

import struct

import numpy as np


class JpegError(ValueError):
    pass


# --------------------------------------------------------- 8x8 DCT core

_C = np.zeros((8, 8))
for _k in range(8):
    for _n in range(8):
        _C[_k, _n] = np.cos((2 * _n + 1) * _k * np.pi / 16)
_C *= 0.5
_C[0, :] *= 1 / np.sqrt(2)  # orthonormal DCT-II basis


def dct2(block: np.ndarray) -> np.ndarray:
    return _C @ block @ _C.T


def idct2(coef: np.ndarray) -> np.ndarray:
    return _C.T @ coef @ _C


ZIGZAG = np.array(
    [
        0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
        12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
    ],
    dtype=np.int64,
)
UNZIGZAG = np.argsort(ZIGZAG)

# ----------------------------------------------- Annex K default tables

QUANT_LUMA = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    dtype=np.int64,
).reshape(8, 8)

QUANT_CHROMA = np.array(
    [
        17, 18, 24, 47, 99, 99, 99, 99,
        18, 21, 26, 66, 99, 99, 99, 99,
        24, 26, 56, 99, 99, 99, 99, 99,
        47, 66, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
    ],
    dtype=np.int64,
).reshape(8, 8)

# (bits[1..16], values) — ITU-T T.81 tables K.3-K.6
DC_LUMA = (
    [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    list(range(12)),
)
DC_CHROMA = (
    [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    list(range(12)),
)
AC_LUMA = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
        0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
        0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
        0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
        0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
        0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
        0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
        0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
        0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
        0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
        0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)
AC_CHROMA = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
        0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
        0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
        0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
        0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
        0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
        0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
        0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
        0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
        0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
        0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
        0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
        0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
        0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)


def _build_huffman(bits, values):
    """(bits, values) -> {code_string_length: {code_int: value}} plus
    the canonical (value -> (code, length)) encode map."""
    decode: dict[int, dict[int, int]] = {}
    encode: dict[int, tuple[int, int]] = {}
    code = 0
    vi = 0
    for length in range(1, 17):
        decode[length] = {}
        for _ in range(bits[length - 1]):
            v = values[vi]
            vi += 1
            decode[length][code] = v
            encode[v] = (code, length)
            code += 1
        code <<= 1
    return decode, encode


import functools


@functools.lru_cache(maxsize=64)
def _huff_decode_tables(bits_t: tuple, vals_t: tuple):
    """Memoized (decode dict, 8-bit LUT, 16-bit LUT) — virtually
    every stream carries the Annex K tables, so the LUTs build once
    per process, not once per image. All structures are read-only in
    decode. The 16-bit LUT packs (value << 5) | code_length per
    16-bit window (0 = invalid prefix), so the baseline fast path
    resolves ANY code — up to the 16-bit maximum — in one list
    index, the libjpeg derived-table idea."""
    dec, _ = _build_huffman(list(bits_t), list(vals_t))
    lut16 = np.zeros(65536, np.int32)
    for length in range(1, 17):
        for code, v in dec[length].items():
            base = code << (16 - length)
            lut16[base : base + (1 << (16 - length))] = (v << 5) | length
    return dec, _build_huffman_lut(dec), lut16.tolist()


def _build_huffman_lut(decode) -> list:
    """8-bit-prefix lookup table: entry = (value, length) for codes
    <= 8 bits (every suffix filled in), (0, 0) where the prefix
    belongs to a longer code — the bitwise walk handles those."""
    lut = [(0, 0)] * 256
    for length in range(1, 9):
        for code, v in decode[length].items():
            base = code << (8 - length)
            for suffix in range(1 << (8 - length)):
                lut[base | suffix] = (v, length)
    return lut


# --------------------------------------------------------------- decode


class _BitReader:
    """MSB-first reader over entropy-coded data with 0xFF00 unstuffing
    and RSTn awareness."""

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos
        self.cur = 0
        self.bits = 0

    def _fill(self):
        d = self.data
        if self.pos >= len(d):
            raise JpegError("entropy stream truncated")
        b = d[self.pos]
        if b == 0xFF:
            nxt = d[self.pos + 1] if self.pos + 1 < len(d) else None
            if nxt == 0x00:
                self.pos += 2
            elif nxt is not None and 0xD0 <= nxt <= 0xD7:
                raise _RestartHit()
            else:
                raise _MarkerHit()
        else:
            self.pos += 1
        self.cur = (self.cur << 8) | b
        self.bits += 8

    def read(self, n: int) -> int:
        while self.bits < n:
            self._fill()
        self.bits -= n
        v = (self.cur >> self.bits) & ((1 << n) - 1)
        self.cur &= (1 << self.bits) - 1
        return v

    def peek8(self) -> int:
        """Next 8 bits without consuming; zero-padded at stream end
        (a real code never needs the pad — `skip` validates)."""
        while self.bits < 8:
            try:
                self._fill()
            except (_MarkerHit, _RestartHit):
                return (self.cur << (8 - self.bits)) & 0xFF
        return (self.cur >> (self.bits - 8)) & 0xFF

    def skip(self, n: int):
        if n > self.bits:
            raise JpegError("entropy stream truncated inside a code")
        self.bits -= n
        self.cur &= (1 << self.bits) - 1

    def byte_align(self):
        self.bits = 0
        self.cur = 0

    def skip_restart(self):
        """Consume the RSTn marker at the current byte position."""
        self.byte_align()
        d = self.data
        if self.pos + 1 < len(d) and d[self.pos] == 0xFF and 0xD0 <= d[self.pos + 1] <= 0xD7:
            self.pos += 2
        else:
            raise JpegError("expected restart marker")


class _RestartHit(Exception):
    pass


class _MarkerHit(Exception):
    pass


def _decode_huff(br: _BitReader, table) -> int:
    dec, lut = table[0], table[1]
    v, ln = lut[br.peek8()]
    if ln:  # fast path: code fits the 8-bit prefix table
        br.skip(ln)
        return v
    code = 0
    for length in range(1, 17):
        code = (code << 1) | br.read(1)
        hit = dec[length].get(code)
        if hit is not None:
            return hit
    raise JpegError("invalid huffman code")


def _extend(v: int, t: int) -> int:
    # T.81 F.2.2.1: map the t-bit magnitude to the signed value
    if t == 0:
        return 0
    return v if v >= (1 << (t - 1)) else v - (1 << t) + 1


MAX_PIXELS = 1 << 26  # 67M-pixel cap: garbage headers can declare
# 65535x65535 frames — reject before allocating


def decode_jpeg(data: bytes, max_pixels: int = MAX_PIXELS) -> np.ndarray:
    """Baseline JPEG -> (h, w) grey or (h, w, 3) RGB uint8. Malformed
    streams raise :class:`JpegError` (never bare IndexError /
    struct.error — fuzz-pinned)."""
    try:
        return _decode_jpeg(data, max_pixels)
    except (JpegError, NotImplementedError):
        raise
    except (struct.error, IndexError, KeyError, ValueError, OverflowError) as exc:
        raise JpegError(f"malformed JPEG stream: {exc}") from exc


def _decode_jpeg(data: bytes, max_pixels: int) -> np.ndarray:
    if data[:2] != b"\xff\xd8":
        raise JpegError("not a JPEG stream (missing SOI)")
    pos = 2
    qt: dict[int, np.ndarray] = {}
    huff_dc: dict[int, tuple] = {}
    huff_ac: dict[int, tuple] = {}
    frame = None
    restart_interval = 0
    coef_grids = None  # progressive: accumulated across scans
    while pos + 4 <= len(data):
        if data[pos] != 0xFF:
            raise JpegError(f"marker expected at {pos}")
        while pos + 1 < len(data) and data[pos + 1] == 0xFF:
            pos += 1  # fill bytes before a marker (T.81 B.1.1.2)
        marker = data[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        (seglen,) = struct.unpack_from(">H", data, pos)
        body = data[pos + 2 : pos + seglen]
        if marker == 0xDB:  # DQT
            o = 0
            while o < len(body):
                pq, tq = body[o] >> 4, body[o] & 0x0F
                o += 1
                if pq == 0:
                    tab = np.frombuffer(body, np.uint8, 64, o).astype(np.int64)
                    o += 64
                else:
                    tab = np.frombuffer(body, ">u2", 64, o).astype(np.int64)
                    o += 128
                qt[tq] = tab[UNZIGZAG].reshape(8, 8)
        elif marker == 0xC4:  # DHT
            o = 0
            while o < len(body):
                tc, th = body[o] >> 4, body[o] & 0x0F
                bits = list(body[o + 1 : o + 17])
                n = sum(bits)
                vals = list(body[o + 17 : o + 17 + n])
                o += 17 + n
                (huff_dc if tc == 0 else huff_ac)[th] = _huff_decode_tables(
                    tuple(bits), tuple(vals)
                )
        elif marker in (0xC0, 0xC1, 0xC2):  # SOF0/1 baseline, SOF2 progressive
            prec, h, w, nc = struct.unpack_from(">BHHB", body, 0)
            if prec != 8:
                raise NotImplementedError(f"{prec}-bit JPEG not supported")
            if h == 0 or w == 0 or h * w > max_pixels:
                raise JpegError(f"frame {w}x{h} outside the {max_pixels}-pixel cap")
            if nc not in (1, 3):
                raise JpegError(f"{nc}-component JPEG not supported")
            comps = []
            for i in range(nc):
                cid, hv, tq = struct.unpack_from(">BBB", body, 6 + 3 * i)
                ch, cv = hv >> 4, hv & 0x0F
                if not (1 <= ch <= 4 and 1 <= cv <= 4):
                    raise JpegError(f"bad sampling factors {ch}x{cv}")
                comps.append({"id": cid, "h": ch, "v": cv, "tq": tq})
            hm = max(c["h"] for c in comps)
            vm = max(c["v"] for c in comps)
            if any(hm % c["h"] or vm % c["v"] for c in comps):
                raise JpegError("non-dividing sampling factors")
            frame = {"h": h, "w": w, "comps": comps,
                     "progressive": marker == 0xC2}
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                f"JPEG SOF 0x{marker:02x} (arithmetic/lossless/hierarchical) "
                "not supported — baseline sequential + progressive only"
            )
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack_from(">H", body, 0)
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise JpegError("SOS before SOF")
            ns = body[0]
            if frame["progressive"]:
                if coef_grids is None:
                    coef_grids = _alloc_coef_grids(frame, np.int64)
                scan_comps = []
                for i in range(ns):
                    cs, tt = body[1 + 2 * i], body[2 + 2 * i]
                    idx = next(
                        (j for j, c in enumerate(frame["comps"]) if c["id"] == cs),
                        None,
                    )
                    if idx is None:
                        raise JpegError(f"scan references unknown component {cs}")
                    scan_comps.append((idx, tt >> 4, tt & 0x0F))
                ss, se, a = struct.unpack_from(">BBB", body, 1 + 2 * ns)
                pos = _decode_scan_prog(
                    data, pos + seglen, frame, scan_comps, ss, se,
                    a >> 4, a & 0x0F, huff_dc, huff_ac, restart_interval,
                    coef_grids,
                )
                continue
            scan = {}
            for i in range(ns):
                cs, tt = body[1 + 2 * i], body[2 + 2 * i]
                scan[cs] = (tt >> 4, tt & 0x0F)
            return _decode_scan(
                data, pos + seglen, frame, scan, qt, huff_dc, huff_ac,
                restart_interval,
            )
        pos += seglen
    if frame is not None and frame.get("progressive") and coef_grids is not None:
        return _finish_frame(frame, coef_grids, qt)
    raise JpegError("no scan data found")


def _mcu_dims(frame):
    comps = frame["comps"]
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcux = -(-frame["w"] // (8 * hmax))
    mcuy = -(-frame["h"] // (8 * vmax))
    return hmax, vmax, mcux, mcuy


def _alloc_coef_grids(frame, dtype):
    _, _, mcux, mcuy = _mcu_dims(frame)
    return [
        np.zeros((mcuy * c["v"], mcux * c["h"], 64), dtype)
        for c in frame["comps"]
    ]


def _entropy_segments(data: bytes, pos: int) -> list[bytes]:
    """Pre-process the baseline entropy-coded data starting at
    ``pos``: collapse every 0xFF00 byte-stuffing to 0xFF and split at
    RSTn markers, so the decode loop sees plain marker-free byte runs
    and never tests for 0xFF per byte. A run of 0xFF fill bytes
    (T.81 B.1.1.2) counts as one 0xFF before the byte that follows
    it. One pass over the (sparse) 0xFF positions only — numpy finds
    them, Python walks them."""
    arr = np.frombuffer(data, np.uint8)
    n = len(data)
    segs: list[bytes] = []
    parts: list[bytes] = []
    prev = pos
    for f in np.flatnonzero(arr[pos:] == 0xFF) + pos:
        if f < prev:  # consumed by a previous 2-byte skip
            continue
        j = f + 1
        while j < n and data[j] == 0xFF:
            j += 1
        nxt = data[j] if j < n else None
        if nxt == 0x00:  # stuffed data byte: keep FF, drop 00
            parts.append(data[prev : f + 1])
            prev = j + 1
        elif nxt is not None and 0xD0 <= nxt <= 0xD7:  # RSTn
            parts.append(data[prev:f])
            segs.append(b"".join(parts))
            parts = []
            prev = j + 1
        else:  # EOI / next marker: entropy data ends
            parts.append(data[prev:f])
            segs.append(b"".join(parts))
            return segs
    parts.append(data[prev:n])
    segs.append(b"".join(parts))
    return segs


def _decode_scan(data, pos, frame, scan, qt, huff_dc, huff_ac, restart_interval):
    """Baseline entropy decode, fast path: pre-unstuffed restart
    segments (:func:`_entropy_segments`), one 16-bit-LUT lookup per
    Huffman code, and the bit cursor inlined as local ints — no
    per-bit reads, no method calls in the MCU loop (measured ~4x over
    the _BitReader walk; the progressive path keeps the reader). The
    IDCT still runs vectorized over ALL blocks afterwards (one
    einsum per plane in _finish_frame)."""
    comps = frame["comps"]
    hmax, vmax, mcux, mcuy = _mcu_dims(frame)
    coef_grids = _alloc_coef_grids(frame, np.float64)
    # nonzero coefficients accumulate into plain lists (append is
    # ~5x cheaper than a numpy scalar setitem) and land in the grids
    # in ONE fancy-index assignment per component at the end
    acc = [([], [], []) for _ in comps]
    plan = []
    for ci, c in enumerate(comps):
        dct, act = scan[c["id"]]
        plan.append(
            (ci, c["v"], c["h"], huff_dc[dct][2], huff_ac[act][2], acc[ci],
             mcux * c["h"])
        )
    segs = _entropy_segments(data, pos)
    pred = [0] * len(comps)
    seg_idx = 0
    buf = segs[0]
    blen = len(buf)
    idx = 0
    cur = 0
    bits = 0
    pad = 0  # zero-pad bits appended past the real stream end
    mcu_count = 0
    truncated = JpegError("entropy stream ended inside an MCU")
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_count and mcu_count % restart_interval == 0:
                seg_idx += 1
                if seg_idx >= len(segs):
                    raise JpegError("expected restart marker")
                buf = segs[seg_idx]
                blen = len(buf)
                idx = 0
                cur = 0
                bits = 0
                pad = 0
                pred = [0] * len(comps)
            for ci, cv, ch, dc_lut, ac_lut, (arow, akk, aval), stride in plan:
                for by in range(cv):
                    for bx in range(ch):
                        row = (my * cv + by) * stride + mx * ch + bx
                        # ---- DC: one LUT hit + magnitude bits
                        while bits < 16:
                            if idx < blen:
                                cur = (cur << 8) | buf[idx]
                                idx += 1
                            else:
                                cur <<= 8
                                pad += 8
                            bits += 8
                        e = dc_lut[(cur >> (bits - 16)) & 0xFFFF]
                        if not e:
                            raise JpegError("invalid huffman code")
                        t = e >> 5
                        bits -= e & 31
                        if t:
                            while bits < t:
                                if idx < blen:
                                    cur = (cur << 8) | buf[idx]
                                    idx += 1
                                else:
                                    cur <<= 8
                                    pad += 8
                                bits += 8
                            bits -= t
                            v = (cur >> bits) & ((1 << t) - 1)
                            pred[ci] += (
                                v if v >= (1 << (t - 1)) else v - (1 << t) + 1
                            )
                        if bits < pad:
                            raise truncated
                        arow.append(row)
                        akk.append(0)
                        aval.append(pred[ci])
                        # ---- AC run-length loop
                        k = 1
                        while k < 64:
                            while bits < 16:
                                if idx < blen:
                                    cur = (cur << 8) | buf[idx]
                                    idx += 1
                                else:
                                    cur <<= 8
                                    pad += 8
                                bits += 8
                            e = ac_lut[(cur >> (bits - 16)) & 0xFFFF]
                            if not e:
                                raise JpegError("invalid huffman code")
                            rs = e >> 5
                            bits -= e & 31
                            s = rs & 0x0F
                            if s == 0:
                                if bits < pad:
                                    raise truncated
                                if rs == 0xF0:  # ZRL
                                    k += 16
                                    continue
                                break  # EOB
                            k += rs >> 4
                            if k > 63:
                                raise JpegError("AC run overruns block")
                            while bits < s:
                                if idx < blen:
                                    cur = (cur << 8) | buf[idx]
                                    idx += 1
                                else:
                                    cur <<= 8
                                    pad += 8
                                bits += 8
                            bits -= s
                            if bits < pad:
                                raise truncated
                            v = (cur >> bits) & ((1 << s) - 1)
                            arow.append(row)
                            akk.append(k)
                            aval.append(
                                v if v >= (1 << (s - 1)) else v - (1 << s) + 1
                            )
                            k += 1
                        cur &= (1 << bits) - 1  # keep the int machine-sized
            mcu_count += 1
    for ci, g in enumerate(coef_grids):
        arow, akk, aval = acc[ci]
        if arow:
            g.reshape(-1, 64)[arow, akk] = aval
    return _finish_frame(frame, coef_grids, qt)


def _finish_frame(frame, coef_grids, qt):
    """Dequantize + IDCT + upsample + color-convert the accumulated
    coefficient grids (shared by the baseline single-scan path and the
    progressive multi-scan path)."""
    comps = frame["comps"]
    h, w = frame["h"], frame["w"]
    hmax, vmax, _, _ = _mcu_dims(frame)
    out_planes = []
    for ci, c in enumerate(comps):
        if c["tq"] not in qt:
            raise JpegError(f"missing quantization table {c['tq']}")
        ny, nx, _ = coef_grids[ci].shape
        nat = np.zeros((ny, nx, 64), np.float64)
        nat[:, :, ZIGZAG] = coef_grids[ci]
        nat = nat.reshape(ny, nx, 8, 8) * qt[c["tq"]]
        # C.T @ B @ C per 8x8 block as two batched matmuls (no
        # einsum path search per image)
        pix = np.swapaxes(np.swapaxes(nat @ _C, -2, -1) @ _C, -2, -1)
        plane = pix.transpose(0, 2, 1, 3).reshape(ny * 8, nx * 8)
        p = plane + 128.0
        if c["h"] != hmax or c["v"] != vmax:
            p = np.repeat(np.repeat(p, vmax // c["v"], 0), hmax // c["h"], 1)
        out_planes.append(p[:h, :w])
    if len(comps) == 1:
        return np.clip(np.round(out_planes[0]), 0, 255).astype(np.uint8)
    y, cb, cr = out_planes[0], out_planes[1] - 128.0, out_planes[2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.round(np.stack([r, g, b], -1)), 0, 255).astype(np.uint8)


def _decode_block(br, dc_tab, ac_tab, pred, ci):
    out = np.zeros(64, np.float64)
    t = _decode_huff(br, dc_tab)
    diff = _extend(br.read(t), t) if t else 0
    pred[ci] += diff
    out[0] = pred[ci]
    k = 1
    while k < 64:
        rs = _decode_huff(br, ac_tab)
        r, s = rs >> 4, rs & 0x0F
        if s == 0:
            if r == 15:  # ZRL
                k += 16
                continue
            break  # EOB
        k += r
        if k > 63:
            raise JpegError("AC run overruns block")
        out[k] = _extend(br.read(s), s)
        k += 1
    return out


# ------------------------------------------------- progressive decode


def _comp_block_dims(frame, ci):
    """Non-interleaved scans cover ceil(comp_extent/8) blocks per axis
    (T.81 A.2.2), NOT the MCU-padded grid."""
    c = frame["comps"][ci]
    hmax, vmax, _, _ = _mcu_dims(frame)
    cw = -(-frame["w"] * c["h"] // hmax)
    chh = -(-frame["h"] * c["v"] // vmax)
    return -(-chh // 8), -(-cw // 8)


def _decode_scan_prog(
    data, pos, frame, scan_comps, ss, se, ah, al, huff_dc, huff_ac,
    restart_interval, coef_grids,
):
    """One progressive scan (T.81 G.1.2): updates ``coef_grids`` in
    place and returns the stream position of the next marker.

    - DC scans (ss=0): interleaved in MCU order when the scan lists
      several components; first scan (ah=0) codes diffs of the
      point-transformed DC, refinements append one bit at position al.
    - AC scans: exactly one component, blocks in that component's
      raster order, EOB-run coded; refinements use the G.1.2.3
      correction-bit walk."""
    if ss == 0 and se != 0:
        raise JpegError("progressive scan mixes DC and AC bands")
    if ss != 0 and len(scan_comps) != 1:
        raise JpegError("progressive AC scan must be single-component")
    if se > 63 or ss > se:
        raise JpegError(f"bad spectral band {ss}..{se}")
    br = _BitReader(data, pos)
    if ss == 0:
        _prog_dc_scan(
            br, frame, scan_comps, ah, al, huff_dc, restart_interval, coef_grids
        )
    else:
        ci, _, ta = scan_comps[0]
        if ah == 0:
            _prog_ac_first(
                br, frame, ci, ss, se, al, huff_ac[ta], restart_interval,
                coef_grids[ci],
            )
        else:
            _prog_ac_refine(
                br, frame, ci, ss, se, al, huff_ac[ta], restart_interval,
                coef_grids[ci],
            )
    br.byte_align()
    return br.pos


def _prog_dc_scan(br, frame, scan_comps, ah, al, huff_dc, restart_interval,
                  coef_grids):
    comps = frame["comps"]
    interleaved = len(scan_comps) > 1
    pred = [0] * len(comps)

    def one_block(ci, by, bx, td):
        grid = coef_grids[ci]
        if ah == 0:
            t = _decode_huff(br, huff_dc[td])
            diff = _extend(br.read(t), t) if t else 0
            pred[ci] += diff
            grid[by, bx, 0] = pred[ci] << al
        else:
            if br.read(1):
                # two's-complement bit fill — works for negative DC
                grid[by, bx, 0] = int(grid[by, bx, 0]) | (1 << al)

    try:
        if interleaved:
            _, _, mcux, mcuy = _mcu_dims(frame)
            n = 0
            for my in range(mcuy):
                for mx in range(mcux):
                    if restart_interval and n and n % restart_interval == 0:
                        br.skip_restart()
                        pred[:] = [0] * len(comps)
                    for ci, td, _ in scan_comps:
                        c = comps[ci]
                        for by in range(c["v"]):
                            for bx in range(c["h"]):
                                one_block(
                                    ci, my * c["v"] + by, mx * c["h"] + bx, td
                                )
                    n += 1
        else:
            ci, td, _ = scan_comps[0]
            nby, nbx = _comp_block_dims(frame, ci)
            n = 0
            for by in range(nby):
                for bx in range(nbx):
                    if restart_interval and n and n % restart_interval == 0:
                        br.skip_restart()
                        pred[:] = [0] * len(comps)
                    one_block(ci, by, bx, td)
                    n += 1
    except (_RestartHit, _MarkerHit) as exc:
        raise JpegError("progressive DC scan truncated") from exc


def _prog_ac_first(br, frame, ci, ss, se, al, ac_tab, restart_interval, grid):
    nby, nbx = _comp_block_dims(frame, ci)
    eobrun = 0
    n = 0
    try:
        for by in range(nby):
            for bx in range(nbx):
                if restart_interval and n and n % restart_interval == 0:
                    br.skip_restart()
                    eobrun = 0
                n += 1
                if eobrun:
                    eobrun -= 1
                    continue
                blk = grid[by, bx]
                k = ss
                while k <= se:
                    rs = _decode_huff(br, ac_tab)
                    r, s = rs >> 4, rs & 0x0F
                    if s == 0:
                        if r == 15:  # ZRL
                            k += 16
                            continue
                        eobrun = (1 << r) - 1
                        if r:
                            eobrun += br.read(r)
                        break
                    k += r
                    if k > se:
                        raise JpegError("AC run overruns spectral band")
                    blk[k] = _extend(br.read(s), s) << al
                    k += 1
    except (_RestartHit, _MarkerHit) as exc:
        raise JpegError("progressive AC scan truncated") from exc


def _prog_ac_refine(br, frame, ci, ss, se, al, ac_tab, restart_interval, grid):
    """T.81 G.1.2.3 correction-bit walk (mirrors libjpeg's
    decode_mcu_AC_refine control flow, reimplemented from the spec)."""
    nby, nbx = _comp_block_dims(frame, ci)
    p1 = 1 << al
    m1 = -1 << al
    eobrun = 0
    n = 0

    def correct(blk, k):
        v = int(blk[k])
        if br.read(1) and (v & p1) == 0:
            blk[k] = v + (p1 if v >= 0 else m1)

    try:
        for by in range(nby):
            for bx in range(nbx):
                if restart_interval and n and n % restart_interval == 0:
                    br.skip_restart()
                    eobrun = 0
                n += 1
                blk = grid[by, bx]
                k = ss
                if eobrun == 0:
                    while k <= se:
                        rs = _decode_huff(br, ac_tab)
                        r, s = rs >> 4, rs & 0x0F
                        val = 0
                        if s == 0:
                            if r < 15:
                                eobrun = 1 << r
                                if r:
                                    eobrun += br.read(r)
                                break
                            # r == 15: run of 16 zero-history coeffs
                        else:
                            if s != 1:
                                raise JpegError(
                                    "AC refinement size must be 1"
                                )
                            val = p1 if br.read(1) else m1
                        while k <= se:
                            if blk[k] != 0:
                                correct(blk, k)
                            else:
                                if r == 0:
                                    break
                                r -= 1
                            k += 1
                        if val:
                            if k > se:
                                raise JpegError("refinement overruns band")
                            blk[k] = val
                        k += 1
                if eobrun > 0:
                    while k <= se:
                        if blk[k] != 0:
                            correct(blk, k)
                        k += 1
                    eobrun -= 1
    except (_RestartHit, _MarkerHit) as exc:
        raise JpegError("progressive AC refinement truncated") from exc


# --------------------------------------------------------------- encode


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.cur = 0
        self.bits = 0

    def put(self, code: int, n: int):
        self.cur = (self.cur << n) | (code & ((1 << n) - 1))
        self.bits += n
        while self.bits >= 8:
            self.bits -= 8
            b = (self.cur >> self.bits) & 0xFF
            self.buf.append(b)
            if b == 0xFF:
                self.buf.append(0x00)  # byte stuffing
        self.cur &= (1 << self.bits) - 1

    def flush(self):
        if self.bits:
            pad = 8 - self.bits
            self.put((1 << pad) - 1, pad)  # 1-fill per spec


def _scale_quant(table: np.ndarray, quality: int) -> np.ndarray:
    quality = min(100, max(1, quality))
    s = 5000 // quality if quality < 50 else 200 - 2 * quality
    q = (table * s + 50) // 100
    return np.clip(q, 1, 255).astype(np.int64)


def _mag(v: int) -> tuple[int, int]:
    """value -> (category bits t, t-bit magnitude code)."""
    if v == 0:
        return 0, 0
    a = abs(v)
    t = a.bit_length()
    code = v if v > 0 else v + (1 << t) - 1
    return t, code


def _encode_block(bw, coef_zz, pred, ci, dc_enc, ac_enc):
    dc = int(coef_zz[0])
    diff = dc - pred[ci]
    pred[ci] = dc
    t, code = _mag(diff)
    c, ln = dc_enc[t]
    bw.put(c, ln)
    if t:
        bw.put(code, t)
    run = 0
    last_nz = 0
    nz = np.nonzero(coef_zz[1:])[0]
    last_nz = (nz[-1] + 1) if len(nz) else 0
    for k in range(1, last_nz + 1):
        v = int(coef_zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            c, ln = ac_enc[0xF0]
            bw.put(c, ln)
            run -= 16
        t, code = _mag(v)
        c, ln = ac_enc[(run << 4) | t]
        bw.put(c, ln)
        bw.put(code, t)
        run = 0
    if last_nz < 63:
        c, ln = ac_enc[0x00]
        bw.put(c, ln)


def _bitlen(a: np.ndarray) -> np.ndarray:
    """Vectorized int bit_length for 0 <= a < 2^40 (quantized JPEG
    coefficient range): exact because float64 log2 of an exact power
    of two is exact and monotone between powers."""
    return np.where(a == 0, 0, np.floor(np.log2(np.maximum(a, 1))).astype(np.int64) + 1)


def _entropy_encode(zz: np.ndarray, comp: np.ndarray, enc_maps: dict) -> bytes:
    """Vectorized baseline entropy coder: the SAME symbol stream
    ``_encode_block`` emits per block (pinned bit-identical by
    tests/test_jpeg_vectorized.py), built for ALL blocks at once —
    token arrays in scan order, one ``np.packbits`` bit pack, and a
    vectorized 0xFF byte stuffing. ``zz`` is (N, 64) int64 zigzag
    coefficients in scan order; ``comp`` the per-block component
    index (0 = luma tables)."""
    n = len(zz)
    luma = np.asarray(comp) == 0

    def table(tclass: int, size: int):
        codes = np.zeros(size, np.int64)
        lens = np.zeros(size, np.int64)
        for sym, (c, ln) in enc_maps[tclass].items():
            codes[sym] = c
            lens[sym] = ln
        return codes, lens

    dcc0, dcl0 = table(0x00, 17)
    acc0, acl0 = table(0x10, 256)
    if (~luma).any():
        dcc1, dcl1 = table(0x01, 17)
        acc1, acl1 = table(0x11, 256)
    else:  # grey: chroma tables never indexed, keep shapes valid
        dcc1, dcl1, acc1, acl1 = dcc0, dcl0, acc0, acl0

    one = np.int64(1)
    K = 64 * 4 + 8  # per-block token-key space

    # ---- DC: per-component prediction chains in scan order
    dc = zz[:, 0]
    prev = np.zeros(n, np.int64)
    for c in np.unique(comp):
        m = np.asarray(comp) == c
        d = dc[m]
        p = np.empty(len(d), np.int64)
        p[0] = 0
        p[1:] = d[:-1]
        prev[m] = p
    diff = dc - prev
    t = _bitlen(np.abs(diff))
    mag = np.where(diff > 0, diff, diff + np.left_shift(one, t) - 1) & (
        np.left_shift(one, t) - 1
    )
    hc = np.where(luma, dcc0[t], dcc1[t])
    hl = np.where(luma, dcl0[t], dcl1[t])
    blk = np.arange(n, dtype=np.int64)
    keys = [blk * K]
    vals = [np.left_shift(hc, t) | mag]
    lens = [hl + t]

    # ---- AC: flat (block, position) nonzero stream
    acm = zz[:, 1:] != 0
    bi, pj = np.nonzero(acm)  # row-major: sorted by block then pos
    if len(bi):
        pos = (pj + 1).astype(np.int64)
        v = zz[bi, pos]
        same = np.zeros(len(bi), bool)
        same[1:] = bi[1:] == bi[:-1]
        prevpos = np.where(same, np.concatenate(([0], pos[:-1])), 0)
        run = pos - prevpos - 1
        z = run // 16
        rem = run % 16
        at = _bitlen(np.abs(v))
        sym = np.left_shift(rem, 4) | at
        lu = luma[bi]
        ahc = np.where(lu, acc0[sym], acc1[sym])
        ahl = np.where(lu, acl0[sym], acl1[sym])
        mcode = np.where(v > 0, v, v + np.left_shift(one, at) - 1) & (
            np.left_shift(one, at) - 1
        )
        keys.append(bi * K + pos * 4 + 3)
        vals.append(np.left_shift(ahc, at) | mcode)
        lens.append(ahl + at)
        # ZRL (0xF0) tokens: z copies immediately before their symbol
        zn = int(z.sum())
        if zn:
            rep = np.repeat(np.arange(len(bi)), z)
            j = np.arange(zn) - np.repeat(np.cumsum(z) - z, z)
            keys.append(bi[rep] * K + pos[rep] * 4 + j)
            vals.append(np.where(lu[rep], acc0[0xF0], acc1[0xF0]))
            lens.append(np.where(lu[rep], acl0[0xF0], acl1[0xF0]))
        lastpos = np.zeros(n, np.int64)
        lastpos[bi] = pos  # row-major order: last assignment wins
    else:
        lastpos = np.zeros(n, np.int64)
    # ---- EOB for blocks whose last nonzero sits before position 63
    em = lastpos < 63
    if em.any():
        keys.append(blk[em] * K + 64 * 4)
        vals.append(np.where(luma[em], acc0[0x00], acc1[0x00]))
        lens.append(np.where(luma[em], acl0[0x00], acl1[0x00]))

    key = np.concatenate(keys)
    val = np.concatenate(vals)
    ln = np.concatenate(lens)
    order = np.argsort(key, kind="stable")
    val, ln = val[order], ln[order]

    # ---- bit pack (MSB first), flush-pad with 1s, stuff 0xFF
    total = int(ln.sum())
    starts = np.cumsum(ln) - ln
    rep = np.repeat(np.arange(len(ln)), ln)
    kbit = np.arange(total) - starts[rep]
    bits = ((val[rep] >> (ln[rep] - 1 - kbit)) & 1).astype(np.uint8)
    pad = (-total) % 8
    if pad:
        bits = np.concatenate([bits, np.ones(pad, np.uint8)])
    by = np.packbits(bits)
    ff = np.nonzero(by == 0xFF)[0]
    if len(ff):
        by = np.insert(by, ff + 1, 0)
    return by.tobytes()


def _encode_420(img: np.ndarray, quality: int) -> bytes:
    """RGB 4:2:0: 16x16 MCUs — four Y blocks then one Cb and one Cr
    block of the 2x2-mean-downsampled chroma planes."""
    h, w = img.shape[:2]
    f = img.astype(np.float64)
    r, g, b = f[..., 0], f[..., 1], f[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b - 128.0
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b
    mh, mw = -(-h // 16), -(-w // 16)
    ph, pw = mh * 16, mw * 16

    def pad(p):
        pp = np.zeros((ph, pw), np.float64)
        pp[:h, :w] = p
        pp[h:, :w] = p[h - 1 : h, :]
        pp[:h, w:] = pp[:h, w - 1 : w]
        pp[h:, w:] = pp[h - 1, w - 1]
        return pp

    yp = pad(y)
    cbp = pad(cb).reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3))
    crp = pad(cr).reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3))
    q_luma = _scale_quant(QUANT_LUMA, quality)
    q_chroma = _scale_quant(QUANT_CHROMA, quality)

    out = bytearray(b"\xff\xd8")
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    for tq, q in enumerate((q_luma, q_chroma)):
        out += b"\xff\xdb" + struct.pack(">HB", 67, tq)
        out += bytes(int(v) for v in q.reshape(-1)[ZIGZAG])
    out += b"\xff\xc0" + struct.pack(">HBHHB", 17, 8, h, w, 3)
    out += struct.pack(">BBB", 1, 0x22, 0)  # Y: 2x2 sampling
    out += struct.pack(">BBB", 2, 0x11, 1)
    out += struct.pack(">BBB", 3, 0x11, 1)
    enc_maps = {}
    for (bits, vals), tclass in (
        (DC_LUMA, 0x00), (AC_LUMA, 0x10), (DC_CHROMA, 0x01), (AC_CHROMA, 0x11)
    ):
        out += b"\xff\xc4" + struct.pack(">HB", 3 + 16 + len(vals), tclass)
        out += bytes(bits) + bytes(vals)
        _, enc = _build_huffman(bits, vals)
        enc_maps[tclass] = enc
    out += b"\xff\xda" + struct.pack(">HB", 12, 3)
    out += b"\x01\x00\x02\x11\x03\x11\x00\x3f\x00"

    # vectorized: DCT+quantize+zigzag per plane, MCU-interleave the
    # block sequence (4 Y in 2x2 raster, Cb, Cr), one entropy pass
    yzz = _zz_blocks(yp, q_luma, 2 * mh, 2 * mw)
    cbzz = _zz_blocks(cbp, q_chroma, mh, mw)
    crzz = _zz_blocks(crp, q_chroma, mh, mw)
    ymcu = yzz.reshape(mh, 2, mw, 2, 64).transpose(0, 2, 1, 3, 4).reshape(
        mh, mw, 4, 64
    )
    seq = np.concatenate(
        [ymcu, cbzz[:, :, None, :], crzz[:, :, None, :]], axis=2
    ).reshape(-1, 64)
    compseq = np.tile(np.array([0, 0, 0, 0, 1, 2], np.int64), mh * mw)
    out += _entropy_encode(seq, compseq, enc_maps)
    out += b"\xff\xd9"
    return bytes(out)


def encode_jpeg(img: np.ndarray, quality: int = 85, subsample: str = "444") -> bytes:
    """(h, w) grey or (h, w, 3) RGB uint8 -> baseline JPEG.
    ``subsample``: ``"444"`` (default) or ``"420"`` (2x2-averaged
    chroma, 16x16 MCUs — the common camera layout)."""
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise JpegError("encode_jpeg expects uint8")
    grey = img.ndim == 2
    if not grey and (img.ndim != 3 or img.shape[2] != 3):
        raise JpegError("expected (h,w) grey or (h,w,3) RGB")
    if subsample not in ("444", "420"):
        raise JpegError(f"subsample must be 444 or 420 (got {subsample!r})")
    if subsample == "420" and not grey:
        return _encode_420(img, quality)
    h, w = img.shape[:2]
    if grey:
        planes = [img.astype(np.float64) - 128.0]
    else:
        f = img.astype(np.float64)
        r, g, b = f[..., 0], f[..., 1], f[..., 2]
        y = 0.299 * r + 0.587 * g + 0.114 * b
        cb = -0.168736 * r - 0.331264 * g + 0.5 * b
        cr = 0.5 * r - 0.418688 * g - 0.081312 * b
        planes = [y - 128.0, cb, cr]
    q_luma = _scale_quant(QUANT_LUMA, quality)
    q_chroma = _scale_quant(QUANT_CHROMA, quality)
    qts = [q_luma] if grey else [q_luma, q_chroma]

    out = bytearray(b"\xff\xd8")  # SOI
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    for tq, q in enumerate(qts):
        out += b"\xff\xdb" + struct.pack(">HB", 67, tq)
        out += bytes(int(v) for v in q.reshape(-1)[ZIGZAG])
    nc = 1 if grey else 3
    out += b"\xff\xc0" + struct.pack(">HBHHB", 8 + 3 * nc, 8, h, w, nc)
    for i in range(nc):
        out += struct.pack(">BBB", i + 1, 0x11, 0 if i == 0 else 1)
    tabs = [(DC_LUMA, 0x00), (AC_LUMA, 0x10)]
    if not grey:
        tabs += [(DC_CHROMA, 0x01), (AC_CHROMA, 0x11)]
    enc_maps = {}
    for (bits, vals), tclass in tabs:
        out += b"\xff\xc4" + struct.pack(">HB", 3 + 16 + len(vals), tclass)
        out += bytes(bits) + bytes(vals)
        _, enc = _build_huffman(bits, vals)
        enc_maps[tclass] = enc
    out += b"\xff\xda" + struct.pack(">HB", 6 + 2 * nc, nc)
    for i in range(nc):
        out += struct.pack(">BB", i + 1, 0x00 if i == 0 else 0x11)
    out += b"\x00\x3f\x00"

    bh = -(-h // 8)
    bwid = -(-w // 8)
    padded = []
    for p in planes:
        pp = np.zeros((bh * 8, bwid * 8), np.float64)
        pp[:h, :w] = p
        # edge-replicate padding (reduces ringing in the border blocks)
        pp[h:, :w] = p[h - 1 : h, :]
        pp[:h, w:] = p[:, w - 1 : w]
        pp[h:, w:] = p[h - 1, w - 1]
        padded.append(pp)
    # vectorized transform: DCT + quantize + zigzag for ALL blocks of
    # a plane in one einsum (the python loop below does entropy only)
    zz_planes = []
    for ci in range(nc):
        q = qts[0] if ci == 0 else qts[1]
        blocks = (
            padded[ci]
            .reshape(bh, 8, bwid, 8)
            .transpose(0, 2, 1, 3)  # (bh, bwid, 8, 8)
        )
        coefs = np.einsum("kn,yxnm,lm->yxkl", _C, blocks, _C, optimize=True)
        zz = (
            np.round(coefs / q)
            .astype(np.int64)
            .reshape(bh, bwid, 64)[:, :, ZIGZAG]
        )
        zz_planes.append(zz)
    # interleave (by, bx, ci) -> flat scan order, one entropy pass
    seq = np.stack([zp.reshape(bh * bwid, 64) for zp in zz_planes], axis=1).reshape(
        -1, 64
    )
    compseq = np.tile(np.arange(nc, dtype=np.int64), bh * bwid)
    out += _entropy_encode(seq, compseq, enc_maps)
    out += b"\xff\xd9"
    return bytes(out)


# -------------------------------------------------- progressive encode

# custom AC table for progressive scans: every (run, size) symbol the
# scans can emit — including the EOB-run symbols 0x10..0xE0 that the
# Annex K tables lack — as uniform 8-bit canonical codes (176 codes,
# so the all-ones reserved code is never assigned). Compression is
# deliberately traded for a table that covers cross-block EOB runs.
_AC_PROG_VALS = [(r << 4) | s for r in range(16) for s in range(11)]
_AC_PROG_BITS = [0, 0, 0, 0, 0, 0, 0, len(_AC_PROG_VALS), 0, 0, 0, 0, 0, 0, 0, 0]


def _pad_plane(p, bh, bw_):
    h, w = p.shape
    pp = np.zeros((bh * 8, bw_ * 8), np.float64)
    pp[:h, :w] = p
    pp[h:, :w] = p[h - 1 : h, :]
    pp[:h, w:] = pp[:h, w - 1 : w]
    pp[h:, w:] = pp[h - 1, w - 1]
    return pp


def _zz_blocks(plane, q, bh=None, bw_=None):
    """Quantized zigzag DCT coefficients for every 8x8 block of a
    plane (padded with edge replication to bh x bw_ blocks)."""
    h, w = plane.shape
    bh = bh if bh is not None else -(-h // 8)
    bw_ = bw_ if bw_ is not None else -(-w // 8)
    pp = _pad_plane(plane, bh, bw_)
    blocks = pp.reshape(bh, 8, bw_, 8).transpose(0, 2, 1, 3)
    coefs = np.einsum("kn,yxnm,lm->yxkl", _C, blocks, _C, optimize=True)
    return np.round(coefs / q).astype(np.int64).reshape(bh, bw_, 64)[:, :, ZIGZAG]


class _ProgAcEncoder:
    """AC-scan entropy state: cross-block EOB-run accumulation plus
    (for refinement scans) the correction bits buffered against the
    next emitted symbol (T.81 G.1.2.2-3, control flow mirroring
    libjpeg's jcphuff reimplemented from the spec)."""

    def __init__(self, bw, enc):
        self.bw = bw
        self.enc = enc
        self.eobrun = 0
        self.be = []  # correction bits awaiting the next EOB flush

    def sym(self, s):
        c, ln = self.enc[s]
        self.bw.put(c, ln)

    def flush_eob(self):
        if self.eobrun:
            r = self.eobrun.bit_length() - 1
            self.sym(r << 4)
            if r:
                self.bw.put(self.eobrun - (1 << r), r)
            self.eobrun = 0
        for b in self.be:
            self.bw.put(b, 1)
        self.be = []

    def bump_eob(self, bits=()):
        self.eobrun += 1
        self.be.extend(bits)
        if self.eobrun == 0x7FFF or len(self.be) > 900:
            self.flush_eob()


def _encode_ac_first(acc: _ProgAcEncoder, band, al):
    """One block of an AC first scan: point-transformed magnitudes,
    ZRL runs, EOB folded into the shared run."""
    temp = np.abs(band) >> al
    nz = np.nonzero(temp)[0]
    if not len(nz):
        acc.bump_eob()
        return
    acc.flush_eob()
    last = nz[-1]
    run = 0
    for k in range(last + 1):
        if temp[k] == 0:
            run += 1
            continue
        while run > 15:
            acc.sym(0xF0)
            run -= 16
        v = int(temp[k]) if band[k] > 0 else -int(temp[k])
        t, code = _mag(v)
        acc.sym((run << 4) | t)
        acc.bw.put(code, t)
        run = 0
    if last < len(band) - 1:
        acc.bump_eob()


def _encode_ac_refine(acc: _ProgAcEncoder, band, al):
    """One block of an AC refinement scan (G.1.2.3): newly-significant
    coefficients get (run, 1) + sign, already-significant ones a
    buffered correction bit flushed with the next symbol."""
    temp = np.abs(band) >> al
    newly = np.nonzero(temp == 1)[0]
    eob = newly[-1] if len(newly) else -1
    br_bits: list[int] = []
    run = 0
    for k in range(len(band)):
        t = int(temp[k])
        if t == 0:
            run += 1
            continue
        while run > 15 and k <= eob:
            acc.flush_eob()
            acc.sym(0xF0)
            run -= 16
            for b in br_bits:
                acc.bw.put(b, 1)
            br_bits = []
        if t > 1:
            br_bits.append(t & 1)
            continue
        acc.flush_eob()
        acc.sym((run << 4) | 1)
        acc.bw.put(1 if band[k] > 0 else 0, 1)
        for b in br_bits:
            acc.bw.put(b, 1)
        br_bits = []
        run = 0
    if run > 0 or br_bits:
        acc.bump_eob(br_bits)


def encode_jpeg_progressive(
    img: np.ndarray, quality: int = 85, subsample: str = "444",
    al_levels: int = 1,
) -> bytes:
    """(h, w) grey or (h, w, 3) RGB uint8 -> progressive JPEG (SOF2).

    Scan script (exercises all four progressive scan types):
      1. DC first, all components interleaved, Al=al_levels
      2. per component: AC first, Ss=1..63, Al=al_levels
      3. DC refinements, Ah=l+1 -> Al=l for l = al_levels-1 .. 0
      4. per component: AC refinements, same ladder

    ``al_levels`` deepens the successive-approximation ladder (more
    refinement scans over the same bands — the structure real encoders
    emit at al up to ~4)."""
    if not 0 <= al_levels <= 10:
        raise JpegError("al_levels must be in [0, 10]")
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise JpegError("encode_jpeg_progressive expects uint8")
    grey = img.ndim == 2
    if not grey and (img.ndim != 3 or img.shape[2] != 3):
        raise JpegError("expected (h,w) grey or (h,w,3) RGB")
    if subsample not in ("444", "420"):
        raise JpegError(f"subsample must be 444 or 420 (got {subsample!r})")
    h, w = img.shape[:2]
    sub420 = subsample == "420" and not grey
    q_luma = _scale_quant(QUANT_LUMA, quality)
    q_chroma = _scale_quant(QUANT_CHROMA, quality)
    if grey:
        planes = [img.astype(np.float64) - 128.0]
    else:
        f = img.astype(np.float64)
        r, g, b = f[..., 0], f[..., 1], f[..., 2]
        planes = [
            0.299 * r + 0.587 * g + 0.114 * b - 128.0,
            -0.168736 * r - 0.331264 * g + 0.5 * b,
            0.5 * r - 0.418688 * g - 0.081312 * b,
        ]
    nc = len(planes)
    if sub420:
        mh, mw = -(-h // 16), -(-w // 16)
        yp = _pad_plane(planes[0], mh * 2, mw * 2)
        cbp = _pad_plane(planes[1], mh * 2, mw * 2)
        crp = _pad_plane(planes[2], mh * 2, mw * 2)
        cb2 = cbp.reshape(mh * 8, 2, mw * 8, 2).mean(axis=(1, 3))
        cr2 = crp.reshape(mh * 8, 2, mw * 8, 2).mean(axis=(1, 3))
        zz = [
            _zz_blocks(yp, q_luma, mh * 2, mw * 2),
            _zz_blocks(cb2, q_chroma, mh, mw),
            _zz_blocks(cr2, q_chroma, mh, mw),
        ]
        samp = [(2, 2), (1, 1), (1, 1)]
        # AC scans cover only ceil(extent/8) blocks, not MCU padding
        ac_dims = [
            (-(-h // 8), -(-w // 8)),
            (-(-(-(-h // 2)) // 8), -(-(-(-w // 2)) // 8)),
            (-(-(-(-h // 2)) // 8), -(-(-(-w // 2)) // 8)),
        ]
        mcus = (mh, mw)
    else:
        bh, bw_ = -(-h // 8), -(-w // 8)
        zz = [
            _zz_blocks(planes[ci], q_luma if ci == 0 else q_chroma, bh, bw_)
            for ci in range(nc)
        ]
        samp = [(1, 1)] * nc
        ac_dims = [(bh, bw_)] * nc
        mcus = (bh, bw_)

    out = bytearray(b"\xff\xd8")
    out += b"\xff\xe0" + struct.pack(">H", 16)
    out += b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    qts = [q_luma] if grey else [q_luma, q_chroma]
    for tq, q in enumerate(qts):
        out += b"\xff\xdb" + struct.pack(">HB", 67, tq)
        out += bytes(int(v) for v in q.reshape(-1)[ZIGZAG])
    out += b"\xff\xc2" + struct.pack(">HBHHB", 8 + 3 * nc, 8, h, w, nc)
    for ci in range(nc):
        sh, sv = samp[ci]
        out += struct.pack(
            ">BBB", ci + 1, (sh << 4) | sv, 0 if ci == 0 else 1
        )
    enc_maps = {}
    dht = [(DC_LUMA, 0x00)]
    if not grey:
        dht.append((DC_CHROMA, 0x01))
    dht.append(((_AC_PROG_BITS, _AC_PROG_VALS), 0x10))
    for (bits, vals), tclass in dht:
        out += b"\xff\xc4" + struct.pack(">HB", 3 + 16 + len(vals), tclass)
        out += bytes(bits) + bytes(vals)
        _, enc = _build_huffman(bits, vals)
        enc_maps[tclass] = enc

    def sos(comp_sel, ss, se, ah, al):
        out.extend(b"\xff\xda" + struct.pack(">HB", 6 + 2 * len(comp_sel), len(comp_sel)))
        for cid, td, ta in comp_sel:
            out.extend(struct.pack(">BB", cid, (td << 4) | ta))
        out.extend(struct.pack(">BBB", ss, se, (ah << 4) | al))

    def dc_scan(al, refine):
        sos([(ci + 1, 0 if ci == 0 else 1, 0) for ci in range(nc)], 0, 0, 1 if refine else 0, al)
        bw = _BitWriter()
        pred = [0] * nc
        for my in range(mcus[0]):
            for mx in range(mcus[1]):
                for ci in range(nc):
                    sh, sv = samp[ci]
                    for by in range(sv):
                        for bx in range(sh):
                            dc = int(zz[ci][my * sv + by, mx * sh + bx, 0])
                            if refine:
                                bw.put((dc >> al) & 1, 1)
                            else:
                                v = dc >> al  # arithmetic shift per spec
                                diff = v - pred[ci]
                                pred[ci] = v
                                t, code = _mag(diff)
                                c, ln = enc_maps[0x00 if ci == 0 else 0x01][t]
                                bw.put(c, ln)
                                if t:
                                    bw.put(code, t)
        bw.flush()
        out.extend(bw.buf)

    def ac_scan(ci, al, refine):
        sos([(ci + 1, 0, 0)], 1, 63, 1 if refine else 0, al)
        bw = _BitWriter()
        acc = _ProgAcEncoder(bw, enc_maps[0x10])
        nby, nbx = ac_dims[ci]
        for by in range(nby):
            for bx in range(nbx):
                band = zz[ci][by, bx, 1:64]
                if refine:
                    _encode_ac_refine(acc, band, al)
                else:
                    _encode_ac_first(acc, band, al)
        acc.flush_eob()
        bw.flush()
        out.extend(bw.buf)

    dc_scan(al_levels, refine=False)
    for ci in range(nc):
        ac_scan(ci, al_levels, refine=False)
    for lvl in range(al_levels - 1, -1, -1):
        dc_scan(lvl, refine=True)
        for ci in range(nc):
            ac_scan(ci, lvl, refine=True)
    out += b"\xff\xd9"
    return bytes(out)
