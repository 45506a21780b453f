"""Multimodal (image/audio/video) columns as opaque binary + typed
metadata.

The container ships no media libraries (no PIL/ffmpeg), so the codecs
here are FROM SCRATCH where a format is tractable — PNG
(``geom.png``), JPEG baseline + progressive (``geom.jpeg``), lossless
WebP/VP8L (``geom.webp``, incl. the ALPH alpha plane of lossy files),
BMP/PNM/Sun-raster/XBM (``geom.simple_images``), RIFF/WAV +
AU + AIFF PCM (:func:`decode_wav` / :func:`decode_au` /
:func:`decode_aiff`), animated GIF (``geom.gif``) — and
MP4/ISO-BMFF container parse + mux (``geom.mp4``: full sample-table
byte-range maps, keyframe-aware frame sampling) and MP3 frame-header
walking (``geom.mp3``: exact frame counts / duration / bitrate via
:func:`probe_media`) — with clearly-marked ``NotImplementedError``
stubs only for payload bitstreams that can't be conformance-checked
offline (lossy VP8, H.264/AAC, Layer-III synthesis), plus a
deterministic fake codec ("GRID" format:
16-byte header ``b'GRD1' + u32 width + u32 height + u32 channels``
followed by raw u8 pixels) so the Ray-side plumbing — schema,
batch sizing, output layout — is real and tested end to end
regardless of format.

Stages are task-based ``map_batches`` calls; any codec table (the
pHash DCT basis) is built once on the driver and ships with the
callable. Batches stay in Arrow with ``large_binary`` payloads
and small ``batch_size`` (large rows — see the memory note in
SURVEY.md §4).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

MAGIC = b"GRD1"
HEADER = struct.Struct("<4sIII")


def synth_image_bytes(doc_id: np.ndarray, width: int = 32, height: int = 32):
    """Deterministic fake image per doc (seeded by doc_id)."""
    out = []
    for d in np.asarray(doc_id, dtype=np.int64).tolist():
        rng = np.random.default_rng(d)
        pixels = rng.integers(0, 256, width * height, dtype=np.uint8)
        out.append(HEADER.pack(MAGIC, width, height, 1) + pixels.tobytes())
    return out


def attach_images(batch: pa.Table, doc_col: str = "doc_id") -> pa.Table:
    imgs = synth_image_bytes(batch.column(doc_col).to_numpy())
    meta = pa.array([{"width": 32, "height": 32, "channels": 1}] * batch.num_rows,
                    pa.struct([("width", pa.int32()), ("height", pa.int32()),
                               ("channels", pa.int32())]))
    return batch.append_column("image", pa.array(imgs, pa.large_binary())).append_column(
        "image_meta", meta
    )


def decode_image_nd(data: bytes) -> np.ndarray:
    """Decode one image payload to its NATIVE shape — (h, w) grey or
    (h, w, c) color: real PNG (via the from-scratch
    ``geom.png.decode_png``), baseline+progressive JPEG
    (``geom.jpeg.decode_jpeg``), lossless WebP (``geom.webp``),
    BMP / PNM / Sun-raster / XBM (``geom.simple_images``) or the
    deterministic GRD1 fake. Remaining real formats (lossy VP8 /
    HEIC / ...) are STUBBED — this container has no image codecs."""
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        from ..geom.png import decode_png

        return decode_png(data)
    if data[:2] == b"\xff\xd8":
        from ..geom.jpeg import decode_jpeg

        return decode_jpeg(data)
    if data[:4] == b"RIFF" and data[8:12] == b"WEBP":
        from ..geom.webp import decode_webp

        return decode_webp(data)
    if data[:2] == b"BM":
        from ..geom.simple_images import decode_bmp

        return decode_bmp(data)
    if data[:1] == b"P" and data[1:2] in b"123456":
        from ..geom.simple_images import decode_pnm

        return decode_pnm(data)
    if data[:4] == b"\x59\xa6\x6a\x95":
        from ..geom.simple_images import decode_ras

        return decode_ras(data)
    if data[:2] in (b"II", b"MM") and data[2:4] in (b"*\x00", b"\x00*"):
        from ..geom.simple_images import decode_tiff

        return decode_tiff(data)
    if data[:2] == b"\x01\xda":
        from ..geom.simple_images import decode_sgi

        return decode_sgi(data)
    if data[:7] == b"#define":
        from ..geom.simple_images import decode_xbm

        return decode_xbm(data)
    if data[:4] != MAGIC:
        raise NotImplementedError(
            "image decoding beyond PNG/JPEG/lossless-WebP/TIFF/SGI/BMP/"
            "PNM/RAS/XBM (lossy VP8, HEIC, ...) is stubbed in this "
            "environment; those formats and the deterministic GRD1 fake "
            "are supported"
        )
    _, w, h, c = HEADER.unpack_from(data, 0)
    return np.frombuffer(data, dtype=np.uint8, offset=HEADER.size).reshape(h, w * c)


def decode_image(data: bytes) -> np.ndarray:
    """:func:`decode_image_nd` flattened to the feature-stage
    convention: (h, w*channels) uint8."""
    img = decode_image_nd(data)
    return img.reshape(img.shape[0], -1)


def canonical_pixels(data: bytes) -> np.ndarray:
    """Decode to CANONICAL pixels for cross-container dedup: the same
    picture must hash identically however it is stored, so redundant
    channels are collapsed — a fully-opaque alpha channel is dropped
    and an RGB image whose three channels are equal becomes grey
    (e.g. a grey picture stored as an RGB WebP == its raw grey
    bytes)."""
    img = decode_image_nd(data)
    if img.ndim == 3 and img.shape[2] == 4 and (img[:, :, 3] == 255).all():
        img = img[:, :, :3]
    if img.ndim == 3 and img.shape[2] == 3:
        if (img[:, :, 0] == img[:, :, 1]).all() and (img[:, :, 0] == img[:, :, 2]).all():
            img = img[:, :, 0]
    return np.ascontiguousarray(img.reshape(img.shape[0], -1))


def image_features(batch: pa.Table) -> pa.Table:
    """Batch stage: decode + feature-extract (mean/std/edges)."""
    means, stds, edges = [], [], []
    for data in batch.column("image").to_pylist():
        img = decode_image(data).astype(np.float64)
        means.append(float(img.mean()))
        stds.append(float(img.std()))
        edges.append(float(np.abs(np.diff(img, axis=1)).mean()))
    return (
        batch.drop_columns(["image"])
        .append_column("img_mean", pa.array(means, pa.float64()))
        .append_column("img_std", pa.array(stds, pa.float64()))
        .append_column("img_edge_energy", pa.array(edges, pa.float64()))
    )


class ImageResize:
    """Batch stage: nearest-neighbor resize of the fake format
    (the real-codec path raises NotImplementedError by design)."""

    def __init__(self, out_w: int = 8, out_h: int = 8):
        self.out_w = out_w
        self.out_h = out_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for data in batch.column("image").to_pylist():
            img = decode_image(data)
            h, w = img.shape
            ri = (np.arange(self.out_h) * h // self.out_h)
            ci = (np.arange(self.out_w) * w // self.out_w)
            small = img[ri][:, ci]
            out.append(HEADER.pack(MAGIC, self.out_w, self.out_h, 1) + small.tobytes())
        idx = batch.schema.get_field_index("image")
        return batch.set_column(idx, "image", pa.array(out, pa.large_binary()))


def decode_video(data: bytes) -> list[np.ndarray]:
    """Decode one video payload into RGB/grey frames: real animated
    GIF (from-scratch ``geom.gif``) or the GRD1 concatenation fake.
    Real compressed video (mp4/webm/...) remains STUBBED — this
    container has no ffmpeg. GIF frames come back (h, w, 3); GRD1
    frames (h, w*channels)."""
    if data[:6] in (b"GIF87a", b"GIF89a"):
        from ..geom.gif import decode_gif

        return decode_gif(data)[0]
    if data[4:8] == b"ftyp":
        # ISO-BMFF container: the sample map is fully parsed
        # (geom/mp4.py); payload decode depends on the track codec
        from ..geom.mp4 import mp4_sample_bytes, parse_mp4

        info = parse_mp4(data)
        track = info.video()
        if track is None:
            raise ValueError("MP4 container has no video track")
        if track.codec.lower() != "grd1":
            raise NotImplementedError(
                f"MP4 video payload codec {track.codec!r} is stubbed in "
                "this environment (no compiled decoders); the container/"
                "sample-table path is real — use frame_sample for "
                "keyframe byte-range selection, media_metadata for stats"
            )
        return [
            decode_image_nd(mp4_sample_bytes(data, track, i))
            for i in range(track.n_samples)
        ]
    if data[:4] != MAGIC:
        raise NotImplementedError(
            "video decoding beyond animated GIF and MP4/GRD1 (webm/...) "
            "is stubbed in this environment; GIF, ISO-BMFF and the GRD1 "
            "concatenation fake are supported"
        )
    frames = []
    off = 0
    while off < len(data):
        _, w, h, c = HEADER.unpack_from(data, off)
        off += HEADER.size
        frames.append(
            np.frombuffer(data, np.uint8, w * h * c, off).reshape(h, w * c)
        )
        off += w * h * c
    return frames


def frame_sample(batch: pa.Table, every: int = 4) -> pa.Table:
    """Video frame sampling: keep every ``every``-th frame. GRD1
    payloads stay GRD1 (byte-slice, no decode); animated GIFs are
    decoded (real LZW) and the sampled frames re-emitted as a GRD1
    concatenation of raw (h, w, 3) frames — the image-model input
    layout downstream stages consume."""
    out = []
    for data in batch.column("video").to_pylist():
        if data[4:8] == b"ftyp":
            # MP4: keep every `every`-th KEYFRAME (independently
            # decodable samples) via the stbl byte-range map — at
            # scale this is a ranged read, never a full-file decode —
            # and re-mux the kept samples into a new conforming MP4
            from ..geom.mp4 import mp4_sample_bytes, parse_mp4, write_mp4

            info = parse_mp4(data)
            track = info.video()
            if track is None:
                raise ValueError("MP4 container has no video track")
            key_idx = np.flatnonzero(track.keyframes)[::every]
            kept = [mp4_sample_bytes(data, track, int(i)) for i in key_idx]
            deltas = np.diff(track.dts[key_idx]) if len(key_idx) > 1 else [1]
            out.append(
                write_mp4(
                    kept,
                    codec=track.codec,
                    timescale=max(track.timescale, 1),
                    sample_delta=int(deltas[0]) if len(kept) > 1 else 1,
                    width=track.width,
                    height=track.height,
                )
            )
            continue
        if data[:6] in (b"GIF87a", b"GIF89a"):
            from ..geom.gif import decode_gif

            frames = decode_gif(data)[0][::every]
            out.append(
                b"".join(
                    HEADER.pack(MAGIC, f.shape[1], f.shape[0], 3) + f.tobytes()
                    for f in frames
                )
            )
            continue
        parts = []
        off = 0
        while off < len(data):
            _, w, h, c = HEADER.unpack_from(data, off)
            size = HEADER.size + w * h * c
            parts.append(data[off : off + size])
            off += size
        out.append(b"".join(parts[::every]))
    idx = batch.schema.get_field_index("video")
    return batch.set_column(idx, "video", pa.array(out, pa.large_binary()))


def image_reencode_stage(ds, quality: int = 85, batch_size: int = 24):
    """Decode any supported image payload and re-encode it as baseline
    JPEG (the storage-compaction pass a web image corpus runs before
    training). Adds ``jpeg`` bytes, ``jpeg_bytes`` size and ``mae``
    (mean |decoded roundtrip - source| per sample, a cheap quality
    monitor). Small batches: the per-image python entropy kernel
    dominates, so many small tasks spread it over the cluster."""
    from ..geom.jpeg import decode_jpeg, encode_jpeg

    def reencode(batch: pa.Table) -> pa.Table:
        jpegs, sizes, maes = [], [], []
        for data in batch.column("image").to_pylist():
            # (h, w*channels) treated as one grey plane — exact for the
            # single-channel corpus; multi-channel payloads re-encode
            # as a wide luminance plane (documented approximation)
            img = decode_image(data)
            j = encode_jpeg(img, quality=quality)
            back = decode_jpeg(j)
            back2 = back if back.ndim == 2 else back.reshape(back.shape[0], -1)
            jpegs.append(j)
            sizes.append(len(j))
            maes.append(
                float(np.abs(back2.astype(np.float64) - img.astype(np.float64)).mean())
            )
        idx = batch.schema.get_field_index("image")
        return (
            batch.set_column(idx, "image", pa.array(jpegs, pa.large_binary()))
            .append_column("jpeg_bytes", pa.array(sizes, pa.int64()))
            .append_column("mae", pa.array(maes, pa.float64()))
        )

    return ds.map_batches(reencode, batch_format="pyarrow", batch_size=batch_size)


AUDIO_MAGIC = b"PCM1"
AUDIO_HEADER = struct.Struct("<4sII")  # magic, sample_rate, n_samples


def synth_audio_bytes(doc_id: np.ndarray, sample_rate: int = 8000, n: int = 1024):
    """Deterministic fake PCM16 clip per doc (seeded by doc_id)."""
    out = []
    for d in np.asarray(doc_id, dtype=np.int64).tolist():
        rng = np.random.default_rng(d ^ 0xA0D10)
        pcm = rng.integers(-(1 << 15), 1 << 15, n, dtype=np.int16)
        out.append(AUDIO_HEADER.pack(AUDIO_MAGIC, sample_rate, n) + pcm.tobytes())
    return out


def attach_audio(batch: pa.Table, doc_col: str = "doc_id") -> pa.Table:
    clips = synth_audio_bytes(batch.column(doc_col).to_numpy())
    return batch.append_column("audio", pa.array(clips, pa.large_binary()))


def decode_wav(data: bytes) -> tuple[int, np.ndarray]:
    """From-scratch RIFF/WAVE decoder (no audio library): walks the
    chunk list; supports integer PCM at 32/24/16/8 bits (8-bit WAV is
    unsigned, rescaled to int16; 24/32-bit are truncated to the top
    16 bits) and IEEE float32 (format tag 3, clipped to [-1, 1] and
    scaled to int16). Returns (sample_rate, mono int16 samples —
    multi-channel clips are averaged to mono with int32 headroom, the
    standard feature-input convention). Conformance: pinned
    sample-exact against foreign-encoder AU/AIFF encodings of the
    same clip (tests/test_foreign_conformance.py)."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE stream")
    off = 12
    rate = None
    n_ch = None
    bits = None
    fmt_tag = None
    body_raw = None
    while off + 8 <= len(data):
        tag = data[off : off + 4]
        (ln,) = struct.unpack_from("<I", data, off + 4)
        body = data[off + 8 : off + 8 + ln]
        if tag == b"fmt ":
            if len(body) < 16:
                raise ValueError("truncated WAV fmt chunk")
            fmt_tag, n_ch, rate = struct.unpack_from("<HHI", body, 0)
            (bits,) = struct.unpack_from("<H", body, 14)
            if (fmt_tag, bits) not in ((1, 16), (1, 8), (1, 24), (1, 32), (3, 32)):
                raise NotImplementedError(
                    f"WAV format {fmt_tag}/{bits}-bit not supported "
                    "(32/24/16/8-bit integer PCM and float32 only)"
                )
        elif tag == b"data":
            body_raw = body
        off += 8 + ln + (ln & 1)  # chunks are word-aligned
    if rate is None or body_raw is None:
        raise ValueError("WAV missing fmt/data chunk")
    if fmt_tag == 1 and bits == 16:
        pcm = np.frombuffer(body_raw, dtype="<i2")
    elif fmt_tag == 1 and bits == 24:  # 3-byte little-endian signed -> top 16
        raw = np.frombuffer(body_raw[: len(body_raw) - len(body_raw) % 3], np.uint8)
        tri = raw.reshape(-1, 3).astype(np.int32)
        val = tri[:, 0] | (tri[:, 1] << 8) | (tri[:, 2] << 16)
        val -= (val & 0x800000) << 1  # sign-extend
        pcm = (val >> 8).astype(np.int16)
    elif fmt_tag == 1 and bits == 32:
        pcm = (np.frombuffer(body_raw, dtype="<i4") >> 16).astype(np.int16)
    elif fmt_tag == 1:  # 8-bit PCM is UNSIGNED, midpoint 128
        pcm = (
            (np.frombuffer(body_raw, dtype=np.uint8).astype(np.int16) - 128) << 8
        )
    else:  # float32 in [-1, 1]
        f = np.clip(np.frombuffer(body_raw, dtype="<f4"), -1.0, 1.0)
        pcm = np.round(f * 32767.0).astype(np.int16)
    if n_ch > 1:
        pcm = (
            pcm[: len(pcm) - len(pcm) % n_ch]
            .reshape(-1, n_ch)
            .astype(np.int32)
            .mean(axis=1)
            .astype(np.int16)
        )
    return rate, pcm


def _pcm_be_to_i16(raw: bytes, bits: int) -> np.ndarray:
    """Big-endian signed PCM (8/16/24/32-bit) -> int16 (top bits)."""
    if bits == 16:
        return np.frombuffer(raw, dtype=">i2").astype(np.int16)
    if bits == 8:  # AU/AIFF 8-bit PCM is SIGNED (unlike WAV)
        return np.frombuffer(raw, dtype=np.int8).astype(np.int16) << 8
    if bits == 24:
        b = np.frombuffer(raw[: len(raw) - len(raw) % 3], np.uint8)
        tri = b.reshape(-1, 3).astype(np.int32)
        val = (tri[:, 0] << 16) | (tri[:, 1] << 8) | tri[:, 2]
        val -= (val & 0x800000) << 1
        return (val >> 8).astype(np.int16)
    if bits == 32:
        return (np.frombuffer(raw, dtype=">i4") >> 16).astype(np.int16)
    raise NotImplementedError(f"{bits}-bit big-endian PCM not supported")


_ULAW_EXP = np.array([0, 132, 396, 924, 1980, 4092, 8316, 16764], np.int32)


def _mono(pcm: np.ndarray, n_ch: int) -> np.ndarray:
    if n_ch > 1:
        pcm = (
            pcm[: len(pcm) - len(pcm) % n_ch]
            .reshape(-1, n_ch)
            .astype(np.int32)
            .mean(axis=1)
            .astype(np.int16)
        )
    return pcm


def decode_au(data: bytes) -> tuple[int, np.ndarray]:
    """From-scratch Sun/NeXT .au decoder (big-endian header + PCM):
    encodings 1 (u-law, G.711 table-free expansion), 2/3/4/5 (signed
    linear 8/16/24/32-bit). Returns (sample_rate, mono int16) —
    24/32-bit keep their top 16 bits, matching :func:`decode_wav`'s
    convention, so the same clip in .wav/.au/.aiff decodes
    sample-identically (pinned in tests/test_foreign_conformance.py)."""
    if len(data) < 24 or data[:4] != b".snd":
        raise ValueError("not a Sun .au stream")
    _, off, _size, enc, rate, n_ch = struct.unpack_from(">6I", data, 0)
    if off < 24 or off > len(data):
        raise ValueError("bad .au data offset")
    body = data[off:]
    if enc == 1:  # 8-bit u-law
        u = ~np.frombuffer(body, np.uint8)
        sign = u & 0x80
        exp = (u.astype(np.int32) >> 4) & 7
        mant = u & 0x0F
        mag = (mant.astype(np.int32) << (exp + 3)) + _ULAW_EXP[exp]
        pcm = np.where(sign, -mag, mag).astype(np.int16)
    elif enc in (2, 3, 4, 5):
        pcm = _pcm_be_to_i16(body, 8 * (enc - 1))
    else:
        raise NotImplementedError(f".au encoding {enc} not supported")
    return rate, _mono(pcm, max(n_ch, 1))


def _f80_to_float(b: bytes) -> float:
    """80-bit IEEE 754 extended (AIFF sample rate) -> float."""
    (se,) = struct.unpack_from(">H", b, 0)
    (mant,) = struct.unpack_from(">Q", b, 2)
    exp = se & 0x7FFF
    if exp == 0 and mant == 0:
        return 0.0
    val = mant * 2.0 ** (exp - 16383 - 63)
    return -val if se & 0x8000 else val


def decode_aiff(data: bytes) -> tuple[int, np.ndarray]:
    """From-scratch AIFF decoder (IFF FORM/COMM/SSND, big-endian
    signed PCM 8/16/24/32-bit, 80-bit extended-float sample rate).
    Returns (sample_rate, mono int16) under the same top-16-bits
    convention as :func:`decode_wav` / :func:`decode_au`."""
    if len(data) < 12 or data[:4] != b"FORM" or data[8:12] != b"AIFF":
        raise ValueError("not an AIFF stream")
    off = 12
    rate = n_ch = bits = None
    n_frames = 0
    body = None
    while off + 8 <= len(data):
        tag = data[off : off + 4]
        (ln,) = struct.unpack_from(">I", data, off + 4)
        chunk = data[off + 8 : off + 8 + ln]
        if tag == b"COMM":
            if len(chunk) < 18:
                raise ValueError("truncated AIFF COMM chunk")
            n_ch, n_frames, bits = struct.unpack_from(">HIH", chunk, 0)
            rate = int(round(_f80_to_float(chunk[8:18])))
        elif tag == b"SSND":
            if len(chunk) < 8:
                raise ValueError("truncated AIFF SSND chunk")
            (data_off,) = struct.unpack_from(">I", chunk, 0)
            body = chunk[8 + data_off :]
        off += 8 + ln + (ln & 1)
    if rate is None or body is None:
        raise ValueError("AIFF missing COMM/SSND chunk")
    pcm = _pcm_be_to_i16(body[: n_frames * n_ch * (bits // 8)], bits)
    return rate, _mono(pcm, max(n_ch, 1))


def decode_audio(data: bytes) -> tuple[int, np.ndarray]:
    """Decode one audio payload: real WAV (RIFF PCM via
    :func:`decode_wav`), Sun .au, AIFF, or the deterministic PCM1
    fake. Compressed codecs (mp3/flac/...) remain STUBBED — this
    container has no audio libraries."""
    if data[:4] == b"RIFF":
        return decode_wav(data)
    if data[:4] == b".snd":
        return decode_au(data)
    if data[:4] == b"FORM" and data[8:12] == b"AIFF":
        return decode_aiff(data)
    if data[:3] == b"ID3" or (
        len(data) >= 2 and data[0] == 0xFF and (data[1] & 0xE0) == 0xE0
    ):
        raise NotImplementedError(
            "MP3 Layer-III synthesis is stubbed in this environment (its "
            "huffman/filterbank tables can't be conformance-checked "
            "offline); the frame-walk metadata path is real — use "
            "media_metadata (geom/mp3.py) for duration/bitrate/frames"
        )
    if data[:4] != AUDIO_MAGIC:
        raise NotImplementedError(
            "audio decoding beyond WAV PCM (flac/ogg/...) is stubbed in "
            "this environment; WAV and the deterministic PCM1 fake are supported"
        )
    _, rate, n = AUDIO_HEADER.unpack_from(data, 0)
    return rate, np.frombuffer(data, dtype=np.int16, offset=AUDIO_HEADER.size, count=n)


def audio_features(batch: pa.Table) -> pa.Table:
    """Batch stage: decode + per-clip features (RMS, zero crossings,
    duration)."""
    rms, zc, dur = [], [], []
    for data in batch.column("audio").to_pylist():
        rate, pcm = decode_audio(data)
        x = pcm.astype(np.float64)
        rms.append(float(np.sqrt((x * x).mean())))
        zc.append(int((np.signbit(x[1:]) != np.signbit(x[:-1])).sum()))
        dur.append(len(pcm) / rate)
    return (
        batch.drop_columns(["audio"])
        .append_column("audio_rms", pa.array(rms, pa.float64()))
        .append_column("audio_zero_crossings", pa.array(zc, pa.int64()))
        .append_column("audio_duration_s", pa.array(dur, pa.float64()))
    )


def audio_feature_stage(ds, batch_size: int = 256):
    """Small batches: binary PCM rows are large."""
    return ds.map_batches(audio_features, batch_format="pyarrow", batch_size=batch_size)


def image_feature_stage(ds, batch_size: int = 256):
    """Small batches: payload rows are large (binary images)."""
    return ds.map_batches(image_features, batch_format="pyarrow", batch_size=batch_size)


def image_dedup(ds, id_col: str = "doc_id", image_col: str = "image"):
    """Cross-container exact image dedup: decode every payload
    (GRD1/PNG/lossless-WebP/...) to CANONICAL PIXELS
    (:func:`canonical_pixels`: shape header + channel-collapsed raw
    bytes) and hash those, so the same picture stored as a PNG, as an
    RGB WebP or as a raw GRD1 blob collapses into one group.
    Container-level byte hashing cannot do this (the md5 of a PNG
    differs from the md5 of its own pixels).

    Map-side partial (min id + count per pixel hash inside each
    batch) -> one tiny ``groupby(pixel_hash)``; the shuffle carries
    hashes, never pixels. Returns (pixel_hash, keep_id, n_copies)."""
    import hashlib

    import pandas as pd

    from ray.data.aggregate import Min, Sum

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy()
        hashes = []
        for data in t.column(image_col).to_pylist():
            img = canonical_pixels(data)
            canon = (
                np.int64(img.shape[0]).tobytes()
                + np.int64(img.shape[1]).tobytes()
                + img.tobytes()
            )
            hashes.append(hashlib.md5(canon).hexdigest())
        df = pd.DataFrame({"pixel_hash": hashes, id_col: ids})
        agg = (
            df.groupby("pixel_hash", sort=False)[id_col]
            .agg(["min", "count"])
            .reset_index()
            .rename(columns={"min": "pmin", "count": "pcount"})
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("pixel_hash")
        .aggregate(
            Min("pmin", alias_name="keep_id"), Sum("pcount", alias_name="n_copies")
        )
    )


def audio_dedup(ds, id_col: str = "doc_id", audio_col: str = "audio"):
    """Cross-container exact audio dedup: decode (WAV or PCM1 fake)
    to canonical samples — rate + mono int16 bytes — and hash those,
    so the same clip as a RIFF/WAV file and as a raw PCM blob
    collapses into one group. Same shape as :func:`image_dedup`."""
    import hashlib

    import pandas as pd

    from ray.data.aggregate import Min, Sum

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy()
        hashes = []
        for data in t.column(audio_col).to_pylist():
            rate, pcm = decode_audio(data)
            canon = np.int64(rate).tobytes() + np.ascontiguousarray(pcm).tobytes()
            hashes.append(hashlib.md5(canon).hexdigest())
        df = pd.DataFrame({"pcm_hash": hashes, id_col: ids})
        agg = (
            df.groupby("pcm_hash", sort=False)[id_col]
            .agg(["min", "count"])
            .reset_index()
            .rename(columns={"min": "pmin", "count": "pcount"})
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("pcm_hash")
        .aggregate(
            Min("pmin", alias_name="keep_id"), Sum("pcount", alias_name="n_copies")
        )
    )


# ------------------------------------------------- media metadata probe


def _probe_gif(data: bytes) -> dict:
    """Frame count / dimensions / duration by walking the GIF block
    structure WITHOUT LZW decode (sub-blocks are length-prefixed, so
    profiling a 100 MB animation touches only its block headers)."""
    from ..geom.gif import GifError

    if len(data) < 13:
        raise GifError("truncated GIF header")
    w, h = struct.unpack_from("<HH", data, 6)
    flags = data[10]
    off = 13
    if flags & 0x80:
        off += 6 << (flags & 7)  # global color table
    n_frames = 0
    duration_ms = 0
    while off < len(data):
        b = data[off]
        if b == 0x3B:  # trailer
            break
        if b == 0x21:  # extension: label + sub-blocks
            if off + 2 > len(data):
                raise GifError("truncated extension")
            label = data[off + 1]
            off += 2
            if label == 0xF9 and off + 5 <= len(data) and data[off] == 4:
                duration_ms += 10 * struct.unpack_from("<H", data, off + 2)[0]
            while off < len(data) and data[off]:
                off += 1 + data[off]
            off += 1
        elif b == 0x2C:  # image descriptor
            if off + 10 > len(data):
                raise GifError("truncated image descriptor")
            lflags = data[off + 9]
            off += 10
            if lflags & 0x80:
                off += 6 << (lflags & 7)
            off += 1  # LZW min code size
            while off < len(data) and data[off]:
                off += 1 + data[off]
            off += 1
            n_frames += 1
        else:
            raise GifError(f"unknown block 0x{b:02x} at {off}")
    return {
        "container": "gif",
        "kind": "video" if n_frames > 1 else "image",
        "codec": "lzw",
        "width": w,
        "height": h,
        "n_frames": n_frames,
        "duration_ms": duration_ms or None,
    }


def _probe_wav(data: bytes) -> dict:
    off = 12
    rate = channels = bits = 0
    n_samples = None
    while off + 8 <= len(data):
        cid = data[off : off + 4]
        (csize,) = struct.unpack_from("<I", data, off + 4)
        body = off + 8
        if cid == b"fmt " and csize >= 16:
            _, channels, rate = struct.unpack_from("<HHI", data, body)
            bits = struct.unpack_from("<H", data, body + 14)[0]
        elif cid == b"data" and channels and bits:
            n_samples = csize // (channels * max(bits // 8, 1))
        off = body + csize + (csize & 1)
    if not rate:
        raise ValueError("RIFF/WAVE stream has no fmt chunk")
    return {
        "container": "wav",
        "kind": "audio",
        "codec": f"pcm{bits}",
        "channels": channels,
        "sample_rate": rate,
        "n_samples": n_samples,
        "duration_ms": 1000 * n_samples // rate if n_samples else None,
    }


def probe_media(data: bytes) -> dict:
    """Container-level metadata WITHOUT payload decode: walks only the
    headers / sample tables, so profiling a corpus of large media
    documents is header-bounded I/O, never a decode. Returns a dict
    with a fixed key set (absent fields are None): container, kind
    (image|audio|video), codec, width, height, channels, sample_rate,
    n_frames, n_samples, duration_ms, bitrate_kbps."""
    out = {
        "container": None,
        "kind": None,
        "codec": None,
        "width": None,
        "height": None,
        "channels": None,
        "sample_rate": None,
        "n_frames": None,
        "n_samples": None,
        "duration_ms": None,
        "bitrate_kbps": None,
    }
    if len(data) >= 12 and data[4:8] == b"ftyp":
        from ..geom.mp4 import parse_mp4

        info = parse_mp4(data)
        track = info.video() or info.audio()
        if track is None:
            raise ValueError("MP4 container has no video or audio track")
        dur = (
            1000 * track.duration // track.timescale
            if track.timescale
            else info.duration_ms
        )
        out.update(
            container="mp4",
            kind="video" if track.handler == "vide" else "audio",
            codec=track.codec.strip(),
            n_frames=track.n_samples,
            duration_ms=dur,
        )
        if track.handler == "vide":
            out.update(width=track.width, height=track.height)
        else:
            out.update(channels=track.channels, sample_rate=track.sample_rate)
        return out
    if data[:3] == b"ID3" or (
        len(data) >= 2 and data[0] == 0xFF and (data[1] & 0xE0) == 0xE0
    ):
        from ..geom.mp3 import mp3_metadata

        meta = mp3_metadata(data)
        out.update(
            container="mp3",
            kind="audio",
            codec=f"mpeg{meta['version']}l{meta['layer']}",
            channels=meta["channels"],
            sample_rate=meta["sample_rate"],
            n_frames=meta["n_frames"],
            n_samples=meta["n_samples"],
            duration_ms=meta["duration_ms"],
            bitrate_kbps=meta["avg_bitrate_kbps"],
        )
        return out
    if data[:6] in (b"GIF87a", b"GIF89a"):
        out.update(_probe_gif(data))
        return out
    if data[:4] == b"RIFF" and data[8:12] == b"WAVE":
        out.update(_probe_wav(data))
        return out
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        w, h = struct.unpack_from(">II", data, 16)
        out.update(container="png", kind="image", codec="deflate", width=w, height=h)
        return out
    if data[:2] == b"\xff\xd8":
        off = 2
        while off + 4 <= len(data):
            if data[off] != 0xFF:
                raise ValueError(f"bad JPEG marker at {off}")
            marker = data[off + 1]
            if marker in (0xC0, 0xC1, 0xC2):
                h, w = struct.unpack_from(">HH", data, off + 5)
                out.update(
                    container="jpeg",
                    kind="image",
                    codec="progressive" if marker == 0xC2 else "baseline",
                    width=w,
                    height=h,
                    channels=data[off + 9],
                )
                return out
            (seg,) = struct.unpack_from(">H", data, off + 2)
            off += 2 + seg
        raise ValueError("JPEG stream has no SOF marker")
    if data[:4] == MAGIC:
        n = 0
        off = 0
        w = h = c = 0
        while off < len(data):
            _, w, h, c = HEADER.unpack_from(data, off)
            off += HEADER.size + w * h * c
            n += 1
        out.update(
            container="grd1",
            kind="video" if n > 1 else "image",
            codec="raw",
            width=w,
            height=h,
            channels=c,
            n_frames=n,
        )
        return out
    if data[:4] == AUDIO_MAGIC:
        _, rate, n = AUDIO_HEADER.unpack_from(data, 0)
        out.update(
            container="pcm1",
            kind="audio",
            codec="pcm16",
            channels=1,
            sample_rate=rate,
            n_samples=n,
            duration_ms=1000 * n // rate,
        )
        return out
    raise ValueError("unrecognized media container")


_META_FIELDS = [
    ("container", pa.string()),
    ("kind", pa.string()),
    ("codec", pa.string()),
    ("width", pa.int64()),
    ("height", pa.int64()),
    ("channels", pa.int64()),
    ("sample_rate", pa.int64()),
    ("n_frames", pa.int64()),
    ("n_samples", pa.int64()),
    ("duration_ms", pa.int64()),
    ("bitrate_kbps", pa.int64()),
]


def media_metadata(batch: pa.Table, media_col: str = "media") -> pa.Table:
    """Per-document media profiling: probe each payload's container
    headers (never the payload bitstream) and emit one typed column
    per metadata field. Header-bounded work per row, so this is a
    plain map_batches fn — no actor state needed."""
    probes = [probe_media(d) for d in batch.column(media_col).to_pylist()]
    out = batch.drop_columns([media_col])
    for name, typ in _META_FIELDS:
        out = out.append_column(name, pa.array([p[name] for p in probes], typ))
    return out


def synth_media_bytes(doc_id: np.ndarray) -> list[bytes]:
    """Deterministic mixed-container media per doc: doc_id % 3 picks
    MP4 (GRD1 samples), MP3 (CBR Layer-III frames) or RIFF/WAV PCM16,
    with every container parameter a CLOSED FORM of doc_id — so the
    metadata the probe extracts is expressible as SQL over doc_id and
    the q_media_metadata oracle is value-exact end to end (muxer →
    parser must agree with the closed form)."""
    from ..geom.mp3 import write_mp3_frames
    from ..geom.mp4 import write_mp4

    out = []
    for d in np.asarray(doc_id, dtype=np.int64).tolist():
        sel = d % 3
        if sel == 0:
            n = 3 + d % 5
            rng = np.random.default_rng(d ^ 0x3D4)
            samples = [
                HEADER.pack(MAGIC, 8, 8, 1)
                + rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
                for _ in range(n)
            ]
            out.append(
                write_mp4(
                    samples,
                    codec="grd1",
                    timescale=1000,
                    sample_delta=40,
                    width=8,
                    height=8,
                    keyframe_every=2,
                )
            )
        elif sel == 1:
            n = 20 + d % 7
            br = (96, 128, 192)[(d // 3) % 3]
            ch = 1 if (d // 3) % 2 == 0 else 2
            out.append(write_mp3_frames(n, bitrate_kbps=br, channels=ch))
        else:
            n = 512 + 16 * (d % 4)
            rng = np.random.default_rng(d ^ 0x3D5)
            pcm = rng.integers(-(1 << 15), 1 << 15, n, dtype=np.int16).tobytes()
            out.append(
                b"RIFF"
                + struct.pack("<I", 36 + len(pcm))
                + b"WAVE"
                + b"fmt "
                + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
                + b"data"
                + struct.pack("<I", len(pcm))
                + pcm
            )
    return out


def attach_media(batch: pa.Table, doc_col: str = "doc_id") -> pa.Table:
    media = synth_media_bytes(batch.column(doc_col).to_numpy())
    return batch.append_column("media", pa.array(media, pa.large_binary()))


# --------------------------------------------------------------- pHash

PHASH_N = 32  # DCT input side
PHASH_K = 8  # low-frequency block side -> 64-bit hash


class PHash:
    """Batch stage: DCT perceptual hash per image (the classic
    pHash recipe): decode -> grey (channel mean) -> deterministic
    32x32 resample -> orthonormal 2-D DCT-II -> the 8x8 low-frequency
    block thresholded at the median of its 63 non-DC coefficients.
    Bit i of the int64 hash = coefficient i (row-major over the 8x8
    block) above the median. Robust to container changes and mild
    lossy re-encoding (JPEG requantization flips few low-frequency
    signs); pinned in tests.

    The DCT basis matrix is built ONCE, on the driver, in ``__init__``."""

    def __init__(self, id_col: str = "doc_id", image_col: str = "image"):
        n = PHASH_N
        j = np.arange(n, dtype=np.float64)
        k = j[:, None]
        c = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j[None, :] + 1) * k / (2 * n))
        c[0] = np.sqrt(1.0 / n)
        self.basis = c
        self.id_col, self.image_col = id_col, image_col

    def _hash_one(self, data: bytes) -> int:
        img = decode_image_nd(data).astype(np.float64)
        if img.ndim == 3:
            img = img.mean(axis=2)
        h, w = img.shape
        n = PHASH_N
        ri = np.minimum((np.arange(n) * h) // n, h - 1)
        ci = np.minimum((np.arange(n) * w) // n, w - 1)
        small = img[np.ix_(ri, ci)]
        d = self.basis @ small @ self.basis.T
        block = d[:PHASH_K, :PHASH_K].ravel()
        med = np.median(block[1:])  # DC excluded from the threshold
        bits = (block > med).astype(np.uint64)
        return int(np.bitwise_or.reduce(bits << np.arange(64, dtype=np.uint64)))

    def __call__(self, t: pa.Table) -> pa.Table:
        hashes = [self._hash_one(d) for d in t.column(self.image_col).to_pylist()]
        return pa.table(
            {
                self.id_col: t.column(self.id_col),
                "phash": pa.array(
                    np.array(hashes, dtype=np.uint64).astype(np.int64)
                ),
            }
        )


def image_phash(ds, id_col: str = "doc_id", image_col: str = "image",
                batch_size: int = 128):
    """Per-image 64-bit perceptual hash."""
    return ds.map_batches(
        PHash(id_col, image_col), batch_format="pyarrow", batch_size=batch_size
    )


def image_phash_pairs(ds, id_col: str = "doc_id", image_col: str = "image",
                      max_hamming: int = 3):
    """NEAR-duplicate image pairs: pHash + the SimHash pigeonhole
    band trick (any pair within Hamming<=3 of 64 bits shares one of
    four exact 16-bit chunks), bucketed shuffle of (id, phash) slim
    rows only — pixels never shuffle. Returns (a, b, hamming)."""
    import pandas as pd

    from .cogroup import shuffle_by

    hashed = image_phash(ds, id_col=id_col, image_col=image_col)

    def to_chunks(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        ph = t.column("phash").to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(ids)
        rid = np.tile(ids, 4)
        rchunk = np.repeat(np.arange(4, dtype=np.int64), n)
        rkey = np.concatenate(
            [((ph >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int64)
             for c in range(4)]
        )
        rph = np.tile(ph.astype(np.int64), 4)
        return pa.table(
            {
                "id": pa.array(rid.astype(np.int64)),
                "chunk": pa.array(rchunk),
                "key": pa.array(rkey),
                "phash": pa.array(rph),
            }
        )

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, sub in g.groupby(["chunk", "key"], sort=False):
            sub = sub.drop_duplicates("id").sort_values("id")
            if len(sub) < 2:
                continue
            ids = sub["id"].to_numpy()
            ph = sub["phash"].to_numpy().astype(np.uint64)
            ai, bi = np.triu_indices(len(ids), k=1)
            x = ph[ai] ^ ph[bi]
            ham = np.zeros(len(x), dtype=np.int64)
            for _ in range(64):
                ham += (x & np.uint64(1)).astype(np.int64)
                x >>= np.uint64(1)
            m = ham <= max_hamming
            if m.any():
                outs.append(
                    pd.DataFrame({"a": ids[ai][m], "b": ids[bi][m],
                                  "hamming": ham[m]})
                )
        if not outs:
            return pd.DataFrame(
                {c: pd.Series(dtype="int64") for c in ("a", "b", "hamming")}
            )
        return pd.concat(outs, ignore_index=True).drop_duplicates(["a", "b"])

    pairs = shuffle_by(
        hashed.map_batches(to_chunks, batch_format="pyarrow"), ["chunk", "key"], pairs_in_bucket
    )
    # distinct pairs across band buckets, hamming kept — it is a
    # function of the pair, so any survivor row carries the same value
    return shuffle_by(pairs, ["a", "b"], lambda g: g.drop_duplicates(["a", "b"])[["a", "b", "hamming"]])


def synth_blob_image_bytes(doc_id: np.ndarray, n: int = 64) -> list[bytes]:
    """Deterministic SMOOTH fake image per doc (sum of 6 Gaussian
    blobs, seeded by doc_id) — the natural-image-like payload the
    pHash harness needs (pHash separation is meaningless on white
    noise). 64x64 grey GRD1 blobs; measured pHash margins on this
    family: JPEG-85 re-encode <= 4 bits, distinct images >= 8 bits
    (500-image sweep), so max_hamming=5 recovers planted near-dups
    exactly."""
    out = []
    x, y = np.meshgrid(np.arange(n), np.arange(n))
    for d in np.asarray(doc_id, dtype=np.int64).tolist():
        rng = np.random.default_rng(d)
        img = np.zeros((n, n))
        for _ in range(6):
            cx, cy = rng.uniform(0, n, 2)
            s = rng.uniform(4, 14)
            a = rng.uniform(-120, 120)
            img += a * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * s * s))
        pix = np.clip(127 + img, 0, 255).astype(np.uint8)
        out.append(HEADER.pack(MAGIC, n, n, 1) + pix.tobytes())
    return out


def attach_blob_images(batch: pa.Table, doc_col: str = "doc_id") -> pa.Table:
    imgs = synth_blob_image_bytes(batch.column(doc_col).to_numpy())
    return batch.append_column("image", pa.array(imgs, pa.large_binary()))


# --------------------------------------------------------- spectrogram

SPEC_NFFT = 256
SPEC_HOP = 128
SPEC_NMELS = 16


def _mel_filterbank(sr: int, n_fft: int, n_mels: int) -> np.ndarray:
    """Triangular mel filterbank (HTK mel scale, numpy only): n_mels
    rows x (n_fft//2 + 1) bins."""
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)  # noqa: E731
    imel = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)  # noqa: E731
    pts = imel(np.linspace(mel(0.0), mel(sr / 2.0), n_mels + 2))
    bins = np.floor((n_fft + 1) * pts / sr).astype(np.int64)
    fb = np.zeros((n_mels, n_fft // 2 + 1))
    for m in range(1, n_mels + 1):
        lo, ctr, hi = bins[m - 1], bins[m], bins[m + 1]
        for k in range(lo, ctr):
            if ctr > lo:
                fb[m - 1, k] = (k - lo) / (ctr - lo)
        for k in range(ctr, hi):
            if hi > ctr:
                fb[m - 1, k] = (hi - k) / (hi - ctr)
    return fb


def log_mel_spectrogram(
    pcm: np.ndarray,
    sr: int,
    n_fft: int = SPEC_NFFT,
    hop: int = SPEC_HOP,
    n_mels: int = SPEC_NMELS,
) -> np.ndarray:
    """(n_frames, n_mels) log10 mel power spectrogram of an int16 mono
    clip: Hann-windowed frames -> |rfft|^2 -> mel filterbank ->
    log10(eps + .). All-numpy reference implementation; frames are
    vectorized with stride tricks (no per-frame python loop)."""
    x = pcm.astype(np.float64) / 32768.0
    if len(x) < n_fft:
        x = np.pad(x, (0, n_fft - len(x)))
    n_frames = 1 + (len(x) - n_fft) // hop
    frames = np.lib.stride_tricks.as_strided(
        x,
        shape=(n_frames, n_fft),
        strides=(x.strides[0] * hop, x.strides[0]),
    )
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)  # Hann
    spec = np.abs(np.fft.rfft(frames * win, axis=1)) ** 2
    fb = _mel_filterbank(sr, n_fft, n_mels)
    return np.log10(1e-10 + spec @ fb.T)


def audio_spectrogram(batch: pa.Table) -> pa.Table:
    """Batch stage: per-clip log-mel spectrogram summary. Output
    carries frame count plus per-mel-band time means (a fixed-width
    embedding-ish row — full spectrograms would be a (frames x mels)
    blob per clip; the summary keeps rows slim for the 100 TB shuffle
    budget)."""
    n_frames, mel_means = [], []
    for data in batch.column("audio").to_pylist():
        sr, pcm = decode_audio(data)
        s = log_mel_spectrogram(pcm, sr)
        n_frames.append(s.shape[0])
        mel_means.append(np.round(s.mean(axis=0), 9))
    return (
        batch.drop_columns(["audio"])
        .append_column("n_frames", pa.array(n_frames, pa.int64()))
        .append_column(
            "mel_means",
            pa.array([m.tolist() for m in mel_means], pa.list_(pa.float64())),
        )
    )


def audio_spectrogram_stage(ds, batch_size: int = 256):
    return ds.map_batches(audio_spectrogram, batch_format="pyarrow", batch_size=batch_size)


# ------------------------------------------------------- EXIF geotags

LAT_MOD = 180_000_001
LON_MOD = 360_000_001


def exif_coords(doc_id: np.ndarray):
    """Closed-form signed micro-degree geotags per doc (mirrored 1:1
    in the q_exif_geotags SQL oracle)."""
    from ..corpus.geocode import H1_MUL, H2_ADD, H2_MUL

    doc_id = np.asarray(doc_id, dtype=np.int64)
    lat_e6 = (doc_id * H1_MUL) % LAT_MOD - 90_000_000
    lon_e6 = (doc_id * H2_MUL + H2_ADD) % LON_MOD - 180_000_000
    orientation = doc_id % 8 + 1
    return lat_e6, lon_e6, orientation


_EXIF_BASE_JPEG = None


def attach_exif_images(batch: pa.Table, doc_col: str = "doc_id") -> pa.Table:
    """Per-doc JPEG payload carrying an APP1 Exif geotag: ONE base
    image body encoded lazily per process, per-doc segments spliced in
    (the EXIF bytes vary, the entropy data does not)."""
    from ..geom.exif import build_exif, insert_exif_app1
    from ..geom.jpeg import encode_jpeg

    global _EXIF_BASE_JPEG
    if _EXIF_BASE_JPEG is None:
        ramp = np.linspace(0, 255, 16 * 16).reshape(16, 16).astype(np.uint8)
        _EXIF_BASE_JPEG = encode_jpeg(ramp, quality=85)
    did = batch.column(doc_col).to_numpy(zero_copy_only=False).astype(np.int64)
    lat, lon, ori = exif_coords(did)
    payloads = [
        insert_exif_app1(
            _EXIF_BASE_JPEG, build_exif(int(a), int(o), orientation=int(r))
        )
        for a, o, r in zip(lat, lon, ori)
    ]
    return batch.append_column("image", pa.array(payloads, pa.large_binary()))


def exif_geotags(batch: pa.Table) -> pa.Table:
    """Batch stage: mine geotags out of JPEG APP1 Exif segments
    (per-payload marker walk by nature; tasks parallelize across
    images). Emits signed micro-degrees + orientation."""
    from ..geom.exif import extract_exif_from_jpeg

    did = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    lat = np.zeros(len(did), np.int64)
    lon = np.zeros(len(did), np.int64)
    ori = np.zeros(len(did), np.int64)
    ok = np.zeros(len(did), bool)
    for i, payload in enumerate(batch.column("image").to_pylist()):
        meta = extract_exif_from_jpeg(payload)
        if meta and meta["lat_e6"] is not None:
            ok[i] = True
            lat[i] = meta["lat_e6"]
            lon[i] = meta["lon_e6"]
            ori[i] = meta["orientation"] or 0
    return pa.table(
        {
            "doc_id": pa.array(did[ok]),
            "lat_e6": pa.array(lat[ok]),
            "lon_e6": pa.array(lon[ok]),
            "orientation": pa.array(ori[ok]),
        }
    )


def exif_geotags_stage(ds, batch_size: int = 256):
    return ds.map_batches(exif_geotags, batch_format="pyarrow", batch_size=batch_size)


def exif_geotags_sql(source: str = "documents") -> str:
    """Oracle: re-derive the injected geotags from the closed-form
    parameters — equality proves writer + marker walk + IFD parse +
    rational DMS round trip end to end."""
    from ..corpus.geocode import H1_MUL, H2_ADD, H2_MUL

    return (
        f"SELECT doc_id, "
        f"CAST((doc_id * {H1_MUL}) % {LAT_MOD} - 90000000 AS BIGINT) AS lat_e6, "
        f"CAST((doc_id * {H2_MUL} + {H2_ADD}) % {LON_MOD} - 180000000 AS BIGINT) "
        "AS lon_e6, "
        "CAST(doc_id % 8 + 1 AS BIGINT) AS orientation "
        f"FROM {source}"
    )
