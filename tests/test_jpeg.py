"""From-scratch baseline JPEG codec: kernel unit tests (DCT
orthonormality, zigzag, magnitude coding, huffman canonical codes)
and bounded-error lossy round trips grey/RGB, odd sizes, quality
ladder, error paths."""

import numpy as np
import pytest

from lasutility_ray.geom.jpeg import (
    AC_LUMA,
    DC_LUMA,
    JpegError,
    UNZIGZAG,
    ZIGZAG,
    _build_huffman,
    _extend,
    _mag,
    decode_jpeg,
    dct2,
    encode_jpeg,
    idct2,
)


def test_dct_orthonormal_roundtrip():
    rng = np.random.default_rng(0)
    b = rng.uniform(-128, 127, (8, 8))
    assert np.allclose(idct2(dct2(b)), b, atol=1e-9)
    # Parseval: energy preserved
    c = dct2(b)
    assert np.isclose((b * b).sum(), (c * c).sum())


def test_zigzag_is_permutation():
    assert sorted(ZIGZAG.tolist()) == list(range(64))
    assert np.array_equal(ZIGZAG[UNZIGZAG], np.arange(64))
    # spec spot checks (T.81 figure A.6)
    assert ZIGZAG[:10].tolist() == [0, 1, 8, 16, 9, 2, 3, 10, 17, 24]


def test_magnitude_coding_inverts():
    for v in list(range(-40, 41)) + [-2047, 2047, -1024, 1023]:
        t, code = _mag(v)
        assert _extend(code, t) == v


def test_huffman_canonical():
    dec, enc = _build_huffman(*DC_LUMA)
    # T.81 K.3: category 0 -> code 00 (2 bits), category 1 -> 010
    assert enc[0] == (0b00, 2)
    assert enc[1] == (0b010, 3)
    assert dec[2][0b00] == 0
    # every code decodes back to its value
    for v, (c, ln) in enc.items():
        assert dec[ln][c] == v
    dec_ac, enc_ac = _build_huffman(*AC_LUMA)
    # EOB = 1010 (4 bits), ZRL = 11111111001 (11 bits) per K.5
    assert enc_ac[0x00] == (0b1010, 4)
    assert enc_ac[0xF0] == (0b11111111001, 11)


def _err(a, b):
    return np.abs(a.astype(np.float64) - b.astype(np.float64))


def test_grey_roundtrip_smooth():
    # smooth gradient compresses nearly losslessly at q=95
    x = np.arange(64, dtype=np.float64)
    img = np.clip(np.add.outer(x, x) * 2, 0, 255).astype(np.uint8)
    out = decode_jpeg(encode_jpeg(img, quality=95))
    assert out.shape == img.shape
    assert _err(out, img).mean() < 2.0
    assert _err(out, img).max() < 12


def test_rgb_roundtrip_and_quality_ladder():
    rng = np.random.default_rng(1)
    base = rng.integers(0, 255, (40, 56, 3), dtype=np.uint8)
    # blur to make it compressible (random noise is the worst case)
    img = base.astype(np.float64)
    for _ in range(3):
        img = (img + np.roll(img, 1, 0) + np.roll(img, 1, 1) + np.roll(img, -1, 0)) / 4
    img = img.astype(np.uint8)
    errs = []
    sizes = []
    for q in (30, 60, 90):
        data = encode_jpeg(img, quality=q)
        out = decode_jpeg(data)
        assert out.shape == img.shape
        errs.append(_err(out, img).mean())
        sizes.append(len(data))
    assert errs[0] > errs[1] > errs[2]  # more quality -> less error
    assert sizes[0] < sizes[1] < sizes[2]  # and more bytes
    assert errs[2] < 5.0  # q=90 on chroma-noisy input (Annex K chroma table is coarse)
    # quality=100 is near-exact (quant table all ones)
    out100 = decode_jpeg(encode_jpeg(img, quality=100))
    assert _err(out100, img).mean() < 0.5
    assert _err(out100, img).max() <= 3


def test_odd_sizes_pad_correctly():
    rng = np.random.default_rng(2)
    for shape in ((17, 23), (9, 8), (8, 9), (1, 1)):
        img = rng.integers(0, 255, shape, dtype=np.uint8)
        out = decode_jpeg(encode_jpeg(img, quality=90))
        assert out.shape == img.shape


def test_flat_image_is_exact():
    # q=100 -> all-ones quant tables: a flat block survives exactly
    # (at lower quality the DC can land on a .5 quantization boundary)
    img = np.full((16, 16), 77, np.uint8)
    out = decode_jpeg(encode_jpeg(img, quality=100))
    assert np.array_equal(out, img)
    img80 = np.full((16, 16), 80, np.uint8)  # DC/16 integral at q=50 too
    assert np.array_equal(decode_jpeg(encode_jpeg(img80, quality=50)), img80)


def test_error_paths():
    with pytest.raises(JpegError):
        decode_jpeg(b"not a jpeg")
    img = np.zeros((8, 8), np.uint8)
    data = bytearray(encode_jpeg(img))
    i = bytes(data).find(b"\xff\xc0")
    # flip SOF0 to SOF3 (lossless) -> loud NotImplementedError
    data[i + 1] = 0xC3
    with pytest.raises(NotImplementedError):
        decode_jpeg(bytes(data))
    # flip SOF0 to SOF2: now SUPPORTED, but a baseline scan header
    # (Ss=0, Se=63) is invalid inside a progressive frame -> JpegError
    data[i + 1] = 0xC2
    with pytest.raises(JpegError):
        decode_jpeg(bytes(data))
    with pytest.raises(JpegError):
        encode_jpeg(img.astype(np.int32))


def _segments(jpg: bytes):
    """Split a baseline JPEG into its marker segments up to and
    including SOS, plus the entropy-coded bytes before EOI."""
    import struct

    segs, pos = [], 2
    while True:
        (seglen,) = struct.unpack_from(">H", jpg, pos + 2)
        segs.append(jpg[pos : pos + 2 + seglen])
        pos += 2 + seglen
        if segs[-1][1] == 0xDA:
            return segs, jpg[pos:-2]


def _restart_jpeg(img: np.ndarray, fill: bytes = b"") -> bytes:
    """A grey JPEG with one restart interval per MCU row, from the
    engine's encoder: each 8-px strip is encoded on its own (its DC
    prediction starts at 0, exactly as after an RSTn) and the strips'
    entropy data is joined with RST0, RST1, ... under the full image's
    headers plus a DRI. ``fill`` goes before every RSTn, DQT and EOI."""
    import struct

    segs, _ = _segments(encode_jpeg(img, quality=90))
    rows = [
        _segments(encode_jpeg(img[r : r + 8], quality=90))[1]
        for r in range(0, img.shape[0], 8)
    ]
    mcus_per_row = -(-img.shape[1] // 8)
    out = b"\xff\xd8"
    for seg in segs:
        if seg[1] == 0xDB:
            out += fill
        if seg[1] == 0xDA:
            out += b"\xff\xdd" + struct.pack(">HH", 4, mcus_per_row)
        out += seg
    for i, row in enumerate(rows):
        if i:
            out += fill + bytes([0xFF, 0xD0 + (i - 1) % 8])
        out += row
    return out + fill + b"\xff\xd9"


def test_fill_bytes_before_markers_decode():
    """Runs of 0xFF fill bytes are legal before any marker (T.81
    B.1.1.2): before RSTn, DQT and EOI they decode to the same pixels
    as the stream without them."""
    yy, xx = np.mgrid[0:80, 0:40]
    img = ((xx * 5 + yy * 3) % 256).astype(np.uint8)
    plain = _restart_jpeg(img)
    assert plain.count(b"\xff\xdd") == 1 and b"\xff\xd7" in plain  # RST0..RST7 wrap
    ref = decode_jpeg(plain)
    np.testing.assert_array_equal(ref, decode_jpeg(encode_jpeg(img, quality=90)))
    for n_fill in (1, 3):
        filled = _restart_jpeg(img, fill=b"\xff" * n_fill)
        assert len(filled) > len(plain)
        np.testing.assert_array_equal(decode_jpeg(filled), ref)


def test_image_features_over_jpeg_batch(ray_session):
    import pyarrow as pa

    import ray.data as rd

    from lasutility_ray.stages.multimodal import image_feature_stage

    rng = np.random.default_rng(5)
    imgs = []
    for i in range(6):
        base = rng.integers(0, 255, (24, 24, 3), dtype=np.uint8)
        imgs.append(encode_jpeg(base, quality=90))
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(6), pa.int64()),
                "image": pa.array(imgs, pa.large_binary()),
            }
        )
    )
    out = image_feature_stage(ds).to_pandas()
    assert len(out) == 6
    assert {"img_mean", "img_std", "img_edge_energy"} <= set(out.columns)
    assert (out["img_std"] > 0).all()


def test_420_subsampled_roundtrip():
    rng = np.random.default_rng(9)
    img = rng.integers(0, 255, (33, 47, 3), dtype=np.uint8).astype(np.float64)
    for _ in range(4):
        img = (img + np.roll(img, 1, 0) + np.roll(img, 1, 1) + np.roll(img, -1, 1)) / 4
    img = img.astype(np.uint8)
    d444 = encode_jpeg(img, quality=90)
    d420 = encode_jpeg(img, quality=90, subsample="420")
    assert len(d420) < len(d444)  # chroma carries 1/4 the blocks
    out = decode_jpeg(d420)
    assert out.shape == img.shape
    assert _err(out, img).mean() < 9.0  # chroma loss is the point of 4:2:0
    # luma survives subsampling essentially as well as 4:4:4
    lum = lambda a: 0.299 * a[..., 0] + 0.587 * a[..., 1] + 0.114 * a[..., 2]
    assert np.abs(lum(out.astype(float)) - lum(img.astype(float))).mean() < 3.0


def test_fuzz_truncation_and_corruption_raise_typed_errors():
    # malformed streams must raise JpegError/NotImplementedError,
    # never bare IndexError/struct.error (fuzz-pinned hardening)
    rng = np.random.default_rng(0)
    good = encode_jpeg(rng.integers(0, 256, (24, 24, 3), dtype=np.uint8))
    for i in range(2, len(good), 5):
        try:
            decode_jpeg(good[:i])
        except (JpegError, NotImplementedError):
            pass
    for seed in range(80):
        r = np.random.default_rng(seed)
        j = bytearray(good)
        for _ in range(4):
            j[r.integers(0, len(j))] = r.integers(0, 256)
        try:
            decode_jpeg(bytes(j))
        except (JpegError, NotImplementedError):
            pass
    for seed in range(60):
        r = np.random.default_rng(seed + 9999)
        blob = b"\xff\xd8" + r.integers(0, 256, 120, dtype=np.uint8).tobytes()
        try:
            decode_jpeg(blob, max_pixels=1 << 20)
        except (JpegError, NotImplementedError):
            pass


def test_huge_frame_rejected():
    import struct

    blob = (
        b"\xff\xd8\xff\xc0" + struct.pack(">HBHHB", 11, 8, 65535, 65535, 1)
        + struct.pack(">BBB", 1, 0x11, 0) + b"\xff\xd9"
    )
    with pytest.raises(JpegError):
        decode_jpeg(blob)


def test_image_reencode_stage(ray_session):
    import pyarrow as pa

    import ray.data as rd

    from lasutility_ray.stages.multimodal import (
        attach_images,
        decode_image,
        image_reencode_stage,
    )

    docs = rd.from_arrow(pa.table({"doc_id": pa.array(range(8), pa.int64())}))
    out = (
        image_reencode_stage(docs.map_batches(attach_images, batch_format="pyarrow"),
                             quality=90)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(out) == 8
    assert (out["jpeg_bytes"] > 0).all()
    assert (out["mae"] < 12).all()  # q=90 on noise stays bounded
    # the emitted payloads are decodable JPEGs with the source shape
    img = decode_image(bytes(out["image"][0])) if "image" in out else None
    back = decode_jpeg(bytes(out["image"][0])) if "image" in out else None


def test_image_dedup_across_containers(ray_session):
    import pyarrow as pa

    import ray.data as rd

    from lasutility_ray.geom.png import encode_grey_png
    from lasutility_ray.stages.multimodal import (
        HEADER,
        MAGIC,
        image_dedup,
        synth_image_bytes,
    )

    # docs 0..5: unique GRD1s; doc 6 = doc 0's PIXELS as a PNG; doc 7
    # = byte-identical copy of doc 1's GRD1
    grd = synth_image_bytes(np.arange(6))
    img0 = np.frombuffer(grd[0], np.uint8, offset=HEADER.size).reshape(32, 32)
    payloads = list(grd) + [encode_grey_png(img0, top_down=False), grd[1]]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(8), pa.int64()),
                "image": pa.array(payloads, pa.large_binary()),
            }
        )
    )
    out = image_dedup(ds).to_pandas()
    dups = out[out["n_copies"] > 1].sort_values("keep_id")
    assert len(out) == 6  # 8 payloads, 6 distinct pictures
    assert dups["keep_id"].tolist() == [0, 1]
    assert dups["n_copies"].tolist() == [2, 2]


def test_audio_dedup_across_containers(ray_session):
    import struct

    import pyarrow as pa

    import ray.data as rd

    from lasutility_ray.stages.multimodal import (
        AUDIO_HEADER,
        audio_dedup,
        synth_audio_bytes,
    )

    clips = synth_audio_bytes(np.arange(4))
    # doc 4 = doc 0's SAMPLES as a RIFF/WAV file
    rate, n = 8000, 1024
    pcm = clips[0][AUDIO_HEADER.size :]
    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)
    wav = (
        b"RIFF" + struct.pack("<I", 4 + 16 + 8 + len(pcm) + 8) + b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(pcm)) + pcm
    )
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(5), pa.int64()),
                "audio": pa.array(list(clips) + [wav], pa.large_binary()),
            }
        )
    )
    out = audio_dedup(ds).to_pandas()
    assert len(out) == 4
    dups = out[out["n_copies"] > 1]
    assert dups["keep_id"].tolist() == [0] and dups["n_copies"].tolist() == [2]


# ------------------------------------------------- progressive (SOF2)


def _structured(h, w, color, seed=5):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    base = (yy * 3 + xx * 2) % 256
    img = np.stack([base, (base * 2) % 256, 255 - base], -1) if color else base
    return np.clip(img + rng.integers(0, 30, img.shape), 0, 255).astype(np.uint8)


def test_progressive_matches_baseline_bit_for_bit():
    """The progressive scan ladder transmits every quantized
    coefficient bit, so decode(progressive) must equal
    decode(baseline) EXACTLY for the same image/quality/subsampling —
    the strongest internal consistency check available without foreign
    fixtures. Covers 4:4:4, 4:2:0, grey, odd sizes (MCU padding
    blocks: DC-coded, AC-skipped) and every scan type (DC first/refine
    interleaved, AC first/refine with EOB runs and ZRL)."""
    from lasutility_ray.geom.jpeg import (
        decode_jpeg, encode_jpeg, encode_jpeg_progressive,
    )

    cases = [
        (64, 64, True, "444"), (50, 37, True, "444"), (40, 40, False, "444"),
        (17, 9, False, "444"), (64, 48, True, "420"), (50, 37, True, "420"),
    ]
    for h, w, color, sub in cases:
        img = _structured(h, w, color)
        base = decode_jpeg(
            encode_jpeg(img, quality=80, subsample=sub if color else "444")
        )
        prog = decode_jpeg(
            encode_jpeg_progressive(img, quality=80, subsample=sub)
        )
        assert np.array_equal(base, prog), (h, w, color, sub)


def test_progressive_successive_approximation_ladder():
    """Deeper Al ladders (more refinement scans over the same band)
    still reconstruct the identical coefficients."""
    from lasutility_ray.geom.jpeg import (
        decode_jpeg, encode_jpeg, encode_jpeg_progressive,
    )

    img = _structured(48, 56, True)
    base = decode_jpeg(encode_jpeg(img, quality=70))
    for lv in (0, 1, 2, 4):
        prog = decode_jpeg(
            encode_jpeg_progressive(img, quality=70, al_levels=lv)
        )
        assert np.array_equal(base, prog), lv


def test_progressive_cross_block_eob_runs():
    """A near-flat low-quality image makes almost every AC block empty
    -> long cross-block EOB runs (and their buffered refinement bits)
    are actually exercised, including the 0x7FFF flush path on the
    encoder side of larger frames."""
    from lasutility_ray.geom.jpeg import (
        decode_jpeg, encode_jpeg, encode_jpeg_progressive,
    )

    img = np.full((128, 128), 130, np.uint8)
    img[5, 5] = 140  # one detail so not every scan is pure EOB
    base = decode_jpeg(encode_jpeg(img, quality=30))
    prog = decode_jpeg(encode_jpeg_progressive(img, quality=30))
    assert np.array_equal(base, prog)


def test_progressive_fuzz_truncation_and_corruption():
    """Malformed progressive streams raise JpegError (or the explicit
    NotImplementedError), never bare IndexError/struct.error."""
    from lasutility_ray.geom.jpeg import (
        JpegError, encode_jpeg_progressive, decode_jpeg,
    )

    img = _structured(32, 32, True)
    data = encode_jpeg_progressive(img, quality=75)
    decode_jpeg(data)  # sanity: intact stream decodes
    rng = np.random.default_rng(0)
    for cut in rng.integers(2, len(data) - 1, 60).tolist():
        try:
            decode_jpeg(data[:cut])
        except (JpegError, NotImplementedError):
            pass
    arr = bytearray(data)
    for _ in range(60):
        i = int(rng.integers(2, len(arr)))
        old = arr[i]
        arr[i] = int(rng.integers(0, 256))
        try:
            decode_jpeg(bytes(arr))
        except (JpegError, NotImplementedError):
            pass
        arr[i] = old
