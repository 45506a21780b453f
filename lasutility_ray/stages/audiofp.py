"""Audio near-duplicate detection by spectral-peak CONSTELLATION
fingerprints (the Shazam scheme, Wang 2003, "An Industrial-Strength
Audio Search Algorithm"): spectrogram local-maximum peaks are paired
(anchor -> targets in a short forward window) into (f1, f2, dt)
landmark hashes; two clips are near-duplicates when they share many
hashes at a CONSISTENT relative time offset. Robust to what breaks
exact PCM hashing (``multimodal.audio_dedup``): amplitude scaling
(log-power peaks are scale-invariant), container changes, and time
shifts (dt is shift-invariant; the offset-histogram vote absorbs the
global shift).

Ray shape: fingerprint extraction is a task-based map (per-clip
numpy FFT); matching is ONE hash-keyed groupby whose per-hash fan-out is
bounded (landmark hashes are near-unique — 2^20 space vs peaks/clip
in the tens), then an (a, b, offset) coarse-bucket count with a
``min_matches`` vote. No all-pairs stage anywhere: candidate volume
scales with hash collisions, not clips^2. Rows-only (FFT has no SQL
mirror); planted shifted/rescaled copies are pytest-pinned with
measured margins."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

FAN_DT = 6  # anchor pairs with peaks <= 6 frames ahead
PEAKS_PER_FRAME = 3  # strongest local maxima kept per frame
POWER_FLOOR = -5.0  # log10 power threshold: silence/padding emits no peaks
# aligned-landmark votes to call a near-dup: on the 500-clip fixture
# the planted shifted+rescaled copies score >= 154 aligned votes and
# the MAX across all ~125k distinct pairs is 5 (chance collisions at
# one offset) — 20 sits an order of magnitude inside both margins
MIN_MATCHES = 20


def _spectrogram_bins(pcm: np.ndarray, n_fft: int = 256, hop: int = 128):
    """(frames x bins) log10 |rfft|^2 of an int16 mono clip (full
    linear bins — constellation hashes need the 129-bin resolution,
    not the 16-mel summary of ``multimodal.log_mel_spectrogram``)."""
    x = pcm.astype(np.float64) / 32768.0
    if len(x) < n_fft:
        x = np.pad(x, (0, n_fft - len(x)))
    n_frames = 1 + (len(x) - n_fft) // hop
    frames = np.lib.stride_tricks.as_strided(
        x, shape=(n_frames, n_fft), strides=(x.strides[0] * hop, x.strides[0])
    )
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)
    return np.log10(1e-10 + np.abs(np.fft.rfft(frames * win, axis=1)) ** 2)


def _peaks(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, f) spectral peaks: strict local maxima over the 3x3
    time-frequency neighborhood, above the absolute power floor."""
    best = np.full_like(S, -np.inf)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            sh = np.full_like(S, -np.inf)
            src = S[
                max(0, -di) : S.shape[0] - max(0, di),
                max(0, -dj) : S.shape[1] - max(0, dj),
            ]
            sh[
                max(0, di) : S.shape[0] - max(0, -di),
                max(0, dj) : S.shape[1] - max(0, -dj),
            ] = src
            best = np.maximum(best, sh)
    mask = (S > best) & (S > POWER_FLOOR)
    # keep only the PEAKS_PER_FRAME strongest per frame: noise-like
    # spectra are peak-dense, and landmark selectivity (hence the
    # false-positive floor) depends on constellation sparsity
    masked = np.where(mask, S, -np.inf)
    if S.shape[1] > PEAKS_PER_FRAME:
        kth = np.partition(masked, -PEAKS_PER_FRAME, axis=1)[
            :, -PEAKS_PER_FRAME
        ]
        mask &= masked >= kth[:, None]
    t, f = np.nonzero(mask)
    return t.astype(np.int64), f.astype(np.int64)


def clip_fingerprints(pcm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hashes, anchor_times): landmark hash f1<<12 | f2<<4 | dt for
    every (anchor, target) peak pair with 0 < dt <= FAN_DT."""
    t, f = _peaks(_spectrogram_bins(pcm))
    if len(t) < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    # peaks arrive time-sorted from nonzero(); pair by time window
    hi = np.searchsorted(t, t + FAN_DT, side="right")
    lo = np.searchsorted(t, t, side="right")  # strictly-later targets
    n = hi - lo
    tot = int(n.sum())
    if tot == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ai = np.repeat(np.arange(len(t)), n)
    off = np.arange(tot, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(n)[:-1])), n
    )
    bi = np.repeat(lo, n) + off
    h = (f[ai] << 12) | (f[bi] << 4) | (t[bi] - t[ai])
    return h, t[ai]


def attach_audio_neardups(batch: pa.Table, doc_col: str = "doc_id") -> pa.Table:
    """Test/bench harness: every 10th doc's clip is its predecessor's
    PCM prepended with one hop of silence and rescaled 0.9x — a true
    NEAR duplicate (different bytes AND different sample count, so
    both exact byte and canonical-PCM hashing miss it; the
    constellation's offset vote finds it)."""
    from .multimodal import AUDIO_HEADER, AUDIO_MAGIC, synth_audio_bytes

    ids = batch.column(doc_col).to_numpy()
    clips = synth_audio_bytes(ids)
    for i, d in enumerate(ids.tolist()):
        if d % 10 == 9:
            rng = np.random.default_rng((d - 1) ^ 0xA0D10)
            pcm = rng.integers(-(1 << 15), 1 << 15, 1024, dtype=np.int16)
            shifted = np.concatenate(
                [np.zeros(128, np.int16), (pcm * 0.9).astype(np.int16)]
            )
            clips[i] = (
                AUDIO_HEADER.pack(AUDIO_MAGIC, 8000, len(shifted))
                + shifted.tobytes()
            )
    return batch.append_column("audio", pa.array(clips, pa.large_binary()))


class AudioFingerprints:
    """Batch stage: clips -> (id, fp_hash, t1) landmark rows."""

    def __init__(self, id_col: str = "doc_id", audio_col: str = "audio"):
        self._id, self._audio = id_col, audio_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .multimodal import decode_audio

        ids = batch.column(self._id).to_numpy()
        out_h, out_t, out_id = [], [], []
        for d, data in zip(ids.tolist(), batch.column(self._audio).to_pylist()):
            _, pcm = decode_audio(data)
            h, t1 = clip_fingerprints(pcm)
            out_h.append(h)
            out_t.append(t1)
            out_id.append(np.full(len(h), d, np.int64))
        cat = lambda xs: (  # noqa: E731
            np.concatenate(xs) if xs else np.empty(0, np.int64)
        )
        return pa.table(
            {
                "id": pa.array(cat(out_id), pa.int64()),
                "fp": pa.array(cat(out_h), pa.int64()),
                "t1": pa.array(cat(out_t), pa.int64()),
            }
        )


def audio_neardup_pairs(
    clips_ds,
    id_col: str = "doc_id",
    audio_col: str = "audio",
    min_matches: int = MIN_MATCHES,
    batch_size: int = 256,
):
    """(a, b, n_aligned) for clip pairs sharing >= min_matches
    landmark hashes at one consistent relative offset (a < b)."""
    from .cogroup import default_n_buckets
    from .dedup import _pair_indices

    fp = clips_ds.map_batches(
        AudioFingerprints(id_col, audio_col), batch_format="pyarrow", batch_size=batch_size
    )

    def hash_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # per-hash candidate pairs with their time offset; fan-out is
        # bounded by the landmark space (collisions co-group only)
        sub = g.sort_values(["fp", "id", "t1"], kind="mergesort")
        fph = sub["fp"].to_numpy()
        ids = sub["id"].to_numpy()
        t1 = sub["t1"].to_numpy()
        new = np.ones(len(sub), bool)
        new[1:] = fph[1:] != fph[:-1]
        ai, bi = _pair_indices(new)
        if len(ai) == 0:
            return pd.DataFrame({"a": [], "b": [], "off": []}, dtype=np.int64)
        keep = ids[ai] != ids[bi]
        ai, bi = ai[keep], bi[keep]
        a, b = ids[ai], ids[bi]
        off = t1[ai] - t1[bi]
        swap = a > b
        a2 = np.where(swap, b, a)
        b2 = np.where(swap, a, b)
        off = np.where(swap, -off, off)
        return pd.DataFrame({"a": a2, "b": b2, "off": off})

    nb = default_n_buckets()

    def tag_fp(t: pa.Table) -> pa.Table:
        h = t.column("fp").to_numpy().astype(np.uint64) * np.uint64(
            0x9E3779B97F4A7C15
        )
        return t.append_column(
            "__fpb",
            pa.array(((h >> np.uint64(33)) % np.uint64(nb)).astype(np.int64)),
        )

    def tag(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy().astype(np.uint64)
        b = t.column("b").to_numpy().astype(np.uint64)
        h = a * np.uint64(0x9E3779B97F4A7C15) ^ b * np.uint64(0xC2B2AE3D27D4EB4F)
        return t.append_column(
            "__bucket",
            pa.array(((h >> np.uint64(33)) % np.uint64(nb)).astype(np.int64)),
        )

    def vote(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (
            g.groupby(["a", "b", "off"], sort=False)
            .size()
            .reset_index(name="n")
            .groupby(["a", "b"], sort=False)["n"]
            .max()
            .reset_index(name="n_aligned")
        )
        cnt = cnt[cnt["n_aligned"] >= min_matches]
        return cnt.astype(
            {"a": np.int64, "b": np.int64, "n_aligned": np.int64}
        )

    return (
        fp.map_batches(tag_fp, batch_format="pyarrow")
        .groupby("__fpb")
        .map_groups(hash_pairs, batch_format="pandas")
        .map_batches(tag, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(vote, batch_format="pandas")
    )
