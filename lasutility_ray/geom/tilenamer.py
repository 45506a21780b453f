"""NLS (Finland ETRS-TM35FIN) hierarchical map-tile name codec.

Semantics match the reference ``LasUtility/Nls/TileNamer.cs``:
encode ``TileNamer.cs:314-481``, decode ``TileNamer.cs:82-304``.
Tile envelopes are half-open ``[min, max)`` (``TileNamer.cs:73``).

The tile name is the engine's partition / shuffle key; ``encode`` is
therefore fully vectorized over numpy arrays (it runs per batch inside
``map_batches``). ``decode`` is scalar + cached — it runs once per
tile (group key) inside ``map_groups``.

Name structure for a 1 km tile, e.g. ``V5211G2_1``:

===========  =========================  ==============================
chars        level (north-size)         split
===========  =========================  ==============================
``V``        96 km                      letters K..X northwards (no O)
``5``        96 km                      digit 2..6 eastwards
``2``,``1``  48 km, 24 km               quad ``2 4 / 1 3``
``1``        12 km                      quad (east-size 24 km)
``G``        6 km                       8-way ``B D F H / A C E G``
``2``        3 km                       quad
``_1``       1 km                       9-way ``3 6 9 / 2 5 8 / 1 4 7``
===========  =========================  ==============================

A 12 km name may instead end with ``L``/``R`` (terrain-db sheets, west
/ east half of the 24x12 km quad tile, ``TileNamer.cs:151-166``).
"""

from __future__ import annotations

import functools

import numpy as np

# Constants from TileNamer.cs:28-69 (NLS published grid).
START_MIN_EAST = -76000
START_MIN_NORTH = 6570000
START_SIZE_EAST = 192000
START_SIZE_NORTH = 96000
MIN_ALLOWED_EAST = 20000
MIN_ALLOWED_NORTH = START_MIN_NORTH
MAX_ALLOWED_EAST = START_MIN_EAST + 4 * START_SIZE_EAST  # 692000
MAX_ALLOWED_NORTH = START_MIN_NORTH + 13 * START_SIZE_NORTH  # 7818000

_NORTH_LETTERS = "KLMNPQRSTUVWX"  # CharsTowardsNorth96000, TileNamer.cs:8-11
_AH_LETTERS = "ABCDEFGH"  # A C E G bottom row, B D F H top row (TileNamer.cs:170-176)

SUPPORTED_SIZES = (1000, 3000, 6000, 12000, 24000, 48000, 96000)

# Byte LUTs for vectorized name assembly.
_NORTH_LETTER_LUT = np.frombuffer(_NORTH_LETTERS.encode(), dtype=np.uint8)
_AH_LUT = np.frombuffer(_AH_LETTERS.encode(), dtype=np.uint8)
_DIGIT0 = ord("0")


class TileNameError(ValueError):
    pass


def _quad_digit(e, n, min_e, min_n, half_e, half_n):
    """Quad split digit per TileNamer.cs:419-451: ``2 4 / 1 3``."""
    de = (e - min_e) // half_e
    dn = (n - min_n) // half_n
    return 1 + dn + 2 * de, de, dn


def encode(east, north, wanted_size_north: int) -> np.ndarray:
    """Vectorized tile-name encode (TileNamer.cs:314-481).

    Parameters are array-like float/int coordinates; returns an object
    array of python strings (ready for an Arrow string column). Raises
    ``TileNameError`` if any coordinate is out of the ETRS-TM35FIN
    envelope (reference throws, ``TileNamer.cs:320-323``) or the size
    is unsupported.
    """
    if wanted_size_north not in SUPPORTED_SIZES:
        raise TileNameError(f"unsupported tile size {wanted_size_north}")

    e = np.floor(np.asarray(east, dtype=np.float64)).astype(np.int64)
    n = np.floor(np.asarray(north, dtype=np.float64)).astype(np.int64)
    scalar = e.ndim == 0
    e = np.atleast_1d(e)
    n = np.atleast_1d(n)

    bad = (
        (e < MIN_ALLOWED_EAST)
        | (e >= MAX_ALLOWED_EAST)
        | (n < MIN_ALLOWED_NORTH)
        | (n >= MAX_ALLOWED_NORTH)
    )
    if bad.any():
        raise TileNameError(
            f"coordinates out of bounds: e.g. ({e[bad][0]}, {n[bad][0]})"
        )

    # Level 0: letter + digit (TileNamer.cs:326-332)
    i_n0 = (n - START_MIN_NORTH) // START_SIZE_NORTH
    i_e0 = (e - START_MIN_EAST) // START_SIZE_EAST
    min_e = START_MIN_EAST + i_e0 * START_SIZE_EAST
    min_n = START_MIN_NORTH + i_n0 * START_SIZE_NORTH

    # Name assembled as fixed-width uint8 columns, then trimmed per size.
    cols = [_NORTH_LETTER_LUT[i_n0], (i_e0 + 2 + _DIGIT0).astype(np.uint8)]

    size_e, size_n = START_SIZE_EAST, START_SIZE_NORTH
    if wanted_size_north < START_SIZE_NORTH:
        # Three normal quad splits: 96->48, 48->24, 24->12 (north sizes).
        for _ in range(3):
            size_e //= 2
            size_n //= 2
            d, de, dn = _quad_digit(e, n, min_e, min_n, size_e, size_n)
            cols.append((d + _DIGIT0).astype(np.uint8))
            min_e = min_e + de * size_e
            min_n = min_n + dn * size_n
            if wanted_size_north >= size_n:
                break

    if wanted_size_north == 12000 and size_n == 12000:
        # L/R terrain-db halves (TileNamer.cs:457-474)
        lr = (e - min_e) // 12000  # 0 -> L, 1 -> R within the 24 km quad tile
        cols.append(np.where(lr == 0, ord("L"), ord("R")).astype(np.uint8))
    elif wanted_size_north <= 6000 and size_n == 12000:
        # 8-way A-H split into 6x6 km (TileNamer.cs:352-380)
        idx_e = (e - min_e) // 6000  # 0..3
        idx_n = (n - min_n) // 6000  # 0..1
        cols.append(_AH_LUT[2 * idx_e + idx_n])
        min_e = min_e + idx_e * 6000
        min_n = min_n + idx_n * 6000
        if wanted_size_north < 6000:
            # quad 6 km -> 3 km
            d, de, dn = _quad_digit(e, n, min_e, min_n, 3000, 3000)
            cols.append((d + _DIGIT0).astype(np.uint8))
            min_e = min_e + de * 3000
            min_n = min_n + dn * 3000
            if wanted_size_north < 3000:
                # 9-way split into 1 km: "_" + digit, 3 6 9 / 2 5 8 / 1 4 7
                # (TileNamer.cs:382-415)
                idx_e = (e - min_e) // 1000  # 0..2
                idx_n = (n - min_n) // 1000  # 0..2
                cols.append(np.full(e.shape, ord("_"), dtype=np.uint8))
                cols.append((1 + idx_n + 3 * idx_e + _DIGIT0).astype(np.uint8))

    mat = np.stack(cols, axis=1)
    width = mat.shape[1]
    # Vectorized fixed-width-bytes -> unicode (no per-row python loop).
    out = np.frombuffer(mat.tobytes(), dtype=f"S{width}").astype(str)
    if scalar:
        return str(out[0])
    return out



@functools.lru_cache(maxsize=65536)
def decode(name: str) -> tuple[int, int, int, int]:
    """Scalar decode: tile name -> ``(min_e, min_n, max_e, max_n)``.

    Faithful port of ``TileNamer.cs:82-304`` including the three
    special cases (L/R 12 km halves, A-H 6 km tiles, _1.._9 1 km
    tiles) and its validation exceptions. Envelope is half-open.
    """
    if name is None or len(name) < 2:
        raise TileNameError("Input string is null or less than 2 chars long")

    s = name.upper()
    c = s[0]
    idx_n = _NORTH_LETTERS.find(c)
    if idx_n < 0:
        raise TileNameError("Map tile has invalid first letter")

    if not s[1].isdigit():
        raise TileNameError("Map tile name must continue with digit after the first char")
    idx_e = int(s[1])
    if idx_e < 2 or idx_e > 6:
        raise TileNameError("Digit must be between 2-6 on the second char on the map tile name")
    idx_e -= 2

    min_e = START_MIN_EAST + idx_e * START_SIZE_EAST
    min_n = START_MIN_NORTH + idx_n * START_SIZE_NORTH
    size_e = START_SIZE_EAST
    size_n = START_SIZE_NORTH

    i = 2
    while i < len(s):
        if size_n == 12000 and i == len(s) - 1 and s[i] in ("L", "R"):
            # terrain-db half sheets (TileNamer.cs:151-166)
            size_e //= 2
            if s[i] == "R":
                min_e += size_e
            i += 1
            continue
        if size_n == 12000:
            # A-H 6x6 km tiles (TileNamer.cs:168-207)
            size_e //= 4
            size_n //= 2
            ch = s[i]
            k = _AH_LETTERS.find(ch)
            if k < 0:
                raise TileNameError(
                    f"Tile name {name}, character should be between A-G at location {i}."
                )
            min_e += (k // 2) * size_e
            min_n += (k % 2) * size_n
        elif size_n == 3000:
            # _1.._9 1 km tiles (TileNamer.cs:209-267)
            size_e = 1000
            size_n = 1000
            if s[i] != "_":
                raise TileNameError(
                    f"Tile name {name} should contain an underscore at location {i}."
                )
            i += 1
            if i >= len(s) or not s[i].isdigit():
                raise TileNameError(
                    f"Tile name {name} should contain a digit at location {i}."
                )
            d = int(s[i])
            if d < 1 or d > 9:
                raise TileNameError(
                    f"Tile name {name} should contain a digit between 1-9 at location {i}."
                )
            min_e += ((d - 1) // 3) * 1000
            min_n += ((d - 1) % 3) * 1000
        else:
            # normal quad split (TileNamer.cs:269-301)
            size_e //= 2
            size_n //= 2
            if not s[i].isdigit():
                raise TileNameError(
                    f"Tile name {name} should have a digit at location {i}."
                )
            d = int(s[i])
            if d < 1 or d > 4:
                raise TileNameError(
                    f"Tile name {name} should have a digit value between 1-4 at location {i}."
                )
            if d in (3, 4):
                min_e += size_e
            if d in (2, 4):
                min_n += size_n
        i += 1

    return (min_e, min_n, min_e + size_e, min_n + size_n)


def decode_bounds(name: str):
    """Decode to a float tuple (min_e, min_n, max_e, max_n)."""
    return tuple(float(v) for v in decode(name))
