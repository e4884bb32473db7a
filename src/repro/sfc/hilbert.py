"""Vectorized 3-D Peano-Hilbert key encoding and decoding.

24-state table-driven (Skilling's curve, bit-identical): the transpose
algorithm of "Programming the Hilbert curve" (AIP Conf. Proc. 707, 2004) is
a finite-state machine, (state, child octant) -> (key digit, next state),
its states numbered as first seen on the 2^5 grid, level by level in Morton
order.  Three levels make one 9-bit lookup, so a 63-bit key takes seven
passes over the Morton key of the input.  The curve gives the locality the
paper's domain decomposition relies on (Fig. 2): consecutive keys map to
face-adjacent grid cells, so an equal-key split gives compact domains.
"""

from __future__ import annotations

import numpy as np

from .morton import KEY_BITS_PER_DIM, morton_decode, morton_encode


def _table(rows: str) -> np.ndarray:
    """One word per state, one base-36 character per octant (x<<2|y<<1|z)."""
    return np.array([[int(c, 36) for c in word] for word in rows.split()])


_DIGIT = _table("01327645 07163425 01763245 61527043 43527061 45327601 "
                "07341625 03741265 47305621 03127465 47563021 67105423 "
                "43705261 45763201 61705243 65127403 21563047 67541023 "
                "23541067 25341607 25163407 65741203 21305647 23105467")
_NEXT = _table("12304560 789ab211 60cde212 fg339ah0 i544fg9a j54530kd "
               "9ah07866 0ld967c7 mhan868c 2f195749 gba18ia4 h6ncbeb1 "
               "ndlmcc78 kde2cdj5 lm78eeb2 3fkf0ld9 g3gkmhan b1h3i4h6 "
               "iji4h3nk jji5lmfg kkfgndlm el2fjl57 megbmj8i nkbencij")
#: The state that reaches 0 after 0, 1, 2 zero octants (key digit 0 each time).
_START = (0, 7, 1)


def _compose(out3: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Flat table: entry ``state << 9 | nine input bits`` holds
    ``next_state << 9 | nine output bits`` after three levels."""
    state, acc, chunk = np.arange(24)[:, None], 0, np.arange(512)
    for shift in (6, 3, 0):
        octant = (chunk >> shift) & 7
        acc, state = acc << 3 | out3[state, octant], nxt[state, octant]
    return (state << 9 | acc).astype(np.uint16).ravel()


_ENCODE = _compose(_DIGIT, _NEXT)
_OCTANT = np.argsort(_DIGIT, axis=1)
_DECODE = _compose(_OCTANT, np.take_along_axis(_NEXT, _OCTANT, axis=1))


def _walk(table: np.ndarray, src: np.ndarray, bits: int) -> np.ndarray:
    """Run ``3 * bits``-bit words through ``table``, nine bits a pass."""
    if not 1 <= bits <= KEY_BITS_PER_DIM:
        raise ValueError(f"bits must be in 1..{KEY_BITS_PER_DIM}, got {bits}")
    passes = -(-bits // 3)
    pad = 3 * passes - bits
    src = np.asarray(src, dtype=np.uint64).view(np.int64)  # take(): signed
    idx, nxt, out = np.empty_like(src), np.empty_like(src), np.zeros_like(src)
    entry, low = np.empty(src.shape, np.uint16), np.empty(src.shape, np.uint16)
    state, mask = _START[pad] << 9, 511 >> 3 * pad
    for shift in range(9 * (passes - 1), -1, -9):
        np.right_shift(src, shift, out=idx)
        np.bitwise_and(idx, mask, out=idx)
        np.bitwise_or(idx, state, out=idx)
        table.take(idx, out=entry, mode="clip")
        np.left_shift(out, 9, out=out)
        np.bitwise_or(out, np.bitwise_and(entry, 511, out=low), out=out)
        state, mask = np.bitwise_and(entry, 0xFE00, out=nxt), 511
    return out.view(np.uint64)[()]  # 0-d -> scalar, as the ufuncs do


def hilbert_encode(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray,
                   bits: int = KEY_BITS_PER_DIM) -> np.ndarray:
    """Encode integer grid coordinates into Peano-Hilbert keys.

    Parameters
    ----------
    ix, iy, iz:
        Integer coordinates in ``[0, 2**bits)``.
    bits:
        Bits of resolution per dimension, 1...21 (default 21, for 63-bit
        keys); anything else raises ``ValueError``.

    Returns
    -------
    numpy.ndarray of uint64 Hilbert indices in ``[0, 2**(3*bits))``.
    """
    return _walk(_ENCODE, morton_encode(ix, iy, iz), bits)


def hilbert_decode(key: np.ndarray,
                   bits: int = KEY_BITS_PER_DIM) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode Peano-Hilbert keys back into integer grid coordinates."""
    return morton_decode(_walk(_DECODE, key, bits))
