"""Tests for the Peano-Hilbert curve, including its locality property.

The production encoder/decoder is table-driven; Skilling's bit loop, which
it replaced, lives on here as the oracle the tables are compared against.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sfc import hilbert_decode, hilbert_encode
from repro.sfc import hilbert as table_driven
from repro.sfc.morton import (KEY_BITS_PER_DIM, compact_bits, morton_decode,
                              spread_bits)

_U = np.uint64


# -- the oracle: Skilling's transpose algorithm ("Programming the Hilbert
# -- curve", AIP Conf. Proc. 707, 2004), one full-array pass per bit and axis

def _where_u64(cond, a, b):
    return np.where(cond, _U(a), _U(b)).astype(np.uint64, copy=False)


def skilling_encode(ix, iy, iz, bits=KEY_BITS_PER_DIM):
    x = [np.array(np.asarray(c, dtype=np.uint64), copy=True) for c in (ix, iy, iz)]
    mask = _U((1 << bits) - 1)
    for c in x:
        c &= mask

    # Inverse undo excess work (Skilling's AxestoTranspose, first loop).
    q = _U(1) << _U(bits - 1)
    while q > _U(1):
        p = q - _U(1)
        for i in range(3):
            hi = (x[i] & q) != 0
            # Branch 1 (bit set): invert low bits of x[0].
            x[0] ^= _where_u64(hi, p, 0)
            # Branch 2 (bit clear): exchange low bits of x[0] and x[i].
            t = (x[0] ^ x[i]) & _where_u64(hi, 0, p)
            x[0] ^= t
            x[i] ^= t
        q >>= _U(1)

    # Gray encode.
    x[1] ^= x[0]
    x[2] ^= x[1]
    t = np.zeros_like(x[0])
    q = _U(1) << _U(bits - 1)
    while q > _U(1):
        t ^= _where_u64((x[2] & q) != 0, int(q) - 1, 0)
        q >>= _U(1)
    for i in range(3):
        x[i] ^= t

    # Interleave the transposed form: bit j of x[0] is key bit 3j+2, etc.
    return (spread_bits(x[0]) << _U(2)) | (spread_bits(x[1]) << _U(1)) | spread_bits(x[2])


def skilling_decode(key, bits=KEY_BITS_PER_DIM):
    key = np.asarray(key, dtype=np.uint64)
    x = [compact_bits(key >> _U(2)),
         compact_bits(key >> _U(1)),
         compact_bits(key)]

    n = _U(1) << _U(bits)

    # Gray decode by H ^ (H/2) (Skilling's TransposetoAxes, first part).
    t = x[2] >> _U(1)
    for i in (2, 1):
        x[i] ^= x[i - 1]
    x[0] ^= t

    # Undo excess work.
    q = _U(2)
    while q != n:
        p = q - _U(1)
        for i in (2, 1, 0):
            hi = (x[i] & q) != 0
            x[0] ^= _where_u64(hi, p, 0)
            t = (x[0] ^ x[i]) & _where_u64(hi, 0, p)
            x[0] ^= t
            x[i] ^= t
        q <<= _U(1)

    return x[0], x[1], x[2]


def _morton_grid(bits: int):
    """Every point of the 2^bits grid, in Morton order."""
    return morton_decode(np.arange(8 ** bits, dtype=np.uint64))


def _assert_same(got, want):
    for a, b in zip(got, want):
        assert a.dtype == np.uint64 and np.array_equal(a, b)


def _full_curve(bits: int):
    n = 1 << bits
    g = np.arange(n, dtype=np.uint64)
    X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
    coords = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    keys = hilbert_encode(coords[:, 0], coords[:, 1], coords[:, 2], bits=bits)
    return coords, keys


def test_roundtrip_random_full_depth():
    rng = np.random.default_rng(1)
    coords = [rng.integers(0, 2 ** 21, 5000, dtype=np.uint64) for _ in range(3)]
    out = hilbert_decode(hilbert_encode(*coords))
    for a, b in zip(out, coords):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_bijective_on_full_grid(bits):
    _, keys = _full_curve(bits)
    n = 1 << bits
    assert len(np.unique(keys)) == n ** 3
    assert keys.min() == 0
    assert keys.max() == n ** 3 - 1


@pytest.mark.parametrize("bits", [2, 3, 4])
def test_adjacency(bits):
    """The defining Hilbert property: consecutive indices are neighbours."""
    coords, keys = _full_curve(bits)
    order = np.argsort(keys)
    walk = coords[order].astype(np.int64)
    step = np.abs(np.diff(walk, axis=0)).sum(axis=1)
    assert step.max() == 1


def test_prefix_denotes_octant():
    """Grouping keys by their top 3 bits must split the cube into the
    8 spatial octants -- the property the octree build relies on."""
    bits = 4
    coords, keys = _full_curve(bits)
    top = keys >> np.uint64(3 * (bits - 1))
    half = np.uint64(1 << (bits - 1))
    octant = ((coords[:, 0] >= half).astype(int) * 4
              + (coords[:, 1] >= half).astype(int) * 2
              + (coords[:, 2] >= half).astype(int))
    # Each key-prefix class must map to exactly one spatial octant.
    for t in range(8):
        sel = top == t
        assert len(np.unique(octant[sel])) == 1


def test_locality_beats_morton_on_average():
    """Average key distance of spatial neighbours should be smaller for
    Hilbert than for Morton ordering (why the paper picked PH-SFC)."""
    from repro.sfc import morton_encode
    bits = 4
    coords, hk = _full_curve(bits)
    mk = morton_encode(coords[:, 0], coords[:, 1], coords[:, 2])
    # x-neighbour pairs
    n = 1 << bits
    sel = coords[:, 0] < n - 1
    a = np.flatnonzero(sel)
    b = a + n * n  # +1 in x given ij-order raveling
    dh = np.abs(hk[a].astype(np.int64) - hk[b].astype(np.int64))
    dm = np.abs(mk[a].astype(np.float64) - mk[b].astype(np.float64))
    assert dh.mean() < dm.mean()


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.uint64, st.integers(1, 50),
                  elements=st.integers(0, 2 ** 21 - 1)),
       hnp.arrays(np.uint64, 1, elements=st.integers(0, 2 ** 21 - 1)))
def test_property_roundtrip(xs, seed):
    """Hypothesis: encode/decode is the identity for any coordinates."""
    ys = np.roll(xs, 1) ^ seed[0]
    zs = (xs + seed[0]) & np.uint64(2 ** 21 - 1)
    ys &= np.uint64(2 ** 21 - 1)
    out = hilbert_decode(hilbert_encode(xs, ys, zs))
    assert np.array_equal(out[0], xs)
    assert np.array_equal(out[1], ys)
    assert np.array_equal(out[2], zs)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 12 - 2))
def test_property_adjacency_full_depth_segments(start):
    """Hypothesis: consecutive Hilbert indices decode to adjacent cells,
    checked on random segments of the 2^12-cell curve."""
    bits = 4
    keys = np.array([start, start + 1], dtype=np.uint64)
    x, y, z = hilbert_decode(keys, bits=bits)
    d = (abs(int(x[1]) - int(x[0])) + abs(int(y[1]) - int(y[0]))
         + abs(int(z[1]) - int(z[0])))
    assert d == 1


# -- the table-driven encoder/decoder against the oracle ------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, KEY_BITS_PER_DIM), st.data())
def test_property_matches_skilling_oracle_every_bits(bits, data):
    coords = data.draw(hnp.arrays(np.uint64, (3, data.draw(st.integers(1, 40))),
                                  elements=st.integers(0, 2 ** bits - 1)))
    keys = hilbert_encode(*coords, bits=bits)
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, skilling_encode(*coords, bits=bits))
    _assert_same(hilbert_decode(keys, bits=bits), skilling_decode(keys, bits=bits))
    _assert_same(hilbert_decode(keys, bits=bits), coords)


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_matches_skilling_oracle_on_full_grid(bits):
    coords = _morton_grid(bits)
    keys = skilling_encode(*coords, bits=bits)
    assert np.array_equal(hilbert_encode(*coords, bits=bits), keys)
    _assert_same(hilbert_decode(keys, bits=bits), coords)


@pytest.mark.parametrize("bits", range(1, KEY_BITS_PER_DIM + 1))
def test_matches_skilling_oracle_on_corners_and_random(bits):
    """The 125 corner/edge combinations, then 20 k random triples; inputs
    past 2^bits are masked to range by both."""
    edge = np.array([0, 1, 2 ** 20 - 1, 2 ** 20, 2 ** 21 - 1], dtype=np.uint64)
    corners = np.stack(np.meshgrid(edge, edge, edge, indexing="ij")).reshape(3, -1)
    rng = np.random.default_rng(bits)
    for coords in (corners, rng.integers(0, 2 ** bits, (3, 20_000), dtype=np.uint64)):
        keys = skilling_encode(*coords, bits=bits)
        assert np.array_equal(hilbert_encode(*coords, bits=bits), keys)
        _assert_same(hilbert_decode(keys, bits=bits), skilling_decode(keys, bits=bits))


@pytest.mark.parametrize("level", range(KEY_BITS_PER_DIM + 1))
def test_decode_of_truncated_cell_keys_matches_oracle(level):
    """`cell_geometry`'s input: a level-L prefix shifted to full depth."""
    rng = np.random.default_rng(level)
    shift = _U(3 * (KEY_BITS_PER_DIM - level))
    keys = rng.integers(0, 2 ** 63, 2000, dtype=np.uint64) >> shift << shift
    _assert_same(hilbert_decode(keys), skilling_decode(keys))


def test_state_tables_rederived_from_oracle():
    """The two 24 x 8 literals are what Skilling's curve gives: a state is a
    node's octant -> key-digit map, numbered as first seen walking the 2^5
    grid (the smallest with all 24 states above its last level) level by
    level, nodes in Morton order."""
    bits = 5
    keys = skilling_encode(*_morton_grid(bits), bits=bits)
    digit_of = []                       # per level: (8^L nodes, 8 octants)
    for level in range(bits):
        below = bits - level - 1
        digit = keys[:: 8 ** below] >> _U(3 * below) & _U(7)
        digit_of.append(digit.astype(int).reshape(-1, 8))
    number, digits, nexts = {}, [], []

    def state(row):
        if tuple(row) not in number:
            number[tuple(row)] = len(number)
            digits.append(list(row))
            nexts.append([None] * 8)
        return number[tuple(row)]

    for level in range(bits - 1):
        for node, row in enumerate(digit_of[level]):
            s = state(row)
            for octant in range(8):
                child = state(digit_of[level + 1][8 * node + octant])
                assert nexts[s][octant] in (None, child)   # a function of s
                nexts[s][octant] = child
    assert len(number) == 24
    assert np.array_equal(table_driven._DIGIT, digits)
    assert np.array_equal(table_driven._NEXT, nexts)
    # Leading zero octants emit digit 0 and cycle back to the initial state.
    cycle = [0, nexts[0][0], nexts[nexts[0][0]][0]]
    assert nexts[cycle[2]][0] == 0 and all(digits[s][0] == 0 for s in cycle)
    assert table_driven._START == (0, cycle[2], cycle[1])


@pytest.mark.parametrize("bits", [0, -1, KEY_BITS_PER_DIM + 1])
def test_bits_out_of_range_rejected(bits):
    x = np.array([2 ** 21], dtype=np.uint64)    # bits=22 used to give key 0
    with pytest.raises(ValueError, match="bits"):
        hilbert_encode(x, x, x, bits=bits)
    with pytest.raises(ValueError, match="bits"):
        hilbert_decode(x, bits=bits)


def test_scalar_and_zero_dim_inputs():
    assert hilbert_encode(1, 2, 3) == 48
    assert hilbert_encode(*np.array([1, 2, 3], dtype=np.uint64)) == 48
    assert hilbert_encode(np.array(1), np.array(2), np.array(3)) == 48
    assert tuple(int(c) for c in hilbert_decode(48)) == (1, 2, 3)
    assert tuple(int(c) for c in hilbert_decode(np.array(48, dtype=np.uint64))) == (1, 2, 3)
    assert len(hilbert_encode(*np.empty((3, 0), dtype=np.uint64))) == 0


def test_non_contiguous_inputs():
    """`grid_coordinates` hands over the column views of one (N, 3) array."""
    rng = np.random.default_rng(5)
    ijk = rng.integers(0, 2 ** 21, (500, 3), dtype=np.uint64)
    cols = ijk[:, 0], ijk[:, 1], ijk[:, 2]
    assert not cols[0].flags.c_contiguous
    keys = hilbert_encode(*cols)
    assert np.array_equal(keys, hilbert_encode(*(c.copy() for c in cols)))
    assert np.array_equal(ijk, ijk.copy())          # inputs left alone
    wide = np.repeat(keys, 2)
    _assert_same(hilbert_decode(wide[::2]), cols)


def test_tree_geometry_and_domain_boundaries_bitwise_as_before():
    """Pinned from the Skilling-loop encoder (the commit before the tables)."""
    from repro.octree import build_octree
    from repro.parallel import domain_update
    from repro.sfc import BoundingBox
    from repro.simmpi import spmd_run

    pos = np.random.default_rng(15).normal(size=(3000, 3)) * [4.0, 4.0, 0.5]
    tree = build_octree(pos, nleaf=16)
    assert len(tree.center) == 715
    assert hashlib.sha256(tree.center.tobytes() + tree.half.tobytes()).hexdigest() == \
        "3f9d45b86acee96a4a3cc03f848f113871995f3a2f656603b8a750a8cba07066"

    box = BoundingBox.from_positions(pos)

    def prog(comm):
        keys = np.sort(box.keys(pos[comm.rank::2]))
        return domain_update(comm, keys).boundaries

    for boundaries in spmd_run(2, prog, timeout=60.0):
        assert boundaries.tolist() == [0, 5620148539120799816, 2 ** 64 - 1]
