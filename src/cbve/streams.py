"""Per-path uniform streams of :class:`cbve.SeedSpec`, many paths at once.

Path k of master seed m draws from ``default_rng(SeedSequence(m,
spawn_key=(k,)))``: a PCG64 generator (O'Neill 2014) seeded by numpy's
SeedSequence hash.  Building one such generator costs tens of
microseconds, so :class:`PCGStreams` evaluates both steps as numpy
operations over an array of path indices:

- SeedSequence's uint32 hash mix.  The master seed's words are mixed once
  in Python integers; only the spawn word, which is entropy-last, varies
  per path, and it enters through the final mixing loop.  The hash
  constants are advanced in Python integers first, so the loop's four
  hashes of the spawn word are one pass over a ``(4, n)`` array, and
  ``generate_state``'s eight hashes one pass over an ``(8, n)`` array.
- PCG64's seeding, its 128-bit LCG step on uint64 limbs and its XSL-RR
  output, with ``random()``'s 53-bit mapping to [0, 1).

A block of :data:`WIDTH` uniforms comes from the LCG jump-ahead.  With
``C_j = 1 + A + ... + A^(j-1)``, ``A^j - 1 = C_j (A - 1)``, so the j-th
state after ``s`` is ``s_j = s + C_j y`` with ``y = (A - 1) s + inc``:
one 128-bit product per row for ``y``, then one product by a constant per
uniform, and every block is one array evaluation.  The ``C_j`` limbs and
their 32-bit halves are held as read-only ``(rows, WIDTH)`` tiles, and
each row value (``y``, its halves and ``s``) is repeated to full size
once, so that all 30 full-size uint64 operations of a block, the repeat
included, read contiguous operands: one with a broadcast ``(rows, 1)``
operand costs about three times as much.  The uniforms equal
``SeedSpec(m).generator(k).random()`` bit for bit, in order.  Path
indices must fit one uint32 word: larger ones change the length of
SeedSequence's entropy, which this mix does not model.
"""
from __future__ import annotations

import operator

import numpy as np

__all__ = ["PCGStreams", "WIDTH"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: uniforms per stream block
WIDTH = 32
#: uniforms per array pass of :meth:`PCGStreams.block`; inside a Monte-Carlo
#: run 1 << 13 beat 1 << 11, 1 << 12, 1 << 14 and 1 << 15 (the temporaries
#: stay in cache), though a lone 1,000-path first fill is 9-12% faster at
#: 1 << 14 and 1 << 15
_CHUNK = 1 << 13
_ROWS = _CHUNK // WIDTH


def _master_seed(seed) -> int:
    """``seed`` as a master seed: an int (not a bool) of at least 0, or
    ``ValueError``."""
    try:
        master = operator.index(seed)
    except TypeError:
        master = -1
    if master < 0 or isinstance(seed, bool):
        raise ValueError("seed must be a nonnegative integer")
    return master


def _spawn_words(path_indices) -> np.ndarray:
    """``path_indices`` as uint32 spawn words, or ``ValueError`` unless
    they are a 1-D integer array in [0, 2**32 - 1]."""
    spawn = np.asarray(path_indices)
    if spawn.ndim != 1 or spawn.dtype.kind not in "iu":
        raise ValueError("path indices must be a 1-D integer array")
    if spawn.size and not (spawn.min() >= 0 and spawn.max() <= _MASK32):
        raise ValueError("path indices must lie in [0, 2**32 - 1]")
    return spawn.astype(np.uint32)


def _words(n: int) -> list:
    """``n`` as little-endian uint32 words; 0 is one zero word."""
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


class _Hash:
    """SeedSequence's hashmix on Python ints, with its running constant."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value: int) -> int:
        value ^= self.const
        self.const = (self.const * self.mult) & _MASK32
        value = (value * self.const) & _MASK32
        return value ^ (value >> 16)

    def rows(self, values: np.ndarray) -> np.ndarray:
        """The next ``len(values)`` hashes, one per row of the uint32
        array ``values``, as one array pass."""
        consts = [self.const]
        for _ in range(len(values)):
            consts.append((consts[-1] * self.mult) & _MASK32)
        self.const = consts[-1]
        consts = np.array(consts, np.uint32)[:, None]
        out = values ^ consts[:-1]
        out *= consts[1:]
        out ^= out >> 16
        return out


def _mix(x, y):
    result = (((_MIX_L * x) & _MASK32) - ((_MIX_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _pool_prefix(master_seed: int):
    """Pool and hash state after mixing every entropy word but the spawn
    word: the part of SeedSequence's ``mix_entropy`` shared by all paths."""
    run = _words(master_seed)
    run += [0] * (_POOL - len(run))  # a spawn key pads the run entropy
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in run[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in run[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(w))
    return pool, hashmix


def _mulhi(a0, a1, b0, b1):
    """High word of the 64x64-bit product of ``a = a1 2^32 + a0`` and
    ``b = b1 2^32 + b0`` from their 32-bit halves, uint64 arrays (ints
    for ``b`` too); no partial sum passes 2^64 (Warren, Hacker's Delight
    8-2)."""
    t = a0 * b0
    t >>= 32
    u = a1 * b0
    u += t
    w = a0 * b1
    w += np.bitwise_and(u, _MASK32, out=t)
    u >>= 32
    w >>= 32
    hi = a1 * b1
    hi += u
    hi += w
    return hi


def _mul128(ah, al, b: int):
    """Product modulo 2^128 of 128-bit numbers held as uint64 limbs
    ``(ah, al)`` and the constant ``b``, as limbs."""
    bh, bl = b >> 64, b & _MASK64
    hi = _mulhi(al & _MASK32, al >> 32, bl & _MASK32, bl >> 32)
    hi += al * bh
    hi += ah * bl
    return hi, al * bl


def _add128(ah, al, bh, bl):
    lo = al + bl
    return ah + bh + (lo < al), lo


def _jump_tiles():
    """The limbs of C_j = 1 + A + ... + A^(j-1), j = 1..WIDTH, and the
    halves of the low limb, ``(hi, lo, lo & 2^32 - 1, lo >> 32)``, each
    repeated to a read-only ``(_ROWS, WIDTH)`` tile."""
    incf, c = [], 0
    for _ in range(WIDTH):
        c = (c * _PCG_MULT + 1) & _MASK128
        incf.append(c)
    lo = [c & _MASK64 for c in incf]
    limbs = [[c >> 64 for c in incf], lo, [c & _MASK32 for c in lo], [c >> 32 for c in lo]]
    tiles = np.repeat(np.array(limbs, np.uint64)[:, None, :], _ROWS, axis=1)
    tiles.setflags(write=False)
    return tiles


_TILES = _jump_tiles()


class PCGStreams:
    """PCG64 states of the ``SeedSpec(master_seed)`` streams of
    ``path_indices``; :meth:`block` draws the next :data:`WIDTH` uniforms
    of any subset of them.  A negative or non-integer master seed, or path
    indices that are not a 1-D integer array in [0, 2**32 - 1], raise
    ``ValueError``."""

    def __init__(self, master_seed: int, path_indices):
        pool, hashmix = _pool_prefix(_master_seed(master_seed))
        spawn = _spawn_words(path_indices)
        # the pool loop's last pass, pool[dst] = _mix(pool[dst], hashmix(spawn))
        # for dst = 0..3, in uint32 arithmetic, which wraps as _mix masks
        pool = np.array([(_MIX_L * p) & _MASK32 for p in pool], np.uint32)[:, None]
        pool = pool - hashmix.rows(np.broadcast_to(spawn, (_POOL, spawn.size))) * _MIX_R
        pool ^= pool >> 16
        # generate_state(4, uint64): eight words cycling over the pool
        words = _Hash(_INIT_B, _MULT_B).rows(np.concatenate([pool, pool])).astype(np.uint64)
        seed_hi, seed_lo, inc_hi, inc_lo = words[0::2] | (words[1::2] << 32)
        self.inc = (inc_hi << 1) | (inc_lo >> 63), (inc_lo << 1) | 1
        # pcg64 srandom: state = inc; state += seed; one LCG step
        state = _add128(*self.inc, seed_hi, seed_lo)
        self.state = _add128(*_mul128(*state, _PCG_MULT), *self.inc)

    def block(self, rows) -> np.ndarray:
        """The next :data:`WIDTH` uniforms of each stream in ``rows`` as a
        ``(rows.size, WIDTH)`` array; advances those streams past them."""
        n = rows.size
        if n > _ROWS:
            # chunks keep the uint64 temporaries in cache
            return np.concatenate([self.block(rows[i:i + _ROWS])
                                   for i in range(0, n, _ROWS)])
        sh, sl = (a[rows] for a in self.state)
        yh, yl = _add128(*_mul128(sh, sl, _PCG_MULT - 1), *(a[rows] for a in self.inc))
        # s_j = s + C_j y: each row value is repeated to full size once
        yh, yl, y0, y1, sh, sl = np.repeat(
            np.array([yh, yl, yl & _MASK32, yl >> 32, sh, sl]), WIDTH,
            axis=1).reshape(6, n, WIDTH)
        ch, cl, c0, c1 = _TILES[:, :n]
        hi = _mulhi(y0, y1, c0, c1)
        lo = yl * cl
        hi += np.multiply(yl, ch, out=yl)
        hi += np.multiply(yh, cl, out=yh)
        lo += sl
        hi += sh
        hi += lo < sl
        self.state[0][rows], self.state[1][rows] = hi[:, -1], lo[:, -1]
        # XSL-RR output, then random()'s top 53 bits; numpy shifts a uint64
        # left by 64 to 0, so a rotation by 0 needs no mask
        x = np.bitwise_xor(hi, lo, out=lo)
        rot = np.right_shift(hi, 58, out=hi)
        out = x >> rot
        x <<= np.subtract(64, rot, out=rot)
        out |= x
        out >>= 11
        return np.multiply(out, 1.0 / 9007199254740992.0)
