"""Per-path uniform streams of :class:`cbve.SeedSpec`, many paths at once.

Path k of master seed m draws from ``default_rng(SeedSequence(m,
spawn_key=(k,)))``: a PCG64 generator (O'Neill 2014) seeded by numpy's
SeedSequence hash.  Building one such generator costs tens of
microseconds, so :class:`PCGStreams` evaluates both steps as numpy
operations over an array of path indices:

- SeedSequence's uint32 hash mix.  The master seed's words are mixed once
  in Python integers; only the spawn word, which is entropy-last, varies
  per path, and it enters through the final mixing loop.
- PCG64's seeding, its 128-bit LCG step on uint64 limbs and its XSL-RR
  output, with ``random()``'s 53-bit mapping to [0, 1).

A block of :data:`WIDTH` uniforms comes from the LCG jump-ahead.  With
``C_j = 1 + A + ... + A^(j-1)``, ``A^j - 1 = C_j (A - 1)``, so the j-th
state after ``s`` is ``s_j = s + C_j y`` with ``y = (A - 1) s + inc``:
one 128-bit product per row for ``y``, then one product by a constant per
uniform, and every block is one array evaluation.  The uniforms equal
``SeedSpec(m).generator(k).random()`` bit for bit, in order.  Path
indices must fit one uint32 word: larger ones change the length of
SeedSequence's entropy, which this mix does not model.
"""
from __future__ import annotations

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
#: run 1 << 13 beat 1 << 12 and 1 << 15 (the temporaries stay in cache)
_CHUNK = 1 << 13


def _words(n: int) -> list:
    """``n`` as little-endian uint32 words; 0 is one zero word."""
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


class _Hash:
    """SeedSequence's hashmix with its running constant.  Values may be
    Python ints or uint32 arrays; the constant is always a Python int."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value = (value * self.const) & _MASK32
        return value ^ (value >> 16)


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


def _split(c):
    """128-bit constants (an int or an object array of ints) as their
    uint64 limbs (hi, lo)."""
    return (np.asarray(c >> 64).astype(np.uint64),
            np.asarray(c & _MASK64).astype(np.uint64))


def _mul128(ah, al, bh, bl):
    """Product modulo 2^128 of 128-bit numbers held as uint64 limbs; the
    high word of ``al * bl`` comes from 32-bit partial products."""
    a0, a1, b0, b1 = al & _MASK32, al >> 32, bl & _MASK32, bl >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    mulhi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return mulhi + al * bh + ah * bl, al * bl


def _add128(ah, al, bh, bl):
    lo = al + bl
    return ah + bh + (lo < al), lo


def _jump_constants():
    """Limbs of C_j = 1 + A + ... + A^(j-1) for j = 1..WIDTH and of
    A - 1; read-only."""
    incf, c = [], 0
    for _ in range(WIDTH):
        c = (c * _PCG_MULT + 1) & _MASK128
        incf.append(c)
    limbs = [*_split(np.array(incf, dtype=object)), *_split(_PCG_MULT - 1)]
    for a in limbs:
        a.setflags(write=False)
    return limbs


_JUMPS = _jump_constants()


class PCGStreams:
    """PCG64 states of the ``SeedSpec(master_seed)`` streams of
    ``path_indices``; :meth:`block` draws the next :data:`WIDTH` uniforms
    of any subset of them."""

    def __init__(self, master_seed: int, path_indices):
        master_seed = int(master_seed)
        if master_seed < 0:
            raise ValueError("master seed must be nonnegative")
        spawn = np.asarray(path_indices, dtype=np.int64)
        if spawn.size and not (spawn.min() >= 0 and spawn.max() <= _MASK32):
            raise ValueError("path indices must lie in [0, 2**32 - 1]")
        pool, hashmix = _pool_prefix(master_seed)
        spawn = spawn.astype(np.uint32)
        pool = [_mix(p, hashmix(spawn)) for p in pool]
        # generate_state(4, uint64): eight words cycling over the pool
        draw = _Hash(_INIT_B, _MULT_B)
        words = [draw(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
        seed_hi, seed_lo, inc_hi, inc_lo = (words[i] | (words[i + 1] << 32)
                                            for i in range(0, 8, 2))
        self.inc = (inc_hi << 1) | (inc_lo >> 63), (inc_lo << 1) | 1
        # pcg64 srandom: state = inc; state += seed; one LCG step
        state = _add128(*self.inc, seed_hi, seed_lo)
        self.state = _add128(*_mul128(*state, *_split(_PCG_MULT)), *self.inc)

    def block(self, rows) -> np.ndarray:
        """The next :data:`WIDTH` uniforms of each stream in ``rows`` as a
        ``(rows.size, WIDTH)`` array; advances those streams past them."""
        step = _CHUNK // WIDTH
        if rows.size > step:
            # chunks keep the uint64 temporaries in cache
            return np.concatenate([self.block(rows[i:i + step])
                                   for i in range(0, rows.size, step)])
        ch, cl, mh, ml = _JUMPS
        sh, sl = (a[rows] for a in self.state)
        yh, yl = _add128(*_mul128(sh, sl, mh, ml), *(a[rows] for a in self.inc))
        # s_j = s + C_j y: the 32-bit halves are split from the (rows, 1)
        # column y and the WIDTH constants, only the products are full size
        sh, sl, yh, yl = sh[:, None], sl[:, None], yh[:, None], yl[:, None]
        hi, lo = _add128(sh, sl, *_mul128(yh, yl, ch, cl))
        self.state[0][rows], self.state[1][rows] = hi[:, -1], lo[:, -1]
        # XSL-RR output, then random()'s top 53 bits
        x = hi ^ lo
        rot = hi >> 58
        out = (x >> rot) | (x << ((64 - rot) & 63))
        return (out >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)
