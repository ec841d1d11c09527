"""numpy's default_rng(seed).random() stream, bit for bit, in Python integers.

The seeded starts of the dynamics module draw their uniforms here, so
drawing a start does not import numpy's random module.  The port reads
nothing of the model and imports nothing from the package or numpy,
which is why it has a file of its own; the file saves no memory, since
without cached bytecode the peak follows all the source compiled (see
the _pass module).
"""

from __future__ import annotations

import operator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uniform(seed, count: int) -> list[float]:
    """The first count doubles of numpy's default_rng(seed).random(), bit for bit.

    numpy's SeedSequence hashes the seed's 32-bit words into a pool of
    four and draws four 64-bit words from it; they seed PCG64 (O'Neill
    2014), whose draws each take one 128-bit LCG step and its XSL-RR
    output, and a double is the draw's top 53 bits times 2^-53.

    Raises:
        ValueError: if seed is negative, with numpy's message.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x, y):
        v = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return v ^ v >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, state = 0x8B51F9DD, []
    for v in pool * 2:
        v ^= h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        state.append(v ^ v >> 16)
    w = [state[k] | state[k + 1] << 32 for k in (0, 2, 4, 6)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    # PCG64's srandom: from state 0, one step, add the initial state, one step
    s = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(count):
        s = (s * _PCG_MULT + inc) & _M128
        x, r = (s >> 64 ^ s) & _M64, s >> 122
        out.append((((x >> r | x << (64 - r)) & _M64) >> 11) * 2.0**-53)
    return out
