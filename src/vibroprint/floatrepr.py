"""The text of `repr(float(v))` for a whole array of floats at once.

`repr_block` lays out each value as Python's float `repr` does, in a
fixed-width row of bytes with NUL where a value has no character; dropping
the NULs leaves the exact text.  The digits are the shortest round-trip
decimals, found by Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) on uint64 arrays: a normal double c * 2**q becomes
f * 10**k, the shortest decimal that reads back as it and, of those, the
nearest (ties to even f).  Integers below 2**53 are their own digits;
zeros, subnormals, infinities and NaN go through `repr`, one at a time.

`units.write_csv` imports this module on its first float column, so that
importing the package neither compiles it nor builds its tables.
"""

from __future__ import annotations

import functools

import numpy as np

_M32, _M63 = np.uint64(2**32 - 1), np.uint64(2**63 - 1)
_C_MIN, _K_MIN, _K_MAX = 2**52, -325, 293
_DECPT_MIN, _DECPT_MAX = -307, 309  # of normal doubles: 2.2e-308 to 1.8e308
# A float's text block: sign, "0.000", digit 0, digits 1-16 before a dot,
# the dot, digits 1-16 again after it, "e-308"; NUL where a value has nothing.
_LEAD, _BEFORE, _DOT, _AFTER, _EXP, _WIDTH = 6, 7, 23, 24, 40, 45


def _flog2pow10(e):
    return (e * 913124641741) >> 38


@functools.cache
def _tables():
    """The kernel's tables, built on first use, never at import."""
    # g(k) = floor(10**-k * 2**-r) + 1, r = flog2pow10(-k) - 125, in 63-bit
    # halves g1 and g0: the 32-bit limbs of g0 and g1, then g1.
    g = [
        (10 ** max(-k, 0) << max(125 - e, 0)) // (10 ** max(k, 0) << max(e - 125, 0)) + 1
        for k in range(_K_MIN, _K_MAX + 1)
        for e in [_flog2pow10(-k)]
    ]
    g0 = np.array([x & (2**63 - 1) for x in g], np.uint64)
    g1 = np.array([x >> 63 for x in g], np.uint64)
    limbs = np.stack([g0 & _M32, g0 >> 32, g1 & _M32, g1 >> 32, g1])
    # Per decimal point d (the value is 0.DIGITS * 10**d): the block with its
    # prefix, dot and exponent, the digit index the dot follows, and the
    # least end of the digits and dot.  Positional for -4 < d <= 16, with
    # ".0" on integral values; else d[.ddd]e±XX.
    decpts = range(_DECPT_MIN, _DECPT_MAX + 1)
    template = np.zeros((len(decpts), _WIDTH), np.uint8)
    template[:, _DOT] = ord(".")
    dots, least = np.full(len(decpts), 18), np.zeros(len(decpts), np.int64)
    for i, d in enumerate(decpts):
        if -4 < d <= 0:
            template[i, 1 : 3 - d] = list(b"0." + b"0" * -d)
        elif 0 < d <= 16:
            dots[i], least[i] = d, d + 2
        else:
            dots[i], exp = 1, f"e{d - 1:+03d}".encode()
            template[i, _EXP : _EXP + len(exp)] = list(exp)
    # Per (dot, end): which bytes a value keeps.  Digit j shows before the
    # dot at j < dot, after it at j >= dot; a value's digits and dot fill
    # `end` places.
    masks = np.full((19, 19, _WIDTH), 255, np.uint8)
    j = np.arange(17)
    for dot in range(19):
        for end in range(19):
            masks[dot, end, _LEAD : _DOT] = 255 * ((j < dot) & (j < end))
            masks[dot, end, _DOT] = 255 * (dot < end)
            masks[dot, end, _AFTER : _EXP] = 255 * ((j[1:] >= dot) & (j[1:] + 1 < end))
    # Per 4-digit group: its text, and per group place i (digits 4i+1 to
    # 4i+4) the digits up to its last nonzero one (1 for 0000: digit 0 is
    # never 0).
    text = [b"%04d" % g for g in range(10_000)]
    quads = np.array(text).view("V4")
    sig = [len(t.rstrip(b"0")) for t in text]
    ends = np.array([[4 * i + 1 + s if s else 1 for s in sig] for i in range(4)], np.int8)
    pow10 = 10 ** np.arange(18, dtype=np.uint64)
    return (
        limbs, template.view(f"V{_WIDTH}").ravel(), dots, least,
        masks.reshape(-1, _WIDTH).view(f"V{_WIDTH}").ravel(), quads, ends, pow10,
    )


def _mulhi(a_lo, a_hi, b):
    """High 64 bits of the 128-bit products a * b, a given as 32-bit limbs."""
    b_lo, b_hi = b & _M32, b >> 32
    cross1, cross2 = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> 32) + (cross1 & _M32) + (cross2 & _M32)
    return a_hi * b_hi + (cross1 >> 32) + (cross2 >> 32) + (mid >> 32)


def _shortest(c, q):
    """(f, k) for normal doubles c * 2**q."""
    irregular = (c == _C_MIN) & (q > -1074)  # the gap below v is half the gap above
    k = (q * 661971961083 - np.where(irregular, 274743187321, 0)) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g0_lo, g0_hi, g1_lo, g1_hi, g1 = _tables()[0][:, k - _K_MIN]
    # vb, vbl, vbr: 4 * (v, its lower and upper rounding bounds) * 10**-k,
    # the high 64 bits of g * cp / 2**127 and a sticky bit.
    cb = c << 2
    cp = np.stack([cb, cb - 2 + irregular, cb + 2]) << h
    z = ((g1 * cp) >> 1) + _mulhi(g0_lo, g0_hi, cp)
    vb, vbl, vbr = (_mulhi(g1_lo, g1_hi, cp) + (z >> 63)) | (((z & _M63) + _M63) >> 63)
    # s has 16 or 17 digits (s >= 10), so the candidates one digit shorter,
    # 10 s' and 10 s' + 10, are always tried, as Python's shortest repr may
    # keep one digit; when just one of them reads back as v, it is the
    # shortest decimal.  Else the nearer of s and s + 1 that reads back.
    out, s = c & 1, vb >> 2
    sp = s // 10 * 10
    upin, wpin = vbl + out <= sp << 2, ((sp + 10) << 2) + out <= vbr
    t = s + 1
    uin, win = vbl + out <= s << 2, (t << 2) + out <= vbr
    nearer = (vb < (s + t) << 1) | ((vb == (s + t) << 1) & (s & 1 == 0))
    f = np.where(upin != wpin, np.where(upin, sp, sp + 10), np.where(np.where(uin != win, uin, nearer), s, t))
    return f, k


def repr_block(values: np.ndarray) -> np.ndarray:
    """(len(values), _WIDTH) uint8 rows: `repr(float(v))` of each value once
    its NUL bytes are dropped."""
    _, template, dots, least, masks, quads, ends, pow10 = _tables()
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    special = (biased == 0) | (biased == 0x7FF)  # zero, subnormal, inf, NaN
    c = np.where(special, _C_MIN, (bits & (_C_MIN - 1)) | _C_MIN)
    q = np.where(special, -52, biased.astype(np.int64) - 1075)
    # Integers below 2**53 are their own shortest digits.
    shift = np.clip(-q, 0, 63).astype(np.uint64)
    integral = (q > -53) & (q <= 0) & (c & ((np.uint64(1) << shift) - 1) == 0)
    f, k = c >> shift, np.zeros_like(q)
    if not integral.all():
        rest = np.flatnonzero(~integral)
        f[rest], k[rest] = _shortest(c[rest], q[rest])
    # f as 17 digits: digit 0, then four groups of four.
    length = np.searchsorted(pow10, f, side="right")
    f = f * pow10[17 - length]
    groups = np.empty((len(f), 4), np.int64)
    for i in range(3, -1, -1):
        f, rem = f // 10_000, f
        groups[:, i] = rem - f * 10_000
    n = ends[0][groups[:, 0]]  # significant digits
    for i in range(1, 4):
        np.maximum(n, ends[i][groups[:, i]], out=n)
    where = length + k - _DECPT_MIN
    dot = dots[where]
    end = np.maximum(n + (n > dot), least[where])
    block = template[where].view(np.uint8).reshape(len(f), _WIDTH)

    def at(offset, dtype):
        return np.ndarray(len(f), dtype, block, offset, (_WIDTH,))

    at(_LEAD, np.uint8)[:] = f.astype(np.uint8) + 48
    at(_BEFORE, "V16")[:] = at(_AFTER, "V16")[:] = quads[groups].view("V16")[:, 0]
    block &= masks[dot * 19 + end].view(np.uint8).reshape(len(f), _WIDTH)
    at(0, np.uint8)[:] = (bits >> 63).astype(np.uint8) * 45  # "-"
    if special.any():
        index = np.flatnonzero(special)
        text = [repr(v).encode() for v in bits[index].view(np.float64).tolist()]
        block[index] = np.array(text, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return block
