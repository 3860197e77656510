"""Text of float64 blocks, byte for byte the text ``repr`` writes.

:func:`decimals` finds each float's shortest round-trip decimal, the
digits ``repr`` prints, by Ryu (Adams, PLDI 2018): a few integer products
against a 125-bit power of five, then a search for the shortest digit
string that still lies inside the float's rounding interval.  The products
run over the whole block in int64 arrays, in 26-bit limbs, so that every
partial product and column sum stays below 2**63 and all arithmetic is
exact.  :func:`write` lays the digits out by ``repr``'s rules: positional
for 1e-4 <= |x| < 1e16 with ``.0`` on integers, ``d.ddde+XX`` otherwise,
``0.0`` and ``-0.0`` for zeros.  Each item takes a prefix from a small
table, so a writer builds its brackets and separators in the same buffer.
The characters of each item come from one gather through a table of
source columns per (sign, digit count, form).  The tables are built with
Python ints on first use.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

#: bits per limb of the multi-precision products
_LIMB = 26
_LOW = (1 << _LIMB) - 1
#: 10**k for k = 0..18, the powers of ten an int64 holds
_P10 = np.array([10**k for k in range(19)], dtype=np.int64)
#: bit pattern of 1 + 2**-52; zeros are searched as this float, whose search
#: is short, and written as 0 afterwards
_STAND_IN = 0x3FF0000000000001

#: columns of an item's source row: 24 digit characters (the significand
#: right-aligned), the exponent's sign and 3 digits, "-.0e", then the
#: item's prefix right-aligned in 8 characters
_EXP, _MINUS, _DOT, _ZERO, _E, _PRE, _ROW = 24, 28, 29, 30, 31, 32, 40
#: the longest text: sign, 17 digits, point, "e", exponent sign and 3 digits
_W = 24
#: forms 0..19 are positional with the point at -3..16, 20 and 21 are
#: exponential with 2 and 3 exponent digits, 22 is an integer
_INTEGER = 22
_FORMS = 23


@functools.cache
def _exponent_table():
    """Per biased exponent E, a column: multiplier limbs, e10, tz_mask, fives.

    Ryu's step 3 for a float of exponent E computes floor(m * mul / 2**j)
    for m in {4 m2 - 1 - s, 4 m2, 4 m2 + 2}.  Each ``mul`` is shifted left
    by ``J - j`` so that one shift ``J``, a whole number of limbs, serves
    every exponent.  vr has q trailing decimal zeros where 4 m2 & tz_mask
    is 0.  ``fives`` marks where Ryu tests the interval's ends for
    exactness: 5**q where e2 >= 0 and q <= 21, -1 where e2 < 0 and q <= 1.
    """
    entries = []
    for biased in range(2047):
        e2 = max(biased, 1) - 1077
        if e2 >= 0:
            q = (e2 * 78913 >> 18) - (e2 > 3)  # floor(e2 log10 2), less 1 past 3
            p5 = 5**q
            mul = (1 << p5.bit_length() + 124) // p5 + 1
            j = q - e2 + p5.bit_length() + 124
            e10 = q
            tz_mask = -1
            fives = 5**q if q <= 21 else 0
        else:
            q = (-e2 * 732923 >> 20) - (-e2 > 1)  # floor(-e2 log10 5), less 1 past 1
            p5 = 5 ** (-e2 - q)
            mul = p5 << 125 >> p5.bit_length()
            j = q - p5.bit_length() + 125
            e10 = q + e2
            tz_mask = 0 if q <= 1 else (1 << q) - 1 if q < 63 else -1
            fives = -1 if q <= 1 else 0
        entries.append((mul, j, e10, tz_mask, fives))
    # j is 118..125 and mul < 2**126, so every shifted mul fits one limb past J
    shift = -(-max(entry[1] for entry in entries) // _LIMB) * _LIMB
    muls = [mul << shift - j for mul, j, *_ in entries]
    limbs = [[mul >> _LIMB * k & _LOW for mul in muls] for k in range(shift // _LIMB + 1)]
    return np.array(limbs + [[entry[k] for entry in entries] for k in (2, 3, 4)], np.int64)


def decimals(x: np.ndarray) -> tuple:
    """Sign, shortest significand and exponent of each finite float64.

    Returns int64 arrays ``neg`` (0 or 1, the sign bit, so -0.0 has 1),
    ``s`` and ``e``: s * 10**e is the shortest decimal that reads back as
    |x|, closest to |x| among those, with no trailing zeros in ``s``; zeros
    have s = e = 0.  ``x`` must be finite.
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).reshape(-1).view(np.int64)
    neg = (bits < 0).astype(np.int64)
    zero = (bits & 0x7FFFFFFFFFFFFFFF) == 0
    bits = np.where(zero, _STAND_IN, bits)
    biased = (bits >> 52) & 0x7FF
    frac = bits & ((1 << 52) - 1)
    m2 = np.where(biased > 0, frac | (1 << 52), frac)
    mv = m2 << 2
    mm_shift = ((frac != 0) | (biased <= 1)).astype(np.int64)
    accept = (m2 & 1) == 0

    # floor(m * mul / 2**J) for m = mv, mv + 2 and mv - 1 - mm_shift: the
    # column sums of mv * mul, in limbs, and those of the two neighbours
    columns = _exponent_table().take(biased, axis=1)  # raises on an inf or nan
    limbs, e10, tz_mask, fives = columns[:-3], columns[-3], columns[-2], columns[-1]
    n_limbs, n = limbs.shape
    cols = np.empty((3, n_limbs + 1, n), dtype=np.int64)
    np.multiply(limbs, mv & _LOW, out=cols[0, :-1])
    cols[0, -1] = 0
    cols[0, 1:] += limbs * (mv >> _LIMB)
    np.add(cols[0, :-1], limbs * 2, out=cols[1, :-1])
    np.subtract(cols[0, :-1], limbs * (1 + mm_shift), out=cols[2, :-1])
    cols[1:, -1] = cols[0, -1]
    carry = cols[:, 0] >> _LIMB
    for k in range(1, n_limbs - 1):
        carry = (cols[:, k] + carry) >> _LIMB
    low = cols[:, -2] + carry
    vr, vp, vm = (low & _LOW) + ((cols[:, -1] + (low >> _LIMB)) << _LIMB)

    vr_tz = (mv & tz_mask) == 0
    vm_tz = np.zeros(n, dtype=bool)
    exact = np.flatnonzero(fives)
    if exact.size:
        vp[exact], vr_tz[exact], vm_tz[exact] = _exact_cases(
            vp[exact], mv[exact], mm_shift[exact], accept[exact], fives[exact]
        )

    # Ryu's digit removal, closed form: the r-th digit goes while a multiple
    # of 10**r lies in (vm, vp]
    removed = np.zeros(n, dtype=np.int64)
    for r in range(1, 19):
        more = vp // _P10[r] * _P10[r] > vm
        if not more.any():
            break
        removed += more
    power = _P10[removed]
    vm_r = vm // power
    vm_tz &= vm_r * power == vm
    tail = np.flatnonzero(vm_tz)
    if tail.size:  # the bound is exact: its trailing zeros go too
        zeros = np.zeros(tail.size, dtype=np.int64)
        rest = vm_r[tail]
        for _ in range(18):
            more = rest % 10 == 0
            if not more.any():
                break
            zeros += more
            rest = np.where(more, rest // 10, rest)
        removed[tail] += zeros
        vm_r[tail] = rest
    upper = vr // _P10[np.maximum(removed - 1, 0)]
    vr_tz &= upper * _P10[np.maximum(removed - 1, 0)] == vr
    s = upper // 10
    last = np.where(removed > 0, upper - 10 * s, 0)
    last[vr_tz & (last == 5) & ((s & 1) == 0)] = 4  # a tie rounds to even
    s = np.where(removed > 0, s, vr)
    s += ((s == vm_r) & ~(accept & vm_tz)) | (last >= 5)
    s[zero] = 0
    e = np.where(zero, 0, e10 + removed)
    return neg, s, e


def _exact_cases(vp, mv, mm_shift, accept, fives):
    """vp, vr_tz and vm_tz where Ryu tests the bounds for exactness.

    ``fives`` is 5**q where e2 >= 0 and q <= 21, -1 where e2 < 0 and q <= 1.
    """
    small = fives < 0
    vr_tz = small.copy()
    vm_tz = small & accept & (mm_shift == 1)
    vp = vp - (small & ~accept)
    big = np.flatnonzero(~small)
    if big.size:
        p5, m, a = fives[big], mv[big], accept[big]
        on = m % 5 == 0
        vr_tz[big] = on & (m % p5 == 0)
        vm_tz[big] = ~on & a & ((m - 1 - mm_shift[big]) % p5 == 0)
        vp[big] -= ~on & ~a & ((m + 2) % p5 == 0)
    return vp, vr_tz, vm_tz


@functools.cache
def _layout_tables():
    """Source columns and kept characters per pattern; exponent texts."""
    cols = np.zeros((2, 20, _FORMS, 8 + _W), dtype=np.int64)
    keep = np.zeros((2, 20, _FORMS, _W), dtype=bool)
    cols[..., :8] = np.arange(_PRE, _ROW)
    for neg, nd, form in itertools.product(range(2), range(1, 20), range(_FORMS)):
        point = form - 3
        if nd > 17 and form != _INTEGER:
            continue  # only integers have more than 17 digits
        digits = list(range(24 - nd, 24))
        if form == _INTEGER:
            body = digits
        elif form >= 20:
            body = digits[:1] + ([_DOT] + digits[1:] if nd > 1 else [])
            body += [_E, _EXP] + [_EXP + 1] * (form - 20) + [_EXP + 2, _EXP + 3]
        elif point <= 0:
            body = [_ZERO, _DOT] + [_ZERO] * -point + digits
        elif point < nd:
            body = digits[:point] + [_DOT] + digits[point:]
        else:
            body = digits + [_ZERO] * (point - nd) + [_DOT, _ZERO]
        body = [_MINUS] * neg + body
        cols[neg, nd, form, 8 : 8 + len(body)] = body
        keep[neg, nd, form, : len(body)] = True
    exps = np.frombuffer("".join(f"{k:+04d}" for k in range(-324, 309)).encode(), np.uint32)
    return cols.reshape(-1, 8 + _W), keep.reshape(-1, _W).view(np.uint64), exps


def _eight_digits(v, out):
    """The 8 ASCII digits of each 0 <= v < 10**8 into ``out``, first digit in the low byte.

    Splits into halves of 4 digits in 32-bit lanes, of 2 in 16-bit lanes,
    then of 1 in bytes; each division is a multiply and shift that is exact
    in its lane's range.
    """
    top = v // 10000
    v = top | (v - top * 10000) << 32
    hundreds = (v * 10486 >> 20) & 0x7F0000007F
    v = hundreds | (v - hundreds * 100) << 16
    tens = (v * 103 >> 10) & 0x000F000F000F000F
    np.add(tens | (v - tens * 10) << 8, 0x3030303030303030, out=out)


@functools.cache
def _prefix_words(prefixes: tuple) -> tuple:
    """Each prefix right-aligned in 8 bytes, and the mask of its bytes, as words."""
    text = np.array([p.encode().rjust(8, b"\0") for p in prefixes], dtype="S8")
    given = np.array([[k >= 8 - len(p) for k in range(8)] for p in prefixes])
    return text.view("<i8"), given.view(np.uint64).ravel()


def write(neg, s, e, prefix, prefixes, integer=False) -> bytes:
    """The concatenated ``prefixes[prefix[i]]`` + text of item i, as bytes.

    Item i is the decimal (-1)**neg[i] * s[i] * 10**e[i] from
    :func:`decimals`, written as ``repr`` writes the float.  Where
    ``integer`` is true the item is an integer 0 <= s < 2**63, e = 0,
    written as ``str`` writes it.  Prefixes have at most 8 characters.
    """
    cols, keep_of, exps = _layout_tables()
    n = s.size
    nd = np.searchsorted(_P10[1:], s, side="right") + 1
    point = e + nd
    form = np.where((point >= -3) & (point <= 16), point + 3, 20 + (np.abs(point - 1) >= 100))
    form = np.where(integer, _INTEGER, form)
    pattern = (neg * 20 + nd) * _FORMS + form

    split = np.empty((3, n), dtype=np.int64)
    np.floor_divide(s, 10**16, out=split[0])
    low = s - split[0] * 10**16
    np.floor_divide(low, 10**8, out=split[1])
    np.subtract(low, split[1] * 10**8, out=split[2])
    src = np.empty((n, _ROW // 8), dtype="<i8")
    _eight_digits(split, out=src[:, :3].T)
    words = src.view(np.uint32)
    words[:, _EXP // 4] = exps.take(point + 323, mode="clip")
    words[:, _MINUS // 4] = np.frombuffer(b"-.0e", dtype=np.uint32)[0]
    pre, given = _prefix_words(tuple(prefixes))
    src[:, _PRE // 8] = pre.take(prefix, mode="clip")

    # indices are in range by construction: "clip" skips the bounds check
    index = cols.take(pattern, axis=0, mode="clip")
    index += np.arange(0, n * _ROW, _ROW)[:, None]
    text = src.view(np.uint8).reshape(-1).take(index, mode="clip")
    keep = np.empty((n, 1 + _W // 8), dtype=np.uint64)
    keep[:, 0] = given.take(prefix, mode="clip")
    keep[:, 1:] = keep_of.take(pattern, axis=0, mode="clip")
    return text[keep.view(bool)].tobytes()
