"""The text of a matrix file's rows, formatted by numpy a chunk at a time.

Each entry is written as ``b"%.17g" % x`` writes it, except that -inf is
written as ``inf``; one space separates entries and a newline ends each
row.  Only ``space.save_matrix`` imports this module.

Seventeen significant digits of a double are found exactly with integer
arithmetic (Steele & White 1990; Adams 2018, "Ryu").  For
``X = floor(log10 |x|)`` in -4..16 and ``t = 16 - X``, ``|x| * 10**t`` is the
53-bit mantissa times ``5**t`` times a power of two, and ``5**t < 2**64``,
so one 64 x 64 -> 128-bit product in 32-bit limbs, shifted right, gives the
17 digits ``q``; the bits shifted out round it half to even.  An entry whose
``q`` falls outside ``[1e16, 1e17)`` (X was misjudged, or rounding carried)
joins the few that ``%`` formats in one batched call per chunk: subnormals
and entries below 1e-4 or at or above 1e17.  A chunk whose finite entries
are integral and below 2**53 needs no product: ``|x|`` is its own digit
string.

The digits go into fixed slots of 4-byte words, four at a time from a table
of every 4-digit group, and one boolean mask per pattern (sign, X, trailing
zeros; or a constant such as ``inf``) keeps the bytes that ``%.17g``
writes.  The fractional digits are in the slot twice, once after the
integer part's and once after a `.`, so that the mask alone puts the `.` in
place.  A slot starts with its separator: each row's text begins with the
newline that ends the row before it.
"""

from __future__ import annotations

import functools
import types

import numpy as np

# Entries formatted at a time, in whole rows; each takes about 140 bytes of
# scratch while its chunk is formatted.
_CHUNK = 1 << 11

_U64 = np.uint64


def write_rows(out, matrix: np.ndarray) -> None:
    """Write the text of every row of the 2-D float64 ``matrix`` (any
    strides) to the binary file ``out``, a chunk of whole rows at a time."""
    step = max(1, _CHUNK // matrix.shape[1])
    for start in range(0, matrix.shape[0], step):
        text = _rows_text(np.ascontiguousarray(matrix[start:start + step]))
        out.write(text[1:] if start == 0 else text)  # the first row starts the body
    out.write(b"\n")


def _words(*texts: bytes) -> np.ndarray:
    """Each 4-byte text of ``texts`` as one native uint32 word."""
    return np.frombuffer(b"".join(texts), np.uint8).view(np.uint32).copy()


@functools.cache
def _tables() -> types.SimpleNamespace:
    """The lookup tables, built on the first write."""
    g = np.arange(10000)
    quad = (np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1) + 48).astype(np.uint8)
    # j = X + 4 indexes the exponent tables: t = 16 - X = 20 - j, and
    # 5**t << z fills 64 bits.  With |x| = m * 2**(e - 1075) for the biased
    # exponent e, |x| * 10**t = (m << 11) * (5**t << z) * 2**(e - 1075 + t - 11 - z),
    # so the digits are the product's top word shifted right by shift[j] - e.
    t = [20 - j for j in range(21)]
    z = np.array([64 - (5 ** k).bit_length() for k in t])
    p, neg = np.arange(44), np.arange(2)[:, None, None, None]
    x, zeros = np.arange(-4, 17)[:, None, None], np.arange(17)[:, None]
    frac, small = zeros < 16 - x, x < 0
    # A general slot, by byte: 0 separator, 1 '-', 2-3 '0.', 4-6 '000',
    # 7 d0, 8-23 d1..d16, 24 '.', 28-43 d1..d16.  Below 1 it keeps '0.',
    # -X - 1 zeros and the digits; otherwise X + 1 digits, then, unless
    # every later digit is zero, the '.' and the later digits.
    general = ((p == 0) | (neg == 1) & (p == 1)
               | small & ((p == 2) | (p == 3) | (p >= 4) & (p < 3 - x)
                          | (p >= 7) & (p <= 23 - zeros))
               | ~small & ((p >= 7) & (p <= 7 + x)
                           | frac & ((p == 24) | (p >= 28 + x) & (p <= 43 - zeros))))
    # then inf and nan in bytes 4-6, and a text of 1 to 24 bytes from byte 4
    others = (p == 0) | (p >= 4) & (p < np.r_[7, 7, 5:29][:, None])
    # An integral slot, by byte: 0 separator, 3 '-', 4-19 the zero-padded
    # digits of |x|, of which it keeps X + 1; then inf in bytes 17-19.
    p = np.arange(20)
    integral = (p == 0) | (neg[..., 0] == 1) & (p == 3) | (p >= 19 - x[4:20, 0])
    return types.SimpleNamespace(
        quad=quad.view(np.uint32).ravel(),
        trailing=(g % 10 == 0).astype(np.uint8) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0),
        lead=_words(*(b"000" + bytes([48 + d]) for d in range(10))),
        head=_words(b" -0.", b"\n-0."), dot=_words(b".\0\0\0"), special=_words(b"inf\0", b"nan\0"),
        int_head=_words(b" \0\0-", b"\n\0\0-"), int_inf=_words(b"\0inf"),
        five=np.array([5 ** k << int(s) for k, s in zip(t, z)], dtype=_U64),
        shift=11 + z - t + 1075 - 64,
        bounds=10.0 ** np.arange(-4, 17),
        general=np.concatenate([general.reshape(-1, 44), others]),
        integral=np.concatenate([integral.reshape(-1, 20), [(p == 0) | (p >= 17)]]))


def _rows_text(rows: np.ndarray) -> np.ndarray:
    """The text of the C-contiguous float64 ``rows``, each row preceded by a
    newline, as uint8."""
    # _slots returns before the compaction, so its scratch is freed first
    slot, pattern, masks = _slots(rows, _tables())
    keep = masks.take(pattern, axis=0)
    return slot.view(np.uint8).ravel()[keep.ravel()]


def _slots(rows: np.ndarray, tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each entry's slot of words, the index of its mask, and the masks."""
    v = rows.reshape(-1)
    a = np.abs(v)
    pattern = (v.view(_U64) >> _U64(63)).astype(np.intp)  # the sign, to start with
    j = np.searchsorted(tables.bounds, a, "right") - 1
    inf = a == np.inf
    if ((a < 2.0 ** 53) | inf).all() and (np.floor(a) == a).all():
        a[inf] = 0.0
        slot = np.empty((v.size, 5), np.uint32)
        slot[:, 0] = tables.int_head[0]
        slot[::rows.shape[1], 0] = tables.int_head[1]
        for column, group in enumerate(_groups(a.astype(_U64)), 1):
            slot[:, column] = tables.quad.take(group)
        pattern *= 16
        pattern += np.maximum(j, 4) - 4
        if inf.any():
            slot[inf, 4] = tables.int_inf
            pattern[inf] = 2 * 16
        return slot, pattern, tables.integral

    np.clip(j, 0, 20, out=j)
    q, ok = _digits(v, a, j, tables)
    j[~ok] = 4  # a zero's pattern, X = 0
    pattern *= 21
    pattern += j
    pattern *= 17
    del j
    slot = np.empty((v.size, 11), np.uint32)
    slot[:, 0] = tables.head[0]
    slot[::rows.shape[1], 0] = tables.head[1]
    d0, q = np.divmod(q, _U64(10 ** 16))
    slot[:, 1] = tables.lead.take(d0)
    del d0
    groups = _groups(q)
    del q
    for column, group in enumerate(groups, 2):
        slot[:, column] = slot[:, column + 5] = tables.quad.take(group)
    slot[:, 6] = tables.dot
    z1, z2, z3, z4 = (tables.trailing.take(group) for group in groups)
    del groups
    pattern += z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1))
    others = np.flatnonzero(~ok & (a != 0))
    if others.size:
        _put_others(slot, pattern, v, others, tables)
    return slot, pattern, tables.general


def _groups(values: np.ndarray) -> list[np.ndarray]:
    """The 16 zero-padded digits of each of ``values`` (below 1e16) as four
    4-digit groups, the first group first."""
    high, low = np.divmod(values, _U64(10 ** 8))
    return [*np.divmod(high.astype(np.uint32), np.uint32(10 ** 4)),
            *np.divmod(low.astype(np.uint32), np.uint32(10 ** 4))]


def _digits(v: np.ndarray, a: np.ndarray, j: np.ndarray,
            tables) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each entry of ``v`` at the exponent ``j - 4``, as an
    integer, and whether they are its ``%.17g`` digits; 0 where not.

    Works in place where it can: a chunk's scratch stays a few arrays."""
    bits = v.view(_U64)
    low, half = _U64(0xFFFFFFFF), _U64(32)
    m = bits & _U64((1 << 52) - 1)
    m |= _U64(1 << 52)
    m <<= _U64(11)
    f = tables.five.take(j)
    # m * f in 32-bit limbs: hi is the top 64 bits, sticky any lower bit
    m0, f0 = m & low, f & low
    m >>= half
    f >>= half
    p01 = m0 * f
    m0 *= f0
    f0 *= m
    m *= f
    mid = m0 >> half
    mid += p01 & low
    mid += f0 & low
    hi = m
    hi += p01 >> half
    hi += f0 >> half
    hi += mid >> half
    sticky = ((m0 | mid) & low) != 0
    del f, m0, f0, p01, mid
    s = tables.shift.take(j)
    s -= (bits >> _U64(52)).astype(np.intp) & 0x7FF
    s = np.clip(s, 1, 63, out=s).view(_U64)
    q = hi >> s
    hi &= (_U64(1) << s) - _U64(1)
    tie = _U64(1) << (s - _U64(1))
    up = (hi > tie) | (hi == tie) & (sticky | (q & _U64(1)).astype(bool))
    ok = (q >= _U64(10 ** 16)) & (a >= 1e-4) & (a < 1e17)
    q += up
    ok &= q < _U64(10 ** 17)
    q[~ok] = 0
    return q, ok


def _put_others(slot: np.ndarray, pattern: np.ndarray, v: np.ndarray,
                others: np.ndarray, tables) -> None:
    """Give the entries ``others`` of ``v`` (nonzero, without fast digits)
    their text: inf or nan, or one batched ``%`` call for the rest."""
    # their masks follow the 2 * 21 * 17 digit patterns: inf, nan, then
    # texts of 1 to 24 bytes
    kind = np.isinf(v[others]) + 2 * np.isnan(v[others])
    special = others[kind > 0]
    slot[special, 1] = tables.special.take(kind[kind > 0] - 1)
    pattern[special] = 2 * 21 * 17 - 1 + kind[kind > 0]
    rest = others[kind == 0]
    if rest.size:
        text = (b"%-24.17g" * rest.size) % tuple(v[rest].tolist())
        chars = np.frombuffer(text, np.uint8).reshape(-1, 24)
        slot.view(np.uint8)[rest, 4:28] = chars
        pattern[rest] = 2 * 21 * 17 + 1 + (chars != 32).sum(1)
