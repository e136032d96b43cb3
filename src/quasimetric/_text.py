"""The text rules of input files, their numpy parse, and the one place work
spreads over cores.

Input: :func:`data_lines` defines which lines of a file are data lines and
:func:`append_row` how a matrix row or a query side becomes float64 values.
The serial parsers in ``space`` and ``cli`` call both, and they alone
report errors.  Before them, :func:`parse_numbers` reads a large matrix or
query file of plain decimals with numpy, in this process; it returns None
on any other file, and the serial parser reads it.

A decimal of at most 18 bytes converts exactly with integer arithmetic and
one correctly rounded division (Clinger 1990; Lemire 2021, "Number parsing
at a gigabyte per second").  A token's last 24 bytes are three
little-endian 64-bit words; lane tests check its bytes, and Lemire's
8-digit step turns its digits, the `.` lane taken as a zero, into ``N``.
With ``F = N mod 10**f`` for ``f`` digits after the `.`, its digits make
``M = (N - F) / 10 + F``, and x87 long double, whose 64-bit significand
holds ``M`` and ``10**f`` exactly, rounds ``M / 10**f`` once.  The cast to
float64 errs only on a long double exactly halfway between two doubles
(low 11 significand bits ``0x400``); those tokens go through ``float``.

Output is not here: ``space.save_matrix`` formats a matrix file's rows
in-process with numpy (``_format``).

Cores: :func:`_usable_cpus` is the one CPU count and :func:`in_threads` the
one thread fan-out, which the triangle scan runs.
"""

from __future__ import annotations

import codecs
import functools
import io
import os
import stat
import threading
import types
from array import array
from collections.abc import Callable, Iterator, Sequence

import numpy as np

# Bytes read for the header; its line must end within them.
_READ = 1 << 16
# A body is converted in about _PIECES pieces of whole lines; each piece
# costs about 0.1 ms of numpy calls, and each of its tokens about 140 bytes
# of scratch, so a piece's scratch stays near a seventh of the matrix's
# bytes.  Below _NUMPY_MIN tokens those calls cost more than the serial
# parser's float() calls (2-vCPU host, fresh processes), so it reads them.
_PIECES = 128
_NUMPY_MIN = 1 << 17

_U64 = np.uint64


def data_lines(source) -> Iterator[str]:
    """The stripped lines of ``source`` (a `str` or an iterable of `str`
    chunks, such as an open text file) that are neither blank nor comments.

    Each chunk is split with ``str.splitlines()``, so every line boundary it
    knows ends a line.
    """
    for chunk in (source,) if isinstance(source, str) else source:
        for line in chunk.splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                yield stripped


def append_row(values: array, line: str, width: int, query: bool) -> bool:
    """Append the ``width`` floats of one data line to ``values``.

    A matrix row's token count is checked before any token is converted.  A
    query side is converted first and counted after, or is the single token
    `-` (an absent side: nothing is appended and False is returned).
    ``float``'s grammar and error text apply to every token.
    """
    if query and line == "-":
        return False
    tokens = line.split()
    if not query and len(tokens) != width:
        raise ValueError(f"row has {len(tokens)} entries, expected {width}")
    row = list(map(float, tokens))
    if len(row) != width:
        raise ValueError(f"query side has {len(row)} values, expected {width}")
    values.fromlist(row)
    return True


def parse_numbers(source, width: int | None = None
                  ) -> tuple[int, np.ndarray, list[int]] | None:
    """Parse a matrix or query file with numpy, or return None so the
    caller's serial parser reads it.

    ``width=None`` reads a matrix file (header ``n``, then ``n`` rows of
    ``n``); otherwise a query file (header ``q``, then ``2q`` sides of
    ``width`` values or `-`).  On success returns the header count, every
    row's values in file order as one float64 array, and the indices of the
    `-` lines.

    None is returned unless ``source`` is a strict-UTF-8 regular file at
    offset 0 whose header claims at least ``_NUMPY_MIN`` tokens, long double
    is x87's, and the body after the header line holds only digits, `.`,
    `-`, spaces and `\\n`, in tokens of at most 18 bytes that are an optional
    `-` and digits with at most one `.` among them, in lines of ``width``
    tokens (or the lone `-` of a query side) that number as the header says;
    and None if the file changes meanwhile.  The values' buffer is allocated
    once, for no more values than the body's bytes can hold.
    """
    before = _regular_utf8_file(source)
    if before is None or not _exact_division():
        return None
    fd = source.fileno()
    try:
        header = _header(fd)
    except (OSError, ValueError):
        return None
    if header is None or header[0] < 1:
        return None
    count, start = header
    query = width is not None
    lines, width = (2 * count, width) if query else (count, count)
    if lines * width < _NUMPY_MIN:
        return None
    body = before.st_size - start
    # a token and its separator take at least 2 bytes
    values = np.empty(min(lines * width, (body + 1) // 2))
    rows = max(1, lines * width // _PIECES // width)
    buffer = _Buffer(min(body, body * rows // lines + width))
    found, filled, dashes = 0, 0, []
    try:
        while start < before.st_size:
            stop = buffer.read(fd, start, before.st_size)
            piece = _piece(buffer, stop, width, query, values[filled:])
            if piece is None or found + piece[0] > lines:
                return None
            dashes.extend(found + d for d in piece[2])
            found += piece[0]
            filled += piece[1]
            start += stop - buffer.pad
    except OSError:
        return None
    after = os.fstat(fd)
    changed = (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns)
    if found != lines or changed:
        return None
    return count, values[:filled], dashes


def _regular_utf8_file(source) -> os.stat_result | None:
    """``fstat`` of the regular file under ``source`` when it is a text file
    opened as strict UTF-8 and still at offset 0; otherwise None."""
    if not hasattr(os, "preadv") or not isinstance(source, io.TextIOWrapper):
        return None
    try:
        if (codecs.lookup(source.encoding).name != "utf-8" or source.errors != "strict"
                or not source.seekable() or source.tell() != 0):
            return None
        info = os.fstat(source.fileno())
    except (OSError, ValueError):  # io.UnsupportedOperation is both
        return None
    return info if stat.S_ISREG(info.st_mode) else None


def _header(fd: int) -> tuple[int, int] | None:
    """The header line's count and the offset just after that line; None if
    the line holds more than the header or does not end within the first
    ``_READ`` bytes."""
    head = os.pread(fd, _READ, 0)
    start = 0
    while True:
        end = head.find(b"\n", start) + 1
        if not end:
            return None
        lines = list(data_lines(head[start:end].decode("utf-8")))
        if lines:
            break
        start = end
    return (int(lines[0]), end) if len(lines) == 1 else None


@functools.cache
def _exact_division() -> bool:
    """Whether long double is x87's and divides at its full precision:
    1/3 rounds to a 64-bit significand, explicit integer bit included, in
    the low 8 of 16 little-endian bytes."""
    third = np.array([np.longdouble(1) / np.longdouble(3)])
    return third.itemsize == 16 and int(third.view(_U64)[0]) == 0xAAAAAAAAAAAAAAAB


class _Buffer:
    """One reusable read buffer, after ``pad`` spaces, so that every
    token's last 24 bytes lie in it."""

    pad = 24

    def __init__(self, size: int) -> None:
        self.bytes = bytearray(b" " * self.pad + bytes(size + 1))  # + an added `\n`
        self.u8 = np.frombuffer(self.bytes, np.uint8)
        self.arrays: dict[str, np.ndarray] = {}

    def array(self, name: str, size: int, dtype=_U64) -> np.ndarray:
        """The first ``size`` items of the array kept as ``name``, grown as
        needed: new scratch for every piece would map and fault fresh pages."""
        kept = self.arrays.get(name)
        if kept is None or kept.size < size:
            kept = self.arrays[name] = None  # freed before its successor is made
            kept = self.arrays[name] = np.empty(size + size // 16, dtype)
        return kept[:size]

    def read(self, fd: int, start: int, size: int) -> int:
        """Read whole lines from offset ``start`` of ``fd`` (``size`` bytes
        long) after the pad, growing as a line needs; return where they stop.
        A last line without its `\\n` gets one."""
        with memoryview(self.bytes) as view:
            got = os.preadv(fd, [view[self.pad:-1]], start)
        if not got:
            raise OSError("the file ended early")
        stop = self.pad + got
        if start + got < size:
            stop = self.bytes.rfind(b"\n", self.pad, stop) + 1
            if not stop:  # not one whole line
                self.__init__(2 * len(self.bytes))
                return self.read(fd, start, size)
        elif self.bytes[stop - 1] != 10:
            self.bytes[stop] = 10
            stop += 1
        return stop


def _piece(buffer: _Buffer, stop: int, width: int, query: bool, out: np.ndarray
           ) -> tuple[int, int, list[int]] | None:
    """Convert the lines in ``buffer`` up to ``stop`` into ``out``; return
    their count, the number of values written and the indices of the `-`
    lines, or None if :func:`parse_numbers` declines them."""
    u8 = buffer.u8
    seps = np.flatnonzero(u8[buffer.pad - 1:stop] <= 32)  # a pad space first
    seps += buffer.pad - 1
    kind = u8[seps[1:]]
    newline = kind == 10
    if not (newline | (kind == 32)).all():
        return None
    lengths = np.diff(seps)
    lengths -= 1
    ends = seps[1:]  # each token ends at a separator
    if lengths.min() > 0:
        through = np.flatnonzero(newline) + 1  # the tokens up to each line's end
    else:  # blank lines, or spaces in a row or at a line's ends
        token = lengths > 0
        through = np.cumsum(token)[newline]
        through = through[np.diff(through, prepend=0) > 0]
        ends, lengths = ends[token], lengths[token]
    counts = np.diff(through, prepend=0)
    dashes = np.zeros(0, np.intp)
    if query:
        single = np.flatnonzero(counts == 1)
        alone = through[single] - 1
        dash = (lengths[alone] == 1) & (u8[ends[alone] - 1] == 45)
        dashes = single[dash]
        counts[dashes] = width
        keep = np.ones(ends.size, bool)
        keep[alone[dash]] = False
        ends, lengths = ends[keep], lengths[keep]
    if (counts != width).any() or ends.size > out.size:
        return None
    if ends.size and not _convert(buffer, ends, lengths, out[:ends.size]):
        return None
    return counts.size, ends.size, dashes.tolist()


@functools.cache
def _tables() -> types.SimpleNamespace:
    """Each byte of a word set to each of a few values, and by token length
    the lanes of its last 8, 16 or 24 bytes that hold the token."""
    lane = [[sum(0xFF << 8 * j for j in range(8) if 8 * k + j >= 24 - length)
             for k in range(3)] for length in range(19)]
    return types.SimpleNamespace(
        **{name: _U64(0x0101010101010101 * b) for name, b in
           [("one", 1), ("zero", 0x30), ("dot", 0x1E), ("low", 0x7F), ("high", 0x80),
            ("over", 0x76)]},
        lanes=[np.array([row[3 - words:] for row in lane], _U64) for words in (1, 2, 3)])


def _convert(buffer: _Buffer, ends: np.ndarray, lengths: np.ndarray,
             out: np.ndarray) -> bool:
    """Write the value of the token of ``lengths`` bytes before each of
    ``ends`` to ``out``; False unless every token is digits, at most one
    `.` among them, after an optional `-`."""
    u8, t, size = buffer.u8, _tables(), ends.size
    if lengths.max() > 18:
        return False
    at = np.subtract(ends, lengths, out=buffer.array("at", size, np.intp))
    neg = np.equal(u8.take(at), 45, out=buffer.array("neg", size, bool))
    lengths -= neg  # the digits and `.` after any `-`
    words = -(-int(lengths.max()) // 8)
    if not words:  # every token a lone `-`
        return False
    window = np.ndarray((u8.size - 8 * words + 1,), f"V{8 * words}", buffer.bytes, 0, (1,))
    dot_lanes = buffer.array("dot_lanes", size * words).reshape(size, words)
    held = buffer.array("scratch", size * max(words, 2))  # room for a long double each
    scratch = held[:size * words].reshape(size, words)
    np.subtract(ends, 8 * words, out=at)
    x = window[at].view(_U64).reshape(size, words)  # faster than a take into kept scratch
    x ^= t.zero  # a digit's lane now holds its value
    x &= t.lanes[words - 1].take(lengths, axis=0, out=scratch)  # bytes before the token: 0
    np.bitwise_xor(x, t.dot, out=dot_lanes)  # a `.` lane is zero here
    np.bitwise_and(dot_lanes, t.low, out=scratch)
    scratch += t.low
    scratch |= dot_lanes
    np.invert(scratch, out=scratch)
    np.bitwise_and(scratch, t.high, out=dot_lanes)  # the high bit of each `.` lane
    np.add(x, t.over, out=scratch)
    scratch |= x
    scratch &= t.high  # the high bit of each lane above 9
    scratch ^= dot_lanes
    if scratch.any():  # a byte other than a digit or `.`
        return False
    dot_lanes >>= _U64(7)
    dot_count = buffer.array("dot_count", size)
    np.copyto(dot_count, dot_lanes[:, 0])
    for k in range(1, words):
        dot_count += dot_lanes[:, k]
    dot_count *= t.one
    dot_count >>= _U64(56)  # the `.`s in each token
    if (dot_count > 1).any() or (lengths <= dot_count.view(np.int64)).any():
        return False
    np.multiply(dot_lanes, _U64(0x1E), out=scratch)
    x ^= scratch  # a `.` lane now holds a zero digit
    n = _digits(x, scratch, buffer.array("n", size))
    if not dot_count.any():
        out[:] = n  # below 2**63: the cast rounds once
    else:
        power = _digits(dot_lanes, scratch, at.view(_U64))  # 10**f, f the digits after the `.`
        plain = np.equal(dot_count, 0, out=buffer.array("plain", size, bool))
        np.multiply(n, _U64(10), out=n, where=plain)
        power |= plain
        rest = np.remainder(n, power, out=dot_count)
        n -= rest
        n //= _U64(10)
        n += rest
        quotient = held[:2 * size].view(np.longdouble)
        quotient[:] = n
        quotient /= power
        out[:] = quotient
        low = np.bitwise_and(quotient.view(_U64)[::2], _U64(0x7FF), out=n)
        for i in np.flatnonzero(low == _U64(0x400)).tolist():
            out[i] = float(buffer.bytes[ends[i] - lengths[i]:ends[i]])
    np.negative(out, out=out, where=neg)
    return True


def _digits(x: np.ndarray, scratch: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``n``, filled with the number whose decimal digits are the byte lanes
    of each row of ``x``, first lane most significant (Lemire's 8-digit step
    per word); ``x`` and ``scratch`` are overwritten."""
    np.right_shift(x, _U64(8), out=scratch)
    x *= _U64(10)
    x += scratch
    np.right_shift(x, _U64(16), out=scratch)
    scratch &= _U64(0x000000FF000000FF)
    scratch *= _U64(1 + (10000 << 32))
    x &= _U64(0x000000FF000000FF)
    x *= _U64(100 + (1000000 << 32))
    x += scratch
    x >>= _U64(32)
    np.copyto(n, x[:, 0])
    for k in range(1, x.shape[1]):
        n *= _U64(10 ** 8)
        n += x[:, k]
    return n


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def in_threads(work: Callable, items: Sequence) -> None:
    """Call ``work`` on each of ``min(CPUs, len(items))`` shares of ``items``,
    dealt in snake order (0, 1, ..., s-1, s-1, ..., 0, 0, 1, ...), so that
    items given largest first split evenly: the first share in this thread,
    each other on a thread of its own (numpy's loops release the GIL).  Once
    every thread has been joined, the first error raised in another thread
    is raised here.
    """
    shares = min(_usable_cpus(), len(items)) or 1
    lap = 2 * shares
    dealt = [[item for i, item in enumerate(items) if i % lap in (t, lap - 1 - t)]
             for t in range(shares)]
    errors, started = [], []

    def guarded(share) -> None:
        try:
            work(share)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    try:
        for t in range(1, shares):
            thread = threading.Thread(target=guarded, args=(dealt[t],))
            thread.start()
            started.append(thread)
        work(dealt[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
