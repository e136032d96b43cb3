"""Text-input rules shared by the serial parsers and the parallel parse.

This module defines once which lines of an input file are data lines
(:func:`data_lines`) and how a matrix row or a query side becomes float64
values (:func:`append_row`).  The serial parsers in ``space`` and ``cli``
call both, and so does :func:`parse_in_ranges`, which converts the body
of a large matrix or query file on several cores.  The module imports
only the standard library, so the same file, run as a script, is a parse
worker that starts in milliseconds.
"""

from __future__ import annotations

import codecs
import io
import os
import stat
import sys
from array import array
from collections.abc import Iterator

# Smallest byte range worth a worker.  The first range, parsed in-process,
# is RANGE_MIN // 3 bytes longer than the others while each worker starts
# and sends its rows (about 35 ms).  On a 2-vCPU host, a 4.5 MiB matrix file
# split in two so parsed in 0.131 s against 0.189 s serially (medians of 9).
RANGE_MIN = 3 << 19

# Bytes read at a time; the header's line must end within the first read.
_READ = 1 << 16
# Seconds a worker that has sent its whole output gets to exit.
_EXIT_WAIT_S = 30.0


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


def parse_range(fd: int, start: int, stop: int, width: int, query: bool,
                values: array, dashes: list) -> int:
    """Append the rows held in bytes ``[start, stop)`` of ``fd`` to ``values``
    and the index of each `-` line to ``dashes``; return the line count.

    Raises ValueError (UnicodeDecodeError included) on a line
    :func:`append_row` rejects, and OSError if the file ends early.
    """
    count = 0
    for line in data_lines(_pieces(fd, start, stop)):
        if not append_row(values, line, width, query):
            dashes.append(count)
        count += 1
    return count


def _pieces(fd: int, start: int, stop: int) -> Iterator[str]:
    """The text of bytes ``[start, stop)`` of ``fd``, decoded in pieces that
    end just after a `\\n` (the last one at ``stop``).

    A cut after `\\n` never splits a UTF-8 character or a `\\r\\n` pair.
    """
    carry = b""
    while start < stop:
        data = os.pread(fd, min(_READ, stop - start), start)
        if not data:
            raise OSError("the file ended before the range did")
        start += len(data)
        data = carry + data
        cut = data.rfind(b"\n") + 1 if start < stop else len(data)
        carry = data[cut:]
        yield data[:cut].decode("utf-8")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _regular_utf8_file(source) -> os.stat_result | None:
    """``fstat`` of the regular file under ``source`` when it is a text file
    opened as strict UTF-8 and still at offset 0; otherwise None."""
    if (not sys.executable or not hasattr(os, "pread")
            or not isinstance(source, io.TextIOWrapper)):
        return None
    try:
        if (codecs.lookup(source.encoding).name != "utf-8" or source.errors != "strict"
                or not source.seekable() or source.tell() != 0):
            return None
        info = os.fstat(source.fileno())
    except (OSError, ValueError):  # io.UnsupportedOperation is both
        return None
    return info if stat.S_ISREG(info.st_mode) else None


def _split(fd: int, size: int) -> tuple[str, list[int]] | None:
    """The header line and the byte offsets that cut the body after it into
    ranges, each ending just after a `\\n` or at the end of the file, the
    first ``RANGE_MIN // 3`` bytes longer than the others; None if
    the body is too small to split, or if the header's line holds more than
    the header or does not end within the first read."""
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
    if len(lines) > 1:
        return None
    ranges = min(_usable_cpus(), (size - end) // RANGE_MIN)
    lead = RANGE_MIN // 3  # the first range's head start
    cuts = [end]
    for i in range(1, ranges):
        at = end + lead + (size - end - lead) * i // ranges
        while at < size:
            block = os.pread(fd, _READ, at)
            found = block.find(b"\n") + 1
            if found or not block:
                at += found
                break
            at += len(block)
        cuts.append(min(at, size))
    cuts = sorted(set(cuts + [size]))
    return (lines[0], cuts) if len(cuts) > 2 else None


def parse_in_ranges(source, width: int | None = None
                    ) -> tuple[int, array, list[int]] | None:
    """Parse a large input file on up to ``min(CPUs, body bytes // RANGE_MIN)``
    processes, or return None so the caller's serial parser reads it.

    ``width=None`` reads a matrix file (header ``n``, then ``n`` rows of
    ``n``); otherwise a query file (header ``q``, then ``2q`` sides of
    ``width`` values or `-`).  On success returns the header count, every
    row's values in file order, and the indices of the `-` lines.

    The body is cut at `\\n` boundaries; the first range is parsed here while
    a fresh ``python -I -S`` worker per other range parses its own and sends
    raw float64.  None is returned, with every worker reaped, when the input
    is not a large strict-UTF-8 regular file at offset 0, when any range
    holds a line :func:`append_row` rejects, when the line total differs
    from the header's, when a worker cannot start or fails, or when the file
    changes meanwhile.  The serial parser then reports any error.
    """
    before = _regular_utf8_file(source)
    if before is None:
        return None
    fd = source.fileno()
    try:
        split = _split(fd, before.st_size)
        count = int(split[0]) if split else 0
    except (OSError, ValueError):
        return None
    if count < 1:
        return None
    query = width is not None
    lines, width = (2 * count, width) if query else (count, count)
    cuts = split[1]

    import subprocess  # only an input that is split pays for this import

    values, dashes, procs = array("d"), [], []
    try:
        for start, stop in zip(cuts[1:], cuts[2:]):
            procs.append(subprocess.Popen(
                [sys.executable, "-I", "-S", __file__,
                 str(fd), str(start), str(stop), str(width), str(int(query))],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, pass_fds=(fd,)))
        found = parse_range(fd, cuts[0], cuts[1], width, query, values, dashes)
        for proc in procs:
            found += _receive(proc, width, found, values, dashes)
    except (OSError, ValueError, EOFError, subprocess.SubprocessError):
        return None
    finally:
        for proc in procs:
            proc.kill()  # does nothing to a worker already reaped
            proc.wait()
            proc.stdout.close()
    after = os.fstat(fd)
    changed = (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns)
    if found != lines or changed:
        return None
    return count, values, dashes


def _receive(proc, width: int, offset: int, values: array, dashes: list) -> int:
    """Append one worker's rows to ``values`` and its `-` lines, shifted by
    ``offset``, to ``dashes``; return its line count.

    The worker sends a line ``count dash...`` and then the raw float64 of
    its rows.  ValueError or EOFError if it sends anything else.
    """
    head = [int(token) for token in proc.stdout.readline().split()]
    if not head:
        raise ValueError("the worker rejected its range")
    for _ in range(head[0] - len(head) + 1):  # a row at a time: no second copy
        values.fromfile(proc.stdout, width)
    if proc.stdout.read(1) or proc.wait(timeout=_EXIT_WAIT_S) != 0:
        raise ValueError("the worker failed")
    dashes.extend(offset + d for d in head[1:])
    return head[0]


def _worker(argv: list[str]) -> int:
    """Parse one range and write it to stdout as :func:`_receive` reads it;
    exit status 1, with nothing written, if the range is rejected."""
    fd, start, stop, width, query = map(int, argv)
    values, dashes = array("d"), []
    try:
        count = parse_range(fd, start, stop, width, bool(query), values, dashes)
    except (OSError, ValueError):
        return 1
    out = sys.stdout.buffer
    out.write(" ".join(map(str, [count, *dashes])).encode() + b"\n")
    values.tofile(out)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(_worker(sys.argv[1:]))
