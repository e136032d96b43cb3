"""The text rules of data files, and the one place work spreads over cores.

Input: this module defines once which lines of a file are data lines
(:func:`data_lines`) and how a matrix row or a query side becomes float64
values (:func:`append_row`).  The serial parsers in ``space`` and ``cli``
call both, and so does :func:`parse_in_ranges`, which converts the body
of a large matrix or query file on several cores.

Output: :func:`format_rows` is the one rule for a matrix file's rows.
``space.save_matrix`` writes through :func:`write_rows`, which formats a
large matrix's rows in ranges on several cores, with the same bytes.

Cores: :func:`_usable_cpus` is the one CPU count and :func:`in_threads` the
one thread fan-out.  The parse and format workers are this file run as a
script, and each replies in one format: a line ``nbytes [int ...]``, then
exactly ``nbytes`` bytes, then exit status 0.  The module imports only the
standard library (``threading`` and ``subprocess`` once work is split), so
a worker starts in milliseconds.
"""

from __future__ import annotations

import codecs
import io
import os
import stat
import sys
from array import array
from collections.abc import Callable, Iterator, Sequence

# Smallest byte range worth a worker.  The first range, parsed in-process,
# is RANGE_MIN // 3 bytes longer than the others while each worker starts
# and sends its rows (about 35 ms).  On a 2-vCPU host, a 4.5 MiB matrix file
# split in two so parsed in 0.131 s against 0.189 s serially (medians of 9).
RANGE_MIN = 3 << 19

# A matrix is written in min(CPUs, entries // FORMAT_MIN) ranges.  The first,
# formatted in-process, is FORMAT_LEAD entries longer than the others: they
# are formatted while the workers start (about 30 ms).  On a 2-vCPU host, two
# ranges wrote n = 500 in 0.14 s against 0.21 s serially and n = 1000 in
# 0.48 s against 0.85 s (medians of 5), and broke even near n = 300.
FORMAT_MIN = 3 << 14
FORMAT_LEAD = 1 << 15

# Bytes read at a time; the header's line must end within the first read.
_READ = 1 << 16
# Entries formatted at a time: the rows' floats and text stay small.
_FORMAT_BLOCK = 1 << 10
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


def in_threads(work: Callable, items: Sequence) -> None:
    """Call ``work`` on each of ``min(CPUs, len(items))`` shares of ``items``,
    dealt in snake order (0, 1, ..., s-1, s-1, ..., 0, 0, 1, ...), so that
    items given largest first split evenly: the first share in this thread,
    each other on a thread of its own (numpy's loops release the GIL).  Once
    every thread has been joined, the first error raised in another thread
    is raised here.
    """
    import threading  # at the top it would slow every worker's start

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


def _start(args: list, pass_fds: tuple = ()):
    """This file started as a ``python -I -S`` worker on ``args``, with pipes
    for stdin and stdout and stderr discarded; None if it cannot start."""
    import subprocess  # only work that is split pays for this import

    try:
        return subprocess.Popen([sys.executable, "-I", "-S", __file__, *map(str, args)],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, pass_fds=pass_fds)
    except (OSError, subprocess.SubprocessError):
        return None


def _reap(procs: list) -> None:
    """Kill and wait for every worker of ``procs`` that started."""
    for proc in filter(None, procs):
        with proc:  # closes its pipes and reaps it
            proc.kill()  # does nothing to a worker already reaped


def _send(chunks: list, *ints: int) -> int:
    """Write a worker's reply, the bytes-like ``chunks`` after the line
    ``nbytes ints...``, to stdout; return exit status 0."""
    out = sys.stdout.buffer
    size = sum(memoryview(chunk).nbytes for chunk in chunks)
    out.write(" ".join(map(str, [size, *ints])).encode() + b"\n")
    out.writelines(chunks)
    out.flush()
    return 0


def _receive(proc, sink: Callable) -> list[int] | None:
    """Pass a worker's reply bytes to ``sink``, at most ``_READ`` at a time,
    and return the ints of its line after ``nbytes``; None if it sends other
    than ``nbytes`` bytes or then fails to exit with status 0 within
    ``_EXIT_WAIT_S``, or if ``sink`` raises ValueError."""
    import subprocess

    try:
        left, *ints = map(int, proc.stdout.readline().split())
        while left > 0 and (piece := proc.stdout.read(min(left, _READ))):
            sink(piece)
            left -= len(piece)
        whole = not left and not proc.stdout.read(1)
        return ints if whole and proc.wait(timeout=_EXIT_WAIT_S) == 0 else None
    except (ValueError, subprocess.SubprocessError):
        return None


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

    values, dashes, procs = array("d"), [], []
    try:
        for start, stop in zip(cuts[1:], cuts[2:]):
            procs.append(_start([fd, start, stop, width, int(query)], (fd,)))
            if procs[-1] is None:
                return None
        found = parse_range(fd, cuts[0], cuts[1], width, query, values, dashes)
        for proc in procs:
            reply = _receive(proc, values.frombytes)  # [count, dash...]
            if not reply:
                return None
            dashes.extend(found + d for d in reply[1:])
            found += reply[0]
    except (OSError, ValueError):
        return None
    finally:
        _reap(procs)
    after = os.fstat(fd)
    changed = (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns)
    if found != lines or len(values) != width * (lines - len(dashes)) or changed:
        return None
    return count, values, dashes


def _parse_worker(argv: list[str]) -> int:
    """Parse one range and send its raw float64 with the reply line
    ``nbytes count dash...``.  A rejected range raises, so the worker
    exits with status 1 and sends nothing."""
    fd, start, stop, width, query = map(int, argv)
    values, dashes = array("d"), []
    count = parse_range(fd, start, stop, width, bool(query), values, dashes)
    return _send([values], count, *dashes)


def format_rows(rows: memoryview) -> bytes:
    """The text of the rows of ``rows``, a 2-D float64 memoryview: each
    entry as ``"%.17g"`` writes it, except that -inf is written as ``inf``;
    one space between entries and one `\\n` after each row."""
    line = b" ".join([b"%.17g"] * rows.shape[1]) + b"\n"
    text = b"".join([line % tuple(row) for row in rows.tolist()])
    return text.replace(b"-inf", b"inf")  # no other "%.17g" output holds "inf"


def _format_range(write, rows: memoryview) -> None:
    """``write`` the text of ``rows`` a few rows at a time."""
    step = max(1, _FORMAT_BLOCK // rows.shape[1])
    for start in range(0, rows.shape[0], step):
        write(format_rows(rows[start:start + step]))


def write_rows(out, rows: memoryview) -> None:
    """Write the text of every row of ``rows`` (a 2-D float64 memoryview, any
    strides) to the binary file ``out``, as :func:`format_rows` writes it.

    A regular file receives a large matrix in up to
    ``min(CPUs, entries // FORMAT_MIN)`` row ranges.  A fresh ``python -I -S``
    worker starts for each range but the first, whose ``FORMAT_LEAD`` head
    start is formatted here meanwhile.  Each worker is then fed the raw
    float64 of its rows a block at a time and formats them into its own
    memory while the rest of the first range is formatted here.  The
    workers' texts are copied in range order; a range whose worker cannot
    start or sends no whole reply is formatted here instead.  Every worker
    is reaped before this returns.
    """
    count, width = rows.shape
    ranges = min(_usable_cpus(), count * width // FORMAT_MIN)
    if ranges < 2 or not stat.S_ISREG(os.fstat(out.fileno()).st_mode):
        _format_range(out.write, rows)
        return

    lead = min(count, FORMAT_LEAD // width)
    cuts = sorted({0, count, *(lead + (count - lead) * i // ranges for i in range(1, ranges))})
    procs = []
    try:
        for start, stop in zip(cuts[1:], cuts[2:]):
            procs.append(_start(["format", stop - start, width]))
        _format_range(out.write, rows[:lead])
        for start, stop, proc in zip(cuts[1:], cuts[2:], procs):
            if proc is not None:
                _feed(proc.stdin, rows[start:stop])
        _format_range(out.write, rows[lead:cuts[1]])
        for start, stop, proc in zip(cuts[1:], cuts[2:], procs):
            mark = out.tell()
            if proc is None or _receive(proc, out.write) is None:
                out.seek(mark)
                out.truncate()
                _format_range(out.write, rows[start:stop])
    finally:
        _reap(procs)


def _feed(pipe, rows: memoryview) -> None:
    """Write the raw float64 of ``rows`` to ``pipe`` a block at a time and
    close it.  A worker that stops reading fails its reply check later."""
    step = max(1, _READ // 8 // rows.shape[1])
    try:
        with pipe:
            for start in range(0, rows.shape[0], step):
                pipe.write(rows[start:start + step].tobytes())
    except OSError:  # a broken pipe: the worker has gone
        pass


def _format_worker(argv: list[str]) -> int:
    """Read ``count × width`` raw float64 from stdin, format them, and send
    the text with the reply line ``nbytes``; exit status 1, with nothing
    sent, if stdin holds anything else."""
    count, width = map(int, argv)
    data = sys.stdin.buffer.read(8 * count * width)
    if len(data) != 8 * count * width or sys.stdin.buffer.read(1):
        return 1
    chunks = []
    _format_range(chunks.append, memoryview(data).cast("d", (count, width)))
    return _send(chunks)


if __name__ == "__main__":
    if sys.argv[1:2] == ["format"]:
        sys.exit(_format_worker(sys.argv[2:]))
    sys.exit(_parse_worker(sys.argv[1:]))
