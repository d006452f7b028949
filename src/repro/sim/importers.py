"""Raw-trace importers: external trace files as replayable ``Trace`` input.

The supported line format is the classic blktrace/disksim-style text dump::

    <timestamp-seconds> <device> <lbn> <nblocks> <R|W>

one request per line -- e.g. ``0.001250 8,0 40320 8 R``.  The device field
is carried by real traces but irrelevant to a single-LBN-space replay, so
it is accepted and ignored.  Blank lines and ``#`` comments are skipped.
Timestamps are converted from seconds to the engine's milliseconds.

Malformed input fails loudly at parse time with
:class:`~repro.disksim.errors.ConfigError` naming the offending line --
a silent skip would bias every latency statistic computed downstream.

Two entry points:

* :func:`import_blktrace` -- whole-file import into one :class:`Trace`.
* :func:`iter_blktrace_chunks` -- lazy chunked import for the streaming
  replay path (:mod:`repro.sim.stream`); the file is read line by line,
  never fully materialized.

The ``raw-file`` workload registered in :mod:`repro.api.registry` exposes
the importer to scenarios and the CLI.
"""

from __future__ import annotations

import os
import sys
from typing import IO, Iterable, Iterator

from ..disksim.drive import READ, WRITE, row_problem
from ..disksim.errors import ConfigError
from .trace import Trace

#: Accepted opcode spellings (blktrace uses single letters).
_OPCODES = {
    "r": READ,
    "read": READ,
    "w": WRITE,
    "write": WRITE,
}


def parse_blktrace_line(line: str, lineno: int) -> tuple[float, int, int, str] | None:
    """Parse one trace line into ``(issue_ms, lbn, count, op)``.

    Returns ``None`` for blank lines and ``#`` comments.  Raises
    :class:`ConfigError` (with ``lineno``, 1-based) on malformed input: a
    field that does not parse, then an opcode letter other than R or W,
    then a timestamp (in seconds), count or LBN that
    :func:`~repro.disksim.drive.row_problem` refuses, in its words.
    """
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    fields = text.split()
    if len(fields) != 5:
        raise ConfigError(
            f"line {lineno}: expected 5 fields "
            f"'ts dev lbn nblocks R|W', got {len(fields)}: {text!r}"
        )
    ts_text, _dev, lbn_text, count_text, op_text = fields
    try:
        ts = float(ts_text)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: timestamp {ts_text!r} is not a number"
        ) from None
    try:
        lbn = int(lbn_text)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: LBN {lbn_text!r} is not an integer"
        ) from None
    try:
        count = int(count_text)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: block count {count_text!r} is not an integer"
        ) from None
    op = _OPCODES.get(op_text.lower())
    if op is None:
        raise ConfigError(
            f"line {lineno}: unknown opcode {op_text!r} (expected R or W)"
        )
    problem = row_problem(op, lbn, count, issue_ms=ts)
    if problem is not None:
        raise ConfigError(f"line {lineno}: {problem}")
    return ts * 1000.0, lbn, count, op


def _parse_lines(lines: Iterable[str]) -> Iterator[tuple[float, int, int, str]]:
    for lineno, line in enumerate(lines, start=1):
        record = parse_blktrace_line(line, lineno)
        if record is not None:
            yield record


def import_blktrace(source: "str | os.PathLike[str] | IO[str] | Iterable[str]") -> Trace:
    """Import a whole blktrace-style text trace into one :class:`Trace`.

    ``source`` is a file path, an open text handle, or any iterable of
    lines.  The result preserves file order (real traces are captured in
    issue order; an unordered file can be normalized afterwards with
    :meth:`Trace.sorted_by_issue`).
    """
    return Trace.from_chunks(iter_blktrace_chunks(source, sys.maxsize))


def iter_blktrace_chunks(
    source: "str | os.PathLike[str] | IO[str] | Iterable[str]",
    chunk_requests: int = 65536,
) -> Iterator[Trace]:
    """Lazily import a blktrace-style text trace as bounded chunks.

    Reads line by line; memory stays proportional to ``chunk_requests``
    regardless of file size.  Each line is checked once, by
    :func:`parse_blktrace_line`, and its row goes straight into the chunk's
    columns.  Feed the result to :meth:`TraceReplayEngine.replay_stream`,
    whose row check refuses a timestamp that runs backwards across lines.
    """
    if chunk_requests <= 0:
        raise ConfigError("chunk_requests must be positive")
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            yield from iter_blktrace_chunks(handle, chunk_requests)
        return
    chunk = Trace()
    for issue_ms, lbn, count, op in _parse_lines(source):
        chunk.issue_ms.append(issue_ms)
        chunk.lbns.append(lbn)
        chunk.counts.append(count)
        chunk.ops.append(op)
        if len(chunk) >= chunk_requests:
            yield chunk
            chunk = Trace()
    if len(chunk):
        yield chunk


__all__ = [
    "import_blktrace",
    "iter_blktrace_chunks",
    "parse_blktrace_line",
]
