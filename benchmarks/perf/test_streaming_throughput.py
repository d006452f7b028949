"""Streaming replay throughput: chunked pipeline vs one-shot kernel.

Replays the same 50k-request whole-track-aligned trace (the shape used by
``test_replay_throughput``) two ways on a cache-free single drive:

* **one-shot** -- ``TraceReplayEngine.replay`` through the columnar kernel
  (the in-memory fast path campaigns use),
* **streamed** -- ``TraceReplayEngine.replay_stream`` over 8192-request
  chunks, so the run exercises the chunk loop, the per-chunk eligibility
  gates and the fold-carry continuation while holding only one chunk of
  trace columns at a time.

The two must be bitwise identical; the benchmark's job is to prove the
memory-bounded path does not give up the kernel's throughput.  The gate
(section ``streaming``, row ``streamed``, timed and checked by
``harness.py``) is a *ratio* of the two, so it transfers across machines:
streamed must reach >= 0.8x of one-shot kernel throughput, and stay within
20 % of the committed ratio, which ``refresh_baseline.py streaming``
writes.
"""

from __future__ import annotations

from harness import STREAMING, record_and_check, time_pairs
from repro import build_drive
from repro.sim import TraceReplayEngine, TraceStream
from test_replay_throughput import (
    KERNEL_DRIVE_CONFIG,
    MODEL,
    TRACE_REQUESTS,
    build_aligned_trace,
)

#: Chunk size for the streamed run: small enough that the 50k-request trace
#: spans several chunks (so the chunk loop and fold-carry actually run),
#: large enough that per-chunk overhead is amortized like production use.
STREAM_CHUNK_REQUESTS = 8_192


def measure_streaming() -> dict:
    """One run of the streaming gate: this run's ``streaming`` section.

    One untimed replay of each side checks that both ran the kernel with
    bitwise-identical statistics and warms both up; then
    :func:`time_pairs` times its streamed/one-shot pairs."""
    trace = build_aligned_trace(build_drive(KERNEL_DRIVE_CONFIG), TRACE_REQUESTS)
    chunks = list(trace.iter_chunks(STREAM_CHUNK_REQUESTS))
    assert len(chunks) > 1  # the chunk loop must actually loop
    engine = TraceReplayEngine(build_drive(KERNEL_DRIVE_CONFIG), fast=True)

    def one_shot():
        return engine.replay(trace)

    def streamed():
        return engine.replay_stream(TraceStream(iter(chunks)))

    expected = one_shot()
    assert engine.last_replay_path == "kernel", engine.last_fast_reason
    # The whole point of the streaming path: bitwise-identical statistics.
    assert streamed().to_dict() == expected.to_dict()
    assert engine.last_replay_path == "kernel", engine.last_fast_reason
    row = STREAMING.row(time_pairs(streamed, one_shot), len(trace))
    return STREAMING.measured(
        {"streamed": row},
        model=MODEL,
        requests=len(trace),
        chunk_requests=STREAM_CHUNK_REQUESTS,
    )


def test_streaming_throughput():
    record_and_check(
        STREAMING,
        measure_streaming(),
        f"Streaming replay throughput, chunked vs one-shot kernel: {TRACE_REQUESTS} "
        f"whole-track reads, chunks of {STREAM_CHUNK_REQUESTS}, {MODEL}",
    )
