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
memory-bounded path does not give up the kernel's throughput.  The gate is
a *ratio* (streamed rps / one-shot rps), so it transfers across machines:

* streamed must reach >= 0.8x of one-shot kernel throughput, and
* the ratio must not regress more than 20 % below the committed value in
  the ``streaming`` section of ``BENCH_replay.json``; a committed file
  without that section fails the gate.

Results go where every perf gate writes (``test_replay_throughput.OUT_DIR``,
untracked): a ``streaming`` section of this run's ``BENCH_replay.json`` and
a ``"kind": "streaming"`` line of ``BENCH_history.jsonl``.
"""

from __future__ import annotations

from repro import build_drive
from repro.sim import TraceStream

from test_replay_throughput import (
    COMMITTED_BASELINE,
    HISTORY_PATH,
    KERNEL_DRIVE_CONFIG,
    MAX_REGRESSION,
    MODEL,
    REPEATS,
    REPO_ROOT,
    RUN_PATH,
    TRACE_REQUESTS,
    TraceReplayEngine,
    _best_of,
    append_history,
    build_aligned_trace,
    missing_baseline,
    rps_sides,
    section_rps,
    write_bench_section,
    write_report,
)

#: Chunk size for the streamed run: small enough that the 50k-request trace
#: spans several chunks (so the chunk loop and fold-carry actually run),
#: large enough that per-chunk overhead is amortized like production use.
STREAM_CHUNK_REQUESTS = 8_192
#: Streamed kernel throughput floor, as a fraction of one-shot kernel rps.
MIN_STREAM_RATIO = 0.8


def _check_streaming_regression(baseline: dict, section: dict) -> list[str]:
    committed = baseline.get("streaming") or {}
    reference = (committed.get("streamed") or {}).get("ratio_vs_one_shot")
    if not reference:
        return [missing_baseline("streaming")]
    current = section["streamed"]["ratio_vs_one_shot"]
    if current < reference * (1.0 - MAX_REGRESSION):
        sides = rps_sides(
            ("one-shot", section_rps(section, "one_shot"), section_rps(committed, "one_shot")),
            ("streamed", section_rps(section, "streamed"), section_rps(committed, "streamed")),
        )
        return [
            f"streamed/one-shot ratio regressed >20%: {current:.3f} vs "
            f"committed baseline {reference:.3f}; {sides}"
        ]
    return []


def test_streaming_throughput():
    drive = build_drive(KERNEL_DRIVE_CONFIG)
    trace = build_aligned_trace(drive, TRACE_REQUESTS)
    chunks = list(trace.iter_chunks(STREAM_CHUNK_REQUESTS))
    assert len(chunks) > 1  # the chunk loop must actually loop

    engine = TraceReplayEngine(build_drive(KERNEL_DRIVE_CONFIG), fast=True)

    one_shot_stats = engine.replay(trace)
    assert engine.last_replay_path == "kernel", engine.last_fast_reason
    one_shot_s = _best_of(REPEATS, lambda: engine.replay(trace))
    one_shot_rps = len(trace) / one_shot_s

    streamed_stats = engine.replay_stream(TraceStream(iter(chunks)))
    assert engine.last_replay_path == "kernel", engine.last_fast_reason
    # The whole point of the streaming path: bitwise-identical statistics.
    assert streamed_stats.to_dict() == one_shot_stats.to_dict()
    streamed_s = _best_of(
        REPEATS,
        lambda: engine.replay_stream(TraceStream(iter(chunks))),
    )
    streamed_rps = len(trace) / streamed_s

    ratio = streamed_rps / one_shot_rps
    section = {
        "model": MODEL,
        "requests": len(trace),
        "chunk_requests": STREAM_CHUNK_REQUESTS,
        "min_ratio_required": MIN_STREAM_RATIO,
        "one_shot": {"seconds": one_shot_s, "rps": one_shot_rps},
        "streamed": {
            "seconds": streamed_s,
            "rps": streamed_rps,
            "ratio_vs_one_shot": ratio,
        },
    }

    append_history(
        {
            "kind": "streaming",
            "requests": section["requests"],
            "chunk_requests": section["chunk_requests"],
            "one_shot_rps": one_shot_rps,
            "streamed_rps": streamed_rps,
            "stream_ratio": ratio,
        }
    )
    write_bench_section({"streaming": section})
    regressions = _check_streaming_regression(COMMITTED_BASELINE, section)

    write_report(
        "BENCH_replay_streaming",
        "\n".join(
            [
                "Streaming replay throughput (chunked pipeline vs one-shot kernel)",
                f"  trace: {len(trace)} whole-track reads, "
                f"chunks of {STREAM_CHUNK_REQUESTS}, {MODEL}",
                f"  one-shot kernel : {one_shot_rps:>10.0f} rps",
                f"  streamed kernel : {streamed_rps:>10.0f} rps  "
                f"({ratio:.3f}x of one-shot)",
                f"  artifacts: {RUN_PATH.relative_to(REPO_ROOT)}, "
                f"{HISTORY_PATH.relative_to(REPO_ROOT)}",
            ]
        ),
    )

    assert ratio >= MIN_STREAM_RATIO, (
        f"streamed replay reached only {ratio:.3f}x of one-shot kernel "
        f"throughput (floor {MIN_STREAM_RATIO}x): {streamed_rps:.0f} vs "
        f"{one_shot_rps:.0f} rps"
    )
    assert not regressions, "; ".join(regressions)
