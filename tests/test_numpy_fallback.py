"""numpy-free degradation: a worker without numpy must fall back to the
exact scalar paths after a *single* import attempt and a single warning.

:func:`repro.sim.kernel._numpy` caches the import result at module
level, so a spawn worker in a numpy-less environment pays the failed
import once, and says so once, instead of on every call.  These tests
monkeypatch numpy away, reset the cache, and assert exactly one attempt,
exactly one :class:`RuntimeWarning`, and correct scalar results for both
the replay's row check and the replay engine's kernel auto-selection.  The
seek table's list form is built without numpy at all.
"""

from __future__ import annotations

import random
import warnings

import pytest

from _numpy_gate import HAVE_NUMPY, block_numpy
from repro.disksim import DiskDrive, DiskGeometry, small_test_specs
from repro.disksim.errors import RequestError
from repro.sim import Trace, TraceReplayEngine, TraceStream
from repro.sim.kernel import clear_kernel_tables, seek_table, seek_table_list

SMALL = dict(cylinders_per_zone=12, num_zones=3)


@pytest.fixture()
def no_numpy(monkeypatch):
    """:func:`block_numpy` for the whole test; yields the attempts list."""
    from repro.sim import kernel as kernel_module

    yield block_numpy(monkeypatch)
    # Leave the cache unresolved so the next caller re-imports real numpy.
    kernel_module._NUMPY_CACHE = kernel_module._NUMPY_UNRESOLVED


def chunks(times: list[float]) -> list[Trace]:
    """One-row chunks at ``times``."""
    return [Trace([t], [8 * k], [8], ["read"]) for k, t in enumerate(times)]


def test_stream_validation_degrades_with_single_warning(no_numpy):
    engine = TraceReplayEngine(DiskDrive(small_test_specs(**SMALL)))
    with pytest.warns(RuntimeWarning, match="numpy is not installed"):
        stats = engine.replay_stream(TraceStream(chunks([0.0, 1.0, 1.0, 2.5])))
    assert stats.trace_requests == 4
    # Further streams neither warn again nor re-attempt the import, and the
    # scalar row check still names the offending request.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RequestError) as error:
            engine.replay_stream(TraceStream(chunks([0.0, 2.0, 1.0])))
        assert str(error.value) == (
            "request #2: timestamp 1.0 is earlier than the previous request's 2.0"
        )
        with pytest.raises(RequestError) as error:
            engine.replay_stream(TraceStream(chunks([0.0, -1.0])))
        assert str(error.value) == "request #1: timestamp -1.0 is negative"
    assert len(no_numpy) == 1


#: An open replay, a closed depth-1 replay and an SPTF depth-4 replay.
REPLAYS = [("open", {}), ("closed", {}), ("closed", {"scheduler": "sptf", "queue_depth": 4})]


def replay(trace: Trace, mode: str, options: dict):
    engine = TraceReplayEngine(DiskDrive(small_test_specs(**SMALL)), fast=True, **options)
    if mode == "open":
        return engine, engine.replay(trace)
    return engine, engine.replay_closed(trace)


def test_replay_degrades_to_scalar_without_numpy(monkeypatch):
    total_lbns = DiskGeometry(small_test_specs(**SMALL)).total_lbns
    rng = random.Random(7)
    trace = Trace()
    for i in range(50):
        trace.append(i * 1.0, rng.randrange(0, total_lbns - 64),
                     rng.randint(1, 64), "read")
    # Without numpy, the aggregator's pure-Python folds build every
    # ReplayStats: each must equal the numpy run's bitwise.
    with_numpy = [replay(trace, mode, options)[1].to_dict() for mode, options in REPLAYS]
    attempts = block_numpy(monkeypatch)
    with pytest.warns(RuntimeWarning, match="numpy is not installed"):
        engine, stats = replay(trace, *REPLAYS[0])
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "numpy unavailable"
    assert stats.issued_requests == len(trace)
    # Later replays go straight to the scalar path: no new attempt.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        without_numpy = [replay(trace, mode, options)[1].to_dict() for mode, options in REPLAYS]
    assert len(attempts) == 1
    assert without_numpy == with_numpy


def test_seek_table_is_built_without_numpy(monkeypatch):
    # The list needs no numpy, so scalar code can read it on a host
    # without numpy; the kernel's array holds the same doubles.
    drive = DiskDrive.for_model("Quantum Atlas 10K II")
    curve, cylinders = drive.seek_curve, drive.geometry.cylinders
    expected = [curve.seek_time(d) for d in range(cylinders)]
    clear_kernel_tables()
    attempts = block_numpy(monkeypatch)
    assert seek_table_list(curve, cylinders) == expected
    assert attempts == []
    monkeypatch.undo()
    if HAVE_NUMPY:
        assert seek_table(curve, cylinders).tolist() == expected
