"""Arrival-process generators: seeded open-loop request streams.

The storage-service scenario (:func:`repro.sim.stream.run_service`) drives a
fleet under *sustained open-loop load*: requests arrive according to a
stochastic arrival process, independent of how fast the drives service
them.  The generators here produce those arrivals as **lazy chunked
traces** -- each yields bounded :class:`~repro.sim.Trace` chunks on demand,
so a multi-million-request run never materializes the full trace.

Four processes, each seeded and fully deterministic:

* ``poisson``     -- memoryless arrivals at a constant rate (the classic
  open-loop baseline).
* ``bursty``      -- a two-state Markov-modulated Poisson process (MMPP-2):
  exponential quiet/burst dwell times with a different rate in each state.
* ``diurnal``     -- an inhomogeneous Poisson process whose rate follows a
  sinusoidal day/night cycle, sampled by thinning.
* ``multiclient`` -- several independent per-client Poisson streams merged
  into one time-ordered stream (a heap merge, still lazy).

Each process is a generator of ``(t, rng)`` arrivals: a timestamp and the
seeded ``random.Random`` that drew it.  One chunker, :func:`_chunked`, turns
any of them into the chunked trace: right after each arrival it draws the
request body (LBN, then direction) from the same ``rng`` under one uniform
model over a target LBN space, and appends the row straight to the chunk's
columns.  The processes therefore differ only in their *timing* -- exactly
what tail-latency comparisons want.

Registry access mirrors the workload registry: :func:`get_arrival`,
:func:`available_arrivals`, :func:`arrival_config` (unknown parameters fail
loudly with :class:`~repro.disksim.errors.ConfigError`), and
:func:`arrival_stream` as the one-call convenience.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from ..disksim.drive import READ, WRITE
from ..disksim.errors import ConfigError
from ..sim.trace import Trace

#: Default chunk size (requests) for generated streams; matches
#: :data:`repro.sim.stream.DEFAULT_CHUNK_REQUESTS`.
DEFAULT_CHUNK_REQUESTS = 65536


def _require_positive(name: str, value: float) -> None:
    if not value > 0.0 or math.isinf(value) or math.isnan(value):
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")


def _check_body(config) -> None:
    if config.n_requests <= 0:
        raise ConfigError(f"n_requests must be positive, got {config.n_requests!r}")
    if config.request_sectors <= 0:
        raise ConfigError(
            f"request_sectors must be positive, got {config.request_sectors!r}"
        )
    if not 0.0 <= config.read_fraction <= 1.0:
        raise ConfigError(
            f"read_fraction must be in [0, 1], got {config.read_fraction!r}"
        )


def _check_span(total_lbns: int, request_sectors: int) -> int:
    if total_lbns <= request_sectors:
        raise ConfigError(
            f"target LBN space ({total_lbns} sectors) is smaller than one "
            f"request ({request_sectors} sectors)"
        )
    return total_lbns - request_sectors


def _chunked(
    arrivals: Iterator[tuple[float, random.Random]],
    span: int,
    sectors: int,
    read_fraction: float,
    chunk_requests: int,
) -> Iterator["Trace"]:
    """Chunk a ``(t, rng)`` arrival generator into traces of at most
    ``chunk_requests`` rows.

    Each row's LBN and then its direction are drawn from the arrival's
    ``rng`` before the generator draws its next arrival, so every stream
    keeps its draw order whatever the chunk size.  Rows go straight into
    the chunk's columns: the caller validated the config
    (:func:`_check_body`, :func:`_check_span`), so every row is valid by
    construction.  Yields each full chunk, then the non-empty tail.
    """
    while True:
        chunk = Trace()
        issue_ms = chunk.issue_ms
        lbns = chunk.lbns
        counts = chunk.counts
        ops = chunk.ops
        for t, rng in islice(arrivals, chunk_requests):
            issue_ms.append(t)
            lbns.append(rng.randrange(span))
            counts.append(sectors)
            ops.append(READ if rng.random() < read_fraction else WRITE)
        if not lbns:
            return
        yield chunk


# --------------------------------------------------------------------------- #
# Poisson
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PoissonConfig:
    """Constant-rate memoryless arrivals."""

    rate_rps: float = 200.0
    n_requests: int = 100_000
    request_sectors: int = 8
    read_fraction: float = 0.7
    seed: int = 42


class PoissonArrivals:
    name = "poisson"
    description = "memoryless arrivals at a constant rate"

    @classmethod
    def default_config(cls) -> PoissonConfig:
        return PoissonConfig()

    @classmethod
    def stream(
        cls,
        config: PoissonConfig,
        total_lbns: int,
        chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
    ) -> Iterator["Trace"]:
        _check_body(config)
        _require_positive("rate_rps", config.rate_rps)
        span = _check_span(total_lbns, config.request_sectors)
        if chunk_requests <= 0:
            raise ConfigError("chunk_requests must be positive")

        def arrivals() -> Iterator[tuple[float, random.Random]]:
            rng = random.Random(config.seed)
            scale = 1000.0 / config.rate_rps  # mean interarrival in ms
            t = 0.0
            for _ in range(config.n_requests):
                t += rng.expovariate(1.0) * scale
                yield t, rng

        return _chunked(arrivals(), span, config.request_sectors,
                        config.read_fraction, chunk_requests)


# --------------------------------------------------------------------------- #
# Bursty (MMPP-2)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class BurstyConfig:
    """Two-state Markov-modulated Poisson process.

    The process alternates between a *quiet* state (rate ``base_rate_rps``,
    mean dwell ``mean_quiet_ms``) and a *burst* state (rate
    ``burst_rate_rps``, mean dwell ``mean_burst_ms``); dwell times are
    exponential, arrivals within a state are Poisson.
    """

    base_rate_rps: float = 100.0
    burst_rate_rps: float = 1000.0
    mean_quiet_ms: float = 800.0
    mean_burst_ms: float = 200.0
    n_requests: int = 100_000
    request_sectors: int = 8
    read_fraction: float = 0.7
    seed: int = 42


class BurstyArrivals:
    name = "bursty"
    description = "two-state MMPP: quiet/burst dwell with distinct rates"

    @classmethod
    def default_config(cls) -> BurstyConfig:
        return BurstyConfig()

    @classmethod
    def stream(
        cls,
        config: BurstyConfig,
        total_lbns: int,
        chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
    ) -> Iterator["Trace"]:
        _check_body(config)
        _require_positive("base_rate_rps", config.base_rate_rps)
        _require_positive("burst_rate_rps", config.burst_rate_rps)
        _require_positive("mean_quiet_ms", config.mean_quiet_ms)
        _require_positive("mean_burst_ms", config.mean_burst_ms)
        span = _check_span(total_lbns, config.request_sectors)
        if chunk_requests <= 0:
            raise ConfigError("chunk_requests must be positive")

        def arrivals() -> Iterator[tuple[float, random.Random]]:
            rng = random.Random(config.seed)
            rates_per_ms = (
                config.base_rate_rps / 1000.0,
                config.burst_rate_rps / 1000.0,
            )
            dwell_ms = (config.mean_quiet_ms, config.mean_burst_ms)
            state = 0
            t = 0.0
            state_end = rng.expovariate(1.0) * dwell_ms[state]
            emitted = 0
            while emitted < config.n_requests:
                dt = rng.expovariate(1.0) / rates_per_ms[state]
                if t + dt >= state_end:
                    # The candidate arrival falls in the next dwell; move
                    # to the state boundary and redraw (memorylessness
                    # makes the discarded partial gap exact).
                    t = state_end
                    state = 1 - state
                    state_end = t + rng.expovariate(1.0) * dwell_ms[state]
                    continue
                t += dt
                yield t, rng
                emitted += 1

        return _chunked(arrivals(), span, config.request_sectors,
                        config.read_fraction, chunk_requests)


# --------------------------------------------------------------------------- #
# Diurnal (inhomogeneous Poisson by thinning)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class DiurnalConfig:
    """Sinusoidal rate cycle between ``base_rate_rps`` and
    ``peak_rate_rps`` with period ``period_ms`` (a scaled day)."""

    base_rate_rps: float = 100.0
    peak_rate_rps: float = 500.0
    period_ms: float = 60_000.0
    n_requests: int = 100_000
    request_sectors: int = 8
    read_fraction: float = 0.7
    seed: int = 42


class DiurnalArrivals:
    name = "diurnal"
    description = "sinusoidal day/night rate cycle (thinned Poisson)"

    @classmethod
    def default_config(cls) -> DiurnalConfig:
        return DiurnalConfig()

    @classmethod
    def stream(
        cls,
        config: DiurnalConfig,
        total_lbns: int,
        chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
    ) -> Iterator["Trace"]:
        _check_body(config)
        _require_positive("base_rate_rps", config.base_rate_rps)
        _require_positive("peak_rate_rps", config.peak_rate_rps)
        _require_positive("period_ms", config.period_ms)
        if config.peak_rate_rps < config.base_rate_rps:
            raise ConfigError(
                "peak_rate_rps must be >= base_rate_rps "
                f"({config.peak_rate_rps!r} < {config.base_rate_rps!r})"
            )
        span = _check_span(total_lbns, config.request_sectors)
        if chunk_requests <= 0:
            raise ConfigError("chunk_requests must be positive")

        def arrivals() -> Iterator[tuple[float, random.Random]]:
            rng = random.Random(config.seed)
            peak_per_ms = config.peak_rate_rps / 1000.0
            base = config.base_rate_rps
            swing = config.peak_rate_rps - config.base_rate_rps
            omega = 2.0 * math.pi / config.period_ms
            t = 0.0
            emitted = 0
            while emitted < config.n_requests:
                t += rng.expovariate(1.0) / peak_per_ms
                rate = base + swing * 0.5 * (1.0 + math.sin(omega * t))
                if rng.random() * config.peak_rate_rps > rate:
                    continue  # thinned out
                yield t, rng
                emitted += 1

        return _chunked(arrivals(), span, config.request_sectors,
                        config.read_fraction, chunk_requests)


# --------------------------------------------------------------------------- #
# Multi-client merge
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class MultiClientConfig:
    """``n_clients`` independent Poisson clients at ``rate_rps`` each,
    merged into one time-ordered stream (``n_requests`` total)."""

    n_clients: int = 4
    rate_rps: float = 50.0
    n_requests: int = 100_000
    request_sectors: int = 8
    read_fraction: float = 0.7
    seed: int = 42


class MultiClientArrivals:
    name = "multiclient"
    description = "independent per-client Poisson streams, heap-merged"

    @classmethod
    def default_config(cls) -> MultiClientConfig:
        return MultiClientConfig()

    @classmethod
    def stream(
        cls,
        config: MultiClientConfig,
        total_lbns: int,
        chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
    ) -> Iterator["Trace"]:
        _check_body(config)
        _require_positive("rate_rps", config.rate_rps)
        if config.n_clients <= 0:
            raise ConfigError(
                f"n_clients must be positive, got {config.n_clients!r}"
            )
        span = _check_span(total_lbns, config.request_sectors)
        if chunk_requests <= 0:
            raise ConfigError("chunk_requests must be positive")

        def arrivals() -> Iterator[tuple[float, random.Random]]:
            scale = 1000.0 / config.rate_rps
            rngs = [
                random.Random(config.seed * 1_000_003 + client)
                for client in range(config.n_clients)
            ]
            heap = [
                (rngs[c].expovariate(1.0) * scale, c)
                for c in range(config.n_clients)
            ]
            heapq.heapify(heap)
            for _ in range(config.n_requests):
                t, client = heap[0]
                rng = rngs[client]
                yield t, rng
                heapq.heapreplace(
                    heap, (t + rng.expovariate(1.0) * scale, client)
                )

        return _chunked(arrivals(), span, config.request_sectors,
                        config.read_fraction, chunk_requests)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

#: Arrival-process registry: name -> generator class.
ARRIVALS: dict[str, type] = {
    cls.name: cls
    for cls in (
        PoissonArrivals,
        BurstyArrivals,
        DiurnalArrivals,
        MultiClientArrivals,
    )
}


def available_arrivals() -> list[str]:
    return sorted(ARRIVALS)


def get_arrival(name: str):
    try:
        return ARRIVALS[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown arrival process {name!r}; "
            f"available: {available_arrivals()}"
        ) from None


def arrival_config(name: str, **params):
    """The named process's config with ``params`` overriding defaults.

    Unknown parameter names fail loudly, like the workload registry's
    :func:`~repro.api.registry.workload_config`.
    """
    cls = get_arrival(name)
    default = cls.default_config()
    known = {f.name for f in dataclasses.fields(default)}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ConfigError(
            f"arrival process {cls.name!r}: unknown parameters {unknown}; "
            f"known: {sorted(known)}"
        )
    return dataclasses.replace(default, **params)


def arrival_stream(
    name: str,
    total_lbns: int,
    chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
    **params,
) -> Iterator["Trace"]:
    """Lazy chunked trace stream for the named arrival process."""
    cls = get_arrival(name)
    config = arrival_config(name, **params)
    return cls.stream(config, total_lbns, chunk_requests)


__all__ = [
    "ARRIVALS",
    "BurstyArrivals",
    "BurstyConfig",
    "DEFAULT_CHUNK_REQUESTS",
    "DiurnalArrivals",
    "DiurnalConfig",
    "MultiClientArrivals",
    "MultiClientConfig",
    "PoissonArrivals",
    "PoissonConfig",
    "arrival_config",
    "arrival_stream",
    "available_arrivals",
    "get_arrival",
]
