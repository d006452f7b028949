"""Pluggable request schedulers: the drive's dispatch-time queue policies.

This module makes the drive's dispatch decision a first-class, swappable
policy, so the natural follow-on question of the disksim/freeblock lineage
-- how much of the traxtent advantage survives under position-aware
scheduling? -- becomes one more campaign axis.

A :class:`Scheduler` owns a pending queue of :class:`QueuedRequest` entries;
the drive itself holds none.  The replay engine (or any other driver) binds
a scheduler to one drive, ``push``-es requests as they arrive, ``pop``-s one
whenever the drive is ready to start its next mechanical access and serves
it with :meth:`~repro.disksim.drive.DiskDrive.submit`; the policy decides
*which* queued request goes next.  Five policies are registered:

* ``fcfs``     -- arrival order (the pre-scheduler behaviour; the scalar
  oracle and the columnar kernel remain bitwise identical under it),
* ``sstf``     -- shortest seek time first: minimise cylinder distance from
  the current head position,
* ``sptf``     -- shortest positioning time first: minimise the *full*
  estimated positioning cost (seek via the drive's fitted
  :class:`~repro.disksim.seek.SeekCurve`, head switch, write settle, plus
  the rotational latency implied by the head's rotation phase at the
  estimated media-arrival time),
* ``clook``    -- circular LOOK: service queued requests in ascending
  cylinder order from the current head position, wrapping to the lowest
  pending cylinder when the sweep runs out, and
* ``traxtent`` -- track-extent batching over an FCFS backbone: when the
  oldest request is dispatched, every queued request falling in the same
  track-aligned extent is coalesced into one ascending-LBN batch and
  dispatched back to back, so the whole extent is drained in a single
  sweep before the arm moves on.

Scheduling composes with fault injection (:mod:`repro.faults`): dispatch
order is decided here, and whatever the policy dispatches then pays the
drive's fault model (retry rotations, slowdown windows, fail-stop) in
``DiskDrive.submit`` -- scheduled fault-bearing replays run on the exact
scalar path, never the vectorized kernel.

Every policy carries a configurable **starvation bound**: when the oldest
queued request has waited longer than ``starvation_ms`` at a dispatch
decision, it is dispatched regardless of the policy's preference (and
counted in :attr:`Scheduler.forced_dispatches`).  Ties are broken
deterministically by arrival sequence number, so a replay under any policy
is exactly reproducible.

Schedulers are registered by name (:func:`available_schedulers`,
:func:`get_scheduler`, :func:`make_scheduler`) so scenario configs, campaign
axes and the CLI can select them declaratively.

Every registered policy also implements the **kernel vectorization
contract** used by the replay kernel (:func:`repro.sim.kernel._service_shard`):
``kernel_select`` scores the pending queue in one plain-Python loop over
per-request columns the kernel precomputed (a :class:`KernelQueueView`)
and returns the position the scalar ``_select`` would have picked,
performing the exact float operations of ``_select`` in the same order --
the kernel never re-implements policy semantics, it asks the policy to
pick from columns.  Subclasses that override the scalar hooks without
providing matching kernel hooks are detected by
:func:`kernel_fallback_reason` and replayed through the exact scalar
queue loop instead.

Queue operations are deliberately O(pending) per dispatch (linear scans
over a plain list): the policies stay obviously-correct and deterministic,
and the queues of the modeled scenarios are shallow (closed replay bounds
depth explicitly; open replay only queues while arrivals outrun service).
Replaying a heavily-overloaded open trace under a non-FCFS policy is
quadratic in the backlog -- bound the offered load, or batch the sweep,
before reaching for such a replay.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING

from .drive import WRITE, DiskRequest
from .errors import DiskSimError

if TYPE_CHECKING:  # pragma: no cover
    from .drive import DiskDrive


class SchedulerError(DiskSimError):
    """Unknown scheduling policy or malformed scheduler configuration."""


class KernelQueueView:
    """Columnar snapshot of a drive's pending queue for the replay kernel.

    Built once per shard-local replay by the kernel
    (:func:`repro.sim.kernel._service_shard`) whenever it dispatches from
    a pending queue.  Each column is a plain Python list with one value
    per *trace request* (indexed by request index, not queue position):
    ``issue_l``/``issue_cmd_l`` (issue time, and issue time plus command
    overhead; in closed mode written at each admission), ``lbn_l``,
    ``track_l``, ``cylinder_l``, and ``seek_lut_l`` (seek time by cylinder
    distance).  :attr:`pending` is the live queue: request indices in
    admission order (ascending, matching the scalar scheduler's arrival
    ``seq``), mutated in place by the kernel's dispatch loop.  The head
    position and actuator availability are refreshed by the kernel before
    every dispatch decision.

    ``pos_l`` packs the per-request positioning constants
    ``(cylinder, surface, settle, spt, sector_ms, skew, start_slot,
    span)`` into one tuple per request so hot scoring loops (SPTF) pay a
    single subscript + unpack instead of eight list indexings.
    """

    __slots__ = (
        "pending", "head_cylinder", "head_surface", "actuator_free",
        "rotation_ms", "head_switch_ms", "zero_latency",
        "issue_l", "issue_cmd_l", "lbn_l", "track_l", "cylinder_l",
        "seek_lut_l", "pos_l",
    )

    def __init__(self, **fields) -> None:
        for name in self.__slots__:
            setattr(self, name, fields.get(name))
        self.pending = []


def kernel_oldest(view: KernelQueueView) -> int:
    """Queue position of the longest-waiting pending request.

    First occurrence of the minimum issue time; since :attr:`pending` is in
    admission order this matches the scalar ``_oldest``'s
    ``(issue_time, seq)`` tie-break exactly.
    """
    pending = view.pending
    issue = view.issue_l
    best = 0
    best_t = issue[pending[0]]
    for pos in range(1, len(pending)):
        t = issue[pending[pos]]
        if t < best_t:
            best_t = t
            best = pos
    return best


def _defining_class(cls: type, name: str) -> "type | None":
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    return None


def kernel_fallback_reason(scheduler: "Scheduler | type[Scheduler]") -> str | None:
    """``None`` when the policy honours the kernel vectorization contract.

    A policy is kernel-eligible when it keeps the base class's admission
    and dispatch machinery (``push``/``pop``/``_oldest``) and pairs every
    scalar hook override with a matching kernel hook: the class providing
    ``kernel_select`` must sit at-or-before the one providing ``_select``
    in the MRO (likewise ``kernel_removed``/``_on_removed`` and
    ``kernel_reset``/``clear``), so a subclass that changes scalar
    semantics without teaching the kernel falls back to the exact scalar
    queue loop instead of silently diverging.  Returns the stable refusal
    string ``"scheduler not kernel-vectorizable"`` otherwise.
    """
    cls = scheduler if isinstance(scheduler, type) else type(scheduler)
    if (
        cls.pop is not Scheduler.pop
        or cls.push is not Scheduler.push
        or cls._oldest is not Scheduler._oldest
    ):
        return "scheduler not kernel-vectorizable"
    mro = cls.__mro__
    for kernel_name, scalar_name in (
        ("kernel_select", "_select"),
        ("kernel_removed", "_on_removed"),
        ("kernel_reset", "clear"),
    ):
        kernel_def = _defining_class(cls, kernel_name)
        scalar_def = _defining_class(cls, scalar_name)
        if kernel_def is None or scalar_def is None:
            return "scheduler not kernel-vectorizable"
        if mro.index(kernel_def) > mro.index(scalar_def):
            return "scheduler not kernel-vectorizable"
    return None


class QueuedRequest:
    """One pending request plus the geometry facts the policies sort by.

    The physical annotations (track, cylinder, surface, rotational slot,
    sectors-per-track, skew) are resolved once at admission (``push``)
    against the bound drive's geometry, so ``pop`` decisions cost no
    geometry lookups.
    """

    __slots__ = (
        "request",
        "issue_time",
        "seq",
        "track",
        "cylinder",
        "surface",
        "start_slot",
        "spt",
        "sector_ms",
    )

    def __init__(self, request: DiskRequest, issue_time: float, seq: int) -> None:
        self.request = request
        self.issue_time = issue_time
        self.seq = seq
        self.track = 0
        self.cylinder = 0
        self.surface = 0
        self.start_slot = 0
        self.spt = 1
        self.sector_ms = 0.0

    def annotate(self, drive: "DiskDrive") -> None:
        geometry = drive.geometry
        self.track = geometry.track_of_lbn(self.request.lbn)
        self.cylinder, self.surface = geometry.track_to_cyl_surface(self.track)
        zone = geometry.zone_of_cylinder(self.cylinder)
        self.spt = zone.sectors_per_track
        self.sector_ms = drive.specs.sector_time_ms(self.spt)
        self.start_slot = geometry.slot_of_lbn(self.request.lbn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueuedRequest(seq={self.seq}, lbn={self.request.lbn}, "
            f"cyl={self.cylinder}, t={self.issue_time})"
        )


class Scheduler:
    """Base class: a pending queue plus the policy hook :meth:`_select`.

    Subclasses implement ``_select(now)`` over :attr:`queue`; the base class
    owns admission (:meth:`push`), the starvation bound, forced-dispatch
    accounting and deterministic removal.  A scheduler must be bound to a
    drive (:meth:`bind`; the replay engine binds one clone per drive)
    before requests are pushed, because the policies sort by the drive's
    physical position.  The caller serves each popped entry with
    :meth:`~repro.disksim.drive.DiskDrive.submit`.
    """

    #: Registry key; subclasses override.
    name = "base"

    def __init__(self, starvation_ms: float | None = None) -> None:
        if starvation_ms is not None and starvation_ms <= 0:
            raise SchedulerError("starvation_ms must be positive (or None)")
        self.starvation_ms = starvation_ms
        self.drive: "DiskDrive | None" = None
        self.queue: list[QueuedRequest] = []
        self.forced_dispatches = 0
        self._seq = 0

    # ------------------------------------------------------------------ #
    def bind(self, drive: "DiskDrive") -> None:
        """Attach to a drive and start from an empty queue."""
        self.drive = drive
        self.clear()

    def clone(self) -> "Scheduler":
        """A fresh, unbound scheduler with the same policy parameters."""
        return type(self)(starvation_ms=self.starvation_ms)

    def clear(self) -> None:
        self.queue = []
        self.forced_dispatches = 0
        self._seq = 0

    def __len__(self) -> int:
        return len(self.queue)

    # ------------------------------------------------------------------ #
    def push(self, request: DiskRequest, issue_time: float) -> None:
        """Admit one request to the pending queue.

        Nothing is checked here: the replay loop checks every row before
        it is pushed.
        """
        if self.drive is None:
            raise SchedulerError(
                f"scheduler {self.name!r} is not bound to a drive"
            )
        entry = QueuedRequest(request, issue_time, self._seq)
        self._seq += 1
        entry.annotate(self.drive)
        self.queue.append(entry)

    def _oldest(self) -> QueuedRequest:
        """The longest-waiting entry (arrival-sequence tie-break)."""
        return min(self.queue, key=lambda e: (e.issue_time, e.seq))

    def pop(self, now: float) -> QueuedRequest | None:
        """Remove and return the request to dispatch at time ``now``.

        The starvation bound is checked first: if the oldest queued request
        has waited longer than ``starvation_ms``, it is dispatched
        regardless of the policy.  Otherwise the policy's :meth:`_select`
        picks, with ties broken by arrival sequence.

        :attr:`forced_dispatches` counts only genuine overrides -- bound
        trips where the policy would have picked a *different* request --
        so it measures how often the bound actually bent the schedule.
        """
        if not self.queue:
            return None
        if self.starvation_ms is not None:
            oldest = self._oldest()
            if now - oldest.issue_time > self.starvation_ms:
                if self._select(now) is not oldest:
                    self.forced_dispatches += 1
                self.queue.remove(oldest)
                self._on_removed(oldest)
                return oldest
        entry = self._select(now)
        self.queue.remove(entry)
        self._on_removed(entry)
        return entry

    # ------------------------------------------------------------------ #
    # Policy hooks
    # ------------------------------------------------------------------ #
    def _select(self, now: float) -> QueuedRequest:
        raise NotImplementedError

    def _on_removed(self, entry: QueuedRequest) -> None:
        """Hook for policies that keep derived state (batches)."""

    # ------------------------------------------------------------------ #
    # Kernel vectorization contract (see repro.sim.kernel)
    # ------------------------------------------------------------------ #
    def kernel_select(self, view: KernelQueueView) -> int:
        """Columnar mirror of :meth:`_select`: the queue *position* (index
        into ``view.pending``) the scalar policy would pick, computed from
        the view's precomputed columns with the exact same float
        operations in the exact same order."""
        raise NotImplementedError

    def kernel_removed(self, view: KernelQueueView, idx: int) -> None:
        """Columnar mirror of :meth:`_on_removed` (``idx`` is the removed
        request's index, not its queue position)."""

    def kernel_reset(self) -> None:
        """Columnar mirror of :meth:`clear` for kernel-side derived state."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(pending={len(self.queue)}, "
            f"starvation_ms={self.starvation_ms})"
        )


class FCFSScheduler(Scheduler):
    """First-come first-served: dispatch in arrival order."""

    name = "fcfs"

    def _select(self, now: float) -> QueuedRequest:
        return self._oldest()

    def kernel_select(self, view: KernelQueueView) -> int:
        return kernel_oldest(view)


class SSTFScheduler(Scheduler):
    """Shortest seek time first: minimise cylinder distance from the head."""

    name = "sstf"

    def _select(self, now: float) -> QueuedRequest:
        head = self.drive.head_cylinder
        return min(self.queue, key=lambda e: (abs(e.cylinder - head), e.seq))

    def kernel_select(self, view: KernelQueueView) -> int:
        pending = view.pending
        head = view.head_cylinder
        cyl = view.cylinder_l
        best = 0
        d = cyl[pending[0]] - head
        best_d = -d if d < 0 else d
        for pos in range(1, len(pending)):
            d = cyl[pending[pos]] - head
            if d < 0:
                d = -d
            if d < best_d:
                best_d = d
                best = pos
        return best


class SPTFScheduler(Scheduler):
    """Shortest positioning time first: full seek + rotation estimate.

    For every queued request the dispatch-time positioning cost is
    estimated exactly the way the drive will pay it: seek time from the
    fitted :class:`~repro.disksim.seek.SeekCurve`, head-switch and
    write-settle penalties, plus the rotational latency implied by where
    the head will be in its rotation once it arrives over the target track
    (access-on-arrival credit included on zero-latency firmware).  The
    queued request with the smallest estimate is dispatched.
    """

    name = "sptf"

    def _select(self, now: float) -> QueuedRequest:
        drive = self.drive
        specs = drive.specs
        rotation = specs.rotation_ms
        head_cyl = drive.head_cylinder
        head_surf = drive.head_surface
        cmd_ms = drive.bus.command_overhead_ms
        act_free = drive.actuator_free
        skew_offset = drive.geometry.skew_offset
        best = None
        best_key = None
        for entry in self.queue:
            distance = abs(entry.cylinder - head_cyl)
            seek = drive.seek_curve.seek_time(distance)
            switch = 0.0
            if distance == 0 and entry.surface != head_surf:
                switch = specs.head_switch_ms
            settle = specs.write_settle_ms if entry.request.op == WRITE else 0.0
            # Mechanical start exactly as DiskDrive.submit computes it for
            # this candidate: max(issue + command overhead, actuator free).
            start = entry.issue_time + cmd_ms
            if act_free > start:
                start = act_free
            arrival = start + seek + settle + switch
            spt = entry.spt
            head_angle = ((arrival % rotation) / rotation) * spt
            head_slot = (head_angle - skew_offset(entry.track)) % spt
            rel = (head_slot - entry.start_slot) % spt
            span = entry.request.count if entry.request.count < spt else spt
            if drive.zero_latency and rel < span:
                latency = 0.0  # access-on-arrival: the head lands in the arc
            else:
                latency = (spt - rel) * entry.sector_ms
            key = (seek + settle + switch + latency, entry.seq)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        return best

    def kernel_select(self, view: KernelQueueView) -> int:
        # Scored in admission (= seq) order with strict less-than, so the
        # first occurrence of the minimum key wins -- the scalar (key, seq)
        # tie-break exactly.  Two exact shortcuts keep the loop skinny:
        # every key is bounded below by its seek term, so a candidate whose
        # seek alone exceeds the best key so far can be skipped before the
        # rotation-phase math (it cannot win or even tie); and the
        # settle/switch terms are skipped when both are 0.0 (adding +0.0 to
        # a positive float is the identity, so the sums are bitwise
        # unchanged).  Likewise an access-on-arrival key is ``base`` itself,
        # which ``base + 0.0`` equals.  Float operations and their order
        # otherwise match _select exactly.
        head_cyl = view.head_cylinder
        head_surf = view.head_surface
        act_free = view.actuator_free
        rotation = view.rotation_ms
        hs_ms = view.head_switch_ms
        zero_latency = view.zero_latency
        lut = view.seek_lut_l
        cyl = view.cylinder_l
        issue_cmd = view.issue_cmd_l
        cols = view.pos_l
        best = 0
        best_key = math.inf
        for pos, idx in enumerate(view.pending):
            distance = cyl[idx] - head_cyl
            if distance < 0:
                distance = -distance
            seek = lut[distance]
            if seek > best_key:
                continue
            c, sf, settle, spt, sector_ms, skew, start_slot, span = cols[idx]
            start = issue_cmd[idx]
            if act_free > start:
                start = act_free
            if settle == 0.0 and (distance != 0 or sf == head_surf):
                arrival = start + seek
                base = seek
            else:
                switch = 0.0
                if distance == 0 and sf != head_surf:
                    switch = hs_ms
                arrival = start + seek + settle + switch
                base = seek + settle + switch
            head_slot = (((arrival % rotation) / rotation) * spt - skew) % spt
            rel = (head_slot - start_slot) % spt
            if zero_latency and rel < span:
                key = base
            else:
                key = base + (spt - rel) * sector_ms
            if key < best_key:
                best_key = key
                best = pos
        return best


class CLOOKScheduler(Scheduler):
    """Circular LOOK: ascend in cylinder order, wrap to the lowest pending.

    The arm sweeps in one direction only (toward higher cylinders),
    servicing queued requests in ascending cylinder order from the current
    head position; when nothing is pending at or above the head, the sweep
    restarts from the lowest pending cylinder.  One-directional sweeps give
    every cylinder uniform service, unlike SSTF's middle-of-the-disk bias.
    """

    name = "clook"

    def _select(self, now: float) -> QueuedRequest:
        head = self.drive.head_cylinder
        ahead = [e for e in self.queue if e.cylinder >= head]
        pool = ahead if ahead else self.queue
        return min(pool, key=lambda e: (e.cylinder, e.request.lbn, e.seq))

    def kernel_select(self, view: KernelQueueView) -> int:
        pending = view.pending
        head = view.head_cylinder
        cyl = view.cylinder_l
        lbn = view.lbn_l
        best = -1
        best_c = best_l = 0
        for pos, idx in enumerate(pending):
            c = cyl[idx]
            if c >= head:
                lb = lbn[idx]
                if best < 0 or c < best_c or (c == best_c and lb < best_l):
                    best, best_c, best_l = pos, c, lb
        if best >= 0:
            return best
        idx = pending[0]
        best, best_c, best_l = 0, cyl[idx], lbn[idx]
        for pos in range(1, len(pending)):
            idx = pending[pos]
            c = cyl[idx]
            lb = lbn[idx]
            if c < best_c or (c == best_c and lb < best_l):
                best, best_c, best_l = pos, c, lb
        return best


class TraxtentBatchScheduler(Scheduler):
    """FCFS backbone with track-aligned-extent coalescing at dispatch time.

    When a dispatch decision is made and no batch is in flight, the oldest
    queued request anchors a new batch: every queued request whose first
    LBN falls on the same track (= the same track-aligned extent on
    defect-managed geometry) is collected and dispatched back to back in
    ascending LBN order, draining the whole extent in one sweep before the
    arm moves on.  Requests that arrive after a batch forms wait for the
    next one, which keeps batch membership (and therefore replay results)
    deterministic.
    """

    name = "traxtent"

    def __init__(self, starvation_ms: float | None = None) -> None:
        super().__init__(starvation_ms=starvation_ms)
        self._batch: list[QueuedRequest] = []
        self._kbatch: list[int] = []

    def clear(self) -> None:
        super().clear()
        self._batch = []

    def _select(self, now: float) -> QueuedRequest:
        if not self._batch:
            anchor = self._oldest()
            mates = [e for e in self.queue if e.track == anchor.track]
            self._batch = sorted(mates, key=lambda e: (e.request.lbn, e.seq))
        return self._batch[0]

    def _on_removed(self, entry: QueuedRequest) -> None:
        # Starvation-forced dispatches may pull a request out from under
        # the current batch; keep the batch consistent with the queue.
        if entry in self._batch:
            self._batch.remove(entry)

    def kernel_reset(self) -> None:
        self._kbatch = []

    def kernel_select(self, view: KernelQueueView) -> int:
        batch = self._kbatch
        if not batch:
            pending = view.pending
            anchor = pending[kernel_oldest(view)]
            track = view.track_l
            anchor_track = track[anchor]
            mates = [idx for idx in pending if track[idx] == anchor_track]
            # Stable sort over admission order == (lbn, seq) order.
            mates.sort(key=view.lbn_l.__getitem__)
            self._kbatch = batch = mates
        # pending holds ascending request indices, so position by bisection.
        return bisect_left(view.pending, batch[0])

    def kernel_removed(self, view: KernelQueueView, idx: int) -> None:
        if idx in self._kbatch:
            self._kbatch.remove(idx)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

#: Canonical policy order (FCFS first: the default and the fast-path case).
SCHEDULERS: dict[str, type[Scheduler]] = {
    FCFSScheduler.name: FCFSScheduler,
    SSTFScheduler.name: SSTFScheduler,
    SPTFScheduler.name: SPTFScheduler,
    CLOOKScheduler.name: CLOOKScheduler,
    TraxtentBatchScheduler.name: TraxtentBatchScheduler,
}


def available_schedulers() -> list[str]:
    """Registered policy names, canonical order (FCFS first)."""
    return list(SCHEDULERS)


def get_scheduler(name: str) -> type[Scheduler]:
    """Resolve a policy name to its scheduler class."""
    key = str(name).lower()
    cls = SCHEDULERS.get(key)
    if cls is None:
        raise SchedulerError(
            f"unknown scheduler policy {name!r}; "
            f"available: {available_schedulers()}"
        )
    return cls


def make_scheduler(
    spec: "str | Scheduler | None",
    starvation_ms: float | None = None,
) -> Scheduler:
    """Build a scheduler from a name, an instance, or ``None`` (FCFS).

    Passing an instance uses it as-is (the engine clones it per drive);
    combining an instance with ``starvation_ms`` is rejected so the bound
    lives in exactly one place.
    """
    if isinstance(spec, Scheduler):
        if starvation_ms is not None:
            raise SchedulerError(
                "pass starvation_ms to the scheduler constructor, "
                "not alongside an instance"
            )
        return spec
    if spec is None:
        return FCFSScheduler(starvation_ms=starvation_ms)
    return get_scheduler(spec)(starvation_ms=starvation_ms)


__all__ = [
    "CLOOKScheduler",
    "FCFSScheduler",
    "KernelQueueView",
    "QueuedRequest",
    "SCHEDULERS",
    "SPTFScheduler",
    "SSTFScheduler",
    "Scheduler",
    "SchedulerError",
    "TraxtentBatchScheduler",
    "available_schedulers",
    "get_scheduler",
    "kernel_fallback_reason",
    "kernel_oldest",
    "make_scheduler",
]
