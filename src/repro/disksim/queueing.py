"""Workload drivers: onereq, tworeq and round-based scheduling.

Section 5.2 of the paper evaluates raw-disk performance with two closed
workloads:

* **onereq** -- exactly one request outstanding at the disk; the next
  request is issued only when the previous one completes.  Head time equals
  response time.
* **tworeq** -- one request is always queued behind the one being serviced,
  so the drive can overlap the queued request's seek with the current
  request's bus transfer.  Head time is the interval between successive
  completions.

The video-server evaluation (Section 5.4) additionally needs **rounds**: a
batch of requests issued together and scheduled in ascending-LBN (elevator)
order; the round time is the completion time of the whole batch.

These drivers own the simulated clock; :class:`~repro.disksim.drive.DiskDrive`
itself is clock-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .drive import CompletedRequest, DiskDrive, DiskRequest


@dataclass
class WorkloadResult:
    """Outcome of running a closed workload against one drive."""

    completed: list[CompletedRequest]
    head_times: list[float]
    total_time: float

    @property
    def mean_head_time(self) -> float:
        if not self.head_times:
            return 0.0
        return sum(self.head_times) / len(self.head_times)

    def response_times(self) -> list[float]:
        return [c.response_time for c in self.completed]

    def efficiency(self, ideal_transfer_ms_per_request: float) -> float:
        """Disk efficiency: fraction of head time spent moving data
        (Figure 1's y-axis)."""
        mean = self.mean_head_time
        if mean <= 0:
            return 0.0
        return min(1.0, ideal_transfer_ms_per_request / mean)


def run_onereq(
    drive: DiskDrive,
    requests: Iterable[DiskRequest],
    start_time: float = 0.0,
    think_time_ms: float = 0.0,
) -> WorkloadResult:
    """Issue requests one at a time; each is issued when the previous one
    completes (plus an optional think time)."""
    completed: list[CompletedRequest] = []
    now = start_time
    for request in requests:
        result = drive.submit(request, now)
        completed.append(result)
        now = result.completion + think_time_ms
    head_times = [c.response_time for c in completed]
    total = completed[-1].completion - start_time if completed else 0.0
    return WorkloadResult(completed=completed, head_times=head_times, total_time=total)


def run_tworeq(
    drive: DiskDrive,
    requests: Sequence[DiskRequest],
    start_time: float = 0.0,
) -> WorkloadResult:
    """Keep one request queued at the disk in addition to the one being
    serviced.

    Request ``i + 1`` is issued as soon as request ``i`` *starts* service,
    which guarantees the queue never runs dry; the drive model then overlaps
    the queued request's seek with the in-flight bus transfer.  Head times
    are inter-completion intervals, as defined in Figure 5 of the paper.
    """
    completed: list[CompletedRequest] = []
    issue_time = start_time
    for request in requests:
        result = drive.submit(request, issue_time)
        completed.append(result)
        # The next command is already waiting at the drive: it was sent
        # while this one was being serviced.
        issue_time = result.mech_start
    head_times = [
        completed[i].completion - completed[i - 1].completion
        for i in range(1, len(completed))
    ]
    total = completed[-1].completion - start_time if completed else 0.0
    return WorkloadResult(completed=completed, head_times=head_times, total_time=total)


def run_round(
    drive: DiskDrive,
    requests: Sequence[DiskRequest],
    start_time: float = 0.0,
    schedule: str = "elevator",
) -> float:
    """Issue a batch of requests together and return the round time (time
    from issue to the completion of the last request).

    ``schedule`` selects the order in which the queued requests are
    serviced: ``"elevator"`` sorts by ascending LBN (what command queueing
    achieves in practice); ``"fifo"`` preserves the given order.
    """
    if not requests:
        return 0.0
    if schedule == "elevator":
        ordered = sorted(requests, key=lambda r: r.lbn)
    elif schedule == "fifo":
        ordered = list(requests)
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    last_completion = start_time
    for request in ordered:
        result = drive.submit(request, start_time)
        last_completion = max(last_completion, result.completion)
    return last_completion - start_time
