"""Seek-time model.

Seek time as a function of seek distance (in cylinders) is modelled with the
two-regime curve used throughout the disk-modelling literature (Ruemmler &
Wilkes; DiskSim): proportional to the square root of the distance for short
seeks (the arm is still accelerating) and linear in the distance for long
seeks (the arm spends most of the time coasting at full speed).

The curve is fitted to the three anchor points every datasheet publishes --
single-cylinder, average, and full-stroke seek time -- so that:

* ``seek(1)``               equals the single-cylinder time,
* ``seek(max_cyl / 3)``     equals the average seek time (the mean seek
  distance of uniformly random requests over ``max_cyl`` cylinders), and
* ``seek(max_cyl - 1)``     equals the full-stroke time.

Within the paper's experiments all requests fall inside the first zone, so
the short-seek (square-root) regime dominates; the fit reproduces the
~2.2 ms average seek the paper measures inside the Atlas 10K II's first zone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SpecError
from .specs import DiskSpecs


@dataclass(frozen=True)
class SeekCurve:
    """Piecewise seek-time curve (milliseconds as a function of cylinders)."""

    single_cylinder_ms: float
    avg_seek_ms: float
    full_stroke_ms: float
    max_cylinders: int
    #: distance (cylinders) at which the model switches from sqrt to linear
    crossover: int
    #: sqrt-regime coefficient: seek(d) = single + sqrt_coeff * sqrt(d - 1)
    sqrt_coeff: float
    #: linear-regime coefficients: seek(d) = linear_base + linear_coeff * d
    linear_base: float
    linear_coeff: float

    @classmethod
    def fit(
        cls,
        single_cylinder_ms: float,
        avg_seek_ms: float,
        full_stroke_ms: float,
        max_cylinders: int,
    ) -> "SeekCurve":
        """Fit the two-regime curve to the three datasheet anchor points."""
        if max_cylinders < 4:
            raise SpecError("need at least 4 cylinders to fit a seek curve")
        if not (single_cylinder_ms < avg_seek_ms < full_stroke_ms):
            raise SpecError(
                "seek anchors must satisfy single < average < full stroke "
                f"(got {single_cylinder_ms}, {avg_seek_ms}, {full_stroke_ms})"
            )
        crossover = max(2, max_cylinders // 3)
        # sqrt regime pinned at (1, single) and (crossover, avg)
        sqrt_coeff = (avg_seek_ms - single_cylinder_ms) / math.sqrt(crossover - 1)
        # linear regime pinned at (crossover, avg) and (max-1, full)
        span = (max_cylinders - 1) - crossover
        if span <= 0:
            linear_coeff = 0.0
            linear_base = avg_seek_ms
        else:
            linear_coeff = (full_stroke_ms - avg_seek_ms) / span
            linear_base = avg_seek_ms - linear_coeff * crossover
        return cls(
            single_cylinder_ms=single_cylinder_ms,
            avg_seek_ms=avg_seek_ms,
            full_stroke_ms=full_stroke_ms,
            max_cylinders=max_cylinders,
            crossover=crossover,
            sqrt_coeff=sqrt_coeff,
            linear_base=linear_base,
            linear_coeff=linear_coeff,
        )

    @classmethod
    def for_specs(cls, specs: DiskSpecs) -> "SeekCurve":
        """Seek curve for a drive model from the spec database."""
        return cls.fit(
            single_cylinder_ms=specs.single_cylinder_seek_ms,
            avg_seek_ms=specs.avg_seek_ms,
            full_stroke_ms=float(specs.full_stroke_seek_ms),
            max_cylinders=specs.cylinders,
        )

    # ------------------------------------------------------------------ #
    def seek_time(self, distance: int) -> float:
        """Seek time in milliseconds for a move of ``distance`` cylinders.

        A zero-distance "seek" costs nothing: head settling onto the same
        track is charged separately (as part of head-switch or write-settle
        time) by the drive model.
        """
        if distance < 0:
            distance = -distance
        if distance == 0:
            return 0.0
        if distance == 1:
            return self.single_cylinder_ms
        if distance <= self.crossover:
            return self.single_cylinder_ms + self.sqrt_coeff * math.sqrt(distance - 1)
        return self.linear_base + self.linear_coeff * distance
