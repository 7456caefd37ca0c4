"""Planar geometry used by the paper's model and its analysis.

The paper models a cluster as a unit disk of radius ``R`` (the clusterhead's
transmission range).  Section 5 evaluates the *neighborhood overlap*: for a
member ``v`` at distance ``d`` from the clusterhead, the region of the
cluster that is also within ``v``'s own transmission range is the lens-shaped
intersection of two radius-``R`` disks whose centers are ``d`` apart
(Figure 4).  The fraction ``a = An / Au`` of that lens over the cluster area
drives every probabilistic measure.

Two independent implementations of the lens area are provided:

- :func:`lens_area` -- the standard closed-form circular-segment formula.
- :func:`lens_area_integral` -- the paper's own integral form (given for the
  worst case ``d = R`` below Figure 4), generalized to any ``d`` and
  evaluated by numerical quadrature.

They agree to floating-point tolerance; the test suite asserts this, which
guards against transcribing the paper's formula incorrectly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import AnalysisError
from repro.util.validation import check_positive


@dataclass(frozen=True, slots=True)
class Vec2:
    """An immutable 2-D point / vector in meters."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        """Euclidean length of this vector."""
        return math.hypot(self.x, self.y)

    def rotated(self, angle: float) -> "Vec2":
        """This vector rotated counter-clockwise by ``angle`` radians."""
        c, s = math.cos(angle), math.sin(angle)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)


ORIGIN = Vec2(0.0, 0.0)


def disk_area(radius: float) -> float:
    """Area of a disk of the given radius (``Au`` in the paper)."""
    check_positive("radius", radius)
    return math.pi * radius * radius


def lens_area(radius: float, distance: float) -> float:
    """Intersection area of two radius-``radius`` disks ``distance`` apart.

    This is ``An`` in the paper: the part of the cluster disk that lies
    within member ``v``'s transmission range when ``v`` is ``distance`` away
    from the clusterhead.  For ``distance == 0`` the disks coincide
    (``An == Au``); for ``distance >= 2 * radius`` the disks are disjoint.
    """
    check_positive("radius", radius)
    if distance < 0:
        raise AnalysisError(f"distance must be non-negative, got {distance}")
    if distance >= 2 * radius:
        return 0.0
    if distance == 0:
        return disk_area(radius)
    r2 = radius * radius
    half = distance / 2.0
    area = 2.0 * r2 * math.acos(half / radius) - half * math.sqrt(
        4.0 * r2 - distance * distance
    )
    # Cancellation near d = 2R can produce a tiny negative result.
    return max(0.0, area)


def lens_area_integral(radius: float, distance: float, samples: int = 200_001) -> float:
    """The paper's integral form of ``An``, generalized to any distance.

    The paper states, for the worst case ``d = R`` (Figure 4(b))::

        An = 4 * integral_0^c ( sqrt(R^2 - x^2) - 0.5 R ) dx,
        c = sqrt(R^2 - (0.5 R)^2)

    i.e. four times the area between the cluster circle and the chord at
    height ``d / 2`` over half the chord length.  Generalized to distance
    ``d``: the lens is symmetric about the chord ``y = d / 2`` with
    half-width ``c = sqrt(R^2 - (d/2)^2)``.  Evaluated with Simpson's rule
    via :func:`scipy.integrate.simpson` if available, else trapezoid.
    """
    check_positive("radius", radius)
    if distance < 0:
        raise AnalysisError(f"distance must be non-negative, got {distance}")
    if distance >= 2 * radius:
        return 0.0
    if distance == 0:
        return disk_area(radius)
    if samples < 3:
        raise AnalysisError(f"samples must be >= 3, got {samples}")
    half = distance / 2.0
    c = math.sqrt(radius * radius - half * half)
    xs = np.linspace(0.0, c, samples)
    ys = np.sqrt(np.maximum(radius * radius - xs * xs, 0.0)) - half
    try:
        from scipy.integrate import simpson

        quarter = float(simpson(ys, x=xs))
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        quarter = float(np.trapezoid(ys, xs))
    return 4.0 * quarter


#: The paper's worst-case overlap fraction (v on the cluster circumference).
WORST_CASE_OVERLAP_FRACTION = (2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0) / math.pi


def sample_in_disk(rng: np.random.Generator, center: Vec2, radius: float) -> Vec2:
    """A point drawn uniformly at random from the disk around ``center``.

    Uses the inverse-CDF radius transform ``r = R * sqrt(u)`` so the
    distribution is uniform in *area*, matching the paper's assumption that
    host locations are "statistically uniformly distributed" in the cluster.
    """
    check_positive("radius", radius)
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return Vec2(center.x + r * math.cos(theta), center.y + r * math.sin(theta))
