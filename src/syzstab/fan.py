"""Smooth complete fans in the rank-2 lattice.

A fan is stored as a tuple of primitive integer vectors (rays) in strictly
counterclockwise cyclic order.  Every pair of consecutive rays must form a
lattice basis, i.e. ``det(u[i], u[i+1]) == 1``; this is exactly smoothness
plus completeness for the associated toric surface.  Each ray corresponds
to a prime torus-invariant curve on the surface, and the wall relation

    u[i-1] + u[i+1] == c[i] * u[i]

defines integers ``c[i]`` with curve self-intersections ``-c[i]``.  Since
``det(u[i-1], u[i]) == 1``, taking determinants with ``u[i-1]`` gives
``c[i] == det(u[i-1], u[i+1])``.

Rays may be supplied in any order; the constructor sorts them by angle
using quadrant plus cross-product comparisons, so no floating point enters
anywhere.  Validation errors report indices into the *original* input
order.  Fans are immutable after construction and all methods are pure,
so instances can be shared freely between threads.
:func:`reduce_to_minimal` blows down to the plane or a Hirzebruch
surface in one O(n) pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import (
    FanError,
    IncompleteFanError,
    InternalError,
    NonPrimitiveRayError,
    NonSmoothFanError,
    RepeatedRayError,
)

Vec = tuple[int, int]

PROJECTIVE_PLANE = "ProjectivePlane"
HIRZEBRUCH = "Hirzebruch"
OTHER = "Other"


def det(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def is_primitive(u: Vec) -> bool:
    """True if u is a nonzero integer vector with coprime entries."""
    return u != (0, 0) and math.gcd(u[0], u[1]) == 1


def _half(u: Vec) -> int:
    # 0 for the closed upper half starting at the positive x-axis,
    # 1 for the lower half starting at the negative x-axis.
    if u[1] > 0 or (u[1] == 0 and u[0] > 0):
        return 0
    return 1


def _angle_cmp(u: Vec, v: Vec) -> int:
    # Order by angle in [0, 2*pi): half-planes first, then the cross
    # product within a half.  Fan rejects repeated rays before it sorts,
    # and distinct primitive vectors never share an angle, so u != v.
    hu, hv = _half(u), _half(v)
    return -1 if hu < hv or (hu == hv and det(u, v) > 0) else 1


@dataclass(frozen=True)
class SurfaceType:
    """Combinatorial type of the toric surface attached to a fan.

    ``kind`` is one of ``ProjectivePlane``, ``Hirzebruch`` (with ``ell``
    set; ``ell == 0`` is the quadric P1 x P1) or ``Other`` for Picard
    rank at least 3.
    """

    kind: str
    ell: int | None
    picard_rank: int

    def __str__(self) -> str:
        if self.kind == HIRZEBRUCH:
            return f"Hirzebruch({self.ell})"
        if self.kind == OTHER:
            return f"Other(picard_rank={self.picard_rank})"
        return self.kind


class Fan:
    """A smooth complete fan, constructed from an iterable of rays.

    Raises :class:`NonPrimitiveRayError`, :class:`RepeatedRayError`,
    :class:`IncompleteFanError` or :class:`NonSmoothFanError` with the
    offending index in the original input order, and a bare
    :class:`FanError` when the rays are not iterable at all.
    """

    __slots__ = ("rays", "_walls")

    def __init__(self, rays):
        if not hasattr(rays, "__iter__"):
            raise FanError("rays must be an iterable of rays")
        given = []
        try:
            given.extend(map(tuple, rays))
        except TypeError:  # a ray is not iterable; extend kept those before
            given.append(())  # it, and the check below refuses it by index
        for idx, r in enumerate(given):
            # exactly int: a float, Fraction, str or bool is refused, not cut
            if len(r) != 2 or type(r[0]) is not int or type(r[1]) is not int:
                raise NonPrimitiveRayError(
                    f"ray {idx} must have exactly 2 integer components", idx
                )
            if not is_primitive(r):
                raise NonPrimitiveRayError(
                    f"ray {idx} = {r} is not a primitive nonzero vector", idx
                )
        seen: dict[Vec, int] = {}
        for idx, r in enumerate(given):
            if r in seen:
                raise RepeatedRayError(
                    f"ray {idx} = {r} repeats ray {seen[r]}", idx
                )
            seen[r] = idx
        if len(given) < 3:
            raise IncompleteFanError(
                f"a complete fan needs at least 3 rays, got {len(given)}"
            )

        order = sorted(
            range(len(given)),
            key=functools.cmp_to_key(
                lambda i, j: _angle_cmp(given[i], given[j])
            ),
        )
        sorted_rays = tuple([given[i] for i in order])
        n = len(sorted_rays)
        for i in range(n):
            u, v = sorted_rays[i], sorted_rays[(i + 1) % n]
            d = det(u, v)
            orig = order[i]
            if d <= 0:
                raise IncompleteFanError(
                    f"rays {u} and {v} span an angle >= pi "
                    f"(cone after input ray {orig} is missing)",
                    orig,
                )
            if d != 1:
                raise NonSmoothFanError(
                    f"rays {u} and {v} have determinant {d} != 1 "
                    f"(cone at input ray {orig} is singular)",
                    orig,
                )

        walls = [det(sorted_rays[i - 1], sorted_rays[(i + 1) % n]) for i in range(n)]
        object.__setattr__(self, "rays", sorted_rays)
        object.__setattr__(self, "_walls", tuple(walls))

    def __setattr__(self, name, value):
        raise AttributeError("Fan is immutable")

    @property
    def n(self) -> int:
        return len(self.rays)

    def __eq__(self, other) -> bool:
        return isinstance(other, Fan) and self.rays == other.rays

    def __hash__(self) -> int:
        return hash(self.rays)

    def __repr__(self) -> str:
        return f"Fan({list(self.rays)})"

    # -- intersection data ------------------------------------------------

    def wall_coefficients(self) -> tuple[int, ...]:
        """The integers c[i] with u[i-1] + u[i+1] == c[i]*u[i]."""
        return self._walls

    def self_intersections(self) -> tuple[int, ...]:
        """Self-intersection numbers of the prime curves, D_i^2 = -c[i]."""
        return tuple([-c for c in self.wall_coefficients()])

    # -- classification ---------------------------------------------------

    def surface_type(self) -> SurfaceType:
        n = self.n
        if n == 3:
            return SurfaceType(PROJECTIVE_PLANE, None, 1)
        if n == 4:
            ell = max(self.wall_coefficients())
            return SurfaceType(HIRZEBRUCH, ell, 2)
        return SurfaceType(OTHER, None, n - 2)


def reduce_to_minimal(fan: Fan) -> tuple[Fan, list[Vec]]:
    """Blow down (-1)-rays until 3 or 4 rays remain.

    Returns the reduced fan together with the list of removed ray vectors
    in the order of removal; each step removes the first ray, in the
    current order, with wall coefficient 1.  Every smooth complete fan
    reduces this way to the fan of the plane or of a Hirzebruch surface.

    A removal lowers only its two neighbours' wall coefficients, each by
    1.  So the rays sit in a linked list, the scan resumes at the left
    neighbour (at the first ray when the first or the last one was
    removed), and one Fan is built at the end: O(n) in all.
    """
    rays = fan.rays
    n = len(rays)
    if n <= 4:
        return fan, []
    walls = list(fan.wall_coefficients())
    # next and previous live ray; n and -1 mark the two ends
    nxt = list(range(1, n + 1))
    prv = list(range(-1, n - 1))
    first, last = 0, n - 1
    removed: list[Vec] = []
    i = 0
    for _ in range(n - 4):
        while i != n and walls[i] != 1:
            i = nxt[i]
        if i == n:
            raise InternalError(
                "no (-1)-ray found on a fan with more than 4 rays"
            )
        removed.append(rays[i])
        p, q = prv[i], nxt[i]
        walls[last if p < 0 else p] -= 1
        walls[first if q == n else q] -= 1
        if p < 0:
            first = q
        else:
            nxt[p] = q
        if q == n:
            last = p
        else:
            prv[q] = p
        i = first if p < 0 or q == n else p
    gone = set(removed)
    return Fan([r for r in rays if r not in gone]), removed
