"""Divisors, intersection pairing and section counts on surface models.

Two surface models share the intersection theory of one base class,
:class:`SurfaceModel`, written over one vector per divisor:
``intersections(D)``, the list of D.C_i over the basis curves, checked
once for D's length.  A toric surface forms it from the wall relation in
O(n), an abstract one as a matrix-vector product; the pairing, nefness
and Riemann-Roch then read it instead of pairing D with each curve anew.
:class:`ToricSurface` is built from a :class:`~syzstab.fan.Fan`; there
``h0`` is an exact lattice-point count in the section polygon: the
integral corners of the fan's cones show whether D is nef, and a nef D is
counted by Pick's theorem over them, in O(n); any other D builds a
:class:`Polytope`, counted row by row in time linear in the polygon's
height, after an O(n^3) integer search for its vertices.  A corner is
linear in the coefficients, so ``shifted_h0(D)`` counts each D - S from
nef D's corners, each curve of S moving two by offsets solved once, or
returns None when a wall that S touches turns negative;
``multiple_h0(D, S)`` counts each nef d*D - k*S over the corners
d*m(D) - k*m(S), with m(D) and m(S) solved once.  The Euler characteristic
from Riemann-Roch is an independent cross-check (they agree on nef D).
:class:`AbstractSurface` is given by an intersection matrix, a canonical
class and a declared list of effective-cone generators; there ``h0``
falls back to the Euler characteristic and callers must surface that
assumption (``uses_chi_for_h0`` is True).

All arithmetic is exact: divisor coefficients are ints when integral and
`fractions.Fraction` otherwise, quotients are built as ``Fraction(p, q)``,
lattice point counting is pure integer arithmetic, and no floating point
is used anywhere.  Every object is immutable after construction and every
method is pure, so instances are safe for unrestricted concurrent reads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatchError, InputError, NonIntegralDivisorError
from .fan import HIRZEBRUCH, Fan

Rat = int | Fraction


def _exact(c: Rat) -> Rat:
    """c as an int when integral, as a Fraction otherwise.  Only an int or
    a Fraction is taken: a float, a bool or a string is refused, not read."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        raise InputError(
            f"coefficients must be int or Fraction, got {type(c).__name__}"
        )
    return c.numerator if c.denominator == 1 else c


class Divisor:
    """A divisor with exact int or Fraction coefficients on the ambient basis.

    On a toric surface the basis entries are the prime torus-invariant
    curves in fan ray order; on an abstract surface they are the declared
    generators.  Supports addition, subtraction and scalar multiples.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat]):
        # Kept tuples are built from lists (here, below and in fan.py):
        # tuple() of a generator or map sizes for 10 and resizes, so it never
        # reuses CPython's tuple free lists but refills them when freed.
        object.__setattr__(self, "coeffs", tuple(list(map(_exact, coeffs))))

    def __setattr__(self, name, value):
        raise AttributeError("Divisor is immutable")

    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def int_coeffs(self) -> tuple[int, ...]:
        if not self.is_integral:
            raise NonIntegralDivisorError(
                f"divisor {self} has fractional coefficients"
            )
        return self.coeffs

    def _check_len(self, other: "Divisor") -> None:
        if len(self) != len(other):
            raise DimensionMismatchError(
                f"divisor lengths differ: {len(self)} vs {len(other)}"
            )

    def __add__(self, other: "Divisor") -> "Divisor":
        self._check_len(other)
        return Divisor(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "Divisor") -> "Divisor":
        self._check_len(other)
        return Divisor(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __mul__(self, k: Rat) -> "Divisor":
        return Divisor(a * k for a in self.coeffs)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return "Divisor(%s)" % ", ".join(str(c) for c in self.coeffs)

    def scaled_primitive(self) -> "Divisor":
        """The unique primitive integral divisor on the same positive ray."""
        if self.is_zero:
            return Divisor(self.coeffs)
        denom = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * denom) for c in self.coeffs]
        g = math.gcd(*(abs(v) for v in ints))
        return Divisor(v // g for v in ints)


def _solve_cone(u, v, r0: int, r1: int) -> tuple[int, int]:
    """The m with <m, u> = r0 and <m, v> = r1: integral, as det(u, v) == 1."""
    return (v[1] * r0 - u[1] * r1, u[0] * r1 - v[0] * r0)


def _ceil_div(p: int, q: int) -> int:
    # q > 0
    return -((-p) // q)


def _pick_count(corners: Sequence[tuple[int, int]]) -> int:
    """Pick's |2A| + B = 2I + 2B - 2 over corners walking a boundary once."""
    twice_area = boundary = 0
    x0, y0 = corners[-1]
    for x1, y1 in corners:
        twice_area += x0 * y1 - x1 * y0
        boundary += math.gcd(x1 - x0, y1 - y0)
        x0, y0 = x1, y1
    return (abs(twice_area) + boundary) // 2 + 1


class Polytope:
    """Intersection of closed half-planes ``ux*x + uy*y >= rhs`` in the plane.

    Built from the section constraints of a non-nef divisor on a complete
    fan, so the region is always bounded.  Its vertices come from exact
    pairwise line intersection, tested against every half-plane in
    integers, and it is counted one integral row at a time with integer
    floor/ceil arithmetic.
    """

    __slots__ = ("halfplanes", "_searched")

    def __init__(self, halfplanes: Sequence[tuple[int, int, int]]):
        object.__setattr__(self, "halfplanes", tuple(halfplanes))
        object.__setattr__(self, "_searched", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polytope is immutable")

    @property
    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """All extreme points as Fractions, from the O(n^3) pairwise
        search, sorted."""
        if self._searched is not None:
            return self._searched
        hps = self.halfplanes
        found = set()
        for i in range(len(hps)):
            ai, bi, ci = hps[i]
            for j in range(i + 1, len(hps)):
                aj, bj, cj = hps[j]
                d = ai * bj - bi * aj
                if d == 0:
                    continue
                # the crossing is (px/d, py/d); with d > 0 each half-plane
                # test scales to integers, and only kept points become
                # Fractions
                px = ci * bj - bi * cj
                py = ai * cj - ci * aj
                if d < 0:
                    d, px, py = -d, -px, -py
                if all(ux * px + uy * py >= rhs * d for ux, uy, rhs in hps):
                    found.add((Fraction(px, d), Fraction(py, d)))
        verts = tuple(sorted(found))
        object.__setattr__(self, "_searched", verts)
        return verts

    def lattice_point_count(self) -> int:
        """Integer points, counted row by row."""
        verts = self.vertices
        if not verts:
            return 0
        ymin = math.ceil(min(v[1] for v in verts))
        ymax = math.floor(max(v[1] for v in verts))
        # rays on both sides of the y-axis bound every row from both sides,
        # and each row meets the polygon, so hi >= lo - 1; a half-plane
        # with ux == 0 holds on the vertices' whole y-range
        total = 0
        for y in range(ymin, ymax + 1):
            lo = hi = None
            for ux, uy, rhs in self.halfplanes:
                r = rhs - uy * y
                if ux > 0:
                    b = _ceil_div(r, ux)
                    if lo is None or b > lo:
                        lo = b
                elif ux < 0:
                    b = r // ux
                    if hi is None or b < hi:
                        hi = b
            total += hi - lo + 1
        return total


class SurfaceModel:
    """The pairing, nefness, ampleness and Riemann-Roch, written once over
    what each subclass provides: ``n``, ``canonical``, ``h0``,
    ``effective_generators``, ``pair_curves(i, j)`` = C_i.C_j and
    ``intersections(D)``, the list of intersection numbers of D with the
    basis curves, computed once per divisor after one length check.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def generator(self, i: int) -> Divisor:
        """The i-th basis curve as a divisor."""
        coeffs = [0] * self.n
        coeffs[i] = 1
        return Divisor(coeffs)

    def _check(self, D: Divisor) -> None:
        if len(D) != self.n:
            raise DimensionMismatchError(
                f"divisor has {len(D)} coefficients, surface has {self.n} curves"
            )

    def pair_with(self, v: Sequence[Rat], D: Divisor) -> int | Fraction:
        """D paired with the class whose ``intersections`` are v, as an
        int | Fraction (int if integral)."""
        self._check(D)
        return sum(b * x for b, x in zip(D.coeffs, v) if b)

    def pair(self, D1: Divisor, D2: Divisor) -> int | Fraction:
        """Bilinear intersection product, int | Fraction (int if integral)."""
        return self.pair_with(self.intersections(D1), D2)

    def is_nef(self, D: Divisor) -> bool:
        v = self.intersections(D)
        return all(v[i] >= 0 for i in self.effective_generators)

    def is_ample(self, D: Divisor) -> bool:
        return self.is_ample_vector(self.intersections(D))

    def is_ample_vector(self, v: Sequence[Rat]) -> bool:
        """Whether the class whose ``intersections`` are v is ample."""
        return all(v[i] > 0 for i in self.effective_generators)

    def chi(self, D: Divisor) -> int | Fraction:
        """Euler characteristic 1 + (D.D - D.K)/2 from Riemann-Roch, as an
        int | Fraction (an int when integral)."""
        v = self.intersections(D)
        DD, DK = self.pair_with(v, D), self.pair_with(v, self.canonical)
        return _exact(1 + Fraction(DD - DK, 2))

    def negative_generator_indices(self) -> tuple[int, ...]:
        """Effective generators of negative self-intersection."""
        return tuple([
            i for i in self.effective_generators if self.pair_curves(i, i) < 0
        ])

    def shift(self, combo: Sequence[int]) -> Divisor:
        """The sum of the basis curves that combo indexes, repeats adding."""
        return Divisor([combo.count(i) for i in range(self.n)])

    def shifted_h0(self, D: Divisor) -> Callable[[Sequence[int]], int | None]:
        """combo -> h0(D - shift(combo)), counted by h0, or None when
        D - S is not nef."""

        def count(combo: Sequence[int]) -> int | None:
            E = D - self.shift(combo)
            return self.h0(E) if self.is_nef(E) else None

        return count

    def multiple_h0(self, D: Divisor, S: Divisor) -> Callable[[int, int], int]:
        """(d, k) -> h0(d*D - k*S) for nef d*D - k*S, counted by h0."""
        return lambda d, k: self.h0(d * D - k * S)


class ToricSurface(SurfaceModel):
    """Intersection theory of the smooth complete toric surface of a fan."""

    uses_chi_for_h0 = False

    __slots__ = ("fan", "n", "walls", "canonical", "effective_generators")

    def __init__(self, fan: Fan):
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "n", fan.n)
        object.__setattr__(self, "walls", fan.wall_coefficients())
        object.__setattr__(self, "canonical", Divisor([-1] * fan.n))
        # the effective cone is generated by all prime invariant curves
        object.__setattr__(
            self, "effective_generators", tuple(range(fan.n))
        )

    @property
    def picard_rank(self) -> int:
        return self.n - 2

    def check_hypotheses(self) -> tuple[bool, list[str]]:
        """(ok, diagnostics) for the polarization's hypothesis: rank >= 3."""
        if self.picard_rank >= 3:
            return True, []
        return False, [
            f"Picard rank {self.picard_rank} < 3; the plane and "
            "Hirzebruch surfaces need the region test instead"
        ]

    def intersections(self, D: Divisor) -> list[int | Fraction]:
        """D.C_i for every prime curve C_i, by the wall relation
        a_{i-1} + a_{i+1} - c_i * a_i over shifted coefficient tuples:
        ints and Fractions, ints for integral D."""
        self._check(D)
        a = D.coeffs
        return [
            p + q - c * x
            for p, q, c, x in zip(a[-1:] + a[:-1], a[1:] + a[:1], self.walls, a)
        ]

    def pair_generator(self, D: Divisor, i: int) -> int | Fraction:
        """Intersection number of D with the i-th prime curve."""
        return self.intersections(D)[i]

    def pair_curves(self, i: int, j: int) -> int:
        """C_i.C_j of two prime curves: -c_i when i == j, 1 for cyclic
        neighbours (so for every two lines on the plane), else 0."""
        if i == j:
            return -self.walls[i]
        return int((i - j) % self.n in (1, self.n - 1))

    def _corners(self, a: Sequence[int]) -> list[tuple[int, int]]:
        """Each cone (u_{i-1}, u_i)'s corner m_i: <m_i, u_j> = -a_j."""
        rays = self.fan.rays
        return [
            _solve_cone(rays[i - 1], u, -a[i - 1], -a[i])
            for i, u in enumerate(rays)
        ]

    def h0(self, D: Divisor) -> int:
        """Dimension of the space of sections: the exact lattice-point
        count of the polygon { m : <m, u_i> >= -a_i }, for any integral D.

        Each cone (u_{i-1}, u_i) has an integer corner m_i; since
        u_{i+1} = c_i*u_i - u_{i-1}, m_i is in ray i + 1's half-plane
        exactly when D.C_i >= 0.  So the corners are the vertices, counted
        by Pick, iff all pass; else a :class:`Polytope` counts the rows.
        """
        self._check(D)
        a = D.int_coeffs()
        rays = self.fan.rays
        halfplanes = [(u[0], u[1], -a[i]) for i, u in enumerate(rays)]
        corners = self._corners(a)
        nxt = zip(corners, halfplanes[1:] + halfplanes[:1])
        if all(ux * x + uy * y >= r for (x, y), (ux, uy, r) in nxt):
            return _pick_count(corners)
        return Polytope(halfplanes).lattice_point_count()

    def shifted_h0(self, D: Divisor) -> Callable[[Sequence[int]], int | None]:
        """combo -> h0(D - S) for nef D, or None when D - S is not nef: only
        the walls that the curves C_i of S touch can turn negative, tested
        on the lowered coefficients.  One Pick sum counts D's cone corners,
        formed once, each C_i moving m_i and m_{i+1} by fixed offsets."""
        self._check(D)
        a, r, n, w = D.int_coeffs(), self.fan.rays, self.n, self.walls
        corners = self._corners(a)
        # per curve C_i: each wall k it touches as (k - 1, k, k + 1) mod n,
        # and (k, offset) for m_i and m_{i+1}, which lowering a_i moves
        touched, steps = [], []
        for i, u in enumerate(r):
            j = (i + 1) % n
            touched.append([(k - 1, k, (k + 1) % n) for k in (i - 1, i, j)])
            steps.append([(i, *_solve_cone(r[i - 1], u, 0, 1)),
                          (j, *_solve_cone(u, r[j], 1, 0))])

        def count(combo: Sequence[int]) -> int | None:
            b, moved = list(a), corners[:]
            for i in combo:
                b[i] -= 1
                for k, dx, dy in steps[i]:
                    x, y = moved[k]
                    moved[k] = (x + dx, y + dy)
            for i in combo:
                for g, k, h in touched[i]:
                    if b[g] + b[h] < w[k] * b[k]:
                        return None
            return _pick_count(moved)

        return count

    def multiple_h0(self, D: Divisor, S: Divisor) -> Callable[[int, int], int]:
        """(d, k) -> h0(d*D - k*S) for nef d*D - k*S: Pick over the corners
        d*m(D) - k*m(S), since a corner is linear in the coefficients, with
        m(D) and m(S) solved once."""
        self._check(D)
        self._check(S)
        m = self._corners(D.int_coeffs())
        pairs = list(zip(m, self._corners(S.int_coeffs())))
        return lambda d, k: _pick_count(
            [(d * x - k * u, d * y - k * v) for (x, y), (u, v) in pairs]
        )

    def is_effective(self, D: Divisor) -> bool:
        """A nonnegative integral D is a sum of prime invariant curves and
        effective without a count; any other integral D is counted."""
        self._check(D)
        return min(D.int_coeffs()) >= 0 or self.h0(D) > 0

    # -- Hirzebruch bookkeeping -------------------------------------------

    def hirzebruch_presentation(self) -> tuple[int, int, int]:
        """(ell, section_index, fiber_index) for a 4-ray fan with ell >= 1.

        The section is the unique prime curve of self-intersection -ell;
        both rays adjacent to it are fibers.
        """
        st = self.fan.surface_type()
        if st.kind != HIRZEBRUCH or st.ell == 0:
            raise InputError(
                f"not a Hirzebruch surface with ell >= 1: {st}"
            )
        ell = st.ell
        s_idx = self.walls.index(ell)
        f_idx = (s_idx + 1) % self.n
        return ell, s_idx, f_idx

    def from_section_fiber(self, s: Rat, f: Rat) -> Divisor:
        """Divisor of class s*S + f*F in section/fiber coordinates."""
        _, s_idx, f_idx = self.hirzebruch_presentation()
        coeffs = [0] * self.n
        coeffs[s_idx] = s
        coeffs[f_idx] = f
        return Divisor(coeffs)

    def to_section_fiber(self, D: Divisor) -> tuple[Rat, Rat]:
        """Class coordinates (s, f) with D ~ s*S + f*F."""
        ell, s_idx, f_idx = self.hirzebruch_presentation()
        s = self.pair_generator(D, f_idx)
        f = self.pair_generator(D, s_idx) + ell * s
        return s, f


def _matrix_rank(rows: Sequence[Sequence[Rat]]) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    m = [row[:] for row in rows]
    rank = col = 0
    nrows, ncols = len(m), len(m[0])
    while rank < nrows and col < ncols:
        pivot = next(
            (r for r in range(rank, nrows) if m[r][col] != 0), None
        )
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, nrows):
            if m[r][col]:
                factor = Fraction(m[r][col], pv)
                m[r] = [
                    a - factor * b for a, b in zip(m[r], m[rank])
                ]
        rank += 1
        col += 1
    return rank


class AbstractSurface(SurfaceModel):
    """A surface given by labels, an intersection matrix, the canonical
    class and a declared set of effective-cone generator indices.

    Sections cannot be counted combinatorially here, so ``h0`` returns the
    Euler characteristic; every consumer must record that assumption (see
    ``uses_chi_for_h0``).  Nefness and ampleness are tested against the
    declared generators, which the caller asserts generate the effective
    cone.
    """

    uses_chi_for_h0 = True

    __slots__ = ("labels", "n", "matrix", "canonical", "effective_generators")

    def __init__(
        self,
        labels: Sequence[str],
        pairing: Sequence[Sequence[Rat]],
        canonical: Iterable[Rat],
        effective_generators: Sequence[int],
    ):
        n = len(labels)
        if n == 0:
            raise InputError("abstract surface needs at least one label")
        matrix = tuple([tuple(list(map(_exact, row))) for row in pairing])
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise DimensionMismatchError(
                f"pairing must be a {n}x{n} matrix"
            )
        for i in range(n):
            for j in range(i + 1, n):
                if matrix[i][j] != matrix[j][i]:
                    raise InputError(
                        f"pairing is not symmetric at ({i},{j})"
                    )
        K = Divisor(canonical)
        if len(K) != n:
            raise DimensionMismatchError(
                "canonical class length does not match labels"
            )
        gens = tuple(effective_generators)
        if not gens:
            raise InputError("declare at least one effective generator")
        if any(type(i) is not int for i in gens):
            raise InputError("effective generator indices must be integers")
        if any(i < 0 or i >= n for i in gens):
            raise InputError("effective generator index out of range")
        if len(set(gens)) != len(gens):
            raise InputError("effective generator indices repeat")
        object.__setattr__(self, "labels", tuple([str(s) for s in labels]))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "canonical", K)
        object.__setattr__(self, "effective_generators", gens)

    @property
    def picard_rank(self) -> int:
        """Rank of the pairing matrix (a lower bound for the Picard rank
        when the presentation basis is redundant)."""
        return _matrix_rank(self.matrix)

    def intersections(self, D: Divisor) -> list[int | Fraction]:
        """D.C_i for every declared curve C_i: the pairing matrix times D."""
        self._check(D)
        a = D.coeffs
        return [sum(x * m for x, m in zip(a, row) if x) for row in self.matrix]

    def pair_generator(self, D: Divisor, i: int) -> int | Fraction:
        return self.intersections(D)[i]

    def pair_curves(self, i: int, j: int) -> int | Fraction:
        """C_i.C_j, the pairing matrix's entry."""
        return self.matrix[i][j]

    def h0(self, D: Divisor) -> int:
        """Euler characteristic standing in for h0 (vanishing assumed)."""
        value = self.chi(D)
        if value.denominator != 1:
            raise InputError(
                f"Euler characteristic {value} is not an integer; "
                "the pairing matrix is not compatible with the lattice"
            )
        return int(value)

    def check_hypotheses(self) -> tuple[bool, list[str]]:
        """Hypotheses for the boundary-polarization construction.

        Declared generators must have negative self-intersection and meet
        each other in at most one point, and the presentation must have
        rank at least 3.  Returns (ok, diagnostics), one message per
        violation.
        """
        problems: list[str] = []
        gens = self.effective_generators
        if len(gens) < 3:
            problems.append(
                f"only {len(gens)} effective generators declared, need >= 3"
            )
        if self.picard_rank < 3:
            problems.append(
                f"pairing matrix has rank {self.picard_rank}, need >= 3"
            )
        for i in gens:
            if self.pair_curves(i, i) >= 0:
                problems.append(
                    f"generator {self.labels[i]} has self-intersection "
                    f"{self.pair_curves(i, i)} >= 0"
                )
        for i, j in combinations(gens, 2):
            if self.pair_curves(i, j) not in (0, 1):
                problems.append(
                    f"generators {self.labels[i]} and {self.labels[j]} "
                    f"meet with multiplicity {self.pair_curves(i, j)}"
                )
        return not problems, problems
