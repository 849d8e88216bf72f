"""Independent checker for the benchmark's outputs.

Shares no code with ``src/``.  It rebuilds the intersection numbers of a
smooth complete toric surface from its rays by the wall relation, counts
sections of a nef divisor by Pick's theorem over the cone vertices,
strips the fixed part of a non-nef divisor before counting, and keeps a
brute bounding-box scan as the reference its own tests compare against.
Divisors are tuples of integers (or Fractions) in the surface's ray
order, which is the counterclockwise order starting at angle 0.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


def det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _angle_key(u):
    # half 0: angle in [0, pi); half 1: angle in [pi, 2*pi)
    return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1


def _angle_cmp(u, v):
    hu, hv = _angle_key(u), _angle_key(v)
    if hu != hv:
        return hu - hv
    return -det(u, v)


def sort_rays(rays):
    """Rays in counterclockwise order, starting at angle 0."""
    return sorted((tuple(r) for r in rays), key=functools.cmp_to_key(_angle_cmp))


class CheckError(Exception):
    """An output of the program disagrees with the checker."""


class Surface:
    """Intersection theory of a smooth complete toric surface.

    ``walls[i]`` is the integer c with u[i-1] + u[i+1] = c * u[i]; the
    prime curve C_i has C_i^2 = -c and meets C_j (j != i) once exactly
    when the rays are cyclically adjacent.
    """

    def __init__(self, rays):
        rays = sort_rays(rays)
        n = len(rays)
        if n < 3 or len(set(rays)) != n:
            raise ValueError(f"need at least 3 distinct rays: {rays}")
        for u in rays:
            if math.gcd(u[0], u[1]) != 1:
                raise ValueError(f"ray {u} is not primitive")
        walls = []
        for i in range(n):
            prev, cur, nxt = rays[i - 1], rays[i], rays[(i + 1) % n]
            if det(cur, nxt) != 1:
                raise ValueError(f"cone {cur}, {nxt} is not smooth or not convex")
            c = det(prev, nxt)
            if (prev[0] + nxt[0], prev[1] + nxt[1]) != (c * cur[0], c * cur[1]):
                raise ValueError(f"wall relation fails at ray {cur}")
            walls.append(c)
        self.rays = tuple(rays)
        self.n = n
        self.walls = tuple(walls)

    # -- intersection numbers ------------------------------------------------

    def dot_curve(self, D, i):
        """D . C_i."""
        n = self.n
        return D[i - 1] + D[(i + 1) % n] - self.walls[i] * D[i]

    def pair(self, D, E):
        return sum(e * self.dot_curve(D, i) for i, e in enumerate(E) if e)

    def canonical(self):
        return (-1,) * self.n

    def is_nef(self, D):
        return all(self.dot_curve(D, i) >= 0 for i in range(self.n))

    def is_ample(self, D):
        return all(self.dot_curve(D, i) > 0 for i in range(self.n))

    def self_intersections(self):
        return tuple(-c for c in self.walls)

    # -- section counts ------------------------------------------------------

    def cone_vertices(self, D):
        """Integral vertex of the section polygon for each cone (i, i+1).

        Solves <m, u_i> = -a_i, <m, u_{i+1}> = -a_{i+1}; the cone is
        unimodular, so the inverse matrix is integral.
        """
        out = []
        for i in range(self.n):
            u, v = self.rays[i], self.rays[(i + 1) % self.n]
            r0, r1 = -D[i], -D[(i + 1) % self.n]
            out.append((v[1] * r0 - u[1] * r1, -v[0] * r0 + u[0] * r1))
        return out

    def h0_nef(self, D):
        """Lattice points of the section polygon of a nef D by Pick's theorem."""
        verts = self.cone_vertices(D)
        twice_area = 0
        boundary = 0
        for i, p in enumerate(verts):
            q = verts[(i + 1) % len(verts)]
            twice_area += det(p, q)
            boundary += math.gcd(q[0] - p[0], q[1] - p[1])
        return (abs(twice_area) + boundary + 2) // 2

    def h0(self, D, ample):
        """h0 of any integral D: strip fixed components, then count by Pick.

        A prime curve C with D.C < 0 and C^2 = -c < 0 is a fixed component
        of multiplicity at least ceil(-D.C / c).  D has no sections once
        D.C < 0 for a curve with C^2 >= 0, or once D.A < 0 for the ample A.
        """
        D = list(D)
        while True:
            if self.pair(D, ample) < 0:
                return 0
            bad = next(
                (i for i in range(self.n) if self.dot_curve(D, i) < 0), None
            )
            if bad is None:
                return self.h0_nef(D)
            c = self.walls[bad]
            if c <= 0:
                return 0
            D[bad] -= -(self.dot_curve(D, bad) // c)  # ceil(-D.C / c)

    def _box_bound(self, D, w):
        """Upper bound of <m, w> over the section polygon of D.

        -w lies in some cone (u_i, u_{i+1}); writing -w = s u_i + t u_{i+1}
        with integers s, t >= 0 gives <m, w> <= s a_i + t a_{i+1}.
        """
        for i in range(self.n):
            u, v = self.rays[i], self.rays[(i + 1) % self.n]
            nw = (-w[0], -w[1])
            s, t = det(nw, v), det(u, nw)
            if s >= 0 and t >= 0:
                return s * D[i] + t * D[(i + 1) % self.n]
        raise AssertionError("rays do not span the plane")

    def h0_brute(self, D):
        """Bounding-box scan of the section polygon; for small D only."""
        xmax = self._box_bound(D, (1, 0))
        xmin = -self._box_bound(D, (-1, 0))
        ymax = self._box_bound(D, (0, 1))
        ymin = -self._box_bound(D, (0, -1))
        return sum(
            1
            for x in range(xmin, xmax + 1)
            for y in range(ymin, ymax + 1)
            if all(
                x * u[0] + y * u[1] >= -a for u, a in zip(self.rays, D)
            )
        )

    # -- slopes --------------------------------------------------------------

    def slope(self, D, A):
        """-(D.A)/(h0(D) - 1) for a nef D with at least two sections."""
        h = self.h0_nef(D)
        if h <= 1:
            raise CheckError(f"h0 = {h} for {D}: slope undefined")
        return Fraction(-self.pair(D, A), h - 1)

    def slopes_at(self, D, S, A, d):
        """(subbundle, ambient) slopes for d*D - S inside d*D."""
        amb = tuple(d * x for x in D)
        sub = tuple(a - s for a, s in zip(amb, S))
        return self.slope(sub, A), self.slope(amb, A)

    def alpha_beta(self, D, S, A):
        K = self.canonical()
        DA, DS, SA = self.pair(D, A), self.pair(D, S), self.pair(S, A)
        alpha = 2 * DA * DS - SA * self.pair(D, D)
        beta = -DA * (self.pair(S, S) + self.pair(S, K)) + SA * self.pair(D, K)
        return Fraction(alpha), Fraction(beta)

    def first_nef_multiple(self, D, S):
        """Least d >= 1 with d*D - S nef, for ample D."""
        d = 1
        for i in range(self.n):
            dc, sc = self.dot_curve(D, i), self.dot_curve(S, i)
            d = max(d, -(-Fraction(sc) // dc))
        return int(d)


def least_negative_d(alpha, beta, start):
    """Least d >= start with alpha*d^2 + beta*d < 0; None when there is none."""
    if alpha > 0 or (alpha == 0 and beta >= 0):
        return None
    if alpha == 0:
        return start
    # alpha < 0: q(d) < 0 exactly when d > -beta/alpha (d > 0)
    root = -beta / alpha
    return max(start, math.floor(root) + 1)


def hirzebruch(ell):
    """The ell-th Hirzebruch surface with its section and fiber curves.

    Returns (surface, s_idx, f_idx): the section has self-intersection
    -ell and any ray next to it gives the fiber class.
    """
    X = Surface([(1, 0), (0, 1), (-1, ell), (0, -1)])
    s_idx = X.walls.index(ell) if ell else 0
    return X, s_idx, (s_idx + 1) % 4


def section_fiber(X, s_idx, f_idx, s, f):
    D = [0] * X.n
    D[s_idx] = s
    D[f_idx] = f
    return tuple(D)


# -- reports -------------------------------------------------------------------

NOT_SEMISTABLE, NOT_STABLE, NONE_FOUND = "NotSemistable", "NotStable", "NoDestabilizerFound"


def _rat(x):
    return Fraction(x) if isinstance(x, str) else Fraction(int(x))


def _ints(values):
    out = tuple(values)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in out):
        raise CheckError(f"expected integers, got {out}")
    return out


def _expect(ok, what):
    if not ok:
        raise CheckError(what)


def _small_shifts(n):
    """Sums of one or two prime curves: the candidate family of the method."""
    for i in range(n):
        yield tuple(int(k == i) for k in range(n))
    for i in range(n):
        for j in range(i, n):
            yield tuple(int(k == i) + int(k == j) for k in range(n))


def check_report(kind, data, X, D, A=None, d=None):
    """An ``analyze`` report in mode ``driver``, ``scan`` or ``fixed``."""
    echo = data["echo"]
    _expect([tuple(r) for r in echo["fan"]["rays"]] == list(X.rays), "echo rays differ")
    _expect(tuple(echo["D"]) == tuple(D), "echo D differs")
    verdict, cert = data["verdict"], data["certificate"]
    if verdict == NONE_FOUND:
        _expect(cert is None and kind != "driver", f"{kind} found no destabilizer")
        if kind == "scan":
            for S in _small_shifts(X.n):
                alpha, beta = X.alpha_beta(D, S, A)
                _expect(alpha > 0 or (alpha == 0 and beta > 0),
                        f"scan missed the unstable candidate {S}")
        else:
            amb = tuple(d * x for x in D)
            for S in _small_shifts(X.n):
                sub = tuple(a - s for a, s in zip(amb, S))
                if any(sub) and X.is_nef(sub) and X.h0_nef(sub) > 1:
                    _expect(X.slope(sub, A) < X.slope(amb, A),
                            f"fixed-exponent scan missed {S}")
        return
    _expect(verdict in (NOT_SEMISTABLE, NOT_STABLE), f"unknown verdict {verdict}")
    CA, S, d0 = _ints(cert["A"]), _ints(cert["S"]), cert["d0"]
    _expect(X.is_ample(CA), f"A = {CA} is not ample")
    if A is not None:
        _expect(CA == tuple(A), "certificate A differs from the given A")
    if kind == "fixed":
        _expect(d0 == d, "certificate exponent differs from --d")
    _expect(all(s >= 0 for s in S) and any(S), f"S = {S} is not a nonzero sum of prime curves")
    _expect(X.is_nef(tuple(d0 * x - s for x, s in zip(D, S))), "d0*D - S is not nef")
    sub, amb = X.slopes_at(D, S, CA, d0)
    _expect(
        (_rat(cert["slopes"]["subbundle"]), _rat(cert["slopes"]["ambient"])) == (sub, amb),
        "reported slopes differ from the checker's",
    )
    _expect(sub > amb if verdict == NOT_SEMISTABLE else sub == amb,
            f"slopes {sub} vs {amb} do not give {verdict}")
    if kind != "fixed" and verdict == NOT_SEMISTABLE:
        prev = d0 - 1
        below = tuple(prev * x - s for x, s in zip(D, S))
        if prev >= X.first_nef_multiple(D, S) and any(below):
            sub, amb = X.slopes_at(D, S, CA, prev)
            _expect(sub <= amb, f"d0 = {d0} is not minimal")


def check_verify(data):
    _expect(data["verified"] is True, "--verify did not verify")


def check_h0(data, X, D, ample):
    _expect(data["h0"] == X.h0(D, ample), f"h0 {data['h0']} != {X.h0(D, ample)}")


def check_classify(data, X):
    n = X.n
    kind = "ProjectivePlane" if n == 3 else "Hirzebruch" if n == 4 else "Other"
    _expect(data["type"] == kind and data["picard_rank"] == n - 2, "wrong type")
    _expect([tuple(r) for r in data["rays"]] == list(X.rays), "rays differ")
    _expect(tuple(data["self_intersections"]) == X.self_intersections(),
            "self-intersections differ")
    if "reduction" in data:
        rays = list(X.rays)
        for r in data["reduction"]["blown_down_rays"]:
            cur = Surface(rays)
            i = rays.index(tuple(r))
            _expect(cur.walls[i] == 1, f"blew down {r}, not a (-1)-curve")
            del rays[i]
        _expect(len(rays) == min(n, 4), f"stopped at {len(rays)} rays")
        last = Surface(rays)
        minimal = "ProjectivePlane" if last.n == 3 else f"Hirzebruch({max(last.walls)})"
        _expect(data["reduction"]["minimal_type"] == minimal, "wrong minimal model")


def check_polarize(data, X, D):
    A = _ints(data["polarization_integral"])
    e = data["generator_index"]
    E = tuple(int(i == e) for i in range(X.n))
    _expect(tuple(data["generator"]) == E, "generator is not a prime curve")
    _expect(X.is_ample(A), f"A = {A} is not ample")
    alpha, _ = X.alpha_beta(D, E, A)
    _expect(alpha < 0, "alpha >= 0 for the integral A")
    rational = tuple(_rat(x) for x in data["polarization"])
    alpha, _ = X.alpha_beta(D, E, rational)
    _expect(alpha == _rat(data["alpha"]), "reported alpha differs")


def check_sweep(data, rows):
    _expect(len(data["rows"]) == rows, f"{len(data['rows'])} rows, expected {rows}")
    for row in data["rows"]:
        ell, a, b = row["ell"], _rat(row["a"]), _rat(row["b"])
        X, s, f = hirzebruch(ell)
        D = section_fiber(X, s, f, b.denominator, b.numerator)
        A = section_fiber(X, s, f, a.denominator, a.numerator)
        S = section_fiber(X, s, f, 1, 0)
        alpha, beta = X.alpha_beta(D, S, A)
        _expect((_rat(row["alpha"]), _rat(row["beta"])) == (alpha, beta),
                f"alpha, beta differ at {row}")
        unstable = alpha < 0 or (alpha == 0 and beta <= 0)
        _expect((row["verdict"] == "UnstableForLargeD") == unstable,
                f"verdict disagrees with the signs at {row}")
        if not unstable:
            _expect(row["d0"] is None and row["strict"] is None, f"d0 without verdict {row}")
            continue
        strict = not (alpha == 0 and beta == 0)
        d_nef = X.first_nef_multiple(D, S)
        d0 = least_negative_d(alpha, beta, d_nef) if strict else d_nef
        _expect(row["strict"] == strict and row["d0"] == d0, f"d0 or strict differ at {row}")


def check_op(kind, data, ctx):
    """Judge one report; raises CheckError on the first disagreement."""
    if kind in ("driver", "scan", "fixed"):
        check_report(kind, data, **ctx)
    elif kind == "verify":
        check_verify(data)
    elif kind == "h0":
        check_h0(data, **ctx)
    elif kind == "classify":
        check_classify(data, **ctx)
    elif kind == "polarize":
        check_polarize(data, **ctx)
    elif kind == "sweep":
        check_sweep(data, **ctx)
    else:
        raise ValueError(f"unknown op kind {kind}")
