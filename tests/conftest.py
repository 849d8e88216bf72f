"""Shared corpus of fans and ample divisors used across the test suite."""

import contextlib
import io
import math
import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import strategies as st

from syzstab import (
    CHI_ASSUMPTION,
    NO_DESTABILIZER,
    NOT_COVERED,
    NOT_SEMISTABLE,
    NOT_STABLE,
    UNSTABLE_FOR_LARGE_D,
    AlphaBeta,
    Divisor,
    EmptyGridError,
    Fan,
    InputError,
    NotAmpleError,
    NotEffectiveError,
    Polytope,
    StabilityReport,
    ToricSurface,
    alpha_beta,
    d_threshold,
)
from syzstab import cli
from syzstab.files import dumps_canonical, format_rational, parse_rational
from syzstab.stability import _region_rows

P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
BL2P2_RAYS = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]
DP6_RAYS = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
RANK5_RAYS = [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
RANK6_RAYS = [
    (1, 0),
    (2, 1),
    (1, 1),
    (1, 2),
    (0, 1),
    (-1, 0),
    (-1, -1),
    (0, -1),
]


def det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def hirzebruch_rays(ell):
    return [(1, 0), (0, 1), (-1, ell), (0, -1)]


CORPUS_RAYS = {
    "p2": P2_RAYS,
    "f0": hirzebruch_rays(0),
    "f1": hirzebruch_rays(1),
    "f2": hirzebruch_rays(2),
    "f3": hirzebruch_rays(3),
    "f4": hirzebruch_rays(4),
    "bl2p2": BL2P2_RAYS,
    "dp6": DP6_RAYS,
    "rank5": RANK5_RAYS,
    "rank6": RANK6_RAYS,
}


def _blowup_sites(seed, size):
    """The starting fan of ``blowup_chain(seed, size)`` and, for each
    blow-up in turn, the index i of the cone (i, i + 1) it subdivides."""
    rng = random.Random(seed)
    start = P2_RAYS if seed % 4 == 0 else hirzebruch_rays(rng.randrange(5))
    X0 = ToricSurface(Fan(start))
    return X0, [rng.randrange(n) for n in range(X0.n, size)]


def _blow_up(rays, i):
    """Insert the sum of rays i and i + 1 between them."""
    u, v = rays[i], rays[(i + 1) % len(rays)]
    rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))


def blowup_chain(seed, size):
    """A smooth complete fan of ``size`` rays: P2 or a Hirzebruch fan,
    blown up at seeded random cones (each new ray is the sum of its two
    neighbours)."""
    X0, sites = _blowup_sites(seed, size)
    rays = list(X0.fan.rays)
    for i in sites:
        _blow_up(rays, i)
    return Fan(rays)


def blowup_chain_divisors(seed, size):
    """``blowup_chain(seed, size)`` with two divisors carried along from
    the first ample divisor with coefficients in [1, 6] on the starting
    fan.  The pullback gives each new ray a_i + a_{i+1}, so it is nef with
    a zero-length edge for every exceptional curve.  The ample one is
    doubled at each blow-up and gives the new ray 2(a_i + a_{i+1}) - 1.
    Returns (fan, pullback, ample)."""
    X0, sites = _blowup_sites(seed, size)
    rays = list(X0.fan.rays)
    pulled = next(
        list(c) for c in product(range(1, 7), repeat=X0.n)
        if X0.is_ample(Divisor(c))
    )
    ample = list(pulled)
    for i in sites:
        j = (i + 1) % len(rays)
        _blow_up(rays, i)
        pulled.insert(i + 1, pulled[i] + pulled[j])
        new = 2 * (ample[i] + ample[j]) - 1
        ample = [2 * a for a in ample]
        ample.insert(i + 1, new)
    return Fan(rays), Divisor(pulled), Divisor(ample)


def _least_form(cycle):
    """The least rotation or reflection of a cyclic sequence."""
    n = len(cycle)
    return min(c[i:] + c[:i] for c in (cycle, cycle[::-1]) for i in range(n))


def rays_of_cycle(cycle):
    """The rays of a smooth complete fan with the given cyclic sequence of
    self-intersections, from u_0 = (1, 0), u_1 = (0, 1) and
    u_{i+1} = c_i*u_i - u_{i-1}, where c_i = -cycle[i] is the wall
    coefficient."""
    rays = [(1, 0), (0, 1)]
    for c in cycle[1:-1]:
        (x0, y0), (x1, y1) = rays[-2], rays[-1]
        rays.append((-c * x1 - x0, -c * y1 - y0))
    return rays


def every_smooth_surface(max_rays):
    """Every smooth complete toric surface of at most ``max_rays`` rays that
    blow-ups of the plane, cycle (1, 1, 1), and of F_a, cycle
    (a, 0, -a, 0) with a <= 3, reach, each once up to rotation and
    reflection of its cycle of self-intersections, with an ample D.

    A blow-up inserts a -1 between two neighbours and lowers both by one.
    Cycles come breadth-first, so each is kept as the first blow-up path
    reaches it.  D starts as the first ample divisor with coefficients in
    [1, 6] on the starting fan and follows that path by the recipe of
    ``bench/workloads.blowup_chain``: each blow-up doubles D and gives the
    new ray 2(a_i + a_{i+1}) - 1.  Returns [(cycle, X, D)]."""
    level = []
    for cycle in [(1, 1, 1)] + [(a, 0, -a, 0) for a in range(4)]:
        X = ToricSurface(Fan(rays_of_cycle(cycle)))
        D = next(
            c for c in product(range(1, 7), repeat=X.n) if X.is_ample(Divisor(c))
        )
        level.append((cycle, D))
    seen = {_least_form(cycle) for cycle, _ in level}
    found = list(level)
    while level and len(level[0][0]) < max_rays:
        grown = []
        for cycle, D in level:
            n = len(cycle)
            for i in range(n):
                j = (i + 1) % n
                c, a = list(cycle), [2 * x for x in D]
                c[i] -= 1
                c[j] -= 1
                c.insert(i + 1, -1)
                a.insert(i + 1, 2 * (D[i] + D[j]) - 1)
                key = _least_form(tuple(c))
                if key not in seen:
                    seen.add(key)
                    grown.append((tuple(c), tuple(a)))
        found += grown
        level = grown
    return [
        (cycle, ToricSurface(Fan(rays_of_cycle(cycle))), Divisor(D))
        for cycle, D in found
    ]


def section_polygon(X, D):
    """The half-plane ``Polytope`` { m : <m, u_i> >= -a_i } of an integral
    divisor on a toric surface, whatever route ``X.h0`` takes: the
    oracles' input, with its vertices from the pairwise search."""
    a = D.int_coeffs()
    return Polytope([(u[0], u[1], -c) for u, c in zip(X.fan.rays, a)])


def lattice_points(poly):
    """The integer points of a ``Polytope`` by a bounding-box scan over its
    vertices, in x-major order: slower than ``lattice_point_count`` and
    independent of it, the row count's oracle."""
    verts = poly.vertices
    if not verts:
        return []
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    return [
        (x, y)
        for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1)
        for y in range(math.ceil(min(ys)), math.floor(max(ys)) + 1)
        if all(ux * x + uy * y >= rhs for ux, uy, rhs in poly.halfplanes)
    ]


def count_calls(monkeypatch, *names):
    """Counts of calls to the named ToricSurface methods from now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(ToricSurface, name)

        def counted(X, D, name=name, method=method):
            counts[name] += 1
            return method(X, D)

        monkeypatch.setattr(ToricSurface, name, counted)
    return counts


def reduce_by_rebuild(fan):
    """Reference for ``reduce_to_minimal``: blow down the first ray of wall
    coefficient 1 by building and validating a whole new fan, until 3 or 4
    rays remain.  Returns (fan, removed rays, number of removals of the
    first or the last ray)."""
    removed = []
    wraps = 0
    current = fan
    while current.n > 4:
        i = current.wall_coefficients().index(1)
        removed.append(current.rays[i])
        wraps += i in (0, current.n - 1)
        current = Fan(current.rays[:i] + current.rays[i + 1 :])
    return current, removed, wraps


def reduce_by_deletion(fan):
    """The same removal order from plain lists, fast enough for 10^4 rays:
    delete the first ray of wall coefficient 1 and recompute its two
    neighbours' coefficients from the rays.  Returns (rays, removed)."""
    rays = list(fan.rays)
    walls = list(fan.wall_coefficients())
    removed = []
    while len(rays) > 4:
        i = walls.index(1)
        removed.append(rays.pop(i))
        del walls[i]
        n = len(rays)
        for j in (i - 1, i % n):
            walls[j] = det(rays[j - 1], rays[(j + 1) % n])
    return rays, removed


def pairing_matrix(fan):
    """C_i.C_j from the rays alone, independent of ``intersections``: 1 for
    adjacent rays (every pair when n == 3), -det(u_{i-1}, u_{i+1}) on the
    diagonal and 0 elsewhere."""
    r, n = fan.rays, fan.n
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i - 1] = matrix[i][(i + 1) % n] = 1
        matrix[i][i] = -det(r[i - 1], r[(i + 1) % n])
    return matrix


# The sign analysis of q(d) = alpha*d^2 + beta*d for large d: the subbundle
# wins for all large d, ties or wins for all d, or may lose for ever.
UNSTABLE_EVENTUALLY = "UnstableEventually"
UNSTABLE_BOUNDARY = "UnstableBoundary"
STABLE_POSSIBLE = "StablePossible"


def ref_asymptotic(X, D, S, A):
    """(kind, AlphaBeta) of the candidate (D, S, A) after the checks of
    ``d_threshold``, in its order, from seven pairings."""
    if not X.is_ample(D):
        raise NotAmpleError("divisor D is not ample")
    if not X.is_ample(A):
        raise NotAmpleError("polarization is not ample")
    if isinstance(X, ToricSurface) and not X.is_effective(S):
        raise NotEffectiveError("candidate S is not effective")
    K, p = X.canonical, X.pair
    DA, SA = p(D, A), p(S, A)
    alpha = 2 * DA * p(D, S) - SA * p(D, D)
    beta = -DA * (p(S, S) + p(S, K)) + SA * p(D, K)
    ab = AlphaBeta(Fraction(alpha), Fraction(beta))
    if ab.alpha < 0:
        return UNSTABLE_EVENTUALLY, ab
    if ab.alpha == 0 and ab.beta <= 0:
        return UNSTABLE_BOUNDARY, ab
    return STABLE_POSSIBLE, ab


def q(ab, d):
    """The slope-difference numerator q(d) = alpha*d^2 + beta*d."""
    return ab.alpha * d * d + ab.beta * d


def nef_threshold(X, D, E):
    """The largest t with D - t*E nef, for nef D: the least (D.C)/(E.C)
    over the effective generators C with E.C > 0, one pairing at a time."""
    curves = map(X.generator, X.effective_generators)
    pairs = [(X.pair(D, C), X.pair(E, C)) for C in curves]
    return min(Fraction(x, e) for x, e in pairs if e > 0)


def first_nef_multiple(X, D, S):
    """The least d >= 1 with d*D - S nef, for ample D, walked one d at a
    time: the oracle for where a threshold's search may start."""
    d = 1
    while not X.is_nef(d * D - S):
        d += 1
    return d


def report_of(X, cert, notes=()):
    """The report ``analyze`` builds on a search's certificate: its
    verdict from ``strict``, then the notes and the Euler
    characteristic's."""
    if cert is None:
        verdict = NO_DESTABILIZER
    else:
        verdict = NOT_SEMISTABLE if cert.strict else NOT_STABLE
    chi = (CHI_ASSUMPTION,) if X.uses_chi_for_h0 else ()
    return StabilityReport(verdict, cert, tuple(notes) + chi)


def region_quadratic(ell, b):
    """2b^2 - 3 ell b + ell(ell - 1): for b > ell, its sign places b
    against the larger root of b^2 - (3 ell/2) b + (ell^2 - ell)/2."""
    return 2 * b * b - 3 * ell * b + ell * (ell - 1)


def ref_region(ell, a, b):
    """The paper's instability region on F_ell in closed form, in plain
    Fractions: a > 2b(b - ell)/ell + ell, and on that bound b at or past
    the larger root, by the sign of ``region_quadratic``.  The oracle for
    the section's alpha/beta sign, which decides it in the program."""
    a, b = Fraction(a), Fraction(b)
    bound = 2 * b * (b - ell) / ell + ell
    if a > bound or (a == bound and region_quadratic(ell, b) >= 0):
        return UNSTABLE_FOR_LARGE_D
    return NOT_COVERED


def ref_grid(lo, hi, step):
    """Reference for one axis of a ``sweep`` grid: the Fraction walk lo,
    lo + step, ... <= hi, which the command walks as integer numerators
    over one common denominator."""
    v = Fraction(lo)
    while v <= hi:
        yield v
        v += step


@st.composite
def rational_texts(draw, value):
    """Texts that parse to value: "p/q" scaled by 1 to 3, the integer
    alone, and a decimal where the denominator divides 10**3."""
    k = draw(st.integers(1, 3))
    texts = [f"{value.numerator * k}/{value.denominator * k}"]
    if value.denominator == 1:
        texts.append(str(value.numerator))
    if 1000 % value.denominator == 0:
        whole, part = divmod(abs(value.numerator) * (1000 // value.denominator), 1000)
        sign = "-" if value < 0 else ""
        texts.append(f"{sign}{whole}.{part:03d}".rstrip("0").removesuffix("."))
        texts.append(f"{sign}{whole}.{part:03d}")
    return draw(st.sampled_from(texts))


def ref_hirzebruch_rows(ell, a_values, b_values):
    """Reference for the sweep's row core ``_region_rows``, in the form of
    ``core_rows``: the per-point path, with the closed-form region of
    ``ref_region``, D and A built from section/fiber coordinates, the
    seven pairings of ``alpha_beta`` and ``d_threshold`` at every point in
    the region."""
    X = ToricSurface(Fan(hirzebruch_rays(ell)))
    _, s_idx, _ = X.hirzebruch_presentation()
    S = X.generator(s_idx)
    rows = []
    for a in a_values:
        for b in b_values:
            if a <= ell or b <= ell:
                continue
            verdict = ref_region(ell, a, b)
            D = X.from_section_fiber(b.denominator, b.numerator)
            A = X.from_section_fiber(a.denominator, a.numerator)
            th = None
            if verdict == UNSTABLE_FOR_LARGE_D:
                th = d_threshold(X, D, S, A)
            rows.append((a, b, verdict, alpha_beta(X, D, S, A), th))
    return rows


def as_fractions(rows):
    """The row core's rows with each (n, d) pair a Fraction and alpha and
    beta an AlphaBeta of Fractions, as ``ref_hirzebruch_rows`` writes them."""
    return [
        (Fraction(*a), Fraction(*b), verdict,
         AlphaBeta(Fraction(alpha), Fraction(beta)), th)
        for a, b, verdict, alpha, beta, th in rows
    ]


def core_rows(ell, a_values, b_values):
    """``as_fractions`` of ``_region_rows`` on rational a and b values, each
    passed as its numerator over the lcm q of all their denominators."""
    a_values, b_values = ([Fraction(v) for v in vs] for vs in (a_values, b_values))
    q = math.lcm(*(v.denominator for v in a_values + b_values))
    a_nums, b_nums = ([int(v * q) for v in vs] for vs in (a_values, b_values))
    return as_fractions(_region_rows(ell, a_nums, b_nums, q))


def ref_sweep(args) -> int:
    """Reference for the ``sweep`` command: its writer before rows were
    streamed.  Every row becomes a dict of formatted fields, kept until the
    grid is done; the report is then ``dumps_canonical({"rows": rows})``
    or ``ref_sweep_csv(rows)``, written at once."""
    try:
        ells = [int(x) for x in args.ell.split(",")]
    except ValueError as exc:
        raise InputError(f"--ell must list integers: {args.ell!r}") from exc
    if any(e < 1 for e in ells):
        raise InputError("--ell entries must be >= 1")
    a_lo, a_hi = cli._parse_range(args.a)
    b_lo, b_hi = cli._parse_range(args.b)
    step = parse_rational(args.step)
    if step.numerator <= 0:
        raise InputError("--step must be positive")
    values = (a_lo, a_hi, b_lo, b_hi, step)
    q = math.lcm(*(v.denominator for v in values))
    a_lo, a_hi, b_lo, b_hi, s = (v.numerator * (q // v.denominator) for v in values)
    points = len(ells) * ((a_hi - a_lo) // s + 1) * ((b_hi - b_lo) // s + 1)
    if points > cli.MAX_GRID_POINTS:
        raise InputError(
            f"the grid has more than {cli.MAX_GRID_POINTS} points; "
            "use a coarser --step or narrower ranges"
        )
    rows = []
    for ell in ells:
        a_nums, b_nums = range(a_lo, a_hi + 1, s), range(b_lo, b_hi + 1, s)
        for a, b, verdict, alpha, beta, th in _region_rows(ell, a_nums, b_nums, q):
            rows.append({
                "ell": ell,
                "a": format_rational(*a),
                "b": format_rational(*b),
                "verdict": verdict,
                "alpha": format_rational(alpha),
                "beta": format_rational(beta),
                "d0": None if th is None else th.d0,
                "strict": None if th is None else th.strict,
            })
    if not rows:
        raise EmptyGridError(
            "no grid point satisfies the ampleness bounds a, b > ell"
        )
    out = dumps_canonical({"rows": rows}) if args.json else ref_sweep_csv(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def ref_sweep_csv(rows: list) -> str:
    header = ["ell", "a", "b", "verdict", "alpha", "beta", "d0", "strict"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                "" if row[k] is None else str(row[k]).lower()
                if isinstance(row[k], bool)
                else str(row[k])
                for k in header
            )
        )
    return "\n".join(lines)


@contextlib.contextmanager
def sweep_run_by(func):
    """``cli.main`` runs its ``sweep`` command with func while inside."""
    sweep = cli._build_parser()[1]["sweep"]
    sweep.set_defaults(func=func)
    try:
        yield
    finally:
        sweep.set_defaults(func=cli._cmd_sweep)


def run_main(argv, out_path=None):
    """(exit code, stdout, stderr, bytes of out_path or None) of
    ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    report = None
    if out_path is not None:
        with contextlib.suppress(FileNotFoundError), open(out_path, "rb") as fh:
            report = fh.read()
    return rc, out.getvalue(), err.getvalue(), report


# One fixed ample divisor per fan of Picard rank >= 3: the anticanonical
# class where it is ample (the del Pezzo cases), hand-picked coefficients
# otherwise.  Ampleness is asserted in a test below.
AMPLE_FOR_DRIVER = {
    "bl2p2": (1, 1, 1, 1, 1),
    "dp6": (1, 1, 1, 1, 1, 1),
    "rank5": (2, 3, 2, 3, 2, 2, 2),
    "rank6": (3, 4, 2, 4, 3, 3, 3, 3),
}

# Abstract presentation of the plane blown up in two points, on the basis
# of the three (-1)-curves.
BL2P2_ABSTRACT = {
    "labels": ["E1", "E2", "L12"],
    "pairing": [[-1, 0, 1], [0, -1, 1], [1, 1, -1]],
    "canonical": [-2, -2, -3],
    "effective_generators": [0, 1, 2],
}


@pytest.fixture(scope="session")
def corpus():
    return {name: Fan(rays) for name, rays in CORPUS_RAYS.items()}


@pytest.fixture(scope="session")
def surfaces(corpus):
    return {name: ToricSurface(fan) for name, fan in corpus.items()}


@pytest.fixture(scope="session")
def f1(surfaces):
    return surfaces["f1"]


@pytest.fixture(scope="session")
def p2(surfaces):
    return surfaces["p2"]


def driver_divisor(name, X) -> Divisor:
    """The fixed ample divisor used in end-to-end runs on this fan."""
    return Divisor(AMPLE_FOR_DRIVER[name])


def ample_on(name, X) -> Divisor:
    """A fixed ample divisor on each corpus surface."""
    if name in AMPLE_FOR_DRIVER:
        return Divisor(AMPLE_FOR_DRIVER[name])
    if name == "p2":
        return Divisor([1, 1, 1])
    ell = X.fan.surface_type().ell
    if ell == 0:
        return Divisor([1, 1, 1, 1])
    # the section plus (ell + 1) fibers
    return X.from_section_fiber(1, ell + 1)
