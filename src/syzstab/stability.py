"""Slope stability checks for syzygy bundles of powers of an ample divisor.

For a globally generated line bundle O(D) the syzygy bundle is the kernel
of the evaluation map H0(O(D)) (x) O -> O(D); its slope with respect to a
polarization A is -(D.A)/(h0(D) - 1).  Given an ample D, a candidate
effective divisor S and a polarization A, the sign of

    q(d) = alpha*d^2 + beta*d,
    alpha = 2(D.A)(D.S) - (S.A)(D^2),
    beta  = -(D.A)(S^2 + S.K) + (S.A)(D.K),

controls the slope comparison between the subbundle built from d*D - S
and the ambient bundle built from d*D for large d: the subbundle slope is
the larger one exactly when q(d) < 0, provided the Euler characteristic
computes both section counts.  On toric surfaces that identity holds for
nef divisors (Demazure vanishing), so for d past the first nef multiple
the sign of q(d) decides each comparison exactly: :func:`d_threshold`
reads d0 off the root of q and confirms it with exact lattice-count
slopes at d0 and at d0 - 1, and those verified slopes are the ones the
certificate reports.  Each search returns a :class:`Certificate`, and
:func:`analyze` alone turns one into a :class:`StabilityReport`.

Every number above is bilinear, so an analysis reads each candidate
S = C_i (+ C_j) off v(D), v(A) and v(K), the intersection vectors formed
once, and ``X.pair_curves``.  Both searches draw S from
:func:`_candidates`: the curves, then only the pairs whose curves meet,
as the singles settle the others.  So :func:`scan_candidates` costs
O(n), and :func:`find_destabilizer` O(n^2) pair tests and O(n) counts on
a toric surface.  A count costs what ``X.shifted_h0(d*D)`` asks,
which also decides whether d*D - S is nef: on a toric surface a test of
the walls that S touches, then one Pick sum over d*D's cone corners,
found once per search, each curve of S moving two by fixed offsets.  The
threshold core :func:`_threshold` takes v(D), v(S), D.A, S.A and
alpha/beta from :func:`d_threshold`'s checks, the scan or a sweep row;
its four counts, h0(d*D) and h0(d*D - S) at d0 and d0 - 1, are Pick sums
over the corners d*m(D) and d*m(D) - m(S), whose slopes it compares in
integers.  On F_ell the region verdict of :func:`hirzebruch_region` and
:func:`hirzebruch_rows` is the alpha/beta sign of S the section, integer
polynomials in ell and the coefficients of D and A, which ``sweep`` reads
in ints on a grid walked as integer numerators over one denominator; only
a row in the instability region, which needs d0, builds a surface.

Everything below is exact rational arithmetic on immutable inputs; there
is no floating point and no hidden state, so all functions are safe to
call concurrently, including grid sweeps over parameter tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Optional, Sequence

from .divisors import (
    Divisor,
    Rat,
    SurfaceModel,
    ToricSurface,
    _exact,
)
from .errors import (
    ConstructionFailedError,
    DegenerateBundleError,
    HypothesesViolatedError,
    InternalError,
    NotAmpleError,
    NotEffectiveError,
    NotNefError,
    OutOfTheoremScopeError,
    PreconditionError,
)
from .fan import Fan, PROJECTIVE_PLANE
from .files import format_rational

GREATER = "greater"
EQUAL = "equal"
LESS = "less"

UNSTABLE_FOR_LARGE_D = "UnstableForLargeD"
NOT_COVERED = "NotCovered"

NOT_SEMISTABLE = "NotSemistable"
NOT_STABLE = "NotStable"
NO_DESTABILIZER = "NoDestabilizerFound"

# verdict of a verified strict violation or tie; subbundle slope order promised
_VERDICT = {True: NOT_SEMISTABLE, False: NOT_STABLE}
_PROMISED_ORDER = {NOT_SEMISTABLE: GREATER, NOT_STABLE: EQUAL}

CHI_ASSUMPTION = (
    "h0 computed as the Euler characteristic "
    "(vanishing higher cohomology assumed)"
)
NEGATIVE_GENERATOR_NOTE = (
    "candidate generators restricted to curves of negative self-intersection"
)
LOW_RANK_NOTE = (
    "Picard rank below 3: outside the construction's hypotheses, "
    "result is informational"
)
SCAN_NOTE = "every scanned candidate shift admits stability asymptotically"
# largest denominator of the driver's polarization slope on F_ell
_MAX_DENOMINATOR = 8

def _require_ample(X: SurfaceModel, D: Divisor, what: str) -> list[Rat]:
    """D's intersection vector, once it shows that D is ample."""
    v = X.intersections(D)
    if not X.is_ample_vector(v):
        raise NotAmpleError(f"{what} is not ample")
    return v


def _require_effective(X: SurfaceModel, S: Divisor) -> None:
    if isinstance(X, ToricSurface) and not X.is_effective(S):
        raise NotEffectiveError("candidate S is not effective")


def _rank(h: int) -> int:
    """h0(D) - 1, the syzygy bundle's rank, from h = h0(D)."""
    if h <= 1:
        raise DegenerateBundleError(f"h0 = {h} <= 1: no syzygy bundle slope")
    return h - 1


def syzygy_slope(X: SurfaceModel, D: Divisor, A: Divisor) -> Fraction:
    """Slope -(D.A)/(h0(D) - 1) of the syzygy bundle of O(D).

    D must be nef with at least two sections and A ample.  On a toric
    surface h0 is the exact lattice count; on an abstract surface it is
    the Euler characteristic and the caller must track that assumption.
    """
    _require_ample(X, A, "polarization")
    if not X.is_nef(D):
        raise NotNefError("divisor defining the bundle is not nef")
    return Fraction(-X.pair(D, A), _rank(X.h0(D)))


def _order(mu_sub: Rat, mu_ambient: Rat) -> str:
    if mu_sub > mu_ambient:
        return GREATER
    if mu_sub == mu_ambient:
        return EQUAL
    return LESS


def slope_compare(
    X: SurfaceModel, D: Divisor, S: Divisor, A: Divisor, d: int
) -> str:
    """Exact order of the subbundle slope against the ambient slope.

    Compares the syzygy bundle of O(d*D - S) sitting inside the one of
    O(d*D).  Returns ``greater``, ``equal`` or ``less`` (subbundle
    relative to ambient).  Both divisors must be nef and S effective;
    each slope comes from its own checks and pairing.
    """
    ambient = d * D
    _require_effective(X, S)
    mu_ambient = syzygy_slope(X, ambient, A)
    return _order(syzygy_slope(X, ambient - S, A), mu_ambient)


@dataclass(frozen=True)
class AlphaBeta:
    """Leading coefficients of the slope-difference numerator q(d)."""

    alpha: Fraction
    beta: Fraction


def _alpha_beta(
    DA: Rat, D2: Rat, DK: Rat, SD: Rat, SA: Rat, SK: Rat, S2: Rat
) -> AlphaBeta:
    """alpha and beta from the seven intersection numbers they are made of."""
    alpha = 2 * DA * SD - SA * D2
    beta = -DA * (S2 + SK) + SA * DK
    return AlphaBeta(Fraction(alpha), Fraction(beta))


def _coefficients(
    X: SurfaceModel, dv: list[Rat], D: Divisor, S: Divisor, A: Divisor
) -> tuple[AlphaBeta, list[Rat], Rat, Rat]:
    """alpha and beta from v(D), with v(S), D.A and S.A on the way."""
    K, p = X.canonical, X.pair_with
    sv = X.intersections(S)
    DA, SA = p(dv, A), p(sv, A)
    ab = _alpha_beta(DA, p(dv, D), p(dv, K), p(dv, S), SA, p(sv, K), p(sv, S))
    return ab, sv, DA, SA


def alpha_beta(
    X: SurfaceModel, D: Divisor, S: Divisor, A: Divisor
) -> AlphaBeta:
    """Degree-2 and degree-1 coefficients of q(d), exact rationals."""
    return _coefficients(X, X.intersections(D), D, S, A)[0]


def _unstable(alpha: Rat, beta: Rat) -> bool:
    """Whether q(d) <= 0, a tie or a subbundle win, for all large d."""
    return alpha < 0 or (alpha == 0 and beta <= 0)


@dataclass(frozen=True)
class Certificate:
    """Re-verifiable witness of a slope violation at exponent d0: strict
    (not semistable) or a permanent tie (not stable), with the two slopes
    compared there."""

    polarization: Divisor  # A
    shift: Divisor  # effective S; the subbundle comes from d0*D - S
    d0: int
    subbundle_slope: Fraction
    ambient_slope: Fraction
    strict: bool


def _first_nef_multiple(X: SurfaceModel, dv: list[Rat], sv: list[Rat]) -> int:
    """Smallest d >= 1 with d*D - S nef, for ample D, from v(D) and v(S):
    d >= (S.C)/(D.C) against every generator C, by ceiling division."""
    return max([1] + [-(-sv[i] // dv[i]) for i in X.effective_generators])


def _is_multiple(S: Divisor, d: int, D: Divisor) -> bool:
    """Whether d*D - S is the zero divisor, without building it."""
    return all(s == d * c for s, c in zip(S.coeffs, D.coeffs))


def d_threshold(
    X: SurfaceModel, D: Divisor, S: Divisor, A: Divisor
) -> Certificate:
    """The certificate (A, S, d0) for the smallest d0 >= 1 with d0*D - S
    nef and the subbundle slope >= the ambient slope, strict where
    attainable, with the two slopes at d0.

    d0 comes from the root of q(d).  For d at or past the first nef
    multiple, h0 equals the Euler characteristic, so the sign of q(d)
    decides every comparison there.  Exact slope comparisons confirm the
    violation at d0, and its absence at d0 - 1 whenever d0 - 1 is at
    least the first nef multiple and (d0 - 1)*D - S is nonzero.  Requires
    D and A ample, S effective of nonzero class, and q(d) <= 0 for all
    large d.  These checks form v(D), v(S), D.A, S.A and alpha/beta once,
    and :func:`_threshold` does the rest; :func:`certificate_holds`
    re-checks a certificate divisor by divisor.
    """
    dv = _require_ample(X, D, "divisor D")
    _require_ample(X, A, "polarization")
    _require_effective(X, S)
    ab, sv, DA, SA = _coefficients(X, dv, D, S, A)
    if not any(sv):
        raise PreconditionError(
            "candidate S has class zero: its subbundle is the whole bundle"
        )
    if not _unstable(ab.alpha, ab.beta):
        raise PreconditionError(
            "asymptotic condition is StablePossible: no threshold exists "
            "for this candidate"
        )
    return _threshold(X, D, S, A, dv, sv, DA, SA, ab.alpha, ab.beta)


def _threshold(
    X: SurfaceModel, D: Divisor, S: Divisor, A: Divisor, dv: list[Rat],
    sv: list[Rat], DA: Rat, SA: Rat, alpha: Rat, beta: Rat,
) -> Certificate:
    """:func:`d_threshold` past its checks, on the numbers they formed.
    Both exact checks take their slope numerators, (d*D - S).A = d(D.A) -
    S.A, and counts off ``X.multiple_h0``, with no nef test as d >= d_nef,
    and compare in integers, cross-multiplied by the ranks h0 - 1."""
    d_nef = _first_nef_multiple(X, dv, sv)
    strict = True
    if alpha < 0:
        # q(d) < 0 exactly when d > -beta/alpha (for d > 0)
        d_sign = max(1, -beta // alpha + 1)
    else:
        # alpha == 0 and beta <= 0: q(d) < 0 for every d >= 1, or q
        # vanishes identically and the tie is permanent
        d_sign = 1
        strict = beta < 0
    d0 = max(d_nef, d_sign)
    while _is_multiple(S, d0, D):
        d0 += 1
    h0 = X.multiple_h0(D, S)  # (d, k) -> h0(d*D - k*S)

    def gap(d: int) -> tuple[Rat, int, int]:
        """(mu_sub - mu_ambient) * r_sub * r_ambient at d, r_sub, r_ambient."""
        r_ambient, r_sub = _rank(h0(d, 0)), _rank(h0(d, 1))
        return d * DA * r_sub - (d * DA - SA) * r_ambient, r_sub, r_ambient

    check = d0 - 1
    if check >= d_nef and not _is_multiple(S, check, D) and gap(check)[0] > 0:
        raise InternalError(
            f"threshold not minimal: violation already at d = {check}"
        )
    diff, r_sub, r_ambient = gap(d0)
    order = _order(diff, 0)
    expected = _PROMISED_ORDER[_VERDICT[strict]]
    if order != expected:
        raise InternalError(
            f"sign polynomial predicted {expected} slopes at d = {d0}, "
            f"exact comparison returned {order}"
        )
    mu_sub, mu_ambient = Fraction(SA - d0 * DA, r_sub), Fraction(-d0 * DA, r_ambient)
    return Certificate(A, S, d0, mu_sub, mu_ambient, strict)


def _candidates(X: SurfaceModel, pool: Sequence[int], unsettled=()) -> Iterator:
    """S's curve indices in scan order: each generator, then each pair
    i <= j of pool whose curves meet or with a curve in unsettled, both
    filled by the caller while the singles are drawn.  A pair left out
    has C_i.C_j = 0 and is settled by its singles: see the two searches."""
    for i in X.effective_generators:
        yield (i,)
    for i, j in combinations_with_replacement(pool, 2):
        if X.pair_curves(i, j) or i in unsettled or j in unsettled:
            yield i, j


def _slope_gap(num: Rat, h: int, mu: Fraction) -> Rat:
    """-num/(h - 1) - mu, times the positive (h - 1) * mu.denominator."""
    return -num * mu.denominator - mu.numerator * (h - 1)


def find_destabilizer(
    X: SurfaceModel, D: Divisor, A: Divisor, d: int
) -> Optional[Certificate]:
    """Scan sums of one or two effective-cone generators S for a subbundle
    of slope >= the ambient slope at exponent d.

    Candidates must leave d*D - S nef with h0 >= 2.  Returns the
    certificate (A, S, d) of the first strict violator in scan order,
    falling back to the first tie; None when no candidate of this shape
    works.  (d*D - S).A follows by linearity, ``X.shifted_h0`` tests
    nefness and counts, and slopes compare by cross-multiplication: only
    the returned S and slopes are built.

    A pair with C_i.C_j = 0 whose singles were counted is skipped: were
    it a candidate, d*D, d*D - C_i, d*D - C_j and d*D - S would be nef and
    counted by chi (Demazure vanishing; an abstract surface counts by
    chi), so h0(d*D - S) - h0(d*D) = delta_i + delta_j and its chi, chi_i
    + chi_j - chi(d*D), is an integer.  As the numerator is linear in S
    and :func:`_slope_gap` affine in (num, h) and 0 at the ambient, gap =
    gap_i + gap_j: not strict when no single is, a tie only when both
    singles, drawn first, tie.  On a toric surface a nef pair has nef
    singles and h0 falls as S grows, so a single counted None or <= 1,
    whose pairs are all tried, matters only on abstract surfaces."""
    if d < 1:
        raise PreconditionError("the exponent d must be a positive integer")
    ambient = d * D
    ambient_v = _require_ample(X, ambient, "d*D")
    av = _require_ample(X, A, "polarization")
    DA = X.pair_with(ambient_v, A)
    count = X.shifted_h0(ambient)
    mu_ambient = Fraction(-DA, _rank(count(())))
    best, unsettled = None, set()
    for combo in _candidates(X, X.effective_generators, unsettled):
        h = count(combo)
        if h is None or h <= 1:
            if len(combo) == 1:
                unsettled.add(combo[0])
            continue
        num = DA - sum(av[i] for i in combo)
        gap = _slope_gap(num, h, mu_ambient)
        if gap > 0 or (gap == 0 and best is None):
            best = combo, num, h, gap > 0
            if gap > 0:
                break
    if best is None:
        return None
    combo, num, h, strict = best
    return Certificate(
        A, X.shift(combo), d, Fraction(-num, h - 1), mu_ambient, strict
    )


def _region_bound(ell: int, b: Fraction) -> Fraction:
    """The region test's bound 2b(b-ell)/ell + ell on the slope a, as one
    Fraction (2r(r - ell s) + ell^2 s^2) / (ell s^2) of b = r/s."""
    r, s = b.numerator, b.denominator
    return Fraction(2 * r * (r - ell * s) + (ell * s) ** 2, ell * s * s)


def _section_alpha_beta(
    ell: int, a1: int, a2: int, b1: int, b2: int
) -> tuple[int, int, int, int]:
    """alpha, beta, D.A and S.A of S the section on F_ell for D = b1*S + b2*F
    and A = a1*S + a2*F: integer polynomials, as S^2 = -ell, S.F = 1, F^2 =
    0 and K = -2S - (ell + 2)F give S.K = ell - 2, F.K = -2, S^2 + S.K = -2."""
    DS, SA = b2 - ell * b1, a2 - ell * a1
    DA = b1 * SA + b2 * a1
    D2, DK = b1 * (DS + b2), (ell - 2) * b1 - 2 * b2
    return 2 * DA * DS - SA * D2, 2 * DA + SA * DK, DA, SA


def hirzebruch_region(ell: int, a: Rat, b: Rat) -> str:
    """Region test for polarization slope a = A2/A1 and bundle slope
    b = B2/B1 on the ell-th Hirzebruch surface, ell >= 1.

    The verdict is the alpha/beta sign of S the section for D = B1*S +
    B2*F and A = A1*S + A2*F: ``UnstableForLargeD`` when q(d) <= 0 for
    all large d, else ``NotCovered``.  That is the paper's region a >
    2b(b-ell)/ell + ell, with a tie when b is at least the larger root of
    b^2 - (3 ell/2) b + (ell^2 - ell)/2, read off
    :func:`_section_alpha_beta` with no surface or threshold.  A non-int
    ell raises PreconditionError, an a or b not an int or Fraction InputError.
    """
    if type(ell) is not int or ell < 1:
        raise PreconditionError("ell must be a positive integer")
    a, b = _exact(a), _exact(b)
    if a <= ell or b <= ell:
        raise NotAmpleError(
            f"ampleness needs a > {ell} and b > {ell}, "
            f"got a={format_rational(a)}, b={format_rational(b)}"
        )
    a1, a2, b1, b2 = a.denominator, a.numerator, b.denominator, b.numerator
    alpha, beta, _, _ = _section_alpha_beta(ell, a1, a2, b1, b2)
    return UNSTABLE_FOR_LARGE_D if _unstable(alpha, beta) else NOT_COVERED


def _region_rows(ell: int, a_values: Iterable, b_values: Iterable) -> Iterator:
    """:func:`hirzebruch_rows` in integers, on tuples that start with a's or
    b's numerator and denominator in lowest terms: rows (a, b, verdict,
    alpha, beta, certificate) carry the tuples as read, alpha, beta as ints."""
    points = X = None
    for a in a_values:
        a2, a1 = a[0], a[1]
        if a2 <= ell * a1:
            continue
        if points is None:
            points = [(b, b[0], b[1]) for b in b_values if b[0] > ell * b[1]]
        A = None  # built and checked at the first row of this a in the region
        for b, b2, b1 in points:
            alpha, beta, DA, SA = _section_alpha_beta(ell, a1, a2, b1, b2)
            verdict, cert = NOT_COVERED, None
            if _unstable(alpha, beta):
                verdict = UNSTABLE_FOR_LARGE_D
                if X is None:
                    X = ToricSurface(Fan([(1, 0), (0, 1), (-1, ell), (0, -1)]))
                    _, s_idx, f_idx = X.hirzebruch_presentation()
                    S = X.generator(s_idx)
                    vs = X.intersections(S)
                    # s*S + f*F is s*x + f*y at each (x, y)
                    unit = list(zip(S.coeffs, X.generator(f_idx).coeffs))
                if A is None:
                    A = Divisor([a1 * x + a2 * y for x, y in unit])
                    _require_ample(X, A, "polarization")
                D = Divisor([b1 * x + b2 * y for x, y in unit])
                dv = _require_ample(X, D, "divisor D")
                cert = _threshold(X, D, S, A, dv, vs, DA, SA, alpha, beta)
            yield a, b, verdict, alpha, beta, cert


def hirzebruch_rows(
    ell: int, a_values: Iterable[Rat], b_values: Iterable[Rat]
) -> Iterator[tuple[Rat, Rat, str, AlphaBeta, Optional[Certificate]]]:
    """Rows (a, b, verdict, coefficients, certificate) of a region sweep on
    F_ell, ell >= 1, for a of a_values and b of b_values, both > ell, a-major.

    D = b1*S + b2*F and A = a1*S + a2*F for b = b2/b1 and a = a2/a1, with
    S the section and F a fiber, and S is the candidate shift.  The rows
    are those of :func:`_region_rows`, which reads alpha/beta in ints, as
    ``sweep`` does on its grid of integer numerators over one denominator:
    each verdict is the sign of :func:`hirzebruch_region` (b_values is read
    once, at the first a > ell).  The first row in the instability region
    builds F_ell's surface, S and v(S), once per call; each such row builds
    D, and A once per a, checks them ample and calls :func:`_threshold`,
    the others have no certificate.  A non-int ell raises PreconditionError,
    and an a or b read that is not an int or a Fraction InputError.
    """
    if type(ell) is not int or ell < 1:
        raise PreconditionError("ell must be a positive integer")
    def terms(values):  # each value checked as it is read
        return ((_exact(v).numerator, v.denominator, v) for v in values)
    rows = _region_rows(ell, terms(a_values), terms(b_values))
    for a, b, verdict, alpha, beta, cert in rows:
        yield a[2], b[2], verdict, AlphaBeta(Fraction(alpha), Fraction(beta)), cert


@dataclass(frozen=True)
class Polarization:
    """Boundary-plus-epsilon polarization with its exact witnesses."""

    polarization: Divisor  # rational A = (D - t E) + eps E
    polarization_integral: Divisor  # same ray, primitive integral
    generator_index: int
    generator: Divisor
    epsilon: Fraction  # largest power of two <= 1 keeping A ample, alpha < 0
    threshold: Fraction  # nef threshold t of D against E
    alpha: Fraction  # alpha for (D, S=E, A): negative by construction
    notes: tuple[str, ...] = field(default_factory=tuple)


def construct_polarization(
    X: SurfaceModel, D: Divisor, allow_low_rank: bool = False
) -> Polarization:
    """Build a polarization destabilizing the syzygy bundles of powers of D.

    Picks the negative generator E minimizing D.E (ties to the lowest
    index) and moves D to the nef boundary D_t = D - t*E.  A = D_t + eps*E
    pairs with each generator C affinely in eps, and so does alpha, so the
    eps keeping A ample with alpha < 0 form an open interval; eps is its
    largest power of two at most 1, in closed form, all exact.

    Requires ``X.check_hypotheses()``: Picard rank >= 3, and on an
    abstract surface the generator hypotheses too.  ``allow_low_rank``
    waives the rank alone for informational runs on rank-2 surfaces; the
    result then carries a note saying so.
    """
    notes: list[str] = []
    ok, problems = X.check_hypotheses()
    if not ok:
        waivable = (len(X.effective_generators) < 3) + (X.picard_rank < 3)
        if not (allow_low_rank and len(problems) == waivable):
            raise HypothesesViolatedError(problems)
        notes.append(LOW_RANK_NOTE)
    if isinstance(X, ToricSurface):
        notes.append(NEGATIVE_GENERATOR_NOTE)
    dv = _require_ample(X, D, "divisor D")

    negatives = X.negative_generator_indices()
    if not negatives:
        raise ConstructionFailedError(
            "no effective generator of negative self-intersection"
        )
    e_idx = min(negatives, key=lambda i: (dv[i], i))
    E = X.generator(e_idx)
    # everything below is linear in t and eps, read off v(D) and v(E): the
    # nef threshold t, the largest t with D - t*E nef, is the least D.C/E.C
    # over the generators C with E.C > 0; with x = D.E, alpha(D, E, A) is
    # 2(D.A)x - (E.A)D^2, so alpha at A = E is 2x^2 - E^2 D^2 and at
    # A = D_t = D - t*E it is D^2 x - t*alpha(E)
    ev = X.intersections(E)
    gens = X.effective_generators
    T, Q = 1, 0  # t = T/Q, from 1/0 down to the least D.C/E.C with E.C > 0
    for i in gens:
        if ev[i] > 0 and dv[i] * Q < T * ev[i]:
            T, Q = dv[i], ev[i]
    if not Q:
        raise PreconditionError(
            "declared generators cannot span the effective cone: "
            "E meets none of them positively"
        )
    t = Fraction(T, Q)
    T, Q = t.numerator, t.denominator
    x, D2 = dv[e_idx], X.pair_with(dv, D)
    alpha_e = 2 * x * x - ev[e_idx] * D2
    # A = D_t + eps*E is ample with alpha < 0 exactly when p/Q + q*eps > 0
    # for every pair (p, q), with p scaled by Q: (D_t.C, E.C) for each
    # generator C, and the negated alphas of D_t and E, since alpha is
    # linear in A.  eps = 2^-k, for the least k with 2^k > -q*Q/p on each
    # pair with q < 0 < p; a pair with q < 0 and p <= 0 fails the test
    pairs = [(dv[i] * Q - T * ev[i], ev[i]) for i in gens]
    pairs.append((T * alpha_e - D2 * x * Q, -alpha_e))
    k = max([(-q * Q // p).bit_length() for p, q in pairs if q < 0 < p], default=0)
    if any(p * (1 << k) + q * Q <= 0 for p, q in pairs):
        raise ConstructionFailedError(
            f"no epsilon 2^-k <= 1 makes D - (t - epsilon)*E ample with "
            f"alpha < 0 for the generator E of index {e_idx}"
        )
    # A is D with E's coefficient moved to D_E - t + eps
    eps = Fraction(1, 1 << k)
    coeffs = list(D.coeffs)
    coeffs[e_idx] += eps - t
    A = Divisor(coeffs)
    alpha = D2 * x + (eps - t) * alpha_e  # alpha(D_t) + eps*alpha(E)
    return Polarization(
        A, A.scaled_primitive(), e_idx, E, eps, t, alpha, tuple(notes)
    )


@dataclass(frozen=True)
class StabilityReport:
    """Verdict plus certificate (when found) and recorded assumptions."""

    verdict: str
    certificate: Optional[Certificate]
    assumptions: tuple[str, ...] = ()


def scan_candidates(X: SurfaceModel, D: Divisor, A: Divisor) -> Optional[Certificate]:
    """Asymptotic candidate scan for a fixed polarization.

    Walks shifts S over sums of one or two effective-cone generators; the
    first one with q(d) <= 0 for all large d is certified by
    :func:`_threshold`, on its numbers.  None when every candidate admits
    stability asymptotically (which never claims stability, only that this
    family is exhausted).  As alpha is linear in S and beta(C_i + C_j) = beta_i +
    beta_j - 2(D.A)(C_i.C_j), once no curve is unstable, so alpha_i >= 0,
    only a pair inside Z = {i : alpha_i = 0} whose curves meet can be (a
    pair of Z with C_i.C_j = 0 has alpha = 0 and beta = beta_i + beta_j >
    0): one pass over the curves, then those pairs, finds the same hit.
    """
    dv = _require_ample(X, D, "divisor D")
    av = _require_ample(X, A, "polarization")
    kv = X.intersections(X.canonical)
    DA, D2, DK = (X.pair_with(v, D) for v in (av, dv, kv))
    zero = []  # Z, filled by the single curves before any pair is drawn
    for combo in _candidates(X, zero):
        SD, SA, SK = (sum(v[i] for i in combo) for v in (dv, av, kv))
        S2 = sum(X.pair_curves(i, j) for i in combo for j in combo)
        ab = _alpha_beta(DA, D2, DK, SD, SA, SK, S2)
        if _unstable(ab.alpha, ab.beta):
            S = X.shift(combo)
            sv = X.intersections(S)
            return _threshold(X, D, S, A, dv, sv, DA, SA, ab.alpha, ab.beta)
        if len(combo) == 1 and ab.alpha == 0:
            zero.append(combo[0])
    return None


def _smallest_exceeding_rational(bound: Fraction) -> Fraction:
    """Smallest p/q > bound with 1 <= q <= _MAX_DENOMINATOR."""
    return min(
        Fraction((bound.numerator * q) // bound.denominator + 1, q)
        for q in range(1, _MAX_DENOMINATOR + 1)
    )


def analyze(
    X: SurfaceModel, D: Divisor, A: Optional[Divisor] = None, d: Optional[int] = None
) -> StabilityReport:
    """Stability report for the ample divisor D in one of three modes:
    the driver without A, :func:`scan_candidates` with A, and with A and d
    the :func:`find_destabilizer` search at the fixed exponent d.

    The driver picks A and the shift S, then certifies them with
    :func:`d_threshold`.  It raises OutOfTheoremScopeError on the plane
    and on P1 x P1.  On F_ell, ell >= 1, A is S + a*F, scaled to be
    primitive integral, with a the smallest rational of denominator at
    most 8 past the region bound, and S is the section.  On every other
    surface, toric or abstract, A and S are the integral polarization and
    the generator of :func:`construct_polarization`.

    Each search returns a :class:`Certificate` or None, and this is the
    one place a report is built: NoDestabilizerFound without a
    certificate, else NotSemistable or NotStable as it is strict or a
    tie.  Its notes are the driver's, the scan's when it finds nothing,
    and CHI_ASSUMPTION where h0 is the Euler characteristic.
    """
    notes: list[str] = []
    if A is not None:
        if d is not None:
            cert = find_destabilizer(X, D, A, d)
        else:
            cert = scan_candidates(X, D, A)
            if cert is None:
                notes.append(SCAN_NOTE)
    elif d is not None:
        raise PreconditionError("a fixed exponent d needs a polarization A")
    elif isinstance(X, ToricSurface) and X.n < 5:
        st = X.fan.surface_type()
        if st.kind == PROJECTIVE_PLANE or st.ell == 0:
            raise OutOfTheoremScopeError(
                f"no destabilizing polarization is constructed for {st}"
            )
        dv = _require_ample(X, D, "divisor D")
        ell, s_idx, f_idx = X.hirzebruch_presentation()
        b1, b2 = dv[f_idx], dv[s_idx] + ell * dv[f_idx]  # D ~ b1*S + b2*F
        bound = _region_bound(ell, Fraction(b2, b1))
        a = _smallest_exceeding_rational(bound)
        # format_rational refuses a bound too long to print with InputError
        notes.append(
            f"polarization slope a = {format_rational(a)} chosen with "
            f"denominator <= {_MAX_DENOMINATOR} just beyond the region "
            f"bound {format_rational(bound)}"
        )
        A = X.from_section_fiber(a.denominator, a.numerator)
        cert = d_threshold(X, D, X.generator(s_idx), A)
    else:
        pol = construct_polarization(X, D)
        notes += pol.notes
        cert = d_threshold(X, D, pol.generator, pol.polarization_integral)
    if X.uses_chi_for_h0:
        notes.append(CHI_ASSUMPTION)
    verdict = NO_DESTABILIZER if cert is None else _VERDICT[cert.strict]
    return StabilityReport(verdict, cert, tuple(notes))


def certificate_holds(
    X: SurfaceModel, D: Divisor, verdict: str, A: Divisor, S: Divisor, d0: int
) -> bool:
    """Whether the exact slopes at d0 of the subbundle from d0*D - S and
    the ambient bundle, against A, are in the order the verdict promises:
    greater for NotSemistable, equal for NotStable.  False when a slope
    does not exist: A not ample, S not effective, d0*D - S not nef, or a
    bundle with at most one section; and False when S has class zero, as
    its subbundle is then the whole bundle."""
    try:
        order = slope_compare(X, D, S, A, d0)
    except (NotAmpleError, NotEffectiveError, NotNefError, DegenerateBundleError):
        return False
    return order == _PROMISED_ORDER.get(verdict) and any(X.intersections(S))
