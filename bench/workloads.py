"""Seeded inputs for the four workloads.

Every workload is one round of ops, made from ``--seed`` alone; a run
repeats the round until its time is up.  An op is one
``syzstab.cli.main(argv)`` call with fan files in and a JSON report out
(``--out``), plus what the checker needs to judge that report.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import check

# the ten fans of the test corpus
CORPUS = {
    "p2": [(1, 0), (0, 1), (-1, -1)],
    "f0": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "f1": [(1, 0), (0, 1), (-1, 1), (0, -1)],
    "f2": [(1, 0), (0, 1), (-1, 2), (0, -1)],
    "f3": [(1, 0), (0, 1), (-1, 3), (0, -1)],
    "f4": [(1, 0), (0, 1), (-1, 4), (0, -1)],
    "bl2p2": [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)],
    "dp6": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    "rank5": [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    "rank6": [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 0), (-1, -1), (0, -1)],
}
# outside the scope of the certificate construction: h0 and classify only
NO_CERTIFICATE = ("p2", "f0")

# Fault 1: certificate cost follows d0 (about 184k here); 153 s at the seed.
ROADMAP_FAN = [(1, 0), (4, 1), (3, 1), (2, 1), (1, 1), (0, 1), (-1, 1), (-1, 0), (0, -1)]
ROADMAP_D = (32, 137, 106, 76, 48, 32, 56, 32, 32)
# Fault 2: construct_polarization tries one curve and stops at 2^-20.
NO_EPSILON_FAN = [(1, 0), (1, 1), (1, 2), (0, 1), (-1, -1), (-2, -3), (-1, -2), (-1, -3), (0, -1), (1, -1), (2, -1)]
NO_EPSILON_D = (768, 1264, 1768, 512, 256, 1403, 1148, 2042, 896, 1600, 2336)

@dataclass
class Op:
    label: str  # stable name of the op within its round
    kind: str  # how the checker reads the report
    argv: list
    out: str  # report path
    ctx: dict = field(default_factory=dict)


class Round:
    """The ops of one round and the fan files they read."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.groups: list[list[Op]] = []  # an op, or an analyze and its verify
        self.ops: list[Op] = []  # set by ``shuffle``
        self.fans: list[str] = []
        self._fan_files: dict[tuple, str] = {}
        self._count = 0

    def fan_file(self, rays) -> str:
        rays = tuple(check.sort_rays(rays))
        path = self._fan_files.get(rays)
        if path is None:
            path = os.path.join(self.workdir, f"fan{len(self.fans)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"rays": [list(r) for r in rays]}, fh)
            self._fan_files[rays] = path
            self.fans.append(path)
        return path

    def _op(self, label, kind, argv, ctx) -> Op:
        out = os.path.join(self.workdir, f"op{self._count}.json")
        self._count += 1
        return Op(label, kind, list(argv) + ["--json", "--out", out], out, ctx)

    def add(self, label, kind, argv, **ctx) -> None:
        self.groups.append([self._op(label, kind, argv, ctx)])

    def analyze(self, label, mode, X, D, A=None, d=None, verify=True):
        """An ``analyze`` op, optionally followed by ``analyze --verify``."""
        argv = ["analyze", "--fan", self.fan_file(X.rays), "--D=" + _coeffs(D)]
        if A is not None:
            argv += ["--A=" + _coeffs(A)]
        if d is not None:
            argv += ["--d", str(d)]
        op = self._op(label, mode, argv, dict(X=X, D=D, A=A, d=d))
        group = [op]
        if verify:
            group.append(self._op(label + "/verify", "verify", ["analyze", "--verify", op.out], {}))
        self.groups.append(group)

    def shuffle(self, rng) -> None:
        """Fix the order of the round's ops.

        The machine's speed drifts over seconds; spreading every kind of
        op over the whole round keeps a slow spell from landing on one
        kind and moving the percentiles.
        """
        rng.shuffle(self.groups)
        self.ops = [op for group in self.groups for op in group]


def _coeffs(D) -> str:
    return ",".join(str(x) for x in D)


def random_ample(rng, X, lo=1, hi=4):
    """A uniformly drawn ample divisor with coefficients in [lo, hi]."""
    for _ in range(100000):
        D = tuple(rng.randint(lo, hi) for _ in range(X.n))
        if X.is_ample(D):
            return D
    raise AssertionError(f"no ample divisor with coefficients in [{lo}, {hi}] on {X.rays}")


def blowup_chain(rng, size):
    """A seeded smooth complete fan of ``size`` >= 4 rays with ample D and A.

    Starts from the plane or a Hirzebruch surface F_a (a <= 4) with ample
    divisors drawn by rejection, then blows up random cones until the fan
    has ``size`` rays.  Each
    blow-up doubles the divisor and gives the new ray the coefficient
    2(a_i + a_{i+1}) - 1, which keeps it ample.  No chain is redrawn;
    the checker confirms smoothness, completeness and ampleness.
    """
    if rng.random() < 0.5:
        base = [(1, 0), (0, 1), (-1, -1)]
    else:
        base = [(1, 0), (0, 1), (-1, rng.randint(0, 4)), (0, -1)]
    X0 = check.Surface(base)
    rays = list(X0.rays)
    divisors = [list(random_ample(rng, X0)), list(random_ample(rng, X0))]
    for _ in range(size - len(base)):
        i = rng.randrange(len(rays))
        j = (i + 1) % len(rays)
        u, v = rays[i], rays[j]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
        for D in divisors:
            new = 2 * (D[i] + D[j]) - 1
            D[:] = [2 * x for x in D]
            D.insert(i + 1, new)
    X = check.Surface(rays)  # raises unless smooth and complete
    if list(X.rays) != rays:
        raise AssertionError("blow-ups left the rays out of order")
    for D in divisors:
        if not X.is_ample(D):
            raise AssertionError(f"blow-up recipe lost ampleness: {rays} {D}")
    return X, tuple(divisors[0]), tuple(divisors[1])


def _spread(rng, k, count, lo, hi):
    """A seeded point near the middle of the k-th of ``count`` equal strata
    of [10^lo, 10^hi] on a log scale (within the middle fifth)."""
    return round(10 ** (lo + (hi - lo) * (k + 0.4 + 0.2 * rng.random()) / count))


def corpus(rng, rnd, per_fan=12, h0_per_fan=6):
    # Coefficients up to 3 keep d0 between 1 and about 100; with 4 the
    # heaviest fans reach d0 near 200 and a few of them set the whole p90.
    # The cost of an analyze swings tenfold with D, so each fan's D are
    # fixed (drawn from the fan's name), each with one mode, the three in
    # turn; the seed draws A, the exponent of --d and the op order.  With
    # seeded D a few draws on rank5 and rank6 moved a round's time by 30%.
    for name, rays in CORPUS.items():
        X = check.Surface(rays)
        if name in NO_CERTIFICATE:
            rnd.add(f"{name}/classify", "classify",
                    ["classify", "--fan", rnd.fan_file(X.rays), "--reduction"], X=X)
            for k in range(h0_per_fan):
                D = random_ample(rng, X, 1, 3)
                dD = tuple(rng.randint(1, 20) * x for x in D)
                rnd.add(f"{name}/h0/{k}", "h0",
                        ["h0", "--fan", rnd.fan_file(X.rays), "--D=" + _coeffs(dD)],
                        X=X, D=dD, ample=D)
            continue
        pool = random.Random(name)
        for k in range(per_fan):
            D = random_ample(pool, X, 1, 3)
            mode = ("driver", "scan", "fixed")[k % 3]
            if mode == "driver":
                rnd.analyze(f"{name}/driver/{k}", "driver", X, D)
            elif mode == "scan":
                rnd.analyze(f"{name}/scan/{k}", "scan", X, D, random_ample(rng, X, 1, 3))
            else:
                rnd.analyze(f"{name}/fixed/{k}", "fixed", X, D, random_ample(rng, X, 1, 3),
                            rng.randint(1, 4))


def large_d(rng, rnd, strata=48):
    # d runs once through `strata` log-spaced strata of [10^2, 10^5] for
    # d*D and once for a non-nef d*D - k*C.  The cost of a count is linear
    # in d and, for a non-nef divisor, swings with the curve C, so each
    # stratum goes to a fixed fan and a fixed curve, and D and A are fixed
    # per fan: the seed moves d within its stratum and the op order.  With
    # a seeded curve, the p90 moved by 30% from seed to seed.
    names = list(CORPUS)
    fans = {}
    for name in names:
        X = check.Surface(CORPUS[name])
        per_fan = random.Random(name)
        fans[name] = (X, random_ample(per_fan, X, 1, 3), random_ample(per_fan, X, 1, 3))
    for k in range(strata):
        name = names[k % len(names)]
        X, D, _ = fans[name]
        d = _spread(rng, k, strata, 2, 5)
        dD = tuple(d * x for x in D)
        rnd.add(f"{name}/h0/{k}", "h0",
                ["h0", "--fan", rnd.fan_file(X.rays), "--D=" + _coeffs(dD)],
                X=X, D=dD, ample=D)
        # d*D - k*C_i stops being nef once k > d*(D.C_j) for a
        # neighbour C_j of C_i
        name = names[(k + len(names) // 2) % len(names)]
        X, D, _ = fans[name]
        d = _spread(rng, k, strata, 2, 5)
        i = k // len(names) % X.n
        m = min(X.dot_curve(D, (i - 1) % X.n), X.dot_curve(D, (i + 1) % X.n))
        dD = tuple(d * x - (d * m + (d * m + 1) // 2 if j == i else 0) for j, x in enumerate(D))
        rnd.add(f"{name}/h0-nonnef/{k}", "h0",
                ["h0", "--fan", rnd.fan_file(X.rays), "--D=" + _coeffs(dD)],
                X=X, D=dD, ample=D)
    for name in names:
        X, D, A = fans[name]
        rnd.analyze(f"{name}/fixed", "fixed", X, D, A, _spread(rng, 0, 1, 2, 2.2), verify=False)


def sweep(rng, rnd, rows=8):
    # One ell, one a and a run of b per command, all in eighths.  For each
    # ell, a and b run through a fixed 10 x 8 grid of cells and the seed
    # picks the point in each cell: the commands with a large a over a
    # small b cost three times the median, so drawing a and b freely would
    # let the seed set the p90.
    for ell in range(1, 5):
        for ia in range(10):
            for ib in range(8):
                a = 8 * ell + 1 + 4 * ia + rng.randrange(4)
                b = 8 * ell + 1 + 3 * ib + rng.randrange(3)
                rnd.add(
                    f"sweep/{ell}/{ia}/{ib}",
                    "sweep",
                    ["sweep", "--ell", str(ell), "--a", f"{a}/8",
                     "--b", f"{b}/8:{b + rows - 1}/8", "--step", "1/8"],
                    rows=rows,
                )


def blowup_chains(rng, rnd, classify=64, polarize=32, fixed=32):
    # sizes and exponents run through fixed strata; the seed picks the base
    # surface, the divisors and where to blow up
    for k in range(classify):
        X, _, _ = blowup_chain(rng, 8 + (57 * k + rng.randrange(57)) // classify)
        rnd.add(f"classify/{k}", "classify",
                ["classify", "--fan", rnd.fan_file(X.rays), "--reduction"], X=X)
    for k in range(polarize):
        # 5 to 8 rays: on larger chains construct_polarization fails for a
        # share of the seeds (fault 2), so failures would follow the seed
        X, D, _ = blowup_chain(rng, 5 + k % 4)
        rnd.add(f"polarize/{k}", "polarize",
                ["polarize", "--fan", rnd.fan_file(X.rays), "--D=" + _coeffs(D)], X=X, D=D)
    for k in range(fixed):
        # up to four blow-ups: 5 to 7 rays, Picard rank 3 to 5.  The 7-ray
        # analyses cost about twice the 6-ray ones; half of the chains have
        # 7 rays, so that they make up the top fifth of the round and the
        # p90 falls among them, not on the step between the two sizes.
        X, D, A = blowup_chain(rng, (5, 6, 7, 7)[k % 4])
        rnd.analyze(f"fixed/{k}", "fixed", X, D, A, 1 + k // 4 % 3)
    named = check.Surface(ROADMAP_FAN)
    rnd.analyze("roadmap/driver", "driver", named, ROADMAP_D, verify=False)
    rnd.add("roadmap/polarize", "polarize",
            ["polarize", "--fan", rnd.fan_file(named.rays), "--D=" + _coeffs(ROADMAP_D)],
            X=named, D=ROADMAP_D)
    named = check.Surface(NO_EPSILON_FAN)
    rnd.add("no-epsilon/polarize", "polarize",
            ["polarize", "--fan", rnd.fan_file(named.rays), "--D=" + _coeffs(NO_EPSILON_D)],
            X=named, D=NO_EPSILON_D)
    rnd.analyze("no-epsilon/driver", "driver", named, NO_EPSILON_D, verify=False)


WORKLOADS = {
    "corpus": corpus,
    "large_d": large_d,
    "sweep": sweep,
    "blowup_chains": blowup_chains,
}


def build(workload: str, seed: int, workdir: str) -> Round:
    """The round of ``workload`` for ``seed``, with its fan files in ``workdir``."""
    rnd = Round(workdir)
    rng = random.Random(f"{workload}:{seed}")
    WORKLOADS[workload](rng, rnd)
    rnd.shuffle(rng)
    return rnd
