"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line (visible with ``pytest -s`` or ``-v``)
summarizing what was checked, and asserts its runtime bound where one is
stated.
"""

import ast
import json
import pathlib
import random
import time
from fractions import Fraction
from itertools import product

import pytest

import syzstab
from syzstab import (
    Divisor,
    EQUAL,
    Fan,
    GREATER,
    LESS,
    NOT_SEMISTABLE,
    NOT_STABLE,
    ToricSurface,
    UNSTABLE_FOR_LARGE_D,
    alpha_beta,
    analyze,
    certificate_holds,
    construct_polarization,
    d_threshold,
    find_destabilizer,
    hirzebruch_region,
    reduce_to_minimal,
    slope_compare,
    syzygy_slope,
)
from syzstab.cli import main

from conftest import (
    AMPLE_FOR_DRIVER,
    CORPUS_RAYS,
    STABLE_POSSIBLE,
    ample_on,
    blowup_chain,
    blowup_chain_divisors,
    pairing_matrix,
    reduce_by_deletion,
    ref_asymptotic,
)


def timed(bound_seconds):
    class Timer:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.start
            if exc == (None, None, None):
                assert self.elapsed < bound_seconds, (
                    f"runtime {self.elapsed:.2f}s exceeds {bound_seconds}s"
                )
            return False

    return Timer()


def test_acceptance_1_power_family_threshold(f1):
    """D = 6H - E destabilized by the exceptional shift exactly past d = 17."""
    with timed(1.0) as t:
        D = f1.from_section_fiber(5, 6)
        S = f1.generator(1)
        A = f1.from_section_fiber(2, 3)
        th = d_threshold(f1, D, S, A)
        assert th.d0 == 18 and th.strict
        assert syzygy_slope(f1, 17 * D, A) == Fraction(-1, 18)
        assert syzygy_slope(f1, 17 * D - S, A) == Fraction(-1, 18)
        assert slope_compare(f1, D, S, A, 17) == EQUAL
        assert slope_compare(f1, D, S, A, 18) == GREATER
    print(
        f"ACCEPTANCE 1: PASS (threshold 18, tie -1/18 at 17, strict at 18; "
        f"{t.elapsed:.3f}s)"
    )


def test_acceptance_2_golden_slopes(f1):
    """Slope values -26/53 and -25/51; the section shift works at d = 1."""
    with timed(1.0) as t:
        A = f1.from_section_fiber(2, 3)
        assert syzygy_slope(f1, f1.from_section_fiber(8, 9), A) == Fraction(-26, 53)
        assert syzygy_slope(f1, f1.from_section_fiber(7, 9), A) == Fraction(-25, 51)
        found = find_destabilizer(f1, f1.from_section_fiber(8, 9), A, 1)
        assert found is not None and found.strict
        assert found.shift == f1.generator(1)
        assert (found.subbundle_slope, found.ambient_slope) == (
            Fraction(-25, 51),
            Fraction(-26, 53),
        )
    print(f"ACCEPTANCE 2: PASS (slopes -26/53 and -25/51; {t.elapsed:.3f}s)")


def test_acceptance_3_slope_formula_identity(f1):
    """mu(d * (6H - E)) = -34d / (35 d^2 + 17 d) for d = 1..100."""
    D = f1.from_section_fiber(5, 6)
    A = f1.from_section_fiber(2, 3)
    with timed(30.0) as t:
        for d in range(1, 101):
            assert syzygy_slope(f1, d * D, A) == Fraction(
                -34 * d, 35 * d * d + 17 * d
            )
    print(f"ACCEPTANCE 3: PASS (100 exponents, exact; {t.elapsed:.3f}s)")


def _nef_instances(X, cap, seed):
    """Nef coefficient vectors in [0, 10]^n: exhaustive for small fans,
    deterministic sampling for the larger ones, capped at ``cap``."""
    walls = X.walls
    n = X.n

    def is_nef_vec(vec):
        return all(
            vec[(i - 1) % n] + vec[(i + 1) % n] - walls[i] * vec[i] >= 0
            for i in range(n)
        )

    if n <= 4:
        nef = [vec for vec in product(range(11), repeat=n) if is_nef_vec(vec)]
        stride = max(1, len(nef) // cap)
        return [Divisor(v) for v in nef[::stride][:cap]]
    rng = random.Random(seed)
    found = []
    seen = set()
    for _ in range(60000):
        vec = tuple(rng.randint(0, 10) for _ in range(n))
        if vec in seen:
            continue
        seen.add(vec)
        if is_nef_vec(vec):
            found.append(Divisor(vec))
            if len(found) >= cap:
                break
    return found


def test_acceptance_4_section_count_oracles(surfaces):
    """Lattice count equals 1 + (D^2 - D.K)/2 on nef divisors, corpus-wide."""
    with timed(30.0) as t:
        assert len(surfaces) >= 10
        total = 0
        for seed, (name, X) in enumerate(sorted(surfaces.items())):
            instances = _nef_instances(X, cap=120, seed=seed)
            assert instances, f"no nef instances found on {name}"
            for D in instances:
                assert X.h0(D) == X.chi(D), (name, D)
            total += len(instances)
        assert total >= 500
    print(
        f"ACCEPTANCE 4: PASS ({total} nef instances over {len(surfaces)} "
        f"fans, h0 == chi exactly; {t.elapsed:.2f}s)"
    )


def test_acceptance_5_region_vs_sign_analysis():
    """Region test vs. exact alpha/beta signs, equality branch included."""
    with timed(10.0) as t:
        tuples = 0
        for ell in range(1, 6):
            fan = Fan([(1, 0), (0, 1), (-1, ell), (0, -1)])
            X = ToricSurface(fan)
            S = X.generator(1)

            def check(a, b):
                region = hirzebruch_region(ell, a, b)
                A = X.from_section_fiber(a.denominator, a.numerator)
                D = X.from_section_fiber(b.denominator, b.numerator)
                kind, ab = ref_asymptotic(X, D, S, A)
                assert (region == UNSTABLE_FOR_LARGE_D) == (
                    kind != STABLE_POSSIBLE
                ), (ell, a, b)
                return ab

            for k in range(1, 17):
                b = ell + Fraction(k, 8)
                bound = 2 * b * (b - ell) / ell + ell
                for j in range(1, 25):
                    check(ell + Fraction(j, 8), b)
                    tuples += 1
                # the equality branch point for this b
                assert check(bound, b).alpha == 0
                tuples += 1
        assert tuples >= 200

        # the ell = 1 boundary root is exactly 3/2
        for b, expected in [
            (Fraction(3, 2), UNSTABLE_FOR_LARGE_D),
            (Fraction(11, 8), "NotCovered"),
            (Fraction(13, 8), UNSTABLE_FOR_LARGE_D),
        ]:
            a = 2 * b * (b - 1) + 1
            assert hirzebruch_region(1, a, b) == expected

        # the example bound: for a = 3/2 the verdict flips at the positive
        # root of 4b^2 - 4b - 1, compared through the quadratic sign
        for k in range(1, 25):
            b = 1 + Fraction(k, 8)
            unstable = hirzebruch_region(1, Fraction(3, 2), b) == UNSTABLE_FOR_LARGE_D
            assert unstable == (4 * b * b - 4 * b - 1 < 0)
    print(
        f"ACCEPTANCE 5: PASS ({tuples} tuples, equality branch exact, "
        f"root 3/2 sharp; {t.elapsed:.2f}s)"
    )


def test_acceptance_6_end_to_end_certificates(corpus, surfaces):
    """Driver certificates on every rank >= 3 fan re-verify at d0 and d0+1."""
    with timed(60.0) as t:
        ran = 0
        for name, fan in corpus.items():
            if fan.surface_type().picard_rank < 3:
                continue
            X = surfaces[name]
            minus_k = -1 * X.canonical
            D = minus_k if X.is_ample(minus_k) else Divisor(AMPLE_FOR_DRIVER[name])
            assert X.is_ample(D)
            report = analyze(X, D)
            cert = report.certificate
            assert cert is not None
            expected = GREATER if report.verdict == NOT_SEMISTABLE else EQUAL
            assert report.verdict in (NOT_SEMISTABLE, NOT_STABLE)
            for d in (cert.d0, cert.d0 + 1):
                order = slope_compare(X, D, cert.shift, cert.polarization, d)
                if d == cert.d0:
                    assert order == expected, (name, d)
                else:
                    assert order != LESS, (name, d)
            ran += 1
        assert ran == 4
    print(
        f"ACCEPTANCE 6: PASS ({ran} rank >= 3 fans, certificates re-verified "
        f"at d0 and d0+1; {t.elapsed:.2f}s)"
    )


def test_acceptance_7_property_suite(corpus, surfaces, tmp_path):
    """Threshold exactness, blow-down termination, matrix entries, CLI
    round-trip and a no-floating-point scan of the package source."""
    with timed(60.0) as t:
        # nef threshold exactness of the polarization on the corpus
        delta = Fraction(1, 1000)
        for name, X in surfaces.items():
            if not X.negative_generator_indices():
                continue  # the plane and the quadric have no E
            D = ample_on(name, X)
            pol = construct_polarization(X, D, allow_low_rank=True)
            th, E = pol.threshold, pol.generator
            assert X.is_nef(D - th * E)
            assert not X.is_nef(D - (th + delta) * E)

        # blow-down reduction terminates on a minimal surface
        for name, fan in corpus.items():
            reduced, _ = reduce_to_minimal(fan)
            assert reduced.surface_type().kind in (
                "ProjectivePlane",
                "Hirzebruch",
            )

        # the pairing of the prime curves: the matrix read off the rays,
        # with off-diagonal intersection numbers zero or one
        for name, fan in corpus.items():
            X, matrix = surfaces[name], pairing_matrix(fan)
            for i in range(fan.n):
                for j in range(fan.n):
                    assert X.pair(X.generator(i), X.generator(j)) == matrix[i][j]
                    if i != j:
                        assert matrix[i][j] in (0, 1)

        # certificate round-trip through the command line
        fan_file = tmp_path / "f1.json"
        fan_file.write_text(
            json.dumps({"rays": [[1, 0], [0, 1], [-1, 1], [0, -1]]})
        )
        report_file = tmp_path / "report.json"
        assert (
            main(
                [
                    "analyze",
                    "--fan",
                    str(fan_file),
                    "--D",
                    "5,6",
                    "--json",
                    "--out",
                    str(report_file),
                ]
            )
            == 0
        )
        assert main(["analyze", "--verify", str(report_file)]) == 0

        # no float anywhere in the package source
        pkg_dir = pathlib.Path(syzstab.__file__).parent
        offenders = []
        for source in sorted(pkg_dir.glob("*.py")):
            tree = ast.parse(source.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(
                    node.value, (float, complex)
                ):
                    offenders.append(f"{source.name}:{node.lineno} literal")
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"
                ):
                    offenders.append(f"{source.name}:{node.lineno} float()")
        assert not offenders, offenders
    print(
        f"ACCEPTANCE 7: PASS (thresholds exact, reductions terminate, "
        f"entries in {{0,1}}, CLI round-trip, no floats; {t.elapsed:.2f}s)"
    )


# A nine-ray fan and an ample D whose driver threshold is large
LARGE_THRESHOLD_FAN = [
    (1, 0), (4, 1), (3, 1), (2, 1), (1, 1), (0, 1), (-1, 1), (-1, 0), (0, -1)
]
LARGE_THRESHOLD_D = (32, 137, 106, 76, 48, 32, 56, 32, 32)


def test_acceptance_8_large_threshold_driver():
    """The driver's counts at d0 = 184,261 take time in n, not in d0."""
    with timed(1.0) as t:
        report = analyze(
            ToricSurface(Fan(LARGE_THRESHOLD_FAN)), Divisor(LARGE_THRESHOLD_D)
        )
        assert report.verdict == NOT_SEMISTABLE
        assert report.certificate.d0 == 184261
    print(f"ACCEPTANCE 8: PASS (d0 = 184261; {t.elapsed:.3f}s)")


# An eleven-ray fan and an ample D whose admissible eps along the chosen
# generator form the open interval (0, 2/2337453), below 2^-20
NO_EPSILON_FAN = [
    (1, 0), (1, 1), (1, 2), (0, 1), (-1, -1), (-2, -3), (-1, -2), (-1, -3),
    (0, -1), (1, -1), (2, -1),
]
NO_EPSILON_D = (768, 1264, 1768, 512, 256, 1403, 1148, 2042, 896, 1600, 2336)


def test_acceptance_9_tiny_epsilon_certificate(tmp_path, capsys):
    """polarize, the driver and --verify on a fan whose eps is 2^-21."""
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps({"rays": [list(r) for r in NO_EPSILON_FAN]}))
    source = ["--fan", str(fan_file), "--D", ",".join(map(str, NO_EPSILON_D))]
    assert main(["polarize", *source, "--json"]) == 0
    pol = json.loads(capsys.readouterr().out)
    assert pol["epsilon"] == "1/2097152"
    assert pol["generator_index"] == 5
    report_file = tmp_path / "report.json"
    with timed(1.0) as t:
        rc = main(["analyze", *source, "--json", "--out", str(report_file)])
    assert rc == 0
    report = json.loads(report_file.read_text())
    assert report["verdict"] == NOT_SEMISTABLE
    assert report["certificate"]["d0"] == 5270062
    assert main(["analyze", "--verify", str(report_file)]) == 0
    print(f"ACCEPTANCE 9: PASS (eps = 2^-21, d0 = 5270062; {t.elapsed:.3f}s)")


def test_acceptance_10_blowup_chain_certificates():
    """The driver certifies every seeded blow-up chain of 5 to 64 rays."""
    with timed(10.0) as t:
        for seed in range(120):
            fan, _, D = blowup_chain_divisors(seed, 5 + seed % 60)
            X = ToricSurface(fan)
            report = analyze(X, D)
            c = report.certificate
            assert certificate_holds(
                X, D, report.verdict, c.polarization, c.shift, c.d0
            ), seed
    print(f"ACCEPTANCE 10: PASS (120 chains certified; {t.elapsed:.2f}s)")


def test_acceptance_11_reduction_of_10000_rays(tmp_path, capsys):
    """classify --reduction on a 10,000-ray chain, in time linear in n."""
    fan = blowup_chain(1, 10_000)
    rays, removed = reduce_by_deletion(fan)
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps({"rays": [list(r) for r in fan.rays]}))
    with timed(1.0) as t:
        rc = main(["classify", "--fan", str(fan_file), "--reduction", "--json"])
    assert rc == 0
    reduction = json.loads(capsys.readouterr().out)["reduction"]
    assert reduction["blown_down_rays"] == [list(r) for r in removed]
    assert reduction["minimal_type"] == str(Fan(rays).surface_type())
    print(f"ACCEPTANCE 11: PASS (9,996 blow-downs; {t.elapsed:.3f}s)")


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_acceptance_12_sweep_grid_bound(fmt, capsys):
    """A sweep of about 10^19 points per ell exits 2 before any row."""
    argv = ["sweep", "--ell", "1,2,3", "--a", "9/8:6", "--b", "9/8:5"]
    with timed(1.0) as t:
        rc = main(argv + ["--step", "1/1000000000"] + fmt)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the grid has more than")
    print(f"ACCEPTANCE 12: PASS (exit 2; {t.elapsed:.4f}s)")


HUGE = "1e100000000"


@pytest.mark.parametrize(
    "source", ["h0", "hirzebruch", "surface", "verify"]
)
def test_acceptance_13_huge_exponents_exit_2(source, tmp_path, capsys):
    """A decimal exponent of 10^8 is refused before Fraction expands it,
    from the command line, a surface file or a report echo."""
    fan_file = tmp_path / "f1.json"
    fan_file.write_text(json.dumps({"rays": [[1, 0], [0, 1], [-1, 1], [0, -1]]}))
    if source == "h0":
        argv = ["h0", "--fan", str(fan_file), "--D", HUGE + ",1,1,1"]
    elif source == "hirzebruch":
        argv = ["hirzebruch", "--ell", "1", "--a", "1e-100000000", "--b", "2"]
    elif source == "surface":
        surface = {
            "labels": ["E1", "E2", "L12"],
            "pairing": [[HUGE, 0, 1], [0, -1, 1], [1, 1, -1]],
            "canonical": [-2, -2, -3],
            "effective_generators": [0, 1, 2],
        }
        surface_file = tmp_path / "surface.json"
        surface_file.write_text(json.dumps(surface))
        argv = ["analyze", "--surface", str(surface_file), "--D", "2,2,3"]
    else:
        report_file = tmp_path / "report.json"
        rc = main(["analyze", "--fan", str(fan_file), "--D", "0,1,2,0",
                   "--json", "--out", str(report_file)])
        assert rc == 0
        report = json.loads(report_file.read_text())
        report["echo"]["D"][0] = HUGE
        report_file.write_text(json.dumps(report))
        argv = ["analyze", "--verify", str(report_file)]
    capsys.readouterr()
    with timed(1.0) as t:
        rc = main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: exponent of ")
    assert captured.err.count("\n") == 1
    print(f"ACCEPTANCE 13: PASS ({source}: exit 2; {t.elapsed:.4f}s)")
