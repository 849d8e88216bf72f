"""Command-line front end: it parses input and prints results only.

Verdicts, certificates and assumptions come from ``stability.analyze``;
``--verify`` re-checks a differing certificate with
``stability.certificate_holds``.

Commands
--------
analyze      full stability report: certificate construction (no --A),
             asymptotic candidate scan (--A), or a fixed-exponent
             destabilizer search (--A with --d); --verify re-checks a
             previously emitted JSON report
destabilize  candidate subbundle search at a fixed exponent
polarize     boundary polarization construction on rank >= 3 surfaces
hirzebruch   region test for a tuple (ell, a, b)
h0           exact section count of a divisor on a toric surface
classify     surface type of a fan, optionally with a blow-down reduction
sweep        grid sweep of the Hirzebruch region, CSV or JSON rows, of
             at most MAX_GRID_POINTS points, written as they are found

Toric divisors are entered as comma-separated integer coefficients in fan
ray order.  On Hirzebruch fans ``--sf`` accepts section/fiber class
coordinates (two coefficients are auto-interpreted this way), and on the
blown-up plane ``--he`` accepts hyperplane/exceptional coordinates.
Rationals are written as "p/q" or as decimal strings such as "1.5",
which are read exactly (as 3/2); JSON floats in input files are rejected.

Exit status: 0 success, 2 invalid input, 1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import deque
from itertools import islice
from math import lcm
from operator import itemgetter

from . import __version__
from .divisors import AbstractSurface, Divisor, Rat, ToricSurface
from .errors import EmptyGridError, InputError, InternalError
from .fan import HIRZEBRUCH, reduce_to_minimal
from .files import (
    divisor_from_jsonable,
    divisor_to_jsonable,
    dumps_canonical,
    format_rational,
    load_abstract_surface,
    load_fan,
    parse_divisor_arg,
    parse_rational,
    read_json,
    surface_from_jsonable,
    surface_to_jsonable,
)
from .stability import (
    StabilityReport,
    _region_rows,
    analyze,
    certificate_holds,
    construct_polarization,
    hirzebruch_region,
)

# Largest sweep grid, counted before any row is built: every point is
# walked, and each row is written as it is found, so memory does not grow
# with the grid (--a 9/8:6 --b 9/8:5 --step 1/32 over three ells is 58,875
# points).
MAX_GRID_POINTS = 10**6
# sweep rows per write: stdout may be unbuffered, one syscall per write
_SWEEP_BATCH = 256
# A sweep report's two forms: (row template, the order of a row's fields
# in it, head, row separator, tail, the printed None).  A row's fields come
# in the CSV header's order; the JSON template has the keys sorted, so
# that the report is byte for byte dumps_canonical({"rows": [...]}).
_SWEEP_JSON = (
    '    {\n      "a": "%s",\n      "alpha": "%s",\n      "b": "%s",\n'
    '      "beta": "%s",\n      "d0": %s,\n      "ell": %s,\n'
    '      "strict": %s,\n      "verdict": "%s"\n    }',
    itemgetter(1, 4, 2, 5, 6, 0, 7, 3),
    '{\n  "rows": [\n', ",\n", "\n  ]\n}\n", "null",
)
_SWEEP_CSV = (
    ",".join(["%s"] * 8), tuple,  # a tuple of fields is already in order
    "ell,a,b,verdict,alpha,beta,d0,strict\n", "\n", "\n", "",
)
# argparse takes the "-1,2" of "--D -1,2" for an option; "--D=-1,2" works
_EQUALS = " (--%(dest)s=-1,2,... when the first is negative)"


def _surface_from_args(args):
    """The surface model named by --fan or --surface."""
    if args.fan and args.surface:
        raise InputError("give either --fan or --surface, not both")
    if args.fan:
        return ToricSurface(load_fan(args.fan))
    if args.surface:
        return load_abstract_surface(args.surface)
    raise InputError("a surface is required: pass --fan FILE or --surface FILE")


def _field(data, key: str, kind: type, what: str):
    """data[key], checked to be present and of the given JSON type."""
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputError(f"{what}: {key!r} must be a {kind.__name__}, got {value!r}")
    return value


def _divisor_in_ambient(X, text: str, args, role: str):
    """Parse a divisor argument into ambient coordinates.

    Returns (divisor, basis_tag); basis_tag records how the user wrote it.
    """
    if text is None:
        raise InputError(f"{role} is required")
    if args.sf and args.he:
        raise InputError("give either --sf or --he, not both")
    D = parse_divisor_arg(text)
    if isinstance(X, AbstractSurface):
        if args.sf or args.he:
            raise InputError("--sf/--he apply only to toric Hirzebruch fans")
        if len(D) != X.n:
            raise InputError(
                f"{role} needs {X.n} coefficients for this surface, got {len(D)}"
            )
        return D, "labels"
    if args.he:
        ell, _, _ = X.hirzebruch_presentation()
        if ell != 1:
            raise InputError(
                "--he needs the blown-up plane (the first Hirzebruch surface)"
            )
        if len(D) != 2:
            raise InputError(f"--he takes 2 coefficients for {role}")
        h, e = D.coeffs
        return X.from_section_fiber(h + e, h), "he"
    auto_sf = len(D) == 2 and X.n == 4 and X.fan.surface_type().ell >= 1
    if args.sf or auto_sf:
        if len(D) != 2:
            raise InputError(f"--sf takes 2 coefficients for {role}")
        s, f = D.coeffs
        return X.from_section_fiber(s, f), "sf"
    if len(D) != X.n:
        raise InputError(
            f"{role} needs {X.n} coefficients for this fan, got {len(D)}"
        )
    return D, "prime"


def _integral_D(X, args):
    """--D in ambient coordinates, with its basis tag; it must be integral."""
    D, basis = _divisor_in_ambient(X, args.D, args, "--D")
    if not D.is_integral:
        raise InputError("--D must have integer coefficients")
    return D, basis


def _pretty_divisor(X, D: Divisor) -> str:
    coeffs = "[" + ", ".join(format_rational(c) for c in D.coeffs) + "]"
    if isinstance(X, ToricSurface):
        st = X.fan.surface_type()
        if st.kind == HIRZEBRUCH and st.ell >= 1:
            s, f = X.to_section_fiber(D)
            return f"{coeffs} (= {format_rational(s)} S + {format_rational(f)} F)"
    else:
        named = [
            f"{format_rational(c)}*{X.labels[i]}"
            for i, c in enumerate(D.coeffs)
            if c
        ]
        if named:
            return f"{coeffs} (= {' + '.join(named)})"
    return coeffs


def _emit(args, payload, render) -> None:
    """JSON of the dict ``payload()`` builds with --json, else the text
    ``render()`` builds, so that only the printed form is built."""
    _write_out(args, [dumps_canonical(payload()) if args.json else render() + "\n"])


def _write_out(args, chunks) -> None:
    """Write the text chunks to --out, or to stdout.  The file is opened
    once the first chunk is built, so that an error raised before then
    leaves it as it was."""
    chunks = iter(chunks)
    first = next(chunks)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(first)
            fh.writelines(chunks)
    else:
        sys.stdout.write(first)
        sys.stdout.writelines(chunks)


def _report_jsonable(report: StabilityReport, echo: dict) -> dict:
    cert = None
    if report.certificate is not None:
        c = report.certificate
        cert = {
            "A": divisor_to_jsonable(c.polarization),
            "S": divisor_to_jsonable(c.shift),
            "d0": c.d0,
            "slopes": {
                "subbundle": format_rational(c.subbundle_slope),
                "ambient": format_rational(c.ambient_slope),
            },
        }
    return {
        "verdict": report.verdict,
        "certificate": cert,
        "assumptions": list(report.assumptions),
        "echo": echo,
    }


def _render_report(X, report: StabilityReport) -> str:
    lines = [f"verdict: {report.verdict}"]
    if report.certificate is not None:
        c = report.certificate
        lines.append(f"polarization A: {_pretty_divisor(X, c.polarization)}")
        lines.append(f"shift S: {_pretty_divisor(X, c.shift)}")
        lines.append(f"d0: {c.d0}")
        lines.append(
            f"slopes at d0: subbundle {format_rational(c.subbundle_slope)}"
            f" vs ambient {format_rational(c.ambient_slope)}"
        )
    for note in report.assumptions:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    data = read_json(args.verify)
    echo = _field(data, "echo", dict, args.verify)
    verdict = _field(data, "verdict", str, args.verify)
    X = surface_from_jsonable(echo)
    D = divisor_from_jsonable(_field(echo, "D", list, "report echo"))
    mode = echo.get("mode")
    if mode not in ("driver", "asymptotic-scan", "fixed-exponent"):
        raise InputError(f"report echo has unknown mode {mode!r}")
    A = d = None
    if mode != "driver":
        A = divisor_from_jsonable(_field(echo, "A", list, "report echo"))
    if mode == "fixed-exponent":
        d = _field(echo, "d", int, "report echo")
    if not D.is_integral:
        raise InputError(f"{args.verify}: echo D must have integer coefficients")
    fresh = _report_jsonable(analyze(X, D, A, d), echo)
    cert = data.get("certificate")
    same_verdict = fresh["verdict"] == verdict
    same_cert = fresh["certificate"] == cert

    # A stored certificate equal to the recomputed one is already verified:
    # d_threshold (or find_destabilizer at a fixed exponent) compared these
    # exact slopes at this d0.  One that differs is compared on its own.
    cert_ok = True
    if cert is not None and not (same_verdict and same_cert):
        cert_ok = certificate_holds(
            X,
            D,
            verdict,
            divisor_from_jsonable(_field(cert, "A", list, "certificate")),
            divisor_from_jsonable(_field(cert, "S", list, "certificate")),
            _field(cert, "d0", int, "certificate"),
        )

    ok = same_verdict and same_cert and cert_ok
    status = "verified" if ok else "MISMATCH"
    payload = {
        "verified": ok,
        "verdict": verdict,
        "recomputed_verdict": fresh["verdict"],
        "certificate_matches": same_cert,
        "certificate_slopes_check": cert_ok,
    }
    _emit(args, lambda: payload, lambda: f"{status}: {verdict}")
    return 0 if ok else 1


def _cmd_analyze(args) -> int:
    """``analyze``, and ``destabilize``: the same report, with --A and
    --d required."""
    if args.verify:
        return _cmd_verify(args)
    if args.D is None:
        raise InputError("--D is required (or use analyze --verify REPORT)")
    X = _surface_from_args(args)
    D, basis = _integral_D(X, args)
    A = None
    if args.A is not None:
        A, _ = _divisor_in_ambient(X, args.A, args, "--A")
        if not A.is_integral:
            A = A.scaled_primitive()
    report = analyze(X, D, A, args.d)
    _emit(
        args,
        lambda: _report_jsonable(report, _echo(args, X, D, basis, A)),
        lambda: _render_report(X, report),
    )
    return 0


def _echo(args, X, D: Divisor, basis: str, A) -> dict:
    """The input an ``analyze`` report echoes, enough for --verify."""
    echo = {
        "command": args.command,
        **surface_to_jsonable(X),
        "D": divisor_to_jsonable(D),
        "input_basis": basis,
        "tool": {"name": "syzstab", "version": __version__},
        "mode": "driver",
    }
    if A is not None:
        echo["A"] = divisor_to_jsonable(A)
        echo["mode"] = "asymptotic-scan"
        if args.d is not None:
            echo["mode"] = "fixed-exponent"
            echo["d"] = args.d
    return echo


def _cmd_polarize(args) -> int:
    X = _surface_from_args(args)
    D, _ = _integral_D(X, args)
    pol = construct_polarization(X, D, allow_low_rank=args.allow_low_rank)
    _emit(
        args,
        lambda: _polarization_jsonable(X, D, pol),
        lambda: _render_polarization(X, pol),
    )
    return 0


def _polarization_jsonable(X, D: Divisor, pol) -> dict:
    return {
        "polarization": divisor_to_jsonable(pol.polarization),
        "polarization_integral": divisor_to_jsonable(
            pol.polarization_integral
        ),
        "generator_index": pol.generator_index,
        "generator": divisor_to_jsonable(pol.generator),
        "epsilon": format_rational(pol.epsilon),
        "nef_threshold": format_rational(pol.threshold),
        "alpha": format_rational(pol.alpha),
        "notes": list(pol.notes),
        "echo": {**surface_to_jsonable(X), "D": divisor_to_jsonable(D)},
    }


def _render_polarization(X, pol) -> str:
    lines = [
        f"polarization A: {_pretty_divisor(X, pol.polarization)}",
        f"integral A: {_pretty_divisor(X, pol.polarization_integral)}",
        f"generator E: index {pol.generator_index}, "
        f"{_pretty_divisor(X, pol.generator)}",
        f"nef threshold t: {format_rational(pol.threshold)}",
        f"epsilon: {format_rational(pol.epsilon)}",
        f"alpha: {format_rational(pol.alpha)}",
    ]
    lines += [f"note: {note}" for note in pol.notes]
    return "\n".join(lines)


def _cmd_hirzebruch(args) -> int:
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    verdict = hirzebruch_region(args.ell, a, b)
    payload = {
        "ell": args.ell,
        "a": format_rational(a),
        "b": format_rational(b),
        "verdict": verdict,
    }
    _emit(args, lambda: payload, lambda: verdict)
    return 0


def _cmd_h0(args) -> int:
    X = _surface_from_args(args)
    if not isinstance(X, ToricSurface):
        raise InputError("h0 by lattice count needs a toric surface (--fan)")
    D, _ = _integral_D(X, args)
    value = X.h0(D)
    text = format_rational(value)  # refuses a count too long to print
    _emit(args, lambda: {"h0": value, "D": divisor_to_jsonable(D)}, lambda: text)
    return 0


def _cmd_classify(args) -> int:
    fan = load_fan(args.fan)
    st = fan.surface_type()
    payload = {
        "type": st.kind,
        "ell": st.ell,
        "picard_rank": st.picard_rank,
        "rays": [list(r) for r in fan.rays],
        "self_intersections": list(fan.self_intersections()),
    }
    if args.reduction:
        reduced, removed = reduce_to_minimal(fan)
        payload["reduction"] = {
            "blown_down_rays": [list(r) for r in removed],
            "minimal_type": str(reduced.surface_type()),
        }
    _emit(args, lambda: payload, lambda: _render_classification(st, payload))
    return 0


def _render_classification(st, payload: dict) -> str:
    lines = [
        f"type: {st}",
        f"picard rank: {st.picard_rank}",
        f"rays (ccw): {payload['rays']}",
        f"self-intersections: {payload['self_intersections']}",
    ]
    if "reduction" in payload:
        reduction = payload["reduction"]
        lines.append(f"blow-downs to minimal: {reduction['blown_down_rays']}")
        lines.append(f"minimal model: {reduction['minimal_type']}")
    return "\n".join(lines)


def _parse_range(text: str) -> tuple[Rat, Rat]:
    parts = text.split(":")
    if len(parts) == 1:
        v = parse_rational(parts[0])
        return v, v
    if len(parts) == 2:
        lo, hi = parse_rational(parts[0]), parse_rational(parts[1])
        if hi.numerator * lo.denominator < lo.numerator * hi.denominator:
            raise InputError(f"range {text!r} is reversed")
        return lo, hi
    raise InputError(f"range {text!r} must be VALUE or LO:HI")


def _cmd_sweep(args) -> int:
    """Write the grid's rows as they are found, in batches, in memory that
    does not grow with the grid.  Nothing is written when the sweep exits
    2: the first batch, which tells an empty grid, is built before any
    write, and a number too long to print is ruled out before the first
    write, by a bound on the numbers' bit lengths or, where it cannot
    tell, by a first pass whose output is discarded."""
    try:
        ells = [int(x) for x in args.ell.split(",")]
    except ValueError as exc:
        raise InputError(f"--ell must list integers: {args.ell!r}") from exc
    if any(e < 1 for e in ells):
        raise InputError("--ell entries must be >= 1")
    a_lo, a_hi = _parse_range(args.a)
    b_lo, b_hi = _parse_range(args.b)
    step = parse_rational(args.step)
    if step.numerator <= 0:
        raise InputError("--step must be positive")
    values = (a_lo, a_hi, b_lo, b_hi, step)  # walked as numerators over q
    q = lcm(*(v.denominator for v in values))
    a_lo, a_hi, b_lo, b_hi, s = (v.numerator * (q // v.denominator) for v in values)
    points = len(ells) * ((a_hi - a_lo) // s + 1) * ((b_hi - b_lo) // s + 1)
    if points > MAX_GRID_POINTS:
        raise InputError(
            f"the grid has more than {MAX_GRID_POINTS} points; "
            "use a coarser --step or narrower ranges"
        )

    def report():
        form = _SWEEP_JSON if args.json else _SWEEP_CSV
        a_nums, b_nums = range(a_lo, a_hi + 1, s), range(b_lo, b_hi + 1, s)
        return _sweep_report(form, ells, a_nums, b_nums, q)

    # ell and a's and b's numerators and denominators are below X = 2**n,
    # so every number a row prints is below 2**(5n + 5): alpha is at most
    # 18 X**5 (of degree 5 in them), beta at most 12 X**4 and d0 at most
    # |beta| + 2.  Where that may pass 10**limit, a first pass into a sink
    # raises any error of printing before the first write.
    n = max(v.bit_length() for v in (max(ells), a_lo, a_hi, b_lo, b_hi, q))
    limit = sys.get_int_max_str_digits()
    if limit and (5 * n + 5) * 1000 > limit * 3321:  # 3.321 < log2(10)
        deque(report(), 0)
    _write_out(args, report())
    return 0


def _sweep_report(form, ells, a_nums: range, b_nums: range, q: int):
    """The sweep report in form, _SWEEP_JSON or _SWEEP_CSV, in chunks of
    up to _SWEEP_BATCH rows, each row formatted as ``_region_rows`` yields
    it for the numerators a_nums and b_nums over q: the head with the
    first chunk, the separator with each later one, then the tail.  Raises
    EmptyGridError before the first chunk when no grid point has a, b >
    ell, and InputError for a number past the print limit."""
    template, order, head, sep, tail, null = form

    def fields():
        for ell in ells:
            region = _region_rows(ell, a_nums, b_nums, q)
            for (a2, a1), (b2, b1), verdict, alpha, beta, th in region:
                a = a2 if a1 == 1 else f"{a2}/{a1}"
                b = b2 if b1 == 1 else f"{b2}/{b1}"
                d0 = null if th is None else th.d0
                strict = null if th is None else "true" if th.strict else "false"
                yield order((ell, a, b, verdict, alpha, beta, d0, strict))

    rows, text = fields(), head
    try:
        while chunk := [template % row for row in islice(rows, _SWEEP_BATCH)]:
            yield text + sep.join(chunk)
            text = sep
    except ValueError as exc:  # an int past sys.get_int_max_str_digits()
        raise InputError(f"result too large to print: {exc}") from exc
    if text is head:
        raise EmptyGridError(
            "no grid point satisfies the ampleness bounds a, b > ell"
        )
    yield tail


@functools.cache
def _build_parser():
    """The argument parser and its subcommand parsers by name, built on
    first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="syzstab",
        description=(
            "Exact destabilization certificates for syzygy bundles on "
            "smooth complete toric surfaces."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"syzstab {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--fan", help="fan JSON file")
        p.add_argument("--surface", help="abstract surface JSON file")
        p.add_argument("--D", help="comma-separated divisor coefficients" + _EQUALS)
        p.add_argument(
            "--sf",
            action="store_true",
            help="divisors given in section/fiber class coordinates",
        )
        p.add_argument(
            "--he",
            action="store_true",
            help="divisors given in hyperplane/exceptional coordinates",
        )
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", help="write output to a file")

    p = sub.add_parser("analyze", help="full stability report")
    add_common(p)
    p.add_argument("--A", help="polarization coefficients" + _EQUALS)
    p.add_argument("--d", type=int, help="fixed tensor exponent")
    p.add_argument("--verify", help="re-check a previously emitted report")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("destabilize", help="candidate search at fixed exponent")
    add_common(p)
    p.add_argument("--A", required=True, help="polarization coefficients" + _EQUALS)
    p.add_argument("--d", type=int, required=True, help="tensor exponent")
    p.set_defaults(func=_cmd_analyze, verify=None)

    p = sub.add_parser("polarize", help="construct a boundary polarization")
    add_common(p)
    p.add_argument(
        "--allow-low-rank",
        action="store_true",
        help="run outside the rank >= 3 hypotheses (informational)",
    )
    p.set_defaults(func=_cmd_polarize)

    p = sub.add_parser("hirzebruch", help="region test for (ell, a, b)")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--a", required=True, help="polarization slope A2/A1")
    p.add_argument("--b", required=True, help="bundle slope B2/B1")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--out", help="write output to a file")
    p.set_defaults(func=_cmd_hirzebruch)

    p = sub.add_parser("h0", help="exact section count")
    add_common(p)
    p.set_defaults(func=_cmd_h0)

    p = sub.add_parser("classify", help="surface type of a fan")
    p.add_argument("--fan", required=True, help="fan JSON file")
    p.add_argument(
        "--reduction",
        action="store_true",
        help="also print a blow-down sequence to a minimal model",
    )
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--out", help="write output to a file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sweep", help="grid sweep of the Hirzebruch region")
    p.add_argument("--ell", required=True, help="comma-separated ell values")
    p.add_argument("--a", required=True, help="value or range LO:HI")
    p.add_argument("--b", required=True, help="value or range LO:HI")
    p.add_argument("--step", default="1/8", help="grid step (default 1/8)")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--out", help="write output to a file")
    p.set_defaults(func=_cmd_sweep)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in commands:
            # only the subcommand's parser: the namespace and errors of
            # parser.parse_args, without the top-level pass
            args, extras = commands[argv[0]].parse_known_args(
                argv[1:], argparse.Namespace(command=argv[0])
            )
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
