"""Exit paths of the command line that no other test reaches: each input
in CASES ends with its exit code and exactly one line on stderr, and
each argv in ARGV_TABLE with its exit code, stdout and stderr as
argparse and main give them.

``{fan}``, ``{f2}``, ``{p2}`` and ``{f0}`` in an argv name corpus fan
files (``{fan}`` is f1), ``{surface}`` the abstract presentation of the
plane blown up in two points, and ``{bad}`` a file holding the case's
surface data.
"""

import json
import pathlib
import sys

import pytest

from syzstab import Fan, NonPrimitiveRayError, __version__, stability
from syzstab.cli import main

from conftest import BL2P2_ABSTRACT, P2_RAYS, hirzebruch_rays

# a number of one digit past the print limit, and the error it prints as
LIMIT = sys.get_int_max_str_digits()
try:
    str(10**LIMIT)
except ValueError as exc:
    TOO_LARGE = f"result too large to print: {exc}"

CASES = {
    # cli.py: surface and divisor arguments
    "fan-and-surface": (
        ["h0", "--fan", "{fan}", "--surface", "{surface}", "--D", "1,1"],
        "give either --fan or --surface, not both",
    ),
    "sf-on-abstract": (
        ["analyze", "--surface", "{surface}", "--D", "2,2,3", "--sf"],
        "--sf/--he apply only to toric Hirzebruch fans",
    ),
    "abstract-length": (
        ["analyze", "--surface", "{surface}", "--D", "2,2"],
        "--D needs 3 coefficients for this surface, got 2",
    ),
    "he-off-f1": (
        ["h0", "--fan", "{f2}", "--D", "1,1", "--he"],
        "--he needs the blown-up plane (the first Hirzebruch surface)",
    ),
    "he-length": (
        ["h0", "--fan", "{fan}", "--D", "1,1,1", "--he"],
        "--he takes 2 coefficients for --D",
    ),
    "sf-length": (
        ["h0", "--fan", "{fan}", "--D", "1,1,1", "--sf"],
        "--sf takes 2 coefficients for --D",
    ),
    "sf-on-plane": (
        ["h0", "--fan", "{p2}", "--D", "1,1", "--sf"],
        "not a Hirzebruch surface with ell >= 1: ProjectivePlane",
    ),
    "sf-on-quadric": (
        ["analyze", "--fan", "{f0}", "--D", "1,1", "--sf"],
        "not a Hirzebruch surface with ell >= 1: Hirzebruch(0)",
    ),
    "sf-and-he": (
        ["h0", "--fan", "{fan}", "--D", "1,2", "--sf", "--he"],
        "give either --sf or --he, not both",
    ),
    "polarize-fractional": (
        ["polarize", "--fan", "{fan}", "--D", "5/2,6"],
        "--D must have integer coefficients",
    ),
    "h0-fractional": (
        ["h0", "--fan", "{fan}", "--D", "1/2,0,0,0"],
        "--D must have integer coefficients",
    ),
    "h0-abstract": (
        ["h0", "--surface", "{surface}", "--D", "2,2,3"],
        "h0 by lattice count needs a toric surface (--fan)",
    ),
    # analyze --verify: a report whose echoed D is fractional
    "verify-fractional-D": (
        ["analyze", "--verify", "{bad}"],
        "{bad}: echo D must have integer coefficients",
        {
            "verdict": "NotSemistable",
            "certificate": None,
            "assumptions": [],
            "echo": {
                "fan": {"rays": hirzebruch_rays(1)},
                "D": ["1/2", 5, 6, 0],
                "mode": "driver",
            },
        },
    ),
    # cli.py: sweep arguments
    "sweep-reversed": (
        ["sweep", "--ell", "1", "--a", "3:2", "--b", "2"],
        "range '3:2' is reversed",
    ),
    "sweep-range": (
        ["sweep", "--ell", "1", "--a", "2:3:4", "--b", "2"],
        "range '2:3:4' must be VALUE or LO:HI",
    ),
    "sweep-ell-text": (
        ["sweep", "--ell", "1,x", "--a", "2", "--b", "2"],
        "--ell must list integers: '1,x'",
    ),
    "sweep-ell-zero": (
        ["sweep", "--ell", "0", "--a", "2", "--b", "2"],
        "--ell entries must be >= 1",
    ),
    "sweep-step": (
        ["sweep", "--ell", "1", "--a", "2:3", "--b", "2", "--step", "0"],
        "--step must be positive",
    ),
    # a and b are formatted only once a row exists: a huge a or b that
    # no row reaches leaves the grid empty, and one that a row reaches
    # cannot be printed
    "sweep-huge-a-no-row": (
        ["sweep", "--ell", "1", "--a", f"1e{LIMIT}", "--b", "1"],
        "no grid point satisfies the ampleness bounds a, b > ell",
    ),
    "sweep-huge-negative-b": (
        ["sweep", "--ell", "1", "--a", "3", f"--b=-1e{LIMIT}"],
        "no grid point satisfies the ampleness bounds a, b > ell",
    ),
    "sweep-huge-b": (
        ["sweep", "--ell", "1", "--a", "3", "--b", f"1e{LIMIT}"],
        TOO_LARGE,
    ),
    # stability.py: the Hirzebruch driver's note on a and the region
    # bound, and the region test's ampleness message
    "driver-note-too-large": (
        ["analyze", "--fan", "{fan}", "--D", f"1e{LIMIT},1,1,1"],
        TOO_LARGE,
    ),
    "driver-note-too-large-json": (
        ["analyze", "--fan", "{fan}", "--D", f"1e{LIMIT},1,1,1", "--json"],
        TOO_LARGE,
    ),
    "region-message-too-large": (
        ["hirzebruch", "--ell", "1", f"--a=-1e{LIMIT}", "--b", "3"],
        TOO_LARGE,
    ),
    # find_destabilizer's exponent, refused before d*D is built: 5S + 6F
    # is ample on F_1, 0*D and -1*D are not
    "exponent-zero": (
        ["analyze", "--fan", "{fan}", "--D", "5,6", "--A", "2,3", "--d", "0"],
        "the exponent d must be a positive integer",
    ),
    "exponent-negative": (
        ["analyze", "--fan", "{fan}", "--D", "5,6", "--A", "2,3", "--d", "-1"],
        "the exponent d must be a positive integer",
    ),
    # files.py
    "malformed-divisor": (
        ["h0", "--fan", "{fan}", "--D", "1,,1"],
        "malformed divisor '1,,1'",
    ),
    "surface-bool": (
        ["analyze", "--surface", "{bad}", "--D", "2,2,3"],
        "not a rational number: True",
        {**BL2P2_ABSTRACT, "canonical": [True, -2, -3]},
    ),
    "surface-float": (
        ["analyze", "--surface", "{bad}", "--D", "2,2,3"],
        "not an exact rational: 1.5 (floats are rejected)",
        {**BL2P2_ABSTRACT, "pairing": [[-1, 0, 1], [0, -1, 1], [1, 1, 1.5]]},
    ),
    "surface-keys": (
        ["analyze", "--surface", "{bad}", "--D", "2,2,3"],
        "{bad}: expected an object with keys labels, pairing, canonical, "
        "effective_generators",
        {k: v for k, v in BL2P2_ABSTRACT.items() if k != "canonical"},
    ),
    "surface-canonical": (
        ["analyze", "--surface", "{bad}", "--D", "2,2,3"],
        "{bad}: canonical class must be integral",
        {**BL2P2_ABSTRACT, "canonical": ["-3/2", -2, -3]},
    ),
    # AbstractSurface.__init__, through a surface file
    "no-labels": (
        ["analyze", "--surface", "{bad}", "--D", "2,2,3"],
        "abstract surface needs at least one label",
        {**BL2P2_ABSTRACT, "labels": []},
    ),
    "canonical-length": (
        ["analyze", "--surface", "{bad}", "--D", "2,2,3"],
        "canonical class length does not match labels",
        {**BL2P2_ABSTRACT, "canonical": [-2, -2]},
    ),
    "no-generators": (
        ["analyze", "--surface", "{bad}", "--D", "2,2,3"],
        "declare at least one effective generator",
        {**BL2P2_ABSTRACT, "effective_generators": []},
    ),
    "repeated-generators": (
        ["analyze", "--surface", "{bad}", "--D", "2,2,3"],
        "effective generator indices repeat",
        {**BL2P2_ABSTRACT, "effective_generators": [0, 1, 1]},
    ),
    # construct_polarization's nef threshold: E = C_0 meets each declared
    # generator in 0 or in E^2 = -1, so none bounds it
    "generators-span-nothing": (
        ["analyze", "--surface", "{bad}", "--D=-1,-1,-1"],
        "declared generators cannot span the effective cone: "
        "E meets none of them positively",
        {
            "labels": ["a", "b", "c"],
            "pairing": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
            "canonical": [-1, -1, -1],
            "effective_generators": [0, 1, 2],
        },
    ),
    "low-rank-generators-span-nothing": (
        ["polarize", "--surface", "{bad}", "--D=-1,-1", "--allow-low-rank"],
        "declared generators cannot span the effective cone: "
        "E meets none of them positively",
        {
            "labels": ["a", "b"],
            "pairing": [[-1, 0], [0, -1]],
            "canonical": [-1, -1],
            "effective_generators": [0, 1],
        },
    ),
}


def write_json(path, data):
    pathlib.Path(path).write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def paths(tmp_path):
    return {
        "fan": write_json(tmp_path / "f1.json", {"rays": hirzebruch_rays(1)}),
        "f2": write_json(tmp_path / "f2.json", {"rays": hirzebruch_rays(2)}),
        "p2": write_json(tmp_path / "p2.json", {"rays": P2_RAYS}),
        "f0": write_json(tmp_path / "f0.json", {"rays": hirzebruch_rays(0)}),
        "surface": write_json(tmp_path / "surface.json", BL2P2_ABSTRACT),
        "bad": str(tmp_path / "bad.json"),
    }


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return rc, captured.err


@pytest.mark.parametrize("name", sorted(CASES))
def test_input_error_exits_2(name, paths, capsys):
    argv, message, *surface = CASES[name]
    if surface:
        write_json(paths["bad"], surface[0])
    argv = [arg.format(**paths) for arg in argv]
    assert run(argv, capsys) == (2, f"error: {message.format(**paths)}\n")


def test_report_echo_without_surface_exits_2(paths, tmp_path, capsys):
    report = tmp_path / "report.json"
    argv = ["analyze", "--fan", paths["fan"], "--D", "5,6", "--json"]
    assert main(argv + ["--out", str(report)]) == 0
    data = json.loads(report.read_text())
    del data["echo"]["fan"]
    write_json(report, data)
    assert run(["analyze", "--verify", str(report)], capsys) == (
        2,
        "error: report echo names no surface\n",
    )


def test_internal_error_exits_1(paths, monkeypatch, capsys):
    # an exact comparison that contradicts the sign polynomial at d0
    monkeypatch.setattr(stability, "_order", lambda mu_sub, mu_ambient: "less")
    argv = ["analyze", "--fan", paths["fan"], "--D", "5,6"]
    assert run(argv, capsys) == (
        1,
        "internal error: sign polynomial predicted greater slopes at d = 18, "
        "exact comparison returned less\n",
    )


def test_ray_of_three_components():
    # file input stops at the same length check, so only the library
    # reaches this one
    with pytest.raises(NonPrimitiveRayError) as info:
        Fan([(1, 0), (0, 1, 0), (-1, -1)])
    assert str(info.value) == "ray 1 must have exactly 2 integer components"
    assert info.value.index == 1


def test_negative_first_coefficient_needs_the_equals_form(paths, capsys):
    # argparse takes "-1,2,3,4" after a separate "--D" for an option
    assert main(["h0", "--fan", paths["fan"], "--D=-1,2,3,4"]) == 0
    assert capsys.readouterr().out == "28\n"
    assert main(["h0", "--fan", paths["fan"], "--D", "-1,2,3,4"]) == 2
    assert "argument --D: expected one argument" in capsys.readouterr().err


USAGE = (
    "usage: syzstab [-h] [--version]\n"
    "               {analyze,destabilize,polarize,hirzebruch,h0,classify,sweep} ...\n"
)
ANALYZE_USAGE = (
    "usage: syzstab analyze [-h] [--fan FAN] [--surface SURFACE] [--D D] [--sf]\n"
    "                       [--he] [--json] [--out OUT] [--A A] [--d D]\n"
    "                       [--verify VERIFY]\n"
)
HELP = USAGE + """
Exact destabilization certificates for syzygy bundles on smooth complete toric
surfaces.

positional arguments:
  {analyze,destabilize,polarize,hirzebruch,h0,classify,sweep}
    analyze             full stability report
    destabilize         candidate search at fixed exponent
    polarize            construct a boundary polarization
    hirzebruch          region test for (ell, a, b)
    h0                  exact section count
    classify            surface type of a fan
    sweep               grid sweep of the Hirzebruch region

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""
ANALYZE_HELP = ANALYZE_USAGE + """
options:
  -h, --help         show this help message and exit
  --fan FAN          fan JSON file
  --surface SURFACE  abstract surface JSON file
  --D D              comma-separated divisor coefficients (--D=-1,2,... when
                     the first is negative)
  --sf               divisors given in section/fiber class coordinates
  --he               divisors given in hyperplane/exceptional coordinates
  --json             emit JSON
  --out OUT          write output to a file
  --A A              polarization coefficients (--A=-1,2,... when the first is
                     negative)
  --d D              fixed tensor exponent
  --verify VERIFY    re-check a previously emitted report
"""
CHOICES = (
    "(choose from 'analyze', 'destabilize', 'polarize', 'hirzebruch', 'h0', "
    "'classify', 'sweep')"
)
VERSION = f"syzstab {__version__}\n"

# argv -> (exit code, stdout, stderr), through main's argument dispatch
ARGV_TABLE = {
    "none": ([], 2, "", USAGE + (
        "syzstab: error: the following arguments are required: command\n"
    )),
    "version": (["--version"], 0, VERSION, ""),
    "version-abbreviated": (["--ver", "X"], 0, VERSION, ""),
    "help": (["-h"], 0, HELP, ""),
    "analyze-help": (["analyze", "-h"], 0, ANALYZE_HELP, ""),
    "unknown-command": (["bogus"], 2, "", USAGE + (
        f"syzstab: error: argument command: invalid choice: 'bogus' {CHOICES}\n"
    )),
    "unknown-option": (
        ["analyze", "--fan", "{fan}", "--D", "5,6", "--bogus"], 2, "",
        USAGE + "syzstab: error: unrecognized arguments: --bogus\n",
    ),
    "stray-positional": (
        ["analyze", "--fan", "{fan}", "--D", "5,6", "extra"], 2, "",
        USAGE + "syzstab: error: unrecognized arguments: extra\n",
    ),
    "version-after-command": (["analyze", "--version"], 2, "", USAGE + (
        "syzstab: error: unrecognized arguments: --version\n"
    )),
    "option-before-command": (["--d", "x"], 2, "", USAGE + (
        f"syzstab: error: argument command: invalid choice: 'x' {CHOICES}\n"
    )),
    "command-option-first": (["--json", "analyze"], 2, "", USAGE + (
        "syzstab: error: unrecognized arguments: --json\n"
    )),
    "destabilize-without-A": (
        ["destabilize", "--fan", "{fan}", "--D", "5,6", "--d", "1"], 2, "",
        "usage: syzstab destabilize [-h] [--fan FAN] [--surface SURFACE] "
        "[--D D] [--sf]\n"
        "                           [--he] [--json] [--out OUT] --A A --d D\n"
        "syzstab destabilize: error: the following arguments are required: --A\n",
    ),
    "analyze-without-D": (
        ["analyze", "--fan", "{fan}"], 2, "",
        "error: --D is required (or use analyze --verify REPORT)\n",
    ),
    "h0-without-D": (
        ["h0", "--fan", "{fan}"], 2, "", "error: --D is required\n",
    ),
    "polarize-without-D": (
        ["polarize", "--fan", "{fan}"], 2, "", "error: --D is required\n",
    ),
}


@pytest.mark.parametrize("name", list(ARGV_TABLE))
def test_argv_table(name, paths, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    argv, code, out, err = ARGV_TABLE[name]
    assert main([arg.format(**paths) for arg in argv]) == code
    assert capsys.readouterr() == (out, err)
