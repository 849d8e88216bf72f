"""Golden CLI outputs: the stdout and exit code of every command, with
and without ``--json``.

``golden/cli.json`` holds, for each case below, the symbolic argv, the
exit code and the exact stdout of a reference run; ``golden/cli_text.json``
holds the same for each case run without ``--json``.  The tests compare
byte for byte and never rewrite the files: any change to an output is a
change to the package's contract and must show up as a failing case.

Argv entries of the form ``@fan:NAME`` name a corpus fan file,
``@surface:NAME`` an abstract surface file (``bl2p2`` presents the plane
blown up in two points, ``half`` is the same matrix with a rational
self-intersection), and ``@report:CASE`` a file holding the stdout of an
earlier case (for ``analyze --verify``); text runs read the JSON report
of that case.
"""

import contextlib
import io
import json
import pathlib

import pytest

from syzstab.cli import main

from conftest import BL2P2_ABSTRACT, CORPUS_RAYS

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli.json"
TEXT_GOLDEN = GOLDEN.with_name("cli_text.json")

# (fan, D, the driver's polarization for that D); p2 and f0 have no
# driver certificate, so they get an ample A of their own
ANALYSES = {
    "p2": ("1,1,1", "1,1,2"),
    "f0": ("1,1,1,1", "1,1,1,2"),
    "f1": ("0,1,2,0", "0,8,41,0"),
    "f2": ("0,1,3,0", "0,8,41,0"),
    "f3": ("0,1,4,0", "0,7,40,0"),
    "f4": ("0,1,5,0", "0,7,46,0"),
    "bl2p2": ("1,1,1,1,1", "8,1,8,8,8"),
    "dp6": ("1,1,1,1,1,1", "1,8,8,8,8,8"),
    "rank5": ("2,3,2,3,2,2,2", "3,6,4,6,4,4,4"),
    "rank6": ("3,4,2,4,3,3,3,3", "5,8,4,8,6,6,6,6"),
}
RANK3_PLUS = ("bl2p2", "dp6", "rank5", "rank6")
SURFACES = {
    "bl2p2": BL2P2_ABSTRACT,
    "half": {**BL2P2_ABSTRACT, "pairing": [["-1/2", 0, 1], [0, -1, 1], [1, 1, -1]]},
}


def _cases():
    cases = []

    def analyze(name, argv):
        cases.append((name, ["analyze", *argv, "--json"]))
        cases.append(
            (name + "/verify", ["analyze", "--verify", f"@report:{name}", "--json"])
        )

    cases.append(("analyze/driver/p2", ["analyze", "--fan", "@fan:p2", "--D", "1,1,1", "--json"]))
    for fan, (D, A) in ANALYSES.items():
        src = ["--fan", f"@fan:{fan}", "--D", D]
        if fan not in ("p2", "f0"):
            analyze(f"analyze/driver/{fan}", src)
        analyze(f"analyze/scan/{fan}", src + ["--A", A])
        for d in ("1", "2"):
            analyze(f"analyze/fixed/{fan}/d{d}", src + ["--A", A, "--d", d])
    # a threshold above the first nef multiple, a stable-side scan, and
    # the two alternative input bases
    analyze("analyze/driver/f1/5S+6F", ["--fan", "@fan:f1", "--D", "5,6"])
    analyze("analyze/scan/bl2p2/no-candidate", ["--fan", "@fan:bl2p2", "--D", "1,1,1,1,1", "--A", "1,1,1,1,2"])
    analyze("analyze/fixed/rank5/d28", ["--fan", "@fan:rank5", "--D", "2,3,2,3,2,2,2", "--A", "3,6,4,6,4,4,4", "--d", "28"])
    analyze("analyze/fixed/f1/d18", ["--fan", "@fan:f1", "--D", "5,6", "--A", "2,3", "--d", "18"])
    analyze("analyze/fixed/f1/he", ["--fan", "@fan:f1", "--D", "6,-1", "--A", "3,-1", "--he", "--d", "18"])
    analyze("analyze/scan/f1/rational-A", ["--fan", "@fan:f1", "--D", "8,9", "--sf", "--A", "1,3/2"])
    # the abstract presentation of bl2p2
    surface = ["--surface", "@surface:bl2p2", "--D", "2,2,3"]
    analyze("analyze/driver/abstract", surface)
    analyze("analyze/scan/abstract", surface + ["--A", "9,16,24"])
    analyze("analyze/fixed/abstract/d1", surface + ["--A", "9,16,24", "--d", "1"])
    analyze("analyze/driver/abstract-half", ["--surface", "@surface:half", "--D", "2,2,3"])

    for fan in ("p2", "f1", *RANK3_PLUS):
        D, A = ANALYSES[fan]
        cases.append(
            (f"destabilize/{fan}", ["destabilize", "--fan", f"@fan:{fan}", "--D", D, "--A", A, "--d", "1", "--json"])
        )
    cases.append(
        ("destabilize/f1/8S+9F", ["destabilize", "--fan", "@fan:f1", "--D", "8,9", "--A", "2,3", "--d", "1", "--json"])
    )
    cases.append(
        ("destabilize/abstract", ["destabilize", "--surface", "@surface:bl2p2", "--D", "2,2,3", "--A", "9,16,24", "--d", "1", "--json"])
    )

    for fan in RANK3_PLUS:
        cases.append(
            (f"polarize/{fan}", ["polarize", "--fan", f"@fan:{fan}", "--D", ANALYSES[fan][0], "--json"])
        )
    cases.append(
        ("polarize/f1/low-rank", ["polarize", "--fan", "@fan:f1", "--D", "5,6", "--allow-low-rank", "--json"])
    )
    for surface in SURFACES:
        cases.append(
            (f"polarize/abstract-{surface}", ["polarize", "--surface", f"@surface:{surface}", "--D", "2,2,3", "--json"])
        )

    for ell, a, b in (("1", "3/2", "9/8"), ("1", "13/8", "5/4"), ("2", "6", "3"), ("3", "1.5e1", "4")):
        cases.append(
            (f"hirzebruch/{ell}/{a}/{b}", ["hirzebruch", "--ell", ell, "--a", a, "--b", b, "--json"])
        )

    for fan, (D, _) in ANALYSES.items():
        tripled = ",".join(str(3 * int(c)) for c in D.split(","))
        cases.append((f"h0/{fan}", ["h0", "--fan", f"@fan:{fan}", "--D", tripled, "--json"]))
        cases.append(
            (f"classify/{fan}", ["classify", "--fan", f"@fan:{fan}", "--reduction", "--json"])
        )
    cases.append(("h0/f1/not-nef", ["h0", "--fan", "@fan:f1", "--D=-7,2,3,5", "--json"]))
    cases.append(("h0/f1/sf", ["h0", "--fan", "@fan:f1", "--D", "8,9", "--sf", "--json"]))

    cases.append(
        ("sweep/small", ["sweep", "--ell", "1,2", "--a", "9/8:4", "--b", "9/8:3", "--step", "1/4", "--json"])
    )
    return cases


CASES = _cases()


def run_cases(workdir: pathlib.Path, reports: dict | None = None) -> dict:
    """Run every case in order; returns {name: {argv, rc, stdout}}.

    Given the results of the ``--json`` run as ``reports``, run every case
    without ``--json``, reading ``@report:`` inputs from those results."""
    paths = {}
    for fan, rays in CORPUS_RAYS.items():
        path = workdir / f"{fan}.json"
        path.write_text(json.dumps({"rays": [list(r) for r in rays]}))
        paths[f"@fan:{fan}"] = str(path)
    for name, data in SURFACES.items():
        path = workdir / f"surface-{name}.json"
        path.write_text(json.dumps(data))
        paths[f"@surface:{name}"] = str(path)

    results = {}
    for name, argv in CASES:
        if reports is not None:
            argv = [arg for arg in argv if arg != "--json"]
        concrete = []
        for arg in argv:
            if arg.startswith("@report:"):
                case = arg[len("@report:"):]
                path = workdir / f"report{len(paths)}.json"
                path.write_text((results if reports is None else reports)[case]["stdout"])
                paths[arg] = str(path)
            concrete.append(paths.get(arg, arg))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(concrete)
        results[name] = {"argv": argv, "rc": rc, "stdout": out.getvalue()}
    return results


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def text_outputs(tmp_path_factory, outputs):
    return run_cases(tmp_path_factory.mktemp("golden-text"), outputs)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def text_golden():
    return json.loads(TEXT_GOLDEN.read_text(encoding="utf-8"))


def test_case_list_matches_golden(golden):
    assert [name for name, _ in CASES] == list(golden)


def test_text_case_list_matches_golden(text_golden):
    assert [name for name, _ in CASES] == list(text_golden)


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_output_matches_golden(name, outputs, golden):
    assert outputs[name] == golden[name]


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_text_output_matches_golden(name, text_outputs, text_golden):
    assert text_outputs[name] == text_golden[name]
