"""Command-line behaviour: parsing, verdicts, exit codes, round-trips."""

import contextlib
import io
import json
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzstab import cli, divisors
from syzstab.cli import main
from syzstab.errors import InputError
from syzstab.files import format_rational, parse_rational

from conftest import (
    BL2P2_ABSTRACT,
    BL2P2_RAYS,
    P2_RAYS,
    RANK6_RAYS,
    hirzebruch_rays,
    rational_texts,
    ref_grid,
)


@pytest.fixture()
def f1_path(tmp_path):
    path = tmp_path / "f1.json"
    path.write_text(json.dumps({"rays": [list(r) for r in hirzebruch_rays(1)]}))
    return str(path)


@pytest.fixture()
def p2_path(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps({"rays": [list(r) for r in P2_RAYS]}))
    return str(path)


@pytest.fixture()
def bl2_path(tmp_path):
    path = tmp_path / "bl2.json"
    path.write_text(json.dumps({"rays": [list(r) for r in BL2P2_RAYS]}))
    return str(path)


@pytest.fixture()
def abstract_path(tmp_path):
    path = tmp_path / "bl2_abstract.json"
    path.write_text(json.dumps(BL2P2_ABSTRACT))
    return str(path)


class TestAnalyze:
    def test_fixed_exponent_example(self, f1_path, capsys):
        rc = main(
            ["analyze", "--fan", f1_path, "--D", "5,6", "--A", "2,3", "--d", "18"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "NotSemistable" in out
        assert "1 S + 0 F" in out  # the shift is the section

    def test_driver_mode(self, f1_path, capsys):
        rc = main(["analyze", "--fan", f1_path, "--D", "5,6", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "NotSemistable"
        assert data["certificate"]["d0"] == 18
        assert data["certificate"]["A"] == [0, 2, 3, 0]

    def test_asymptotic_scan_mode(self, f1_path, capsys):
        rc = main(
            ["analyze", "--fan", f1_path, "--D", "8,9", "--A", "2,3", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "NotSemistable"
        assert data["certificate"]["d0"] == 1
        assert data["certificate"]["slopes"] == {
            "ambient": "-26/53",
            "subbundle": "-25/51",
        }

    def test_abstract_surface(self, abstract_path, capsys):
        rc = main(
            ["analyze", "--surface", abstract_path, "--D", "2,2,3", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "NotSemistable"
        assert any("Euler characteristic" in a for a in data["assumptions"])

    def test_he_basis(self, f1_path, capsys):
        # 6H - E and 3H - E in hyperplane/exceptional coordinates
        rc = main(
            [
                "analyze",
                "--fan",
                f1_path,
                "--D",
                "6,-1",
                "--A",
                "3,-1",
                "--he",
                "--d",
                "18",
                "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "NotSemistable"
        assert data["echo"]["D"] == [0, 5, 6, 0]

    def test_plane_driver_is_input_error(self, p2_path, capsys):
        rc = main(["analyze", "--fan", p2_path, "--D", "1,0,0"])
        assert rc == 2

    def test_wrong_length_rejected(self, p2_path):
        assert main(["analyze", "--fan", p2_path, "--D", "1,0"]) == 2

    def test_fractional_d_rejected(self, f1_path):
        assert main(["analyze", "--fan", f1_path, "--D", "5/2,6"]) == 2

    def test_missing_surface(self):
        assert main(["analyze", "--D", "1,0,0"]) == 2

    def test_bad_fan_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rays": [[2, 0], [0, 1], [-1, -1]]}')
        assert main(["analyze", "--fan", str(bad), "--D", "1,0,0"]) == 2

    @pytest.mark.parametrize(
        "data",
        [
            {"rays": 5},
            {"rays": [[1, 0], [0, 1], 5]},
            {"rays": [[1, 0], [0, 1], [-1.0, -1]]},
            [[1, 0], [0, 1], [-1, -1]],
        ],
        ids=["rays", "ray", "float-entry", "not-an-object"],
    )
    def test_malformed_fan_data(self, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["analyze", "--fan", str(bad), "--D", "1,0,0"]) == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"pairing": 5},
            {"labels": "abc"},
            {"pairing": [[-1, 0, 1], 5, [1, 1, -1]]},
            {"canonical": -2},
            {"effective_generators": 3},
            {"effective_generators": ["0", 1, 2]},
        ],
        ids=[
            "pairing",
            "labels",
            "row",
            "canonical",
            "generators",
            "generator-entry",
        ],
    )
    def test_malformed_surface_data(self, tmp_path, change):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**BL2P2_ABSTRACT, **change}))
        assert main(["analyze", "--surface", str(bad), "--D", "2,2,3"]) == 2

    @pytest.mark.parametrize("flag", ["--fan", "--surface", "--verify"])
    @pytest.mark.parametrize(
        "content",
        [
            b'{"rays": "\xff"}',
            b"[" * 100_000 + b"]" * 100_000,
            b"[1" + b"0" * sys.get_int_max_str_digits() + b"]",
        ],
        ids=["not-utf8", "nested-too-deep", "integer-too-long"],
    )
    def test_hostile_json_is_input_error(self, tmp_path, capsys, flag, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = ["analyze", flag, str(bad)]
        if flag != "--verify":
            argv += ["--D", "1,1,1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerifyRoundTrip:
    def run_and_verify(self, argv, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(argv + ["--json", "--out", str(report)])
        assert rc == 0
        rc = main(["analyze", "--verify", str(report)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("verified:")
        return report

    def test_driver_report(self, f1_path, tmp_path, capsys):
        self.run_and_verify(
            ["analyze", "--fan", f1_path, "--D", "5,6"], tmp_path, capsys
        )

    def test_fixed_exponent_report(self, f1_path, tmp_path, capsys):
        self.run_and_verify(
            ["analyze", "--fan", f1_path, "--D", "8,9", "--A", "2,3", "--d", "1"],
            tmp_path,
            capsys,
        )

    def test_abstract_report(self, abstract_path, tmp_path, capsys):
        self.run_and_verify(
            ["analyze", "--surface", abstract_path, "--D", "2,2,3"],
            tmp_path,
            capsys,
        )

    def test_tampered_report_fails(self, f1_path, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(
            [
                "analyze",
                "--fan",
                f1_path,
                "--D",
                "5,6",
                "--json",
                "--out",
                str(report),
            ]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        data["certificate"]["d0"] = 17  # the tie exponent, not a violation
        report.write_text(json.dumps(data))
        rc = main(["analyze", "--verify", str(report)])
        assert rc == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_stored_certificate_checked_only_when_it_differs(
        self, tmp_path, monkeypatch, capsys
    ):
        fan = tmp_path / "rank6.json"
        fan.write_text(json.dumps({"rays": [list(r) for r in RANK6_RAYS]}))
        report = tmp_path / "report.json"
        # every lattice count of a nef divisor, d_threshold's and
        # certificate_holds' alike, ends in one Pick sum
        calls = []
        count = divisors._pick_count

        def counted(corners):
            calls.append(corners)
            return count(corners)

        monkeypatch.setattr(divisors, "_pick_count", counted)
        argv = ["analyze", "--fan", str(fan), "--D", "3,4,2,4,3,3,3,3"]
        assert main(argv + ["--json", "--out", str(report)]) == 0
        analysis = len(calls)
        assert main(["analyze", "--verify", str(report)]) == 0
        # the recomputation verified this certificate; no second count
        assert 0 < len(calls) - analysis <= analysis

        data = json.loads(report.read_text())
        d0 = data["certificate"]["d0"]
        capsys.readouterr()
        # past d0 the violation still holds; below it, it does not
        for shift, slopes_hold in ((1, True), (-1, False)):
            data["certificate"]["d0"] = d0 + shift
            report.write_text(json.dumps(data))
            assert main(["analyze", "--verify", str(report), "--json"]) == 1
            result = json.loads(capsys.readouterr().out)
            assert result["certificate_matches"] is False
            assert result["certificate_slopes_check"] is slopes_hold

    def rank6_report(self, tmp_path):
        fan = tmp_path / "rank6.json"
        fan.write_text(json.dumps({"rays": [list(r) for r in RANK6_RAYS]}))
        report = tmp_path / "report.json"
        argv = ["analyze", "--fan", str(fan), "--D", "3,4,2,4,3,3,3,3"]
        assert main(argv + ["--json", "--out", str(report)]) == 0
        return report

    @pytest.mark.parametrize(
        "changes",
        [
            {"A": [1, 0, 0, 0, 0, 0, 0, 0]},
            {"S": [-1, 0, 0, 0, 0, 0, 0, 0]},
            {"S": [9, 0, 0, 0, 0, 0, 0, 0], "d0": 1},
            {"d0": 0},
        ],
        ids=["not-ample", "not-effective", "not-nef", "one-section"],
    )
    def test_certificate_without_slopes_is_mismatch(
        self, tmp_path, capsys, changes
    ):
        report = self.rank6_report(tmp_path)
        data = json.loads(report.read_text())
        data["certificate"].update(changes)
        report.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["analyze", "--verify", str(report), "--json"]) == 1
        result = json.loads(capsys.readouterr().out)
        assert result["verified"] is False
        assert result["certificate_slopes_check"] is False
        assert main(["analyze", "--verify", str(report)]) == 1
        assert capsys.readouterr().out.startswith("MISMATCH")

    def test_huge_stored_threshold_is_checked_quickly(self, tmp_path, capsys):
        # the slopes at a stored d0 are compared from counts whose cost
        # does not grow with d0
        report = self.rank6_report(tmp_path)
        data = json.loads(report.read_text())
        data["certificate"]["d0"] = 10**9
        report.write_text(json.dumps(data))
        capsys.readouterr()
        start = time.monotonic()
        assert main(["analyze", "--verify", str(report), "--json"]) == 1
        assert time.monotonic() - start < 1.0
        result = json.loads(capsys.readouterr().out)
        assert result["certificate_matches"] is False
        assert result["certificate_slopes_check"] is True

    @pytest.mark.parametrize(
        "S", [[0, 0, 0, 0, 0], [1, 0, -1, -1, 0]], ids=["zero", "principal"]
    )
    def test_zero_class_shift_fails_slopes_check(self, tmp_path, capsys, S):
        # S of class zero: the subbundle from d0*D - S is the whole bundle,
        # and its slope ties with the ambient one vacuously
        fan = tmp_path / "bl2p2.json"
        fan.write_text(json.dumps({"rays": [list(r) for r in BL2P2_RAYS]}))
        report = tmp_path / "report.json"
        argv = ["analyze", "--fan", str(fan), "--D", "1,1,1,1,1", "--json"]
        assert main(argv + ["--out", str(report)]) == 0
        data = json.loads(report.read_text())
        data["verdict"] = "NotStable"
        data["certificate"].update(A=[2, 1, 1, 1, 1], S=S, d0=1)
        report.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["analyze", "--verify", str(report), "--json"]) == 1
        result = json.loads(capsys.readouterr().out)
        assert result["certificate_matches"] is False
        assert result["certificate_slopes_check"] is False

    def test_wrong_length_shift_is_input_error(self, tmp_path):
        report = self.rank6_report(tmp_path)
        data = json.loads(report.read_text())
        data["certificate"]["S"] = [1, 0, 0]
        report.write_text(json.dumps(data))
        assert main(["analyze", "--verify", str(report)]) == 2

    def test_differing_abstract_certificate(self, abstract_path, tmp_path, capsys):
        # a stored certificate that differs is checked on the Euler
        # characteristic route of the abstract surface
        report = tmp_path / "report.json"
        argv = ["analyze", "--surface", abstract_path, "--D", "3,3,5", "--json"]
        assert main(argv + ["--out", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["certificate"]["d0"] == 6
        for d0, slopes_hold in ((7, True), (5, False)):
            data["certificate"]["d0"] = d0
            report.write_text(json.dumps(data))
            assert main(["analyze", "--verify", str(report), "--json"]) == 1
            result = json.loads(capsys.readouterr().out)
            assert result["certificate_matches"] is False
            assert result["certificate_slopes_check"] is slopes_hold

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda r: r["echo"].pop("D"),
            lambda r: r["echo"].update(fan={"rays": 5}),
            lambda r: r["echo"].update(fan=5),
            lambda r: r.update(echo=5),
            lambda r: r["echo"].update(mode="frobnicate"),
            lambda r: r["echo"].pop("A"),
            lambda r: r["echo"].update(d="1"),
            lambda r: r["certificate"].pop("d0"),
            lambda r: r["certificate"].update(S=7),
            lambda r: r.update(certificate=5),
            lambda r: r.pop("verdict"),
        ],
        ids=[
            "no-D",
            "rays",
            "fan",
            "echo",
            "mode",
            "no-A",
            "string-d",
            "no-d0",
            "shift",
            "certificate",
            "no-verdict",
        ],
    )
    def test_malformed_report_is_input_error(self, f1_path, tmp_path, tamper):
        report = tmp_path / "report.json"
        argv = ["analyze", "--fan", f1_path, "--D", "8,9", "--A", "2,3", "--d", "1"]
        assert main(argv + ["--json", "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        tamper(data)
        report.write_text(json.dumps(data))
        assert main(["analyze", "--verify", str(report)]) == 2

    def test_byte_stable_output(self, f1_path, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        argv = ["analyze", "--fan", f1_path, "--D", "5,6", "--json"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestDestabilize:
    def test_no_destabilizer_found(self, p2_path, capsys):
        rc = main(
            [
                "destabilize",
                "--fan",
                p2_path,
                "--D",
                "3,0,0",
                "--A",
                "1,0,0",
                "--d",
                "1",
                "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "NoDestabilizerFound"

    def test_finds_section(self, f1_path, capsys):
        rc = main(
            [
                "destabilize",
                "--fan",
                f1_path,
                "--D",
                "8,9",
                "--A",
                "2,3",
                "--d",
                "1",
                "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["certificate"]["S"] == [0, 1, 0, 0]


    def test_missing_divisor_is_input_error(self, f1_path):
        argv = ["destabilize", "--fan", f1_path, "--A", "2,3", "--d", "1"]
        assert main(argv) == 2


class TestPolarize:
    def test_bl2p2(self, bl2_path, capsys):
        rc = main(
            ["polarize", "--fan", bl2_path, "--D", "1,1,1,1,1", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["polarization_integral"] == [8, 1, 8, 8, 8]
        assert data["epsilon"] == "1/8"
        assert data["alpha"] == "-7/8"
        assert data["nef_threshold"] == "1"

    def test_rank_gate(self, f1_path):
        assert main(["polarize", "--fan", f1_path, "--D", "5,6"]) == 2

    def test_low_rank_informational(self, f1_path, capsys):
        rc = main(
            [
                "polarize",
                "--fan",
                f1_path,
                "--D",
                "5,6",
                "--allow-low-rank",
                "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["nef_threshold"] == "5"
        assert data["epsilon"] == "1"
        assert any("rank" in note for note in data["notes"])

    @pytest.mark.parametrize(
        "rays, D", [(P2_RAYS, "1,1,1"), (hirzebruch_rays(0), "1,1,1,1")]
    )
    def test_no_negative_curve_is_input_error(self, tmp_path, capsys, rays, D):
        # the plane and the quadric have no curve to move D along, with or
        # without the rank waiver: the input decides it, so exit 2
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({"rays": [list(r) for r in rays]}))
        argv = ["polarize", "--fan", str(path), "--D", D]
        assert main(argv) == 2
        assert main(argv + ["--allow-low-rank"]) == 2
        assert "no effective generator" in capsys.readouterr().err


class TestSmallCommands:
    def test_hirzebruch_example(self, capsys):
        rc = main(["hirzebruch", "--ell", "1", "--a", "3/2", "--b", "9/8"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "UnstableForLargeD"

    @pytest.mark.parametrize("command", ["hirzebruch", "sweep"])
    def test_unprintable_result_is_input_error(self, command, capsys):
        # a 5001-digit slope is past the interpreter's str() digit limit
        assert main([command, "--ell", "1", "--a", "1e5000", "--b", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_h0_too_large_to_print(self, p2_path, capsys, fmt):
        # h0 = (d + 1)(d + 2)/2 has 4,400 digits for d = 10^2200
        argv = ["h0", "--fan", p2_path, "--D", "1e2200,0,0"]
        assert main(argv + fmt) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: result too large to print")

    def test_json_too_large_to_print(self, tmp_path, capsys):
        # the echoed A has entries one digit past the print limit, and
        # --json renders no text that would refuse them first
        fan = tmp_path / "bl2p2.json"
        fan.write_text(json.dumps({"rays": [list(r) for r in BL2P2_RAYS]}))
        huge = ",".join([f"1e{sys.get_int_max_str_digits()}"] * 5)
        argv = ["analyze", "--fan", str(fan), "--D", "2,2,2,2,2", "--A", huge]
        assert main(argv + ["--d", "1", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: result too large to print")

    def test_hirzebruch_not_ample(self, capsys):
        rc = main(["hirzebruch", "--ell", "2", "--a", "1", "--b", "3"])
        assert rc == 2

    def test_h0_conic(self, p2_path, capsys):
        rc = main(["h0", "--fan", p2_path, "--D", "2,0,0"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_h0_example(self, f1_path, capsys):
        rc = main(["h0", "--fan", f1_path, "--D", "8,9", "--sf"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "54"

    def test_classify(self, bl2_path, capsys):
        rc = main(["classify", "--fan", bl2_path, "--reduction", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["type"] == "Other"
        assert data["picard_rank"] == 3
        assert data["self_intersections"] == [0, -1, -1, -1, 0]
        assert data["reduction"]["minimal_type"] in (
            "Hirzebruch(0)",
            "Hirzebruch(1)",
            "ProjectivePlane",
        )


class TestSweep:
    def test_single_point(self, capsys):
        rc = main(["sweep", "--ell", "2", "--a", "6", "--b", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "ell,a,b,verdict,alpha,beta,d0,strict"
        assert lines[1].startswith("2,6,3,UnstableForLargeD,")

    def test_rows_match_pointwise_region(self, capsys):
        rc = main(
            [
                "sweep",
                "--ell",
                "1",
                "--a",
                "9/8:3",
                "--b",
                "9/8:2",
                "--step",
                "1/4",
                "--json",
            ]
        )
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) > 10
        from fractions import Fraction

        from syzstab import hirzebruch_region

        for row in rows:
            assert row["verdict"] == hirzebruch_region(
                row["ell"], Fraction(row["a"]), Fraction(row["b"])
            )
            if row["verdict"] == "UnstableForLargeD":
                assert row["d0"] >= 1

    def test_lowest_terms_rationals(self, capsys):
        rc = main(
            ["sweep", "--ell", "1", "--a", "2:2", "--b", "3/2:3/2", "--json"]
        )
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        for row in rows:
            for key in ("a", "b", "alpha", "beta"):
                text = str(row[key])
                if "/" in text:
                    num, den = text.split("/")
                    from math import gcd

                    assert gcd(int(num), int(den)) == 1
                    assert int(den) > 1

    def test_empty_grid(self, capsys):
        rc = main(["sweep", "--ell", "3", "--a", "1:2", "--b", "1:2"])
        assert rc == 2

    def test_grid_bound_counts_every_point(self, monkeypatch, capsys):
        # 2 ells times 3 values of a times 3 of b, points below ell included
        argv = ["sweep", "--ell", "1,2", "--a", "1:2", "--b", "2:3"]
        argv += ["--step", "1/2"]
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 18)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 17)
        assert main(argv) == 2
        assert "more than 17 points" in capsys.readouterr().err

    def test_degenerate_range(self, capsys):
        rc = main(["sweep", "--ell", "1", "--a", "3:3", "--b", "3/2:2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.split(",")[1] == "3" for line in lines[1:])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_integer_walk_matches_fraction_walk(self, data):
        # the points handed to the row core as numerators over q, for
        # ranges and a step drawn as non-reduced "p/q", decimals and
        # negative values, with a step that need not divide hi - lo, are
        # ref_grid's, and the grid bound refuses exactly past its count
        step = data.draw(st.builds(
            Fraction, st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 5, 8])
        ))
        ells = data.draw(st.sampled_from(["1", "1,3"]))
        argv, expected = ["sweep", "--ell", ells], []
        for axis in ("a", "b"):
            lo = data.draw(st.builds(
                Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 4, 6, 8])
            ))
            hi = lo + step * data.draw(st.integers(0, 12))
            hi += step * Fraction(data.draw(st.integers(0, 6)), 7)
            lo_text, hi_text = (data.draw(rational_texts(v)) for v in (lo, hi))
            argv.append(f"--{axis}={lo_text}:{hi_text}")
            expected.append(list(ref_grid(lo, hi, step)))
        argv.append("--step=" + data.draw(rational_texts(step)))
        points = len(ells.split(",")) * len(expected[0]) * len(expected[1])
        seen = []

        def record(ell, a_nums, b_nums, q):
            seen.append([ell] + [[Fraction(v, q) for v in nums] for nums in (a_nums, b_nums)])
            return iter(())

        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
            mp.setattr(cli, "_region_rows", record)
            mp.setattr(cli, "MAX_GRID_POINTS", points)
            assert main(argv) == 2  # no row: the empty-grid error
            assert seen == [[int(e)] + expected for e in ells.split(",")], argv
            mp.setattr(cli, "MAX_GRID_POINTS", points - 1)
            assert main(argv) == 2
        assert err.getvalue().splitlines() == [
            "error: no grid point satisfies the ampleness bounds a, b > ell",
            f"error: the grid has more than {points - 1} points; "
            "use a coarser --step or narrower ranges",
        ]
        assert len(seen) == len(ells.split(","))  # the refused grid reached no row


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert main(["hirzebruch", "--ell", "1", "--a", "2"]) == 2

    def test_decimal_strings_parse_exactly(self, capsys):
        # "1.5" means exactly 3/2 (no floating point on the way in), and
        # output sticks to p/q form regardless
        rc = main(
            ["hirzebruch", "--ell", "1", "--a", "1.5", "--b", "9/8", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["a"] == "3/2"
        assert data["verdict"] == "UnstableForLargeD"

    def test_malformed_rational_rejected(self):
        assert main(["hirzebruch", "--ell", "1", "--a", "x", "--b", "9/8"]) == 2


class TestExponentBound:
    """Decimal exponents are bounded by the interpreter's digit limit."""

    def test_bound_is_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert parse_rational(f"1e{limit}") == 10**limit
        assert parse_rational(f"1E-{limit}") == Fraction(1, 10**limit)
        assert parse_rational("2.5e2200") == 25 * 10**2199
        assert parse_rational(" 1_0e0_3 ") == 10_000
        for text in (f"1e{limit + 1}", f"1e-{limit + 1}", "1e+" + "9" * 40):
            with pytest.raises(InputError, match="exponent of"):
                parse_rational(text)
        with pytest.raises(InputError, match="not a rational number"):
            parse_rational("1e")

    @pytest.mark.parametrize("command", ["hirzebruch", "sweep"])
    def test_unprintable_result_at_the_bound(self, command, capsys):
        # 10^4300 parses, and has 4301 digits: one past the print limit
        limit = sys.get_int_max_str_digits()
        argv = [command, "--ell", "1", "--a", f"1e{limit}", "--b", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: result too large to print")


# parse_rational against Fraction(text.strip()), the parser it takes over
# from on plain integer and "[-]digits/digits" text
INT_LIMIT = sys.get_int_max_str_digits()
ORACLE_TABLE = [
    "3", "-3", " 12\t", "-0", "007", "+3", "1_000", "- 3", "--3", "3-",
    "3/4", "-6/8", "1.5", "2e3", "٣", "-٣٣", "²", "1/0", "", "-", "x",
    "9" * INT_LIMIT, "-" + "9" * INT_LIMIT, "9" * (INT_LIMIT + 1),
    # "p/q" and its neighbours: zero, unreduced and signed terms, spaces,
    # underscores, non-ASCII digits and terms past the digit limit
    "1/00", "-3/0", "0/5", "-0/3", "4/2", "7/1", "007/010", " 3/8 ",
    "\t3/8\n", "+3/2", "1_0/3", "3/1_0", "٣/8", "3/٨", "²/3", "3/-2", "-/3",
    "3/", "/3", "3//2", "3/2/1", "- 3/2", "--3/2",
    "+1/2", " 1/2 ", "1/0", "-0/5", "١/٢", "-١٢/٣",
    "9" * (INT_LIMIT + 1) + "/3", "3/" + "9" * (INT_LIMIT + 1),
    "-" + "9" * (INT_LIMIT + 1) + "/0", "9" * INT_LIMIT + "/" + "9" * INT_LIMIT,
]
oracle_texts = st.one_of(
    st.text(alphabet=" \t -+_/.0123456789٣²x", max_size=12),
    st.builds(
        str.__add__,
        st.sampled_from(["", "-", "+", " "]),
        st.integers(INT_LIMIT - 1, INT_LIMIT + 1).map("9".__mul__),
    ),
    st.builds(
        "{}{}{}/{}{}".format,
        st.sampled_from(["", " ", "-", "+", "--"]),
        st.sampled_from(["", "0", "00"]),
        st.text(alphabet="0123456789٣_", max_size=6),
        st.text(alphabet="0123456789٨_-", max_size=6),
        st.sampled_from(["", " ", "\t"]),
    ),
)


def check_against_fraction(text):
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputError) as info:
            parse_rational(text)
        assert str(info.value) == f"not a rational number: {text!r}"
        return
    value = parse_rational(text)
    assert value == expected
    plain = re.fullmatch(r"-?\d+", text.strip()) is not None
    assert type(value) is (int if plain else Fraction), text


@pytest.mark.parametrize("text", ORACLE_TABLE, ids=range(len(ORACLE_TABLE)))
def test_parse_rational_oracle_table(text):
    check_against_fraction(text)


@settings(max_examples=600, deadline=None)
@given(oracle_texts)
def test_parse_rational_oracle(text):
    check_against_fraction(text)


@pytest.mark.parametrize("n, d", [
    (0, 1), (-7, 1), (17, 6), (-3, 2),
    (10**INT_LIMIT, 3), (-(10**INT_LIMIT), 1), (1, 10**INT_LIMIT),
], ids=["zero", "int", "ratio", "negative", "long-n", "long-int", "long-d"])
def test_format_rational_pair_matches_fraction(n, d):
    # sweep prints its grid points as (n, d) pairs in lowest terms: each
    # prints as Fraction(n, d) does, or is refused with the same InputError
    try:
        expected = format_rational(Fraction(n, d))
    except InputError as exc:
        with pytest.raises(InputError) as info:
            format_rational(n, d)
        assert str(info.value) == str(exc)
        return
    assert format_rational(n, d) == expected


def refuse(*args):
    raise AssertionError("built an output form that is not printed")


PRINTED_FORM_ARGV = pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--fan", "{f1}", "--D", "5,6"],
        ["analyze", "--fan", "{f1}", "--D", "5,6", "--A", "2,3", "--d", "2"],
        ["polarize", "--fan", "{rank6}", "--D", "3,4,2,4,3,3,3,3"],
        ["classify", "--fan", "{rank6}", "--reduction"],
        ["sweep", "--ell", "1,2", "--a", "9/8:4", "--b", "9/8:3", "--step", "1/2"],
    ],
    ids=["analyze", "fixed-exponent", "polarize", "classify", "sweep"],
)


def run_refusing(argv, refused, f1_path, tmp_path, monkeypatch):
    """main on argv with the cli helpers named in refused made to fail: a
    function fails when called, a sweep form when unpacked."""
    rank6 = tmp_path / "rank6.json"
    rank6.write_text(json.dumps({"rays": [list(r) for r in RANK6_RAYS]}))
    paths = {"f1": f1_path, "rank6": str(rank6)}
    for helper in refused:
        monkeypatch.setattr(cli, helper, refuse)
    return main([arg.format(**paths) for arg in argv])


@PRINTED_FORM_ARGV
def test_json_renders_no_text(argv, f1_path, tmp_path, monkeypatch, capsys):
    text_helpers = (
        "_render_report", "_render_polarization", "_render_classification",
        "_SWEEP_CSV", "_pretty_divisor",
    )
    argv = argv + ["--json"]
    assert run_refusing(argv, text_helpers, f1_path, tmp_path, monkeypatch) == 0
    json.loads(capsys.readouterr().out)


@PRINTED_FORM_ARGV
def test_text_builds_no_json(argv, f1_path, tmp_path, monkeypatch, capsys):
    json_helpers = (
        "_report_jsonable", "_echo", "_polarization_jsonable", "dumps_canonical",
        "_SWEEP_JSON",
    )
    assert run_refusing(argv, json_helpers, f1_path, tmp_path, monkeypatch) == 0
    assert not capsys.readouterr().out.startswith("{")
