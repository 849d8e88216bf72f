"""``sweep`` writes its rows as it finds them: the same bytes as the
reference writer that kept every row (``conftest.ref_sweep``), memory that
does not grow with the grid, and nothing written when it exits 2."""

import contextlib
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzstab import cli

from conftest import rational_texts, ref_sweep, run_main, sweep_run_by

LIMIT = sys.get_int_max_str_digits()
# 900 digits: past what the print bound can tell, yet every row prints
BIG = "9" * 900
# on the 62,001-point grid of test_memory_is_bounded the reference writer
# peaks at about 112 MB of traced memory, the streaming writer at 0.3 MB;
# on its 20,001-point grid of one a, a row core that kept the b axis in a
# list peaked at 3.6 MB, the one that walks it anew for each a at 0.4 MB
MEMORY_BOUND = 1_000_000

small_values = st.builds(Fraction, st.integers(-8, 48), st.sampled_from([1, 2, 4, 8]))


@st.composite
def axes(draw, step):
    """--a or --b: one value or a range of up to 8 steps, now and then a
    huge value, one past the print limit or a negative one."""
    huge = [BIG, f"{BIG}/7", f"1e{LIMIT}", f"-1e{LIMIT}", f"3/{BIG}"]
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(huge))
    lo = draw(small_values)
    if draw(st.booleans()):
        return draw(rational_texts(lo))
    hi = lo + step * draw(st.integers(0, 8)) + draw(st.sampled_from([0, step / 3]))
    return f"{draw(rational_texts(lo))}:{draw(rational_texts(hi))}"


@st.composite
def sweep_argvs(draw):
    step = draw(st.builds(Fraction, st.integers(1, 6), st.sampled_from([1, 2, 4, 8])))
    ells = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    argv = ["sweep", "--ell", ",".join(map(str, ells))]
    argv += [f"--a={draw(axes(step))}", f"--b={draw(axes(step))}"]
    argv.append(f"--step={draw(rational_texts(step))}")
    if draw(st.booleans()):
        argv.append("--json")
    return argv, draw(st.booleans())


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep") / "report"


def both_writers(argv, out_path=None):
    """run_main's results under the streaming writer and the reference;
    an --out file holds earlier bytes before each run."""
    results = []
    for func in (cli._cmd_sweep, ref_sweep):
        if out_path is not None:
            out_path.write_bytes(b"an earlier report\n")
        with sweep_run_by(func):
            results.append(run_main(argv, out_path))
    return results


@settings(max_examples=300, deadline=None)
@given(sweep_argvs())
def test_same_bytes_as_the_reference(out_path, case):
    argv, to_file = case
    if to_file:
        argv = argv + ["--out", str(out_path)]
    streamed, reference = both_writers(argv, out_path if to_file else None)
    assert streamed == reference, argv


def test_every_kind_of_row():
    # both verdicts, and strict and tied certificates (a = 5/2, b = 3/2)
    argv = ["sweep", "--ell", "1,2", "--a", "9/8:5", "--b", "9/8:4", "--step", "1/8"]
    streamed, reference = both_writers(argv + ["--json"])
    assert streamed == reference
    assert '"d0": null' in streamed[1] and '"strict": true' in streamed[1]
    assert '"strict": false' in streamed[1]


class RowCounter:
    """A stdout that counts JSON rows and keeps nothing."""

    rows = 0

    def write(self, text):
        self.rows += text.count('"ell": ')

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


def test_memory_is_bounded():
    # a square grid, and one a over 20,001 values of b
    for axes, rows in [
        (["--a", "9/8:5", "--b", "9/8:5", "--step", "1/64"], 249 * 249),
        (["--a", "3", "--b", "2:2502", "--step", "1/8"], 20_001),
    ]:
        sink = RowCounter()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(["sweep", "--ell", "1", *axes, "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0 and sink.rows == rows, axes
        assert peak < MEMORY_BOUND, (axes, peak)


NO_OUTPUT = {
    "number-too-long": ["sweep", "--ell", "1", "--a", "3", "--b", f"1e{LIMIT}"],
    # beta = 11 - 5a on F_1 at b = 3 passes the limit at a = 2 * 10**(LIMIT
    # - 1), row 286 of a = 2 + 7k * 10**(LIMIT - 4): the rows of the first
    # batch print, and only the discarded pass keeps them from the output
    "number-too-long-late": [
        "sweep", "--ell", "1", f"--a=2:21e{LIMIT - 2}", "--b", "3", f"--step=7e{LIMIT - 4}",
    ],
    "empty-grid": ["sweep", "--ell", "3", "--a", "1:2", "--b", "1:4"],
}


@pytest.mark.parametrize("form", [[], ["--json"]], ids=["csv", "json"])
@pytest.mark.parametrize("argv", NO_OUTPUT.values(), ids=NO_OUTPUT.keys())
def test_exit_2_writes_nothing(argv, form, tmp_path):
    out = tmp_path / "report"
    out.write_bytes(b"an earlier report\n")
    rc, stdout, err, _ = run_main(argv + form)
    assert (rc, stdout) == (2, "") and err.startswith("error: ")
    rc, stdout, err, report = run_main(argv + form + ["--out", str(out)], out)
    assert (rc, stdout, report) == (2, "", b"an earlier report\n")


@pytest.mark.parametrize("argv, passes", [
    # the bound tells that every number prints: one pass, into the target
    (["sweep", "--ell", "1,2", "--a", "9/8:5", "--b", "9/8:4", "--step", "1/4"], 1),
    # 900-digit b or a: the bound cannot tell, but every number prints,
    # in rows in and out of the region
    (["sweep", "--ell", "1", "--a", "3:4", "--b", BIG], 2),
    (["sweep", "--ell", "1,2", "--a", BIG, "--b", "3/2:4", "--step", "1/2"], 2),
])
@pytest.mark.parametrize("form", [[], ["--json"]], ids=["csv", "json"])
def test_discarded_pass_where_the_bound_cannot_tell(argv, passes, form, monkeypatch, tmp_path):
    calls = []
    report = cli._sweep_report

    def counted(*args):
        calls.append(args)
        return report(*args)

    monkeypatch.setattr(cli, "_sweep_report", counted)
    out = tmp_path / "report"
    streamed, reference = both_writers(argv + form + ["--out", str(out)], out)
    assert streamed == reference and streamed[0] == 0
    assert len(calls) == passes
