"""syzstab benchmark: one closed-loop client driving ``syzstab.cli.main``.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Builds the workload's round of ops from ``--seed``, sets up (imports
``syzstab.cli`` and loads every input fan, several times, in fresh
interpreters), then runs whole rounds in one thread, one op at a time,
until ``--seconds`` have passed (at least MIN_ROUNDS rounds).  Each op's
time is scaled to a reference speed of the machine by a calibration loop
timed around it, and its latency is the median of those times over the
rounds.  Every report is checked against the independent checker in
``check.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run (see
``spans.py``) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")

# Per-op time limit, at the reference speed.  The slowest op that succeeds
# in any workload takes about 0.4 s; the fan of fault 1 takes 153 s.
OP_LIMIT_S = 3.0
# The machine shares its cores, and its speed drifts by 20-30% over
# minutes.  A fixed calibration loop, timed just before and just after
# every op, tracks that speed, and op times are scaled to the reference
# speed: the speed at which the loop takes CAL_REF_S.  One 1-ms timing of
# the loop reads up to 25% off, while the speed changes over seconds, so
# an op is scaled by the median of the timings within SPEED_WINDOW_S of it.
CAL_REF_S = 0.001
CAL_TERMS = 300
SPEED_WINDOW_S = 0.5
# set-up is timed once in this interpreter and once in each child
SETUP_CHILDREN = 8
# every op is timed at least this often, so that its median means something
MIN_ROUNDS = 3

sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that exceeds OP_LIMIT_S.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


def _load_inputs(fan_paths):
    """The program's own set-up work: import, then load and validate every fan."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from syzstab import cli, divisors, files  # noqa: F401

    import_s = time.perf_counter() - t0
    for path in fan_paths:
        divisors.ToricSurface(files.load_fan(path))
    return import_s, time.perf_counter() - t0


def _scaled_setup(fan_paths):
    """(raw import seconds, set-up seconds at the reference speed)."""
    before = _calibrate()
    import_s, total = _load_inputs(fan_paths)
    return import_s, total * CAL_REF_S / ((before + _calibrate()) / 2)


def _setup_child(listing: str) -> None:
    with open(listing, encoding="utf-8") as fh:
        paths = json.load(fh)
    print(repr(_scaled_setup(paths)[1]))


def _child_setups(paths, workdir):
    listing = os.path.join(workdir, "fans.json")
    with open(listing, "w", encoding="utf-8") as fh:
        json.dump(paths, fh)
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-child", listing],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _calibrate() -> float:
    """Seconds the calibration loop takes: exact fractions, integers, lists."""
    t0 = time.perf_counter()
    s = Fraction(0)
    acc = []
    for i in range(1, CAL_TERMS):
        s += Fraction(i % 7 + 1, i)
        acc.append((s.numerator * 31 + i) % 1000003)
    acc.sort()
    return time.perf_counter() - t0


def _run_op(main, op, cal):
    """One op; returns (start, seconds, failure reason or None).

    Times the calibration loop just before and just after the op, and
    appends both to ``cal`` as (when it ended, seconds).  The time limit is
    set from the first, at the reference speed; an op cut at the limit
    took the limit at that speed, and returns None for its seconds.
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(op.out)
    err = io.StringIO()
    reason = None
    before = _calibrate()
    cal.append((time.perf_counter(), before))
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S * before / CAL_REF_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            rc = main(op.argv)
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if rc != 0:
            lines = err.getvalue().strip().splitlines() or [""]
            reason = f"exit {rc}: {lines[-1]}"
    except OpTimeout:
        elapsed = None
        reason = f"over the {OP_LIMIT_S:g} s time limit"
    except Exception as exc:  # a crash of the program is a failed op
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        reason = f"{type(exc).__name__}: {exc}"
    after = _calibrate()
    cal.append((time.perf_counter(), after))
    return t0, elapsed, reason


def _scale(attempts, cal):
    """Each attempt's seconds at the reference speed (see SPEED_WINDOW_S)."""
    when = [t for t, _ in cal]
    out = []
    for _, t0, elapsed, _ in attempts:
        if elapsed is None:
            out.append(OP_LIMIT_S)
            continue
        lo = bisect.bisect_left(when, t0 - SPEED_WINDOW_S)
        hi = bisect.bisect_right(when, t0 + elapsed + SPEED_WINDOW_S)
        out.append(elapsed * CAL_REF_S / statistics.median(s for _, s in cal[lo:hi]))
    return out


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(args) -> int:
    signal.signal(signal.SIGALRM, _alarm)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run_in(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_in(args, workdir) -> int:
    rnd = workloads.build(args.workload, args.seed, workdir)
    if not os.path.isdir(os.path.join(SRC, "syzstab")):
        print(f"error: no syzstab sources under {SRC}", file=sys.stderr)
        return 2
    import_s, setup0 = _scaled_setup(rnd.fans)
    setup = [setup0] + _child_setups(rnd.fans, workdir)

    from syzstab import cli

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        missing = tracer.install()
        if missing:
            print(f"trace: not wrapped (absent): {', '.join(missing)}")
        _load_inputs(rnd.fans)  # the set-up work once more, now traced

    attempts = []  # (op index, start, seconds, failure reason or None)
    cal = []  # calibration timings around the ops
    failures: dict[str, list] = {}
    mismatches: list[str] = []
    reports: dict[int, bytes] = {}  # first-round report of each op
    rounds = 0
    t_loop = time.perf_counter()
    # whole rounds only, as many as fit in --seconds (at least MIN_ROUNDS)
    while rounds < MIN_ROUNDS or (time.perf_counter() - t_loop) * (rounds + 1) / rounds <= args.seconds:
        for k, op in enumerate(rnd.ops):
            if tracer is not None:
                tracer.op_id = k
            t0, elapsed, reason = _run_op(cli.main, op, cal)
            attempts.append((k, t0, elapsed, reason))
            if reason is not None:
                failures.setdefault(op.label, [reason, 0])[1] += 1
                continue
            with open(op.out, "rb") as fh:
                raw = fh.read()
            # the program is deterministic: every round must repeat the
            # first one byte for byte
            if reports.setdefault(k, raw) != raw:
                mismatches.append(f"{op.label}: report changed in round {rounds + 1}")
        rounds += 1
    loop_s = time.perf_counter() - t_loop
    if tracer is not None:
        tracer.op_id = -1

    # check the reports after the timed loop, so that checking does not
    # disturb the timings
    d0_sum = out_bytes = 0
    for k, raw in reports.items():
        op = rnd.ops[k]
        try:
            data = json.loads(raw)
            check.check_op(op.kind, data, op.ctx)
            d0_sum += _d0_total(op.kind, data)
        except (check.CheckError, KeyError, TypeError, ValueError) as exc:
            mismatches.append(f"{op.label}: {type(exc).__name__}: {exc}")
        out_bytes += len(raw)

    attempted = rounds * len(rnd.ops)
    failed = sum(count for _, count in failures.values())
    # Besides its drift, the machine stalls for a second or more at a time.
    # A median over the rounds gives each op its typical time and leaves
    # the stalls out; a mean over the loop would let one stall move the
    # whole run.  So the latencies are per-op medians, and ops_per_s is the
    # ops that succeeded in a round over the round's time at those medians
    # (failed ops' time included), all at the reference speed.
    times = [[] for _ in rnd.ops]  # every time of each op, at the reference speed
    ok_times = [[] for _ in rnd.ops]  # the times of its successes
    for (k, _, _, reason), t in zip(attempts, _scale(attempts, cal)):
        times[k].append(t)
        if reason is None:
            ok_times[k].append(t)
    ok_ms = [statistics.median(ts) * 1e3 for ts in ok_times if ts]
    round_s = sum(statistics.median(ts) for ts in times)
    ops_per_s = (attempted - failed) / rounds / round_s
    for label, (reason, count) in sorted(failures.items()):
        print(f"failed: {label} x{count}: {reason}")
    for line in mismatches[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {rounds} rounds of {len(rnd.ops)} ops,"
        f" {attempted - failed} ok, {failed} failed, {len(mismatches)} mismatches,"
        f" {ops_per_s:.2f} ops/s, loop {loop_s:.1f} s,"
        f" speed {CAL_REF_S / statistics.median(s for _, s in cal):.3f} of the reference"
    )
    if len(ok_ms) < 100:
        print(f"warning: {len(ok_ms)} ops succeeded: fewer than ten beyond p90")

    if tracer is not None:
        dump = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.dump(dump)
        values = tracer.per_layer(rounds)
        values["cli.import_ms"] = import_s * 1e3
        # reports are read in the first round only, so these are per round
        values["stability.d0.sum"] = d0_sum
        values["files.out_bytes"] = out_bytes
        verify_ms = [statistics.median(ts) * 1e3 for ts, op in zip(ok_times, rnd.ops)
                     if ts and op.kind == "verify"]
        values["cli.verify.ms.p50"] = statistics.median(verify_ms) if verify_ms else 0.0
        metrics = {k: {"value": values[k], "unit": spans.UNITS[k]} for k in spans.ORDER}
        print(f"trace: {len(tracer.start)} spans in {dump}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_ms.p50": {"value": _quantile(ok_ms, 50), "unit": "ms"},
            "op_ms.p90": {"value": _quantile(ok_ms, 90), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    suffix = "-trace" if args.trace else ""
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}{suffix}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


def _d0_total(kind, data):
    if kind == "sweep":
        return sum(row["d0"] or 0 for row in data["rows"])
    cert = data.get("certificate")
    return cert["d0"] if cert else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        _setup_child(args.setup_child)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
