"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.install`` replaces the public functions of each layer (modules
``fan``, ``divisors``, ``stability``, ``files`` and ``cli``) with
wrappers that record one span per call: a name, a start, an end, the
enclosing span and the id of the benchmark op that caused it.  Names a
module imported from another module at load time (``cli`` imports from
``stability`` and ``files``) are replaced there too.  Spans stay in
memory until the run ends; ``per_layer`` then derives counts and self
times (a span's duration minus the part its child spans cover).
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "files.load.self_ms": ("files.load_fan",),
    "fan.validate.self_ms": ("fan.Fan",),
    "fan.reduce.self_ms": ("fan.reduce_to_minimal",),
    "divisors.vertices.self_ms": ("divisors.vertices",),
    "divisors.h0.self_ms": (
        "divisors.h0",
        "divisors.lattice_point_count",
        "divisors.chi",
    ),
    "divisors.pair.self_ms": ("divisors.pair", "divisors.pair_generator"),
    "stability.d_threshold.self_ms": ("stability.d_threshold",),
    "stability.alpha_beta.self_ms": ("stability.alpha_beta",),
    "stability.find_destabilizer.self_ms": ("stability.find_destabilizer",),
    "stability.polarization.self_ms": ("stability.construct_polarization",),
    "files.dumps.self_ms": ("files.dumps_canonical",),
    "cli.self_ms": ("cli.main",),
}
# per-layer metric -> span names whose calls it counts
CALLS = {
    "divisors.h0.calls": ("divisors.h0",),
    "divisors.pair.calls": ("divisors.pair", "divisors.pair_generator"),
    "stability.slope_compare.calls": ("stability.slope_compare",),
}
# counters filled by hooks on the wrapped functions
COUNTERS = ("divisors.lattice_rows", "stability.epsilon_steps")
# the runner adds these, read from the reports and the op timings
FROM_RUNNER = ("stability.d0.sum", "files.out_bytes", "cli.verify.ms.p50")
ORDER = ["cli.import_ms", *SELF_TIME, *CALLS, *COUNTERS, *FROM_RUNNER]
UNITS = {name: ("ms" if name.endswith("ms") or ".ms." in name else "count") for name in ORDER}


def _floor(q):
    return q.numerator // q.denominator


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1  # -1 while setting up
        self.counters = {name: [0, 0] for name in COUNTERS}  # [setup, ops]

    def count(self, name: str, value: int) -> None:
        self.counters[name][self.op_id >= 0] += value

    def _wrap(self, span: str, fn, after=None):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        stack = self._stack

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0)
            stack.append(i)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def install(self) -> list[str]:
        """Wrap every layer boundary; returns the names of missing targets."""
        fan = sys.modules["syzstab.fan"]
        divisors = sys.modules["syzstab.divisors"]
        stability = sys.modules["syzstab.stability"]
        files = sys.modules["syzstab.files"]
        cli = sys.modules["syzstab.cli"]
        missing = []
        replaced = {}

        def swap_function(module, attr, span, after=None):
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
                return
            replaced[id(fn)] = (fn, self._wrap(span, fn, after))

        def swap_method(cls, attr, span, after=None):
            fn = cls.__dict__.get(attr)
            if fn is None:
                missing.append(f"{cls.__name__}.{attr}")
                return
            if isinstance(fn, property):
                setattr(cls, attr, property(self._wrap(span, fn.fget, after)))
            else:
                setattr(cls, attr, self._wrap(span, fn, after))

        Polytope = divisors.Polytope
        vertices = Polytope.__dict__["vertices"].fget

        def rows_after(args, _result):
            verts = vertices(args[0])
            if verts:
                ys = [v[1] for v in verts]
                top, bottom = _floor(max(ys)), -_floor(-min(ys))
                self.count("divisors.lattice_rows", max(0, top - bottom + 1))

        def epsilon_after(_args, pol):
            eps = pol.epsilon
            self.count(
                "stability.epsilon_steps",
                (eps.denominator // eps.numerator).bit_length(),
            )

        swap_method(fan.Fan, "__init__", "fan.Fan")
        swap_function(fan, "reduce_to_minimal", "fan.reduce_to_minimal")
        for attr in ("pair", "pair_generator", "h0", "chi"):
            swap_method(divisors.ToricSurface, attr, f"divisors.{attr}")
        swap_method(Polytope, "vertices", "divisors.vertices")
        swap_method(
            Polytope,
            "lattice_point_count",
            "divisors.lattice_point_count",
            rows_after,
        )
        for attr, fn in list(vars(stability).items()):
            if (
                callable(fn)
                and not attr.startswith("_")
                and not isinstance(fn, type)
                and getattr(fn, "__module__", None) == stability.__name__
            ):
                after = epsilon_after if attr == "construct_polarization" else None
                swap_function(stability, attr, f"stability.{attr}", after)
        swap_function(files, "load_fan", "files.load_fan")
        swap_function(files, "dumps_canonical", "files.dumps_canonical")
        swap_function(cli, "main", "cli.main")

        # rebind every module-level name that refers to a wrapped function
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "syzstab" and not mod_name.startswith("syzstab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        return missing

    # -- reports ---------------------------------------------------------------

    def per_layer(self, rounds: int) -> dict:
        """Span metrics for one set-up plus one round of ops."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        nnames = len(self.names)
        self_ns = [[0, 0] for _ in range(nnames)]
        calls = [[0, 0] for _ in range(nnames)]
        for i in range(n):
            phase = self.op[i] >= 0
            k = self.name[i]
            self_ns[k][phase] += dur[i] - child[i]
            calls[k][phase] += 1
        ids = self._name_ids

        def total(pairs, spans, scale):
            setup = sum(pairs[ids[s]][0] for s in spans if s in ids)
            ops = sum(pairs[ids[s]][1] for s in spans if s in ids)
            return (setup + ops / rounds) * scale

        out = {}
        for metric, spans in SELF_TIME.items():
            out[metric] = total(self_ns, spans, 1e-6)
        for metric, spans in CALLS.items():
            out[metric] = total(calls, spans, 1)
        for metric in COUNTERS:
            setup, ops = self.counters[metric]
            out[metric] = setup + ops / rounds
        for metric, value in out.items():
            if UNITS[metric] == "count" and value == int(value):
                out[metric] = int(value)
        return out

    def dump(self, path) -> None:
        """Write every span as a tab-separated line, times relative to the first."""
        n = len(self.start)
        t0 = self.start[0] if n else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tdur_ns\n")
            names = self.names
            for i in range(n):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{names[self.name[i]]}"
                    f"\t{self.start[i] - t0}\t{self.end[i] - self.start[i]}\n"
                )
