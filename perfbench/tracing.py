"""Per-layer spans recorded around the program's public functions.

``Tracer.install`` wraps, from outside, the public functions and methods of
each trioct layer (and every module binding that refers to them); it edits
no source file and ``uninstall`` restores the originals.  A span records
its name, its parent span, its duration and its self time (duration minus
the time its child spans cover).  Spans are aggregated in memory per name
and per parent -> child edge as they close, so a run of millions of calls
keeps a small footprint.  A few hot scalar helpers are only counted.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from workloads import LAYERS

# hot helpers called per component: counted, never timed
COUNT_ONLY = {"scalars.variant_of", "scalars.zero", "scalars.one", "octonion.init"}
# the root-based closed forms, reported as one group
NUMERIC = {"oct_binet", "binet_term", "norm_formula_complex", "norm_formula", "quad_approx",
           "quad_residual", "power_octonion"}
ARITHMETIC = {"__add__": "add", "__sub__": "sub", "__neg__": "neg", "__rmul__": "scalar_mul"}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("octonion.mul.rational.us", "us"),
    ("octonion.mul.int.us", "us"),
    ("octonion.mul.calls", "count"),
    ("octonion.mul.scalar_ops", "count"),
    ("octonion.mul.int.operand_bits", "bits"),
    ("octonion.init.calls", "count"),
    ("octonion.add.self_s", "s"),
    ("octonion.scalar_mul.self_s", "s"),
    ("scalars.variant_of.calls", "count"),
    ("scalars.format_scalar.calls", "count"),
    ("scalars.format_scalar.self_s", "s"),
    ("sequences.seq_term.calls", "count"),
    ("sequences.seq_term.self_s", "s"),
    ("sequences.u_term.self_s", "s"),
    ("sequences.prefix_sum.self_s", "s"),
    ("sequences.partial_sum_formula.self_s", "s"),
    ("sequences.companion_identity.self_s", "s"),
    ("octseq.shift_formula.calls", "count"),
    ("octseq.shift_formula.self_s", "s"),
    ("octseq.sum_octonions.self_s", "s"),
    ("octseq.sum_correction.calls", "count"),
    ("octseq.sum_correction.useful_ratio", "ratio"),
    ("octseq.oct_term.calls", "count"),
    ("octseq.oct_term.self_s", "s"),
    ("octseq.oct_prefix_sum.self_s", "s"),
    ("octseq.recurrence_check.self_s", "s"),
    ("octseq.numeric.self_s", "s"),
    ("cubic.cubic_roots.self_s", "s"),
    ("cubic.binet_scalar.self_s", "s"),
    ("genfunc.gf_expand.self_s", "s"),
    ("genfunc.gf_numerator.self_s", "s"),
    ("verify.run_suite.self_s", "s"),
    ("verify.checks.run", "count"),
    ("verify.checks.per_s", "1/s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("cli.process_overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    def __init__(self, program: dict):
        self.program = program
        self.octonion_type = program["octonion"].Octonion
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.edges: dict[tuple[str | None, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.mul_self: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])  # per variant: calls, self
        self.scalar_ops = 0
        self.int_bits = 0.0
        self.correction_families: set = set()

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, fn, on_close=None):
        stats, edges, stack = self.stats, self.edges, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:  # a layer function calling itself
                return fn(*args, **kwargs)
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                own = duration - frame[2]
                rec = stats[name]
                rec[0] += 1
                rec[1] += duration
                rec[2] += own
                if stack:
                    stack[-1][2] += duration
                edges[stack[-1][0] if stack else None, name] += 1
                if on_close is not None:
                    on_close(args, own)

        return wrapper

    def root(self, name: str):
        """A span around one benchmark operation, parent of everything it calls."""
        return self.span(name, lambda f: f())

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mul(self, fn):
        octonion_type = self.octonion_type
        product = self.span("octonion.mul", fn, self._record_product)
        scaled = self.span("octonion.scalar_mul", fn)

        @functools.wraps(fn)
        def wrapper(a, b):
            return (product if isinstance(b, octonion_type) else scaled)(a, b)

        return wrapper

    def _record_product(self, args, own: float) -> None:
        a, b = args[0].components, args[1].components
        rec = self.mul_self[args[0].variant]
        rec[0] += 1
        rec[1] += own
        self.scalar_ops += sum(1 for c in a if c) * sum(1 for c in b if c)
        if args[0].variant == "int":
            self.int_bits += sum(abs(c).bit_length() for c in a + b) / 16

    def _record_correction(self, args, own: float) -> None:
        self.correction_families.add(args[0])

    # -- installing -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self.counter(name, fn)
        if name == "octseq.sum_correction":
            return self.span(name, fn, self._record_correction)
        return self.span(name, fn)

    def install(self) -> None:
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = self.program[layer]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    name = f"{layer}.{'numeric' if attr in NUMERIC else attr}"
                    replaced[id(value)] = self._wrap(name, value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._install_class(layer, value)
        # rebind every module-level reference, including `from x import f` copies
        for module_name, module in list(sys.modules.items()):
            if module_name == "trioct" or module_name.startswith("trioct."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replaced:
                        self._patch(module, attr, replaced[id(value)])

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if cls is self.octonion_type and attr == "__init__":
                self._patch(cls, attr, self._wrap("octonion.init", value))
            elif cls is self.octonion_type and attr == "__mul__":
                self._patch(cls, attr, self._mul(value))
            elif attr in ARITHMETIC:
                self._patch(cls, attr, self.span(f"{layer}.{ARITHMETIC[attr]}", value))
            elif attr.startswith("_"):
                continue
            elif isinstance(value, (classmethod, staticmethod)):
                name = f"{layer}.{attr}"
                self._patch(cls, attr, type(value)(self._wrap(name, value.__func__)))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(f"{layer}.{'numeric' if attr in NUMERIC else attr}", value))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-layer numbers ----------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Per-layer values of the spans recorded since the last reset."""
        out: dict[str, float] = {}
        for name, (calls, _total, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = own
        for name, calls in self.counts.items():
            out[f"{name}.calls"] = calls
        for variant, (calls, own) in self.mul_self.items():
            out[f"octonion.mul.{variant}.us"] = own / calls * 1e6
        out["octonion.mul.scalar_ops"] = self.scalar_ops
        int_calls = self.mul_self["int"][0] if "int" in self.mul_self else 0
        out["octonion.mul.int.operand_bits"] = self.int_bits / int_calls if int_calls else 0.0
        corrections = out.get("octseq.sum_correction.calls", 0)
        out["octseq.sum_correction.useful_ratio"] = (
            len(self.correction_families) / corrections if corrections else 0.0
        )
        return out

    def edge_table(self) -> list[tuple[str | None, str, int]]:
        return sorted(((p, c, n) for (p, c), n in self.edges.items()), key=lambda e: (e[0] or "", e[1]))


def per_layer_metrics(snapshots: list[dict[str, float]]) -> dict[str, float]:
    """Median over repetitions of each per-layer value; absent values read 0."""
    return {
        name: statistics.median(s.get(name, 0) for s in snapshots)
        for name, _unit in PER_LAYER
    }
