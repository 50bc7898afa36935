"""Outside-in tracing of cubicloop's layers.

Wrappers are installed on the module attributes the program's own callers
look functions up by (``cubicloop.moufang.chord``, ``RingElt.__mul__``, ...),
so no file of the program changes.  Span wrappers record
``(name, start, end, parent, op, exception)`` in memory; counting wrappers,
used for the ring operators that run about a million times per op, only
count.  Per-layer metrics are derived from the spans of one op at a time.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter
from time import perf_counter

MODULES = ("eisenstein", "surface", "moufang", "cli")

# Ring arithmetic (L0): counted, no spans.  __rsub__ is not wrapped: it
# dispatches to __sub__, which counts it.
OPERATORS = {
    "eisenstein.mul": ("__mul__", "__rmul__"),
    "eisenstein.add": ("__add__", "__radd__"),
    "eisenstein.sub": ("__sub__",),
}
COUNTED_FUNCTIONS = ("eisenstein.to_digits", "eisenstein.divide_by_pi", "eisenstein.invert")

# Geometry (L1), table build (L2), admissibility (L3), verification (L4)
# and the CLI export (L5): one span per call.
SPANNED_FUNCTIONS = (
    "surface.chord",
    "surface.normalize",
    "surface.random_lift",
    "surface.lift_representative",
    "moufang.build_class_table",
    "moufang.compose_classes",
    "moufang.class_of_form",
    "moufang.check_admissibility",
    "moufang.loop_from",
    "moufang.verify_quasigroup",
    "moufang.verify_cml",
    "moufang.exponent",
    "moufang.nucleus",
    "moufang.associator_mask",
    "moufang.find_nonassoc",
    "moufang.ch_check",
    "cli.export_table",
)
CALLS = (
    "surface.chord",
    "surface.normalize",
    "surface.random_lift",
    "surface.lift_representative",
    "moufang.compose_classes",
    "moufang.class_of_form",
)
SELF = ("moufang.compose_classes", "moufang.build_class_table")

# (metric, unit) for every per-layer metric, in report order.
PER_LAYER = (
    [(name, "count") for name in (*OPERATORS, *COUNTED_FUNCTIONS)]
    + [(f"{name}.calls", "count") for name in CALLS]
    + [(f"{name}.busy_s", "s") for name in SPANNED_FUNCTIONS]
    + [(f"{name}.self_s", "s") for name in SELF]
    + [
        ("surface.chord.precision_exhausted", "count"),
        ("surface.normalize.precision_exhausted", "count"),
        ("surface.points_coincide", "count"),
        ("moufang.escalations", "count"),
        ("moufang.compose_success_ratio", "ratio"),
        ("moufang.checks", "count"),
        ("cli.export_table.bytes", "B"),
        ("trace.overhead_s", "s"),
    ]
)


def _module(name: str):
    return importlib.import_module(f"cubicloop.{name}")


# Span record fields.
NAME, START, END, PARENT, OP, EXC = range(6)


class Tracer:
    """Holds the spans and counts of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._cells = {name: [0] for name in (*OPERATORS, *COUNTED_FUNCTIONS)}
        self._counts: dict[int, dict[str, int]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec[EXC] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        cell = self._cells[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new) -> None:
        """Rebind `original` in every cubicloop namespace that holds it, so
        each call is seen once under the name its caller uses."""
        for mod in (importlib.import_module("cubicloop"), *map(_module, MODULES)):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        from cubicloop.eisenstein import RingElt

        for name, attrs in OPERATORS.items():
            for attr in attrs:
                self._patch(RingElt, attr, self._counted(name, vars(RingElt)[attr]))
        for wrap, names in ((self._counted, COUNTED_FUNCTIONS), (self._spanned, SPANNED_FUNCTIONS)):
            for name in names:
                mod, attr = name.split(".")
                fn = getattr(_module(mod), attr)
                self._patch_everywhere(fn, wrap(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        for cell in self._cells.values():
            cell[0] = 0

    def end_op(self) -> None:
        self._counts[self.op] = {name: cell[0] for name, cell in self._cells.items()}
        self.op = None

    def op_wrapper(self, op):
        """`op` that ends the traced op when it returns, so that spans its
        gate opens belong to no op."""

        def traced(*args):
            try:
                return op(*args)
            finally:
                self.end_op()

        return traced

    def op_metrics(self, op: int) -> dict[str, float]:
        """Per-layer metrics of one traced op, from its spans and counts."""
        spans = [(k, s) for k, s in enumerate(self.spans) if s[OP] == op]
        by_index = dict(spans)
        out: dict[str, float] = dict(self._counts[op])
        busy: Counter = Counter()
        calls: Counter = Counter()
        child_time: Counter = Counter()
        exc: Counter = Counter()
        escalations = 0
        accepted = 0
        for _, s in spans:
            dur = s[END] - s[START]
            busy[s[NAME]] += dur
            calls[s[NAME]] += 1
            parent = by_index.get(s[PARENT])
            if parent is not None:
                child_time[s[PARENT]] += dur
            if s[EXC] is not None:
                exc[(s[NAME], s[EXC])] += 1
                if s[EXC] == "PrecisionExhausted" and self._under(s, "moufang.compose_classes"):
                    escalations += 1
            elif (
                s[NAME] == "moufang.class_of_form"
                and parent is not None
                and parent[NAME] in ("moufang.build_class_table", "moufang.compose_classes")
            ):
                accepted += 1
        self_time: Counter = Counter()
        for k, s in spans:
            self_time[s[NAME]] += s[END] - s[START] - child_time[k]
        for name in CALLS:
            out[f"{name}.calls"] = calls[name]
        for name in SPANNED_FUNCTIONS:
            out[f"{name}.busy_s"] = busy[name]
        for name in SELF:
            out[f"{name}.self_s"] = self_time[name]
        for name in ("surface.chord", "surface.normalize"):
            out[f"{name}.precision_exhausted"] = exc[(name, "PrecisionExhausted")]
        out["surface.points_coincide"] = exc[("surface.chord", "PointsCoincide")]
        out["moufang.escalations"] = escalations
        chords = calls["surface.chord"]
        out["moufang.compose_success_ratio"] = accepted / chords if chords else 0.0
        return out

    def _under(self, span: list, name: str) -> bool:
        k = span[PARENT]
        while k >= 0:
            if self.spans[k][NAME] == name:
                return True
            k = self.spans[k][PARENT]
        return False

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\top\texception\n")
            for k, (name, start, end, parent, op, exc) in enumerate(self.spans):
                fh.write(f"{k}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\t{exc or ''}\n")


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over ops of every per-layer metric; 0 where an op lacks it."""
    return {name: statistics.median(m.get(name, 0) for m in per_op) for name, _ in PER_LAYER}
