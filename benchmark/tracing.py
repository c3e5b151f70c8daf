"""Spans around the library's public names, for the traced run.

A label such as ``kron_model.embed`` names ``kronbures.kron_model.embed``;
``linalg.eigh`` names ``numpy.linalg.eigh``. The wrapper replaces the name
everywhere the program looks it up: the class attribute for a method, and
for a function every ``kronbures`` module global bound to it. A label whose
name the program no longer has is skipped and yields no span.

Spans are kept in memory as columns (label, parent span, start, end, dim3)
until the run ends. Self time is a span's duration minus that of its child
spans. ``dim3`` sums m^3 over the matrices of an ``eigh``/``eigvalsh`` call,
computed from their shapes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter
from array import array

# Labels that name a class member rather than a module function.
CLASS_MEMBERS = {
    "spd_core.SpdMatrix": ("SpdMatrix", "__init__"),
    "kron_model.from_factors": ("KroneckerPoint", "from_factors"),
}
STATS = ("calls", "self_ms", "dim3")


def _module_name(label: str) -> str:
    prefix = label.split(".", 1)[0]
    return "numpy.linalg" if prefix == "linalg" else f"kronbures.{prefix}"


def _dim3(args) -> float:
    shape = getattr(args[0], "shape", ())
    if len(shape) < 2:
        return 0.0
    batch = 1
    for size in shape[:-2]:
        batch *= size
    return float(batch * shape[-1] ** 3)


class Tracer:
    def __init__(self, labels):
        self.labels = list(dict.fromkeys(labels))
        self.installed = []
        self.active = False
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.dim3 = array("d")
        self._stack = [-1]

    def _wrap(self, label_id: int, fn, count_dim3: bool):
        consume = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(self.name)
            self.name.append(label_id)
            self.parent.append(self._stack[-1])
            self.dim3.append(_dim3(args) if count_dim3 else 0.0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(span)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if consume:
                    out = iter(list(out))
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[span] = t0
                self.end[span] = t1
            return out

        return traced

    def install(self) -> None:
        """Wrap every label the program still defines."""
        homes = [m for k, m in sys.modules.items() if k == "kronbures" or k.startswith("kronbures.")]
        for label_id, label in enumerate(self.labels):
            module = importlib.import_module(_module_name(label))
            if label in CLASS_MEMBERS:
                cls_name, attr = CLASS_MEMBERS[label]
                cls = getattr(module, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(label_id, raw.__func__, False))
                else:
                    wrapped = self._wrap(label_id, raw, False)
                setattr(cls, attr, wrapped)
            else:
                orig = getattr(module, label.rsplit(".", 1)[1], None)
                if orig is None:
                    continue
                wrapped = self._wrap(label_id, orig, label.startswith("linalg."))
                for home in [module, *homes]:
                    for key, value in list(vars(home).items()):
                        if value is orig:
                            setattr(home, key, wrapped)
            self.installed.append(label)

    def mark(self) -> int:
        """Index of the next span, to delimit a phase of the run."""
        return len(self.name)

    def summarize(self, lo: int, hi: int) -> dict:
        """{label: {"calls", "self_ms", "dim3"}} over spans lo..hi-1."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out = {label: dict.fromkeys(STATS, 0.0) for label in self.labels}
        for i in range(lo, hi):
            stats = out[self.labels[self.name[i]]]
            stats["calls"] += 1
            stats["self_ms"] += 1e3 * (self.end[i] - self.start[i] - child[i - lo])
            stats["dim3"] += self.dim3[i]
        return out

    def write_spans(self, path, lo: int, hi: int) -> None:
        """CSV of spans lo..hi-1, times in microseconds from span lo's start."""
        t0 = self.start[lo] if hi > lo else 0.0
        with open(path, "w") as fh:
            fh.write("span,parent,label,start_us,end_us,dim3\n")
            for i in range(lo, hi):
                fh.write(
                    f"{i},{self.parent[i]},{self.labels[self.name[i]]},"
                    f"{1e6 * (self.start[i] - t0):.3f},{1e6 * (self.end[i] - t0):.3f},"
                    f"{self.dim3[i]:.0f}\n"
                )
