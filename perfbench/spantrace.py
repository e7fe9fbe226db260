"""Span tracing for the benchmark, done from outside the library.

While a :class:`Tracer` is active, every public function of each
``fwexact`` module, the two private decomposition kernels of
``fwexact.matfun``, ``ModelSpec.build``, ``SplitHamiltonian.validate`` and
the ``numpy.linalg`` entry points the library calls are replaced by
wrappers that record a span (name, start, end, parent, work).  Leaving the
``active()`` block puts every original object back, so untraced runs call
the unwrapped functions.  The library itself is not modified.

Spans are kept in memory and written out by :meth:`Tracer.write`.  A
span's self time is its duration minus the durations of its direct
children (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

import numpy as np

#: The fwexact modules whose functions are traced; the span name's
#: first component is the module name, which is the layer.
LAYERS = ("cli", "models", "blockop", "matfun", "eriksen", "expgen", "floquet")

#: Private kernels traced under a public-facing span name.
_PRIVATE = {
    ("matfun", "_decompose_hermitian"): "matfun.decompose.hermitian",
    ("matfun", "_decompose_general"): "matfun.decompose.general",
}

#: Methods traced on their class.
_METHODS = (
    ("models", "ModelSpec", "build", "models.build"),
    ("blockop", "SplitHamiltonian", "validate", "blockop.validate"),
)

#: numpy.linalg entry points; the work of each is side**3 of its input.
_LINALG = ("eigh", "eig", "eigvalsh", "inv", "cond", "svd")


def _side_cubed(a, *_args, **_kwargs) -> int:
    return int(np.shape(a)[-1]) ** 3


class Tracer:
    """In-memory span recorder with install/remove of the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # one row per span: [name index, start, end, parent row, work]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str, work: int) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        row = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([index, time.perf_counter(), 0.0, parent, work])
        self._stack.append(row)
        return row

    def _close(self, row: int) -> None:
        self.spans[row][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, work: int = 0):
        """Record a span around a block of the benchmark's own code."""
        row = self._open(name, work)
        try:
            yield
        finally:
            self._close(row)

    def _wrap(
        self, name: str, fn: Callable, work: Optional[Callable] = None
    ) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = self._open(name, work(*args, **kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(row)

        return wrapper

    def _wrap_norm(self, fn: Callable) -> Callable:
        # only the spectral norm (ord=2 on a matrix) runs an SVD; the
        # Frobenius norms are left untraced and count as caller self time
        @functools.wraps(fn)
        def wrapper(x, ord=None, *args, **kwargs):
            if not (isinstance(ord, int) and ord == 2 and np.ndim(x) == 2):
                return fn(x, ord, *args, **kwargs)
            row = self._open("linalg.spectral_norm", _side_cubed(x))
            try:
                return fn(x, ord, *args, **kwargs)
            finally:
                self._close(row)

        return wrapper

    # -- install / remove ----------------------------------------------

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: sys.modules[f"fwexact.{layer}"] for layer in LAYERS}
        wrappers: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = _PRIVATE.get((layer, attr))
                if name is None and attr.startswith("_"):
                    continue
                wrappers[id(obj)] = self._wrap(name or f"{layer}.{attr}", obj)
        # a function imported by name into other modules (and the package)
        # is the same object there; patch every reference to it
        for module in (*modules.values(), sys.modules["fwexact"]):
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patch(module, attr, wrapper)
        for layer, cls_name, method, name in _METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, method, self._wrap(name, getattr(cls, method)))
        for attr in _LINALG:
            fn = getattr(np.linalg, attr)
            self._patch(np.linalg, attr, self._wrap(f"linalg.{attr}", fn, _side_cubed))
        self._patch(np.linalg, "norm", self._wrap_norm(np.linalg.norm))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- aggregation ---------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, work."""
        child = [0.0] * len(self.spans)
        for _index, start, end, parent, _work in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (index, start, end, _parent, work) in enumerate(self.spans):
            entry = out.setdefault(
                self.names[index], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0}
            )
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += end - start - child[i]
            entry["work"] += work
        return out

    def write(self, path: Path) -> None:
        """Write all spans as JSON: a name table and one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "columns": ["name", "start_s", "end_s", "parent", "work"],
            "names": self.names,
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
