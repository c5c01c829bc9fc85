"""In-memory tracing of calls into the bispade layers, installed from outside.

The tracer rebinds module attributes that callers look up (``from .model
import prob_matrix`` binds a name in the importing module, so every module
holding the original function object gets the wrapper). Nothing under
``src/`` is edited. Two kinds of wrapper exist:

* spanned: records a span (name, start, end, parent) per call. Used for the
  calls a per-layer timing is taken from; a few to a few dozen per fit.
* counted: increments a call counter only. Used for every other public
  function, including the hot leaves (``displaced_overlap`` runs 98 times per
  ``prob_matrix``), where a span per call would cost more memory than the run.

A direct recursive call (``displaced_overlap`` swaps its arguments and calls
itself) stays inside the caller's record, so counts are calls into a function
from outside it. A wrapped name that no longer exists is recorded as absent;
the metrics derived from it then read as absent instead of failing the run.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import types
from collections import Counter

PACKAGE = "bispade"
MODULES = ("cli", "inference", "model", "overlap", "specfun", "source")

# calls that get a span each; every other public function gets a counter
SPANNED = (
    "cli.read_counts_file",
    "inference.mc_standard_error",
    "inference.mle_estimate",
    "inference.sample_counts",
    "inference.fit_calibration",
    "model.prob_matrix",
    "model.pixel_probs",
    "source.SchmidtModel.from_gamma",
)
# functions whose `forward` argument is replaced by a counting proxy
FORWARD_TAKERS = ("inference.mle_estimate", "inference.mc_standard_error",
                  "inference.fit_calibration")
FIT = "inference.mle_estimate"
FORWARD = "inference.forward"
FORWARD_IN_FIT = "inference.forward_in_fit"


class ForwardProxy:
    """Counts calls of a forward map; behaves exactly like the map it wraps."""

    __slots__ = ("inner", "tracer")

    def __init__(self, inner, tracer: "Tracer"):
        self.inner = inner
        self.tracer = tracer

    def __call__(self, d):
        tracer = self.tracer
        tracer.counts[FORWARD] += 1
        stack = tracer.stack
        if stack and tracer.names[stack[-1]] == FIT:
            tracer.counts[FORWARD_IN_FIT] += 1
        return self.inner(d)


class Tracer:
    """Spans and counters for one process; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.fits: list[tuple[int, bool, tuple]] = []
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._depth: Counter = Counter()

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(float("nan"))
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- wrappers ----------------------------------------------------------
    def _counted(self, qualname: str, fn):
        counts, depth = self.counts, self._depth
        if qualname == "specfun.hg1d_batch":
            signature = inspect.signature(fn)

            def before(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                rows = int(bound.arguments["max_m"]) + 1
                points = getattr(bound.arguments["x"], "size", 1)
                counts["specfun.hg1d_batch.elements"] += rows * points
        else:
            before = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[qualname]:
                return fn(*args, **kwargs)
            counts[qualname] += 1
            if before is not None:
                before(args, kwargs)
            depth[qualname] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[qualname] -= 1

        return wrapper

    def _spanned(self, qualname: str, fn):
        tracer = self
        counts = self.counts
        signature = inspect.signature(fn)
        takes_forward = qualname in FORWARD_TAKERS and "forward" in signature.parameters
        tag_kind = qualname == "model.pixel_probs"
        is_fit = qualname == FIT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.names[stack[-1]].startswith(qualname):
                return fn(*args, **kwargs)
            name = qualname
            if takes_forward or tag_kind:
                bound = signature.bind(*args, **kwargs)
                if takes_forward:
                    forward = bound.arguments.get("forward")
                    if forward is not None and not isinstance(forward, ForwardProxy):
                        bound.arguments["forward"] = ForwardProxy(forward, tracer)
                if tag_kind:
                    bound.apply_defaults()
                    name = f"{qualname}[{bound.arguments['kind']}]"
                args, kwargs = bound.args, bound.kwargs
            counts[qualname] += 1
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if is_fit:
                tracer.fits.append(
                    (result.refine_iterations, bool(result.converged), tuple(result.flags))
                )
            return result

        return wrapper

    # -- install -----------------------------------------------------------
    def install(self) -> None:
        """Wrap every public function of the layer modules, and SchmidtModel.from_gamma."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        replacements: dict[int, object] = {}
        for short in MODULES:
            module = sys.modules.get(f"{PACKAGE}.{short}")
            if module is None:
                self.absent.append(short)
                continue
            for attr in _public_functions(module):
                fn = getattr(module, attr)
                qualname = f"{short}.{attr}"
                make = self._spanned if qualname in SPANNED else self._counted
                replacements[id(fn)] = (fn, make(qualname, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._wrap_from_gamma()
        for qualname in SPANNED + ("overlap.displaced_overlap", "specfun.laguerre",
                                   "specfun.hg1d_batch", "source.schmidt_coeff"):
            if qualname != "source.SchmidtModel.from_gamma" and not _exists(qualname):
                self.absent.append(qualname)

    def _wrap_from_gamma(self) -> None:
        source = sys.modules.get(f"{PACKAGE}.source")
        cls = getattr(source, "SchmidtModel", None)
        original = vars(cls).get("from_gamma") if isinstance(cls, type) else None
        if not isinstance(original, classmethod):
            self.absent.append("source.SchmidtModel.from_gamma")
            return
        wrapped = self._spanned("source.SchmidtModel.from_gamma", original.__func__)
        self._undo.append((cls, "from_gamma", original))
        setattr(cls, "from_gamma", classmethod(wrapped))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- export ------------------------------------------------------------
    def spans(self) -> list[list]:
        return [
            [name, start, end, parent]
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
        ]

    def record(self) -> dict:
        return {
            "spans": self.spans(),
            "counts": dict(self.counts),
            "fits": [list(fit) for fit in self.fits],
            "absent": list(self.absent),
        }


def _public_functions(module: types.ModuleType) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name, value in vars(module).items()
                 if getattr(value, "__module__", None) == module.__name__]
    return [
        name for name in names
        if not name.startswith("_") and isinstance(getattr(module, name, None), types.FunctionType)
    ]


def _exists(qualname: str) -> bool:
    short, attr = qualname.split(".", 1)
    module = sys.modules.get(f"{PACKAGE}.{short}")
    return module is not None and isinstance(getattr(module, attr, None), types.FunctionType)
