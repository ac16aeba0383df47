"""Spans around the public functions of each specfact module.

The tracer replaces each traced function at every module attribute that
holds it (callers look functions up in their own module's namespace, so
patching the defining module alone would miss them), records one span per
call and puts the originals back afterwards.  Nothing inside the program
changes; with the tracer off no wrapper is installed at all.

Span names are "<module>.<qualified name>", the layer names later in-program
tracing should reuse.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: (module, qualified name) of every traced function, grouped by layer.
TARGETS = (
    ("cli", "main"),
    ("report", "BoundReport.to_json_dict"),
    ("bounds", "random_density"),
    ("bounds", "check_theorem_2"),
    ("bounds", "check_theorem_main"),
    ("bounds", "h2_squared_direct"),
    ("bounds", "h2_identity_terms"),
    ("factorization", "factorize_boundary"),
    ("factorization", "factorize_herglotz"),
    ("factorization", "fejer_riesz"),
    ("factorization", "outer_check"),
    ("circle_fn", "harmonic_conjugate"),
    ("circle_fn", "lp_norm"),
    ("circle_fn", "fourier_synthesize"),
    ("circle_fn", "h2_distance"),
    ("circle_fn", "SpectralFactor.to_json_dict"),
    ("orlicz", "orlicz_norm"),
    ("orlicz", "luxemburg_norm"),
    ("orlicz", "lambda_phi"),
    ("orlicz", "NFunction.phi"),
    ("orlicz", "NFunction.complement"),
    ("orlicz", "NFunction.from_json_dict"),
    ("counterexample", "verify_theorem_1"),
    ("counterexample", "family_metrics"),
    ("counterexample", "grid_realization"),
    ("counterexample", "cross_validate_pipeline"),
)

ROOT = "op"
PACKAGE = "specfact"

_COMPLEX_BYTES = np.dtype(np.complex128).itemsize


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _companion_dim(series) -> int:
    coeffs = series.coeffs if hasattr(series, "coeffs") else dict(series)
    return 2 * max((abs(int(k)) for k in coeffs), default=0)


#: Counters computed from argument shapes: span name -> (counter, how the
#: per-call values combine, per-call value).  They count what a call is
#: asked to do, not what it did, so they are labelled "computed".
COMPUTED = {
    # points in the forward FFT of the boundary values
    "factorization.factorize_boundary": (
        ("fft_points", "sum", lambda a, k: _arg(a, k, 0, "f").n),),
    # size of the dense points x n complex kernel; the largest one formed
    "factorization.factorize_herglotz": (
        ("kernel_bytes", "max", lambda a, k: (
            np.size(_arg(a, k, 1, "points")) * _arg(a, k, 0, "f").n
            * _COMPLEX_BYTES)),),
    # dimension 2N of the companion matrix np.roots builds for degree N
    "factorization.fejer_riesz": (
        ("companion_dim", "sum",
         lambda a, k: _companion_dim(_arg(a, k, 0, "series"))),),
}


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent index, op id, raised, outermost]:
    parent is the index of the enclosing span (-1 for none), and outermost
    is False when a span of the same name encloses it, so inclusive times
    never count a nested call twice.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._op = None

    def call(self, name, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self._op, False, self._active[name] == 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._active[name] += 1
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._active[name] -= 1
            self._stack.pop()

    def run_op(self, op_id, fn):
        """Run fn() under a root span for one op; returns fn's result."""
        self._op = op_id
        try:
            return self.call(ROOT, fn, (), {})
        finally:
            self._op = None

    def count(self, name: str, key: str, how: str, value) -> None:
        full = f"{name}.{key}"
        if how == "max":
            self.counters[full] = max(self.counters[full], value)
        else:
            self.counters[full] += value

    def wrap(self, name: str, fn):
        computed = COMPUTED.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for key, how, value in computed:
                self.count(name, key, how, value(args, kwargs))
            return self.call(name, fn, args, kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Patch every TARGETS function for the duration of the block."""
        restore = []
        try:
            for module, qualname in TARGETS:
                restore.extend(self._patch(module, qualname))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _patch(self, module, qualname):
        mod = sys.modules[f"{PACKAGE}.{module}"]
        name = f"{module}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            setattr(cls, attr, wrapped)
            return [(cls, attr, raw)]
        original = getattr(mod, qualname)
        wrapped = self.wrap(name, original)
        patched = []
        for mod_name, holder in list(sys.modules.items()):
            if holder is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapped)
                    patched.append((holder, attr, original))
        return patched


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on a single thread, so the
    covered part of the parent interval is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_summary(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (inclusive, outermost), self_s, failed."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0})
    for s, own in zip(spans, self_times(spans)):
        row = out[s[0]]
        row["calls"] += 1
        row["self_s"] += own
        if s[6]:
            row["busy_s"] += s[2] - s[1]
        if s[5]:
            row["failed"] += 1
    return out


def coverage(spans) -> float:
    """Share of root-span (op) wall time that layer self times account for."""
    own = self_times(spans)
    op_wall = sum(s[2] - s[1] for s in spans if s[0] == ROOT)
    layer_self = sum(t for s, t in zip(spans, own) if s[0] != ROOT)
    return layer_self / op_wall if op_wall > 0 else 0.0
