"""Tracing shim: timed spans around verlkit's public entry points.

The shim lives in the benchmark, not in the library.  It replaces each
public entry point listed in `ENTRIES` by a wrapper, in every verlkit
module namespace and class that bound it, and restores the originals on
`uninstall`.  Bindings are found by object identity, so the shim never
names a private attribute of the library.

Spans are aggregated as they close, per `<layer>.<op>`: a call count and a
self time, where self time is the span's duration minus the time covered
by its child spans.  Garbage-collector pauses (from `gc.callbacks`) are
child spans of whatever span was open, reported as the `gc` layer.
Aggregating on close keeps memory flat; one `ade_tables` pass closes
about half a million spans.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import time

# (op, module, attribute path) for every traced entry point.  Aliases such
# as `__radd__ = __add__` are the same object and are wrapped with it.
ENTRIES = (
    ("cyclo.mul", "cyclo", "CycNumber.__mul__"),
    ("cyclo.add", "cyclo", "CycNumber.__add__"),
    ("cyclo.add", "cyclo", "CycNumber.__sub__"),
    ("cyclo.add", "cyclo", "CycNumber.__rsub__"),
    ("cyclo.add", "cyclo", "CycNumber.__neg__"),
    ("cyclo.inverse", "cyclo", "CycNumber.inverse"),
    ("cyclo.div", "cyclo", "CycNumber.__truediv__"),
    ("cyclo.div", "cyclo", "CycNumber.__rtruediv__"),
    ("cyclo.pow", "cyclo", "CycNumber.__pow__"),
    ("cyclo.normalized", "cyclo", "CycNumber.normalized"),
    ("cyclo.eq", "cyclo", "CycNumber.__eq__"),
    ("cyclo.eq", "cyclo", "CycNumber.__hash__"),
    ("cyclo.galois", "cyclo", "CycNumber.galois"),
    ("cyclo.galois", "cyclo", "CycNumber.conjugate"),
    ("cyclo.construct", "cyclo", "zeta"),
    ("cyclo.construct", "cyclo", "rational"),
    ("cyclo.construct", "cyclo", "sqrt_int"),
    ("cyclo.construct", "cyclo", "cos_frac"),
    ("cyclo.construct", "cyclo", "sin_frac"),
    ("cyclo.real_embed", "cyclo", "real_embed"),
    ("exactla.snf", "exactla", "smith_normal_form"),
    ("exactla.snf", "exactla", "smith_with_inverses"),
    ("exactla.cokernel", "exactla", "cokernel"),
    ("exactla.kernel_basis", "exactla", "kernel_basis"),
    ("exactla.solve_int", "exactla", "solve_int"),
    ("exactla.matmul", "exactla", "IntMatrix.__mul__"),
    ("fusion.su2_modular_data", "fusion", "su2_modular_data"),
    ("fusion.modular_check", "fusion", "ModularData.__init__"),
    ("fusion.ring_build", "fusion", "FusionRing.__init__"),
    ("fusion.truncated", "fusion", "su2_fusion_truncated"),
    ("polyring.e6_tor", "polyring", "e6_tor"),
    ("polyring.stabilized_family", "polyring", "stabilized_family"),
    ("polyring.coprime_certificate", "polyring", "coprime_certificate"),
    ("polyring.laurent_arith", "polyring", "LaurentPoly.__add__"),
    ("polyring.laurent_arith", "polyring", "LaurentPoly.__sub__"),
    ("polyring.laurent_arith", "polyring", "LaurentPoly.__rsub__"),
    ("polyring.laurent_arith", "polyring", "LaurentPoly.__neg__"),
    ("polyring.laurent_arith", "polyring", "LaurentPoly.__mul__"),
    ("polyring.laurent_arith", "polyring", "LaurentPoly.__pow__"),
    ("polyring.matrix_from_columns", "polyring", "matrix_from_columns"),
    ("repring.quaternion_group", "repring", "quaternion_group"),
    ("repring.character_table", "repring", "character_table"),
    ("repring.tensor_decompose", "repring", "tensor_decompose"),
    ("repring.mckay_graph", "repring", "mckay_graph"),
    ("repring.gradings", "repring", "gradings"),
    ("repring.graded_fold", "repring", "graded_fold"),
    ("repring.recognize_affine_ade", "repring", "recognize_affine_ade"),
    ("modinv.enumerate", "modinv", "enumerate_invariants"),
    ("modinv.check_invariant", "modinv", "check_invariant"),
    ("modinv.nimrep", "modinv", "nimrep_from_graph"),
)

OPS = tuple(dict.fromkeys(op for op, _, _ in ENTRIES))


class Tracer:
    """Per-op call counts and self times from nested enter/exit pairs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = {}
        self.self_s = {}
        self.sizes = {}
        self._stack = []  # [start, time covered by children] per open span
        self._gc_start = None

    def enter(self):
        self._stack.append([self.clock(), 0.0])

    def exit(self, op):
        end = self.clock()
        start, covered = self._stack.pop()
        self._close(op, end - start, covered)

    def _close(self, op, span, covered):
        self.calls[op] = self.calls.get(op, 0) + 1
        self.self_s[op] = self.self_s.get(op, 0.0) + span - covered
        if self._stack:
            self._stack[-1][1] += span

    def exclude(self, seconds):
        """Keep `seconds` of shim bookkeeping out of the open span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def on_gc(self, phase, info):
        """A `gc.callbacks` hook: each collection is a child span named `gc`."""
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self._close("gc", self.clock() - self._gc_start, 0.0)
            self._gc_start = None

    def peak(self, key, value):
        if value > self.sizes.get(key, 0):
            self.sizes[key] = value

    def add(self, key, value):
        self.sizes[key] = self.sizes.get(key, 0) + value


def wrap(tracer, op, fn, hook=None):
    """`fn` inside a span named `op`; `hook(tracer, args, result)` records sizes."""
    enter, exit_, clock = tracer.enter, tracer.exit, tracer.clock

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter()
        try:
            out = fn(*args, **kwargs)
        finally:
            exit_(op)
        if hook is not None:
            t0 = clock()
            hook(tracer, args, out)
            tracer.exclude(clock() - t0)
        return out

    return traced


def _resolve(vk, module, path):
    owner = getattr(vk, module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)


def holders(vk):
    """Every verlkit module namespace and every verlkit class that they bind."""
    out, seen = [], set()
    for layer in vk.__dict__.values():
        out.append(layer)
        for value in vars(layer).values():
            if (inspect.isclass(value) and value.__module__.startswith("verlkit.")
                    and id(value) not in seen):
                seen.add(id(value))
                out.append(value)
    return out


def originals(vk):
    """id(original) -> (op, original) for every entry in `ENTRIES`."""
    return {id(fn): (op, fn) for op, module, path in ENTRIES
            for fn in [_resolve(vk, module, path)]}


def bindings(vk, targets):
    """(holder, name, original) for every attribute bound to one of `targets`."""
    out = []
    for holder in holders(vk):
        for name, value in list(vars(holder).items()):
            hit = targets.get(id(value))
            if hit is not None and hit[1] is value:
                out.append((holder, name, value))
    return out


def install(tracer, vk):
    """Wrap every entry point everywhere it is bound; returns the patch list."""
    targets = originals(vk)
    wrappers = {key: wrap(tracer, op, fn, HOOKS.get(op)) for key, (op, fn) in targets.items()}
    patches = bindings(vk, targets)
    for holder, name, value in patches:
        setattr(holder, name, wrappers[id(value)])
    return patches


def uninstall(patches):
    for holder, name, value in reversed(patches):
        setattr(holder, name, value)


def unwrapped(vk, targets):
    """Names still bound to an original entry point; empty when no call
    through a module or class attribute can bypass a span."""
    return [_label(h, n) for h, n, _ in bindings(vk, targets)]


def _label(holder, name):
    return "%s.%s" % (getattr(holder, "__qualname__", holder.__name__), name)


@functools.cache
def _totient(n):
    m, out, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _max_bits(matrices):
    return max((abs(x).bit_length() for M in matrices for x in M.data), default=0)


def _cyclo_order(tracer, args, out):
    order = getattr(out, "order", None)
    if isinstance(order, int):
        tracer.peak("cyclo.max_order", order)


def _mul(tracer, args, out):
    _cyclo_order(tracer, args, out)
    tracer.add("cyclo.mul.phi_sum", _totient(out.order))


def _inverse(tracer, args, out):
    _cyclo_order(tracer, args, out)
    tracer.peak("cyclo.inverse.max_phi", _totient(args[0].order))


def _normalized(tracer, args, out):
    _cyclo_order(tracer, args, out)
    if out.order < args[0].order:
        tracer.add("cyclo.normalized.descended", 1)


def _snf(tracer, args, out):
    M = args[0]
    tracer.add("exactla.snf.cells", M.rows * M.cols)
    tracer.peak("exactla.snf.max_dim", max(M.rows, M.cols))
    tracer.peak("exactla.snf.max_bits", _max_bits(out))


def _ring_build(tracer, args, out):
    tracer.peak("fusion.ring_build.max_rank", len(args[0].labels))


def _enumerate(tracer, args, out):
    tracer.add("modinv.enumerate.found", len(out))


HOOKS = {
    "cyclo.mul": _mul,
    "cyclo.inverse": _inverse,
    "cyclo.normalized": _normalized,
    "exactla.snf": _snf,
    "fusion.ring_build": _ring_build,
    "modinv.enumerate": _enumerate,
}
# every other cyclo op that returns a number feeds cyclo.max_order
HOOKS.update({op: _cyclo_order for op in OPS
              if op.startswith("cyclo.") and op not in HOOKS and op != "cyclo.eq"})


def layer_metrics(tracer, wall_s):
    """The per-layer metrics of one traced pass, by name."""
    out = {}
    for op in OPS:
        out[op + ".calls"] = tracer.calls.get(op, 0)
        out[op + ".self_s"] = tracer.self_s.get(op, 0.0)
    sizes, calls = tracer.sizes, tracer.calls
    out["cyclo.mul.mean_phi"] = sizes.get("cyclo.mul.phi_sum", 0) / max(calls.get("cyclo.mul", 0), 1)
    out["cyclo.inverse.max_phi"] = sizes.get("cyclo.inverse.max_phi", 0)
    out["cyclo.max_order"] = sizes.get("cyclo.max_order", 0)
    out["cyclo.normalized.descend_ratio"] = (
        sizes.get("cyclo.normalized.descended", 0) / max(calls.get("cyclo.normalized", 0), 1))
    for key in ("exactla.snf.cells", "exactla.snf.max_dim", "exactla.snf.max_bits",
                "fusion.ring_build.max_rank", "modinv.enumerate.found"):
        out[key] = sizes.get(key, 0)
    out["gc.collections"] = calls.get("gc", 0)
    out["gc.self_s"] = tracer.self_s.get("gc", 0.0)
    out["trace.wall_s"] = wall_s
    return out


def layer_calls(metrics, layer):
    return sum(v for k, v in metrics.items() if k.startswith(layer + ".") and k.endswith(".calls"))


@contextlib.contextmanager
def traced(tracer, vk):
    """Spans and gc callbacks on inside the block, originals restored after."""
    patches = install(tracer, vk)
    gc.callbacks.append(tracer.on_gc)
    try:
        yield
    finally:
        gc.callbacks.remove(tracer.on_gc)
        uninstall(patches)
