"""Tests of the tracing shim.  Run: python3 -m pytest -q perfbench"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import passrun  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans_sums_to_root_span():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]), a gc pause [5, 6]
    # and c [7, 9]
    t = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    t.enter()
    t.enter()
    t.enter()
    t.exit("b")
    t.exit("a")
    t.on_gc("start", {})
    t.on_gc("stop", {})
    t.enter()
    t.exit("c")
    t.exit("root")
    assert t.self_s == {"b": 1, "a": 2, "gc": 1, "c": 2, "root": 4}
    assert sum(t.self_s.values()) == 10
    assert t.calls == {"b": 1, "a": 1, "gc": 1, "c": 1, "root": 1}


def test_wrapped_calls_aggregate_per_op_and_hooks_stay_out_of_self_time():
    ticks = iter(range(1000))
    t = spans.Tracer(clock=lambda: next(ticks))
    seen = []

    def leaf(x):
        return x + 1

    leaf_w = spans.wrap(t, "leaf", leaf, hook=lambda tr, args, out: seen.append(out))

    def outer(n):
        return sum(leaf_w(i) for i in range(n))

    outer_w = spans.wrap(t, "outer", outer)
    assert outer_w(3) == 6
    assert seen == [1, 2, 3]
    assert t.calls == {"leaf": 3, "outer": 1}
    # the outer span reads the clock at ticks 0 and 13; each leaf call takes
    # one tick and each hook one more, which belongs to no op
    assert t.self_s == {"leaf": 3, "outer": 13 - 3 - 3}


@pytest.fixture
def vk():
    return passrun._import_verlkit()


def test_every_binding_of_every_entry_point_is_wrapped(vk):
    targets = spans.originals(vk)
    before = spans.bindings(vk, targets)
    # names that other modules bound at import are among the bindings
    bound = {(h.__name__, n) for h, n, _ in before if h in vars(vk).values()}
    assert {("verlkit.modinv", "kernel_basis"), ("verlkit.fusion", "cokernel"),
            ("verlkit.modinv", "su2_modular_data")} <= bound
    assert {targets[id(fn)][0] for _, _, fn in before} == set(spans.OPS)
    with spans.traced(spans.Tracer(), vk):
        assert spans.unwrapped(vk, targets) == []
        for holder, name, fn in before:
            assert vars(holder)[name] is not fn
            assert vars(holder)[name].__wrapped__ is fn
    for holder, name, fn in before:
        assert vars(holder)[name] is fn


def test_a_binding_left_unwrapped_is_reported(vk):
    targets = spans.originals(vk)
    with spans.traced(spans.Tracer(), vk):
        wrapped = vk.modinv.kernel_basis
        vk.modinv.kernel_basis = vk.exactla.kernel_basis.__wrapped__
        try:
            assert spans.unwrapped(vk, targets) == ["verlkit.modinv.kernel_basis"]
        finally:
            vk.modinv.kernel_basis = wrapped


def test_calls_through_cross_module_bindings_are_counted(vk):
    tracer = spans.Tracer()
    with spans.traced(tracer, vk):
        group = vk.fusion.torus_fusion([[2, 0], [0, 3]])
    assert group.torsion == (6,)
    assert tracer.calls["exactla.cokernel"] == 1
    assert tracer.calls["exactla.snf"] >= 1
    metrics = spans.layer_metrics(tracer, 1.0)
    assert metrics["exactla.snf.max_dim"] == 2
    assert spans.layer_calls(metrics, "exactla") >= 2
    assert spans.layer_calls(metrics, "cyclo") == 0
