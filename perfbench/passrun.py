"""One pass over one workload, in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --t0 T [--trace | --setup-only]

`--t0` is the parent's `time.monotonic()` just before it started this
process, so `setup_s` counts interpreter start, the verlkit import and item
generation.  The pass prints one JSON object on its last line of stdout.
Library calls run inside the timed span; oracles and the digest run after
it.  `--trace` runs the same pass with the tracing shim installed and adds
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import types

import spans
import workloads


def _import_verlkit():
    from verlkit import cyclo, exactla, fusion, modinv, polyring, repring

    return types.SimpleNamespace(
        cyclo=cyclo, exactla=exactla, fusion=fusion,
        polyring=polyring, repring=repring, modinv=modinv,
    )


def _run_items(items):
    """Call every item; an exception is recorded for that item, not raised."""
    results, errors, item_s = {}, {}, {}
    for key, thunk in items:
        t0 = time.perf_counter()
        try:
            results[key] = thunk()
        except Exception as exc:  # counted as a failed item
            errors[key] = "%s: %s" % (type(exc).__name__, exc)
        item_s[repr(key)] = time.perf_counter() - t0
    return results, errors, item_s


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    vk = _import_verlkit()
    items = wl.items(vk, args.seed)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer, targets = spans.Tracer(), spans.originals(vk)
    with spans.traced(tracer, vk) if args.trace else contextlib.nullcontext():
        if args.trace:
            out["unwrapped"] = spans.unwrapped(vk, targets)
        c0, t0 = time.process_time(), time.perf_counter()
        results, errors, item_s = _run_items(items)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for key, result in results.items():
        try:
            ok = wl.check(vk, key, result)
        except Exception as exc:  # a crashing oracle fails its item
            ok, errors[key] = False, "oracle %s: %s" % (type(exc).__name__, exc)
        if not ok:
            errors.setdefault(key, "wrong answer")
    out.update(
        wall_s=wall, cpu_s=cpu, item_s=item_s, peak_rss_mib=peak,
        ops=len(items), failed=len(errors),
        errors={repr(k): v for k, v in sorted(errors.items(), key=repr)},
        digest=wl.digest({k: v for k, v in results.items() if k not in errors}),
    )
    if args.trace:
        out["layers"] = spans.layer_metrics(tracer, wall)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
