"""linksig benchmark: one workload, timed from outside the package.

    python3 bench/run.py --workload words --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; linksig is imported from ``src/``.
One process, one thread, a closed loop with a single client: each request
starts after the previous answer.  Every answer is checked against an
independent route after its timing stops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sends every
request twice, plain and with span wrappers installed, runs the CLI as a
subprocess on a few fixed words, and prints the per-layer metrics.  The
last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from refclock import REFERENCE, RefClock
from spans import PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS, block_size

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"

#: set-ups per run; setup_s is their median
SETUPS = 7

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: end-to-end timings, reported at reference speed (see refclock)
TIMINGS = ("items_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s")

#: fixed words for the CLI layer: (strands, letters)
CLI_WORDS = ((3, "1,2,1"), (4, "1,-2,3,1,-2,3,2,-1"), (5, "1,2,3,4,-1,2,-3,4,2,3"))


def setup(workload: str, seed: int, span=lambda name: nullcontext()):
    """Import linksig afresh and build the workload's requests."""
    for name in [m for m in sys.modules if m == "linksig" or m.startswith("linksig.")]:
        del sys.modules[name]
    start = perf_counter()
    ls = importlib.import_module("linksig")
    importlib.import_module("linksig.genskein")
    requests = WORKLOADS[workload](ls, seed, span)
    return perf_counter() - start, ls, requests


def run_request(req, tracer=None) -> tuple[list[float], int]:
    """Time each call of one request, then gate the answers untimed.

    Returns the latencies and the number of failed items: every item of a
    request that raised or gave a wrong answer.
    """
    latencies, outs, ok = [], [], True
    for call in req.calls:
        start = perf_counter()
        try:
            if tracer is None:
                outs.append(call())
            else:
                with tracer.span("bench.item"):
                    outs.append(call())
        except Exception:  # a request that raises is a failed request
            ok = False
        latencies.append(perf_counter() - start)
    with tracer.pause() if tracer is not None else nullcontext():
        try:
            ok = ok and bool(req.check(outs, req.expect()))
        except Exception:  # an answer the gate cannot read is wrong
            ok = False
    if ok:
        return latencies, 0
    print(f"FAILED: {req.label}", file=sys.stderr)
    return latencies, len(req.calls)


def run_loop(requests, seconds: float, clock: RefClock):
    """Send requests in order until the time is up.

    Returns the wall latencies of each request sent, the reference-clock
    sample index each was taken next to, and the failed items.
    """
    per_request: list[list[float]] = []
    samples: list[int] = []
    failed = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        samples.append(clock.tick())
        lat, bad = run_request(requests[len(per_request) % len(requests)])
        per_request.append(lat)
        failed += bad
    clock.sample()
    return per_request, samples, failed


def run_paired(requests, seconds: float, tracer, ls):
    """Send each request twice, plain and traced, alternating which goes first.

    Returns (plain latencies, traced latencies, failed items).  Pairing the
    two runs of one input keeps warm-up and input mix out of the overhead.
    """
    plain: list[float] = []
    traced: list[float] = []
    failed = 0
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        req = requests[i % len(requests)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                lat, bad = run_request(req)
                plain += lat
            else:
                tracer.install(ls)
                try:
                    tracer.item = len(traced)
                    lat, bad = run_request(req, tracer)
                finally:
                    tracer.uninstall()
                tracer.end_item()
                traced += lat
            failed += bad
        i += 1
    return plain, traced, failed


def latency_stats(latencies: list[float]) -> tuple[float, float, float]:
    """(items per second, p50 ms, p90 ms) of one set of item latencies."""
    deciles = (statistics.quantiles(latencies, n=10) if len(latencies) > 1
               else latencies * 9)
    return (len(latencies) / sum(latencies), statistics.median(latencies) * 1e3,
            deciles[8] * 1e3)


def end_to_end(per_request, block: int, failed: int, setup_s: float) -> dict[str, float]:
    """Timings pooled over the complete blocks of the run.

    A block is a run of consecutive requests that samples the workload's
    whole size schedule, so complete blocks hold every size evenly.  A run
    shorter than one block is taken whole.
    """
    whole = len(per_request) // block * block or len(per_request)
    items_per_s, p50, p90 = latency_stats(sum(per_request[:whole], []))
    return {
        "items_per_s": items_per_s,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "ok_ratio": 1 - failed / sum(len(lat) for lat in per_request),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def cli_layer(ls) -> tuple[dict[str, float], int]:
    """Time `python -m linksig.cli invariants` and a bare import, one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports, calls, failed = [], [], 0
    probe = ("import time; t = time.perf_counter(); import linksig.cli; "
             "print(time.perf_counter() - t)")
    for strands, text in CLI_WORDS:
        done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        imports.append(float(done.stdout))
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "linksig.cli", "invariants",
             "--strands", str(strands), f"--word={text}"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        calls.append(perf_counter() - start)
        want = json.loads(json.dumps(
            ls.seifert.invariants_report(ls.BraidWord.from_text(strands, text))))
        try:
            ok = done.returncode == 0 and json.loads(done.stdout) == want
        except json.JSONDecodeError:
            ok = False
        if not ok:
            failed += 1
            print(f"FAILED: cli invariants {strands} {text}", file=sys.stderr)
    return ({"cli.invariants_ms": statistics.median(calls) * 1e3,
             "cli.import_ms": statistics.median(imports) * 1e3}, failed)


def per_layer(workload: str, seed: int, seconds: float):
    tracer = Tracer()
    _, ls, requests = setup(workload, seed, tracer.span)
    plain, traced, failed = run_paired(requests, seconds, tracer, ls)
    metrics = tracer.summary(len(traced))
    metrics["braid.letters"] = sum(len(w.letters) for r in requests for w in r.words)
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
    cli, failed_cli = cli_layer(ls)
    metrics.update(cli)
    tracer.write(TRACE_DIR / f"{workload}.jsonl")
    attempted = len(plain) + len(traced) + len(CLI_WORDS)
    return metrics, attempted, failed + failed_cli


def environment() -> str:
    try:
        import gmpy2  # noqa: F401  (the intmatrix integer shim changes speed)
        gmpy2_ok = True
    except ImportError:
        gmpy2_ok = False
    return (f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
            f"gmpy2 {'importable' if gmpy2_ok else 'absent'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "linksig" / "__init__.py").is_file():
        print(f"error: no linksig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        measured, attempted, failed = per_layer(args.workload, args.seed, args.seconds)
        metrics = {name: measured[name] for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        clock = RefClock()
        setups, raw_setups = [], []
        for _ in range(SETUPS):
            requests = None
            gc.collect()
            index = clock.sample()
            seconds, ls, requests = setup(args.workload, args.seed)
            clock.sample()
            raw_setups.append(seconds)
            setups.append(seconds * clock.scale(index))
        per_request, samples, failed = run_loop(requests, args.seconds, clock)
        attempted = sum(len(lat) for lat in per_request)
        block = block_size(args.workload, requests)
        scaled = [[x * clock.scale(i) for x in lat] for lat, i in zip(per_request, samples)]
        metrics = end_to_end(scaled, block, failed, statistics.median(setups))
        units = END_TO_END_UNITS
        raw = end_to_end(per_request, block, failed, statistics.median(raw_setups))
        print(f"# wall-clock, unscaled: {', '.join(f'{k} {raw[k]:.6g}' for k in TIMINGS)}; "
              f"reference loop median {statistics.median(clock.samples) * 1e3:.3f} ms "
              f"over {len(clock.samples)} samples (reference {REFERENCE * 1e3:g} ms)")

    print(f"# {args.workload} seed {args.seed}: {attempted} items, {failed} failed "
          f"(failed_ratio {failed / attempted:.4g}); {environment()}")
    for name, value in metrics.items():
        print(f"#   {name:34s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
