"""fatpt benchmark: fixed-input CLI workloads, timed end to end and traced
layer by layer from outside the package.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Run from a checkout: the fatpt package is imported from ``src/`` next to
this directory, never from anywhere else. One client calls
``fatpt.cli.run`` in process and sends each request only after the previous
one returned (a closed loop). A run repeats the workload's pass until
``--seconds`` have elapsed, and at least twice so that every report can be
compared with its first copy. Every report is checked (see workloads.py);
a failed check or an unexpected exit code counts as a failed operation.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each pass
untraced and then traced, reports the per-layer metrics of the traced passes
and the tracing overhead, and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people. The operation failure ratio is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import elimination  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 7
MODULES = ("cli", "weyl", "linsys", "betti", "splitting", "exactla", "_kernels", "cokernel", "lattice")

# Unit of each reported metric; the names match BENCHMARK.json.
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "classes_per_s": "1/s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
# Latency percentiles are taken over the workload's main request kind: a
# pass mixes cheap hilbert and heavier resolution requests in equal
# numbers, and the median of such a mix sits in the gap between the two.
LATENCY_KIND = {"census": "sweep", "verify": "sweep", "lattice": "resolution"}


class SetupError(RuntimeError):
    pass


def import_fatpt() -> dict:
    """Import fatpt from this checkout's src/ and return its modules."""
    src = ROOT / "src"
    if not (src / "fatpt" / "__init__.py").is_file():
        raise SetupError(f"no fatpt package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    fatpt = importlib.import_module("fatpt")
    if Path(fatpt.__file__).resolve().parent != src / "fatpt":
        raise SetupError(f"fatpt was imported from {fatpt.__file__}, not from {src}")
    return {name: importlib.import_module(f"fatpt.{name}") for name in MODULES}


def call(cli, argv: list[str]) -> tuple[int, str]:
    """One request through the public entry point; returns (exit code,
    report). A raised exception is an unexpected exit, code -1."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(list(argv))
        except Exception as exc:  # a traceback is a failed request, not a crash of the run
            sys.__stderr__.write(f"request {' '.join(argv)} raised {exc!r}\n")
            code = -1
    return code, out.getvalue()


def setup(workload: str, seed: int, size: str):
    """Import, input generation and one warm-up request: what a fresh
    process pays before its first request. The warm-up is the first request
    of the workload's tiny variant at the default seed, so set-up does the
    same work whatever the seed."""
    modules = import_fatpt()
    requests = workloads.build(workload, seed, size)
    warm = workloads.build(workload, workloads.DEFAULT_SEED, "tiny")[0]
    call(modules["cli"], warm.argv)
    return modules, requests


def time_setup(args) -> list[float]:
    """Set up in fresh interpreters, timed from spawn to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"set-up failed: {proc.stderr.strip()}")
    return samples


def run_pass(cli, requests, tracer=None):
    """Send every request once. Returns the pass wall time and
    (request, seconds, exit code, report) per request."""
    timings = []
    t_pass = time.perf_counter()
    for req in requests:
        if tracer is not None:
            tracer.request += 1
        t0 = time.perf_counter()
        code, text = call(cli, req.argv)
        timings.append((req, time.perf_counter() - t0, code, text))
    return time.perf_counter() - t_pass, timings


def check_pass(checker, tally, timings):
    """Check every report of a pass; returns (request, seconds, classes
    listed) per request."""
    out = []
    for req, dt, code, text in timings:
        verdict = checker.check(req, code, text)
        tally.add(verdict)
        out.append((req, dt, verdict.classes))
    return out


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, verdict) -> None:
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.problems.extend(verdict.problems)


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, walls, timed, setup_samples) -> tuple[dict, list[str]]:
    """Every request counts at its best time over the run's passes (best of
    N, as timeit does): other tenants of the machine only ever slow a
    request down, and their load comes and goes over tens of seconds."""
    best = {}
    for req, dt, classes in timed:
        if req.key not in best or dt < best[req.key][1]:
            best[req.key] = (req, dt, classes)
    rows = list(best.values())
    wall = sum(dt for _, dt, _ in rows)
    kind = LATENCY_KIND[workload]
    lat = [dt * 1e3 for req, dt, _ in rows if req.kind == kind]
    classes = sum(c for _, _, c in rows)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_samples),
        "classes_per_s": classes / wall,
        "requests_per_s": len(rows) / wall,
        "latency_p50_ms": statistics.median(lat),
        "latency_p95_ms": percentile(lat, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"wall_s: one pass of {len(rows)} requests, each at its best of {len(walls)} passes "
        f"(pass times {', '.join(f'{w:.3f}' for w in walls)} s)",
        f"setup_s: median of {len(setup_samples)} fresh set-ups",
        f"latency: {len(lat)} {kind} requests",
        f"classes_per_s: {classes} exceptional classes listed per pass",
    ]
    for k in sorted({req.kind for req, _, _ in rows}):
        ks = [dt * 1e3 for req, dt, _ in rows if req.kind == k]
        notes.append(f"  {k}: n={len(ks)} p50={statistics.median(ks):.2f} ms "
                     f"max={max(ks):.2f} ms")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, notes


def environment(modules, seed: int) -> dict:
    import numpy

    kernels = modules["_kernels"]
    return {
        "backend": kernels.backend_name(),
        "numba_importable": kernels.HAS_NUMBA,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "prime": modules["exactla"].DEFAULT_PRIME,
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny is for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and exit (used to time set-up)")
    parser.add_argument("--record-digests", action="store_true",
                        help="run one pass and record every report's sha256 in digests.json")
    return parser.parse_args(argv)


def record_digests(modules, requests) -> int:
    digests = workloads.load_digests()
    for req in requests:
        code, text = call(modules["cli"], req.argv)
        if code != 0:
            print(f"{req.key}: exit code {code}", file=sys.stderr)
            return 1
        digests[req.key] = workloads.sha256(text)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(requests)} digests in {workloads.DIGESTS}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        modules, requests = setup(args.workload, args.seed, args.size)
        timed_setup = not (args.setup_only or args.record_digests or args.trace)
        setup_samples = time_setup(args) if timed_setup else []
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    if args.record_digests:
        return record_digests(modules, requests)

    env = environment(modules, args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    tally = Tally()
    elim_lines, elim_problems = elimination.check(modules["_kernels"], env["prime"], args.seed)
    tally.attempted += 1
    tally.failed += bool(elim_problems)
    tally.problems.extend(elim_problems)
    for line in elim_lines:
        print(line)

    cli = modules["cli"]
    checker = workloads.Checker(modules, workloads.load_digests())
    walls, timed = [], []
    traced_walls, overheads = [], []
    tracer = tracing.Tracer(modules) if args.trace else None
    start = time.perf_counter()
    while len(walls) + len(traced_walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        wall, timings = run_pass(cli, requests)
        walls.append(wall)
        timed.extend(check_pass(checker, tally, timings))
        if tracer is not None:
            tracer.install()
            try:
                twall, timings = run_pass(cli, requests, tracer)
            finally:
                tracer.remove()
            check_pass(checker, tally, timings)
            traced_walls.append(twall)
            overheads.append(twall - wall)

    if tracer is None:
        metrics, notes = end_to_end(args.workload, walls, timed, setup_samples)
    else:
        metrics, notes = per_layer(args, tracer, traced_walls, overheads)
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {tally.failed}/{tally.attempted}")
    for problem in tally.problems[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def per_layer(args, tracer, traced_walls, overheads):
    cols = tracer.columns()
    values = tracing.summarize(cols, tracer.names, tracer.info, len(traced_walls))
    values["trace.overhead_s"] = statistics.median(overheads)
    values["trace.spans"] = len(cols["sid"]) / len(traced_walls)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-spans.csv"
    tracing.write_csv(path, cols, tracer.names)
    notes = [
        f"traced {len(traced_walls)} passes; median traced pass {statistics.median(traced_walls):.3f} s; "
        f"spans written to {path.relative_to(ROOT)}",
    ]
    for suffix in ("self_s", "self_cpu_s"):
        shares = tracing.layer_shares(values, suffix)
        notes.append(f"share of {suffix} by layer: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    if tracer.missing:
        notes.append("not traced, no longer in the package: " + ", ".join(tracer.missing))
    claim, holds = tracing.dominant_layer(args.workload, values)
    notes.append(f"dominant layer {'confirmed' if holds else 'NOT confirmed'}: {claim}")
    return {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}, notes


if __name__ == "__main__":
    sys.exit(main())
