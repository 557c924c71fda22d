"""Spans around calls into fatpt's layers, recorded from outside the package.

Each traced function is replaced, for the duration of a traced pass, at the
binding its caller looks it up through: ``cli.compute_splitting`` and
``cokernel.compute_splitting`` are separate imported names, while
``_kernels.rank`` is a module attribute that ``FpMatrix`` and
``min_syzygy_degree`` read at call time. Nothing under ``src/`` is edited.

A span records its name, start, end, parent span, thread and request. Spans
are appended to per-thread column buffers (so the sweep's worker threads
never share a buffer), kept in memory, and written once at the end. A span
opened on a thread with no open span (a sweep pool worker) gets the
request's root span, the ``cli.run`` call, as its parent.

Self time is a span's duration minus the union of the intervals its child
spans cover; children on pool threads overlap, hence the union.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute, span name). One span name may be reached through
# several bindings; a call passes through exactly one of them.
BINDINGS = (
    ("cli", "run", "cli.run"),
    ("cli", "enumerate_exceptional", "weyl.enumerate_exceptional"),
    ("weyl", "reduce", "weyl.reduce"),
    ("linsys", "reduce", "weyl.reduce"),
    ("betti", "reduce", "weyl.reduce"),
    ("cokernel", "reduce", "weyl.reduce"),
    ("cli", "decompose", "linsys.decompose"),
    ("linsys", "decompose", "linsys.decompose"),
    ("betti", "decompose", "linsys.decompose"),
    ("linsys", "expected_h0", "linsys.expected_h0"),
    ("betti", "expected_h0", "linsys.expected_h0"),
    ("cokernel", "expected_h0", "linsys.expected_h0"),
    ("cli", "hilbert", "linsys.hilbert"),
    ("cli", "assemble_resolution", "betti.assemble_resolution"),
    ("cli", "compute_splitting", "splitting.compute_splitting"),
    ("cokernel", "compute_splitting", "splitting.compute_splitting"),
    ("splitting", "_splitting_once", "splitting.trial"),
    ("splitting", "parametrize", "splitting.parametrize"),
    ("splitting", "_replay_points", "splitting.point_replay"),
    ("splitting", "_replay_forms", "splitting.form_replay"),
    ("splitting", "min_syzygy_degree", "exactla.min_syzygy_degree"),
    ("splitting", "form_gcd", "exactla.form_gcd"),
    ("exactla", "form_gcd", "exactla.form_gcd"),
    ("splitting", "form_divexact", "exactla.form_divexact"),
    ("_kernels", "rank", "kernels.rank"),
    ("_kernels", "nullspace", "kernels.nullspace"),
    ("cli", "cok_dimension", "cokernel.cok_dimension"),
    ("cokernel", "_formula_cokernel", "cokernel.formula"),
    ("cokernel", "fat_point_matrix", "cokernel.fat_point_matrix"),
    ("cokernel", "_product_matrix", "cokernel.product_matrix"),
)

# Layers are named after fatpt's modules; ``kernels`` is ``fatpt._kernels``
# (metric names must start with a letter).
LAYERS = ("cli", "weyl", "linsys", "betti", "splitting", "exactla", "kernels", "cokernel")

# Largest matrix dimension below 64 is small, below 512 mid, else large.
SHAPE_BUCKETS = ((64, "small"), (512, "mid"))


def shape_bucket(rows: int, cols: int) -> str:
    biggest = max(rows, cols)
    for limit, name in SHAPE_BUCKETS:
        if biggest < limit:
            return name
    return "large"


def _shape_info(fn, args, kwargs, result):
    rows, cols = args[0].shape
    rank = result if isinstance(result, int) else cols - result.shape[0]
    return rows, cols, rank


def _splitting_key(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return tuple(str(v) for v in bound.arguments.values())


def _trial_result(fn, args, kwargs, result):
    return (result.a, result.b)


def _formula_attempt(fn, args, kwargs, result):
    return result[1]["attempt"]


# Span names whose return value (or arguments) the per-layer counters need.
INFO = {
    "kernels.rank": _shape_info,
    "kernels.nullspace": _shape_info,
    "splitting.compute_splitting": _splitting_key,
    "splitting.trial": _trial_result,
    "cokernel.formula": _formula_attempt,
}


class _ThreadBuffer:
    """Span columns written by one thread only."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.stack: list[int] = []
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.c0 = array("q")
        self.c1 = array("q")
        self.request = array("q")
        self.failed = array("b")


class Tracer:
    """Installs span wrappers on the fatpt modules and collects the spans."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self.info: dict[int, object] = {}
        self.missing: list[str] = []
        self.request = 0
        self.root = 0

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, fn, name: str):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        name_idx = self._name_index[name]
        info_fn = INFO.get(name)
        clock = time.perf_counter_ns
        cpu_clock = time.thread_time_ns
        tracer = self

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            parent = stack[-1] if stack else tracer.root
            sid = next(tracer._ids)
            if not parent:
                tracer.root = sid
            stack.append(sid)
            failed = 1
            c0 = cpu_clock()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                t1 = clock()
                c1 = cpu_clock()
                stack.pop()
                buf.sid.append(sid)
                buf.parent.append(parent)
                buf.name.append(name_idx)
                buf.t0.append(t0)
                buf.t1.append(t1)
                buf.c0.append(c0)
                buf.c1.append(c1)
                buf.request.append(tracer.request)
                buf.failed.append(failed)
                if not parent:
                    tracer.root = 0
            if info_fn is not None:
                tracer.info[sid] = info_fn(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding the modules still have; the others are listed
        in ``missing`` (their spans are absent, not zero-cost)."""
        self.missing = []
        for mod_name, attr, span in BINDINGS:
            module = self.modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def columns(self) -> dict[str, np.ndarray]:
        """All recorded spans as int64 columns (see FIELDS), ordered by id."""
        bufs = self._buffers
        cols = {f: np.concatenate([np.frombuffer(getattr(b, f), dtype=np.int64) for b in bufs])
                for f in FIELDS if f not in ("thread", "failed")}
        cols["thread"] = np.concatenate([np.full(len(b.sid), b.thread_id, dtype=np.int64) for b in bufs])
        cols["failed"] = np.concatenate([np.frombuffer(b.failed, dtype=np.int8) for b in bufs]).astype(np.int64)
        order = np.argsort(cols["sid"], kind="stable")
        return {f: c[order] for f, c in cols.items()}


# Span columns: wall clock (t0, t1) and the thread's CPU clock (c0, c1) in
# nanoseconds; ``name`` indexes ``Tracer.names``; ``failed`` is 1 when the
# call raised.
FIELDS = ("sid", "parent", "name", "t0", "t1", "c0", "c1", "thread", "request", "failed")


def write_csv(path, cols: dict, names: list[str], chunk: int = 100_000) -> None:
    """Write the spans as CSV, one line each, with the span name spelled out."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(FIELDS) + "\n")
        for lo in range(0, len(cols["sid"]), chunk):
            part = [cols[f][lo:lo + chunk].tolist() for f in FIELDS]
            part[2] = [names[i] for i in part[2]]
            fh.writelines(",".join(map(str, row)) + "\n" for row in zip(*part))


def _union_ns(intervals) -> int:
    total = 0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


# Metrics that are ratios or maxima, not sums over passes.
NOT_PER_PASS = {
    "kernels.max_rows",
    "kernels.max_cols",
    "exactla.ranks_per_syzygy",
    "splitting.useful_ratio",
    "cli.pool_overlap",
}


def unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name == "kernels.elim_ops":
        return "madd-computed"
    if name in ("kernels.max_rows", "kernels.max_cols"):
        return name.rsplit("_", 1)[1]
    if name in NOT_PER_PASS:
        return "ratio"
    return "count"


def summarize(cols: dict, names: list[str], info: dict, passes: int) -> dict:
    """Per-layer metrics, per traced pass.

    ``cols`` is ``Tracer.columns()`` over ``passes`` traced passes;
    ``names`` and ``info`` are the tracer's.
    """
    sid, parent, name = cols["sid"], cols["parent"], cols["name"]
    t0, t1, thread = cols["t0"], cols["t1"], cols["thread"]
    dur = t1 - t0
    cpu = cols["c1"] - cols["c0"]
    n = len(sid)
    index = {nm: i for i, nm in enumerate(names)}

    # Children on the parent's thread run one after another, so their wall
    # times add up; CPU time is per thread, so only those count against the
    # parent's CPU time. A parent with children on other threads (cli.run
    # over the sweep's workers) gets the union of all its children's spans.
    child = np.nonzero(parent)[0]
    pos = np.searchsorted(sid, parent[child])
    same = thread[child] == thread[pos]
    child_wall = np.bincount(pos[same], weights=dur[child[same]], minlength=n)
    child_cpu = np.bincount(pos[same], weights=cpu[child[same]], minlength=n)
    for p in np.unique(pos[~same]):
        kids = child[pos == p]
        child_wall[p] = _union_ns(zip(t0[kids].tolist(), t1[kids].tolist()))
    layer_of = np.array([LAYERS.index(nm.split(".", 1)[0]) for nm in names], dtype=np.int64)
    layer = layer_of[name]
    self_s = np.bincount(layer, weights=dur - child_wall, minlength=len(LAYERS)) / 1e9
    self_cpu_s = np.bincount(layer, weights=cpu - child_cpu, minlength=len(LAYERS)) / 1e9
    all_calls = np.bincount(name, minlength=len(names))
    all_secs = np.bincount(name, weights=dur, minlength=len(names)) / 1e9

    def calls(nm: str) -> int:
        return int(all_calls[index[nm]]) if nm in index else 0

    def secs(nm: str) -> float:
        return float(all_secs[index[nm]]) if nm in index else 0.0

    def rows(nm: str):
        return np.nonzero(name == index[nm])[0] if nm in index else np.empty(0, dtype=np.int64)

    m: dict[str, float] = {}

    # kernels: calls and time by shape bucket, plus a computed operation
    # count: the pivot-by-pivot reduction updates every row on every pivot,
    # so one call costs about rows * cols * rank multiply-adds.
    kern = {(op, b): [0, 0.0] for op in ("rank", "nullspace") for b in ("small", "mid", "large")}
    elim_ops = max_rows = max_cols = 0
    for op in ("rank", "nullspace"):
        for i in rows(f"kernels.{op}"):
            if int(sid[i]) not in info:
                continue
            r, c, rank = info[int(sid[i])]
            entry = kern[(op, shape_bucket(r, c))]
            entry[0] += 1
            entry[1] += dur[i] / 1e9
            elim_ops += r * c * rank
            max_rows, max_cols = max(max_rows, r), max(max_cols, c)
    for (op, bucket), (count, total) in kern.items():
        m[f"kernels.{op}.{bucket}.calls"] = count
        m[f"kernels.{op}.{bucket}.s"] = total
    m["kernels.elim_ops"] = elim_ops
    m["kernels.max_rows"] = max_rows
    m["kernels.max_cols"] = max_cols

    # exactla: syzygy degree and the form arithmetic of the replay.
    ranks = rows("kernels.rank")
    ranks = ranks[parent[ranks] > 0]
    syz = index.get("exactla.min_syzygy_degree", -1)
    syz_ranks = int(np.count_nonzero(name[np.searchsorted(sid, parent[ranks])] == syz))
    m["exactla.min_syzygy_degree.calls"] = calls("exactla.min_syzygy_degree")
    m["exactla.min_syzygy_degree.s"] = secs("exactla.min_syzygy_degree")
    m["exactla.ranks_per_syzygy"] = syz_ranks / max(1, calls("exactla.min_syzygy_degree"))
    m["exactla.form_gcd.calls"] = calls("exactla.form_gcd")
    m["exactla.form_gcd.s"] = secs("exactla.form_gcd")
    m["exactla.form_divexact.s"] = secs("exactla.form_divexact")

    # splitting: useful work, replays, retries and trial agreement. A memo
    # could reuse a splitting only within one request (one process).
    keys = [(int(cols["request"][i]), info[int(sid[i])])
            for i in rows("splitting.compute_splitting") if int(sid[i]) in info]
    votes = defaultdict(set)
    degenerate = 0
    for i in rows("splitting.trial"):
        if cols["failed"][i]:
            degenerate += 1
        elif int(sid[i]) in info:
            votes[int(parent[i])].add(info[int(sid[i])])
    m["splitting.compute_splitting.calls"] = calls("splitting.compute_splitting")
    m["splitting.compute_splitting.s"] = secs("splitting.compute_splitting")
    m["splitting.useful_ratio"] = len(set(keys)) / len(keys) if keys else 1.0
    m["splitting.parametrize.calls"] = calls("splitting.parametrize")
    m["splitting.point_replay.s"] = secs("splitting.point_replay")
    m["splitting.form_replay.s"] = secs("splitting.form_replay")
    m["splitting.degenerate_retries"] = degenerate
    m["splitting.trials_disagree"] = sum(1 for v in votes.values() if len(v) > 1)

    # cokernel: the escape verification of sweep --verify.
    m["cokernel.cok_dimension.calls"] = calls("cokernel.cok_dimension")
    m["cokernel.cok_dimension.s"] = secs("cokernel.cok_dimension")
    m["cokernel.fat_point_matrix.s"] = secs("cokernel.fat_point_matrix")
    m["cokernel.product_matrix.s"] = secs("cokernel.product_matrix")
    m["cokernel.draw_retries"] = sum(info.get(int(sid[i]), 0) for i in rows("cokernel.formula"))

    # weyl, linsys, betti: the lattice arithmetic.
    m["weyl.reduce.calls"] = calls("weyl.reduce")
    m["weyl.reduce.s"] = secs("weyl.reduce")
    m["weyl.enumerate_exceptional.s"] = secs("weyl.enumerate_exceptional")
    m["linsys.decompose.calls"] = calls("linsys.decompose")
    m["linsys.decompose.s"] = secs("linsys.decompose")
    m["linsys.expected_h0.calls"] = calls("linsys.expected_h0")
    m["betti.assemble_resolution.s"] = secs("betti.assemble_resolution")

    # cli: request time, and how many splitting spans run at once under the
    # sweep's thread pool.
    m["cli.run.s"] = secs("cli.run")
    m["cli.pool_overlap"] = secs("splitting.compute_splitting") / secs("cli.run") if secs("cli.run") else 0.0

    for i, layer_name in enumerate(LAYERS):
        m[f"{layer_name}.self_s"] = float(self_s[i])
        m[f"{layer_name}.self_cpu_s"] = float(self_cpu_s[i])
    return {k: v if k in NOT_PER_PASS else v / passes for k, v in m.items()}


def layer_shares(metrics: dict, suffix: str = "self_s") -> dict:
    """Each layer's self time as a share of all layers' self time."""
    selfs = {layer: metrics[f"{layer}.{suffix}"] for layer in LAYERS}
    total = sum(selfs.values()) or 1.0
    return {layer: selfs[layer] / total for layer in LAYERS}


def dominant_layer(workload: str, metrics: dict) -> tuple[str, bool]:
    """The layer each workload is meant to stress, and whether the traced
    pass confirms it (see README.md)."""
    shares = layer_shares(metrics)
    if workload == "census":
        share = shares["splitting"] + shares["exactla"]
        return f"splitting + exactla self time {share:.1%} of all self time (majority intended)", share > 0.5
    if workload == "verify":
        big = sum(metrics[f"kernels.{op}.{b}.s"] for op in ("rank", "nullspace") for b in ("mid", "large"))
        layer, other = max(((l, metrics[f"{l}.self_s"]) for l in LAYERS if l != "kernels"),
                           key=lambda kv: kv[1])
        return (f"kernels mid/large {big:.3f} s against the largest other layer, "
                f"{layer} {other:.3f} s self (largest intended)"), big > other
    share = shares["weyl"] + shares["linsys"]
    return f"weyl + linsys self time {share:.1%} of all self time (majority intended)", share > 0.5
