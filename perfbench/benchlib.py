"""Workload-independent helpers of the ASdb benchmark.

Nothing in here imports :mod:`repro`: these are the statistics, the
``/proc`` and ``/metrics`` parsers, the span tracer and the run stamp
that every workload shares, kept separate so their unit tests run
without building a world.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import subprocess
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it in
#: its window; a window too small for that does not report the tail.
MIN_BEYOND = 10


# -- statistics ---------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample (mean of the middle pair)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1] of an ascending sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``."""
    return n - max(1, math.ceil(q * n))


def window_tail(samples: Sequence[float], q: float,
                min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Percentile ``q`` of one window, or None when fewer than
    ``min_beyond`` samples would lie beyond it."""
    if samples_beyond(len(samples), q) < min_beyond:
        return None
    return nearest_rank(sorted(samples), q)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the rule the
    benchmark's steadiness is judged by)."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


# -- speed normalization ------------------------------------------------------

#: Thread CPU seconds :func:`probe_kernel` takes at the reference speed
#: (the common state of the reference box, 2 shared cores).
REFERENCE_PROBE_S = 0.0014


def probe_kernel() -> int:
    """A fixed slice of pure-Python work (dict, str, sort, json), about
    a millisecond: the yardstick for how fast this CPU is right now.
    The garbage collector is off while it runs, so a collection of the
    caller's heap is not read as a slow CPU."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = {}
        for i in range(1500):
            key = f"k{i % 97}-{i}"
            table[key] = len(key) * i
        ordered = sorted(table.items(), key=lambda item: item[1])
        return len(json.dumps(ordered[:300]))
    finally:
        if enabled:
            gc.enable()


def probe() -> float:
    """Thread CPU seconds of one :func:`probe_kernel` run."""
    start = time.thread_time()
    probe_kernel()
    return time.thread_time() - start


def steady_probe() -> float:
    """Median of three :func:`probe` runs: one disturbed probe does not
    decide the speed it reports."""
    return median(probe() for _ in range(3))


def pin_to_one_cpu() -> int:
    """Keep this process on one CPU, so the probes it takes measure the
    CPU its work runs on; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedLog:
    """Segments of work, each timed between two speed probes.

    On the reference box (2 shared cores) each CPU switches between a
    fast and a slow state (about 1.8x apart) for stretches of seconds,
    in wall and CPU time alike, and at times the hypervisor takes the
    CPU away altogether (steal).  A segment's wall time minus
    the steal its CPU suffered, and its CPU time, are scaled by
    ``REFERENCE_PROBE_S`` over the mean of the probes (each a
    :func:`steady_probe`) taken right before and right after it: times
    at the reference speed.  Raw totals are kept alongside.  The
    process must stay on ``cpu`` (see :func:`pin_to_one_cpu`).
    """

    def __init__(self, cpu: int, tracer: Optional["Tracer"] = None) -> None:
        self._cpu = cpu
        self._tracer = tracer
        self._before = self._probe()
        self._open: Optional[Tuple[float, float, int]] = None
        self.wall = self.cpu = self.stolen = 0.0
        self.norm_wall = self.norm_cpu = 0.0

    def _probe(self) -> float:
        if self._tracer is None:
            return steady_probe()
        with self._tracer.span("bench.probe"):
            return steady_probe()

    def _steal_ticks(self) -> int:
        with open("/proc/stat") as handle:
            return parse_proc_stat(handle.read(), self._cpu)["steal"]

    def start(self) -> None:
        self._open = (time.perf_counter(), time.process_time(),
                      self._steal_ticks())

    def stop(self) -> Tuple[float, float, float]:
        """Close the open segment; returns its ``(wall s, cpu s)`` at
        the reference speed and the raw wall seconds."""
        wall = time.perf_counter() - self._open[0]
        cpu = time.process_time() - self._open[1]
        stolen = min(wall, (self._steal_ticks() - self._open[2])
                     / clock_ticks())
        self._open = None
        after = self._probe()
        factor = 2.0 * REFERENCE_PROBE_S / (self._before + after)
        self._before = after
        self.wall += wall
        self.cpu += cpu
        self.stolen += stolen
        self.norm_wall += (wall - stolen) * factor
        self.norm_cpu += cpu * factor
        return (wall - stolen) * factor, cpu * factor, wall

    @property
    def mean_factor(self) -> float:
        """Raw wall seconds to reference seconds, over every segment."""
        return self.norm_wall / self.wall if self.wall else 1.0


# -- /proc and /metrics parsing ----------------------------------------------


def clock_ticks() -> int:
    return os.sysconf("SC_CLK_TCK")


_CPU_FIELDS = ("user", "nice", "system", "idle", "iowait", "irq",
               "softirq", "steal")


def parse_proc_stat(text: str, cpu: Optional[int] = None) -> Dict[str, int]:
    """One ``cpu`` line of ``/proc/stat`` as named tick counts: the
    aggregate line, or ``cpuN``'s (guest time is already folded into
    user and nice)."""
    name = "cpu" if cpu is None else f"cpu{cpu}"
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == name:
            values = [int(value) for value in parts[1:1 + len(_CPU_FIELDS)]]
            values += [0] * (len(_CPU_FIELDS) - len(values))
            return dict(zip(_CPU_FIELDS, values))
    raise ValueError(f"no {name} line in /proc/stat")


def steal_share(before: Mapping[str, int], after: Mapping[str, int]) -> float:
    """Share of all CPU ticks between two ``/proc/stat`` reads that the
    hypervisor gave to other guests."""
    total = sum(after[name] - before[name] for name in _CPU_FIELDS)
    if total <= 0:
        return 0.0
    return (after["steal"] - before["steal"]) / total


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Sample lines of a Prometheus text exposition, keyed by
    ``(metric name, sorted label pairs)``; comments are skipped."""
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, brace, rest = head.partition("{")
        labels: List[Tuple[str, str]] = []
        if brace:
            body = rest.rstrip("}")
            for pair in _split_labels(body):
                key, _, raw = pair.partition("=")
                labels.append((key.strip(), json.loads(raw)))
        samples[(name.strip(), tuple(sorted(labels)))] = float(value)
    return samples


def _split_labels(body: str) -> List[str]:
    """Split ``a="x",b="y, z"`` on the commas outside quotes."""
    parts, current, quoted, escaped = [], [], False, False
    for char in body:
        if escaped:
            escaped = False
        elif char == "\\":
            escaped = True
        elif char == '"':
            quoted = not quoted
        elif char == "," and not quoted:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if "".join(current).strip():
        parts.append("".join(current))
    return parts


def by_label(samples, name: str, label: str) -> Dict[str, float]:
    """Values of one metric keyed by one label's value."""
    out: Dict[str, float] = {}
    for (metric, labels), value in samples.items():
        if metric == name:
            key = dict(labels).get(label, "")
            out[key] = out.get(key, 0.0) + value
    return out


def metric_total(samples, name: str) -> float:
    return sum(value for (metric, _), value in samples.items()
               if metric == name)


# -- host conditions over a measured window ----------------------------------


class HostWindow:
    """Steal share and load average across one measured window, so a
    noisy run can be explained from its own output."""

    def __init__(self) -> None:
        self._stat = _read_proc_stat()

    def close(self) -> Dict[str, float]:
        after = _read_proc_stat()
        with open("/proc/loadavg") as handle:
            load1 = float(handle.read().split()[0])
        return {"steal_share": steal_share(self._stat, after),
                "loadavg_1m": load1}


def _read_proc_stat() -> Dict[str, int]:
    with open("/proc/stat") as handle:
        return parse_proc_stat(handle.read())


def summarize_hosts(windows: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    if not windows:
        return {}
    steal = [w["steal_share"] for w in windows]
    load = [w["loadavg_1m"] for w in windows]
    return {"windows": len(windows), "steal_share_median": median(steal),
            "steal_share_max": max(steal), "loadavg_1m_median": median(load),
            "loadavg_1m_max": max(load)}


# -- span tracer --------------------------------------------------------------

_MISSING = object()


class Tracer:
    """Spans recorded around calls into the program's public functions.

    :meth:`wrap` replaces an attribute (a class method or a module
    global) with a timing wrapper; :meth:`restore` puts every original
    back.  Spans nest by call order on one thread, which is how the
    scalar release pass and a maintenance sweep run.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_ = self.spans[index]
            self.spans[index] = (name_, start, time.perf_counter(), parent_)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``after(tracer, result, args, kwargs)`` runs outside the span
        and may record counts from the call's result.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`restore`.  The raw attribute
        (a classmethod object, say) is what gets put back."""
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)

    def durations(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)


def self_times(spans: Sequence[Tuple[str, float, float, int]]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus the part of its
    interval that its direct children cover (children's overlaps with
    each other are counted once)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[name] += (end - start) - covered
    return dict(out)


def attribution(tracer: Tracer, op_name: str = "op") -> Dict[str, float]:
    """``unattributed_s``/``unattributed_share``: the op spans' own self
    time (what no layer span covers) over the total op wall time."""
    own = tracer.self_times().get(op_name, 0.0)
    wall = tracer.durations().get(op_name, 0.0)
    return {"unattributed_s": own,
            "unattributed_share": own / wall if wall else 0.0}


# -- run stamp -----------------------------------------------------------------


def source_digest(src_root: str) -> str:
    """blake2b over every ``.py`` file of the program, in path order —
    identifies the code when the checkout is not a git repository."""
    hasher = hashlib.blake2b(digest_size=8)
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                hasher.update(os.path.relpath(path, src_root).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def git_sha(root: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def run_stamp(root: str, workload: str, seed: int, trace: bool) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(root),
        "src_digest": source_digest(os.path.join(root, "src")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Mapping[str, Tuple[float, str]]) -> str:
    """The one JSON object the benchmark prints last."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
