"""Load loop, answer checking and host readings shared by the workloads."""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.serving.errors import DeadlineExceededError, ServiceOverloadedError

FAILURE_TYPES = ("overload", "deadline", "worker_error", "wrong_answer")
#: a sampler window in which the host stole at most this share of busy
#: CPU counts toward the latency figures (see :func:`latency_metrics`)
STEAL_CUT = 0.05


def failure_type(exc: BaseException) -> str:
    """The failure class a raised request counts under."""
    if isinstance(exc, ServiceOverloadedError):
        return "overload"
    if isinstance(exc, DeadlineExceededError):
        return "deadline"
    return "worker_error"


def canonical(experts, terms, version) -> tuple:
    """An answer's checked content: ids, exact score reprs, terms, version."""
    return (
        tuple((expert.user_id, repr(expert.score)) for expert in experts),
        tuple(terms),
        int(version),
    )


def record(query: str, sent: float, done: float, answer) -> tuple:
    """What a phase keeps of one answer.

    ``(query, latency, version, fingerprint, terms, done)``: the
    fingerprint of the checked content rather than the answer, so the
    benchmark's own memory does not grow with throughput and move
    ``pss_mb``.
    """
    content = canonical(answer.experts, answer.terms, answer.snapshot_version)
    return (query, done - sent, answer.snapshot_version, hash(content), len(answer.terms), done)


@dataclass
class Phase:
    """One phase of a run: every request sent, with its outcome."""

    name: str
    #: :func:`record` of every answered request
    answered: list = field(default_factory=list)
    failures: dict = field(default_factory=lambda: dict.fromkeys(FAILURE_TYPES, 0))

    @property
    def sent(self) -> int:
        return len(self.answered) + sum(self.failures.values())

    def counts(self) -> dict:
        failed = sum(self.failures.values())
        return {
            "sent": self.sent,
            "succeeded": self.sent - failed,
            "failed": failed,
            "failures": dict(self.failures),
        }


def closed_loop(name, call, stream, *, callers, seconds, trace=None, wait_for=None,
                on_done=None):
    """Replay ``stream`` (cycled) from ``callers`` threads for ``seconds``.

    Each caller sends its next request as soon as the previous answer
    arrives.  With ``wait_for`` (a thread), the phase
    also runs until that thread has ended.  With ``trace``, every
    request runs under its own request id.  ``on_done()``, if given, is
    called after each request ends, answered or failed, outside its
    timing.
    """
    phase = Phase(name)
    taken = itertools.count()
    per_caller = [Phase(name) for _ in range(callers)]
    clock = time.perf_counter
    deadline = clock() + seconds

    def running() -> bool:
        if clock() < deadline:
            return True
        return wait_for is not None and wait_for.is_alive()

    def caller(mine: Phase) -> None:
        while running():
            index = next(taken)
            query = stream[index % len(stream)]
            sent = clock()
            try:
                if trace is None:
                    answer = call(query)
                else:
                    with trace.request(index + 1):
                        answer = call(query)
            except Exception as exc:  # noqa: BLE001 - counted by type
                mine.failures[failure_type(exc)] += 1
            else:
                mine.answered.append(record(query, sent, clock(), answer))
            if on_done is not None:
                on_done()

    threads = [
        threading.Thread(target=caller, args=(mine,), name=f"bench-caller-{i}")
        for i, mine in enumerate(per_caller)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for mine in per_caller:
        phase.answered.extend(mine.answered)
        for kind, count in mine.failures.items():
            phase.failures[kind] += count
    return phase


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def host_ticks() -> tuple[int, int]:
    """Host-wide (stolen, busy including stolen) CPU ticks so far."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(value) for value in stat.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq + steal


class HostSampler:
    """Samples host CPU steal, and the serving processes' CPU time and
    memory, every ``period`` seconds while a timed phase runs (a
    context manager)."""

    def __init__(self, pids, period: float = 0.5) -> None:
        self.pids = pids
        self.period = period
        #: (perf_counter, stolen ticks, busy ticks, serving CPU seconds,
        #: serving PSS in MB)
        self.samples: list[tuple] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-sampler")

    def _sample(self) -> None:
        self.samples.append(
            (time.perf_counter(), *host_ticks(), cpu_seconds(self.pids), pss_mb(self.pids))
        )

    def pss_median_mb(self) -> float:
        return statistics.median(sample[4] for sample in self.samples)

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self._sample()

    def __enter__(self) -> "HostSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def latency_metrics(phase: Phase, samples) -> dict:
    """Rate and latency percentiles of a phase's answers, over the
    windows in which the host stole little CPU.

    The host is a shared VM whose other guests steal CPU in bursts (see
    README.md).  The phase is cut into the sampler's windows; a
    window's stolen share is the share of busy CPU the host booked as
    steal in it.  The figures count only the answers completed in, and
    the time of, the windows whose share is at most ``STEAL_CUT`` or,
    if those make less than half the phase, the least-stolen half.
    ``raw`` holds the same figures over every window, the CPU time per
    answer, the stolen shares and the share of the phase kept.
    """
    windows = []
    for before, after in zip(samples, samples[1:]):
        stolen, busy = after[1] - before[1], after[2] - before[2]
        windows.append((before[0], after[0], stolen / busy if busy else 0.0, after[3] - before[3]))
    cut = max(STEAL_CUT, statistics.median(window[2] for window in windows))
    starts = [window[0] for window in windows]
    every, kept = [], []
    for entry in phase.answered:
        done = entry[5]
        index = bisect.bisect_right(starts, done) - 1
        if 0 <= index and done <= windows[index][1]:
            every.append(entry[1])
            if windows[index][2] <= cut:
                kept.append(entry[1])
    seconds = sum(end - start for start, end, _, _ in windows)
    kept_seconds = sum(end - start for start, end, share, _ in windows if share <= cut)

    def figures(latencies, span) -> dict:
        return {
            "throughput_qps": len(latencies) / span,
            "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
            "latency_p90_ms": percentile(latencies, 0.90) * 1e3,
            "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        }

    metrics = figures(kept, kept_seconds)
    metrics["raw"] = {
        "wall": figures(every, seconds),
        "cpu_ms_per_query": sum(window[3] for window in windows) / len(every) * 1e3,
        "latency_samples": len(kept),
        "kept_share": kept_seconds / seconds,
        "stolen_share": sum((end - start) * share for start, end, share, _ in windows) / seconds,
        "stolen_share_max_window": max(window[2] for window in windows),
    }
    return metrics


def check_answers(phases, reference) -> int:
    """Count answers whose content differs from ``reference(query, version)``.

    Mismatches are moved from answered to the phase's ``wrong_answer``
    failures.  ``reference`` is called once per distinct (query, version).
    """
    expected: dict = {}
    wrong = 0
    for phase in phases:
        kept = []
        for entry in phase.answered:
            query, _, version, fingerprint = entry[:4]
            key = (query, version)
            if key not in expected:
                expected[key] = hash(reference(query, version))
            if fingerprint == expected[key]:
                kept.append(entry)
            else:
                phase.failures["wrong_answer"] += 1
                wrong += 1
        phase.answered = kept
    return wrong


def digest(contents) -> str:
    """sha256 over ``(query, canonical answer)`` pairs, in order."""
    hasher = hashlib.sha256()
    for pair in contents:
        hasher.update(repr(pair).encode())
    return hasher.hexdigest()[:16]


def pss_mb(pids) -> float:
    """Summed proportional set size of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as rollup:
            for line in rollup:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def cpu_seconds(pids) -> float:
    """User plus system CPU time consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            # fields after the parenthesised command name; utime, stime
            fields = stat.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


class SetupTimer:
    """Times set-ups.

    A run sets up in rounds, at its start and at its end, and reports
    the median over every set-up of both.  The host's speed drifts from
    second to second (see README.md), so set-ups spread over the run
    sample more of it than one burst would.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def run(self, make, repeats: int, pause: float = 0.0):
        """Call ``make()`` ``repeats`` times, each after ``pause``
        seconds; returns the last value.  Every other value is closed
        before the next call, so only one set-up is alive at a time."""
        value = None
        for index in range(repeats):
            time.sleep(pause)
            started = time.perf_counter()
            value = make()
            self.samples.append(time.perf_counter() - started)
            if index + 1 < repeats:
                value.close()
        return value

    def median_s(self) -> float:
        return statistics.median(self.samples)


def reference_ms(repeats: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop: how fast the
    host runs this interpreter right now.  A diagnostic kept with each
    result, so drift between runs can be told apart from the program's
    own; no metric is scaled by it."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value % 7
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


def directory_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in pathlib.Path(path).rglob("*") if entry.is_file())


def source_digest(src: pathlib.Path) -> str:
    """sha256 over every source file of the program under test."""
    hasher = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def git_sha(root: pathlib.Path) -> str | None:
    """HEAD's commit id (None outside a git checkout).  The search for
    ``.git`` stops at ``root``."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)), timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: pathlib.Path, argv, scale: str, seed: int) -> dict:
    import numpy

    return {
        "command": [os.path.basename(sys.executable)] + list(argv),
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "scale": scale,
        "seed": seed,
    }
