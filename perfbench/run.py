"""The repo benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload cold-detect --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout: the program under test is the
``src/`` tree beside this directory.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload untraced, then once
more with span wrappers installed, and prints the per-layer metrics
plus the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  Full
results (provenance, per-phase counts, failures by type, answer digest)
and the traced run's spans go under ``.bench_build/perfbench/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cold-detect", "fleet-scatter", "refresh-mix")
#: warm-up before every measured phase, as a share of ``--seconds``
WARMUP_SHARE = 0.25
#: prctl(2) option, from <linux/prctl.h>
PR_SET_THP_DISABLE = 41


def disable_huge_pages() -> None:
    """Turn transparent huge pages off for this process and every
    process it starts (the setting survives fork and exec).

    Whether the kernel backs an allocation with 2 MB pages is a matter
    of timing, and it swung ``pss_mb`` of one workload by 40 MB between
    runs of the same code.
    """
    try:
        ctypes.CDLL(None).prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small-scale system and one set-up per run (the smoke tests)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def ensure_artifact(scale: str, digest: str) -> pathlib.Path:
    """The warm-start artifact of the code under test, built once.

    Built in a child process (so its memory never counts toward this
    process) into a directory keyed by the source digest: a changed
    ``src/`` tree never reuses an artifact built by other code.
    """
    path = WORK / f"artifact-{scale}-{digest[:16]}"
    if path.is_dir():
        return path
    for stale in WORK.glob(f"artifact-{scale}-*"):
        shutil.rmtree(stale, ignore_errors=True)
    building = WORK / f"building-{os.getpid()}"
    shutil.rmtree(building, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(HERE / "build_artifact.py"), scale, str(building)],
        check=True, stdout=subprocess.DEVNULL,
    )
    building.rename(path)
    return path


def make_workload(args, source_sha256: str):
    import workloads

    scale = "small" if args.smoke else "standard"
    if args.workload == "refresh-mix":
        return workloads.RefreshMix(args.seed, WORK, args.smoke, scale)
    artifact = ensure_artifact(scale, source_sha256)
    if args.workload == "cold-detect":
        return workloads.ColdDetect(args.seed, artifact, args.smoke)
    return workloads.FleetScatter(args.seed, artifact, args.smoke)


def serve(workload, server, seconds, *, tracer=None, layers=None):
    """Warm-up, the timed phase (sampled for steal and memory) and the
    digest probe.

    Returns ``(phases, end-to-end metrics but setup_s, timed window,
    the probe's (query, canonical answer) pairs)``; with ``layers`` (a
    dict) the workload's counters over the timed phase are added to it.
    """
    from common import HostSampler, Phase, canonical, latency_metrics, record

    warm = workload.drive(server, "warm-up", max(1.0, seconds * WARMUP_SHARE))
    before = workload.counters(server) if layers is not None else None
    pids = workload.pids(server)
    with HostSampler(pids) as sampler:
        started = time.perf_counter()
        timed = workload.drive(server, "traced" if tracer else "measured", seconds, tracer)
        window = (started, time.perf_counter())
    metrics = latency_metrics(timed, sampler.samples)
    if layers is not None:
        layers.update(workload.layer_counters(before, workload.counters(server), server))
        layers["artifact.bytes"] = float(workload.artifact_bytes(server))
    metrics["pss_mb"] = sampler.pss_median_mb()
    metrics["raw"]["pss_end_mb"] = sampler.samples[-1][4]
    probe = Phase("probe-traced" if tracer else "probe")
    contents = []
    for query in workload.probe:
        sent = time.perf_counter()
        answer = workload.answer(server, query)
        probe.answered.append(record(query, sent, time.perf_counter(), answer))
        contents.append((query, canonical(answer.experts, answer.terms, answer.snapshot_version)))
    if tracer:
        warm.name = "warm-up-traced"
    return [warm, timed, probe], metrics, window, contents


def traced_run(workload, seconds, end_to_end):
    """Set up and serve once more under the tracer; per-layer metrics."""
    from layers import TARGETS, path_metrics, refresh_metrics, setup_metrics
    from tracer import Tracer

    tracer = Tracer()
    layers = {}
    tracer.install(TARGETS)
    try:
        started = time.perf_counter()
        server = workload.setup()
        setup_window = (started, time.perf_counter())
        try:
            phases, metrics, window, contents = serve(
                workload, server, seconds, tracer=tracer, layers=layers
            )
        finally:
            server.close()
    finally:
        tracer.uninstall()
    traced = phases[1]
    traced_e2e = {"setup_s": setup_window[1] - setup_window[0], **metrics}
    layers.update(setup_metrics(tracer.spans, setup_window))
    layers.update(path_metrics(tracer.spans, window))
    layers.update(refresh_metrics(tracer.spans, window, workload.refresh_stats("traced")))
    layers["expansion.terms_per_query"] = (
        sum(entry[4] for entry in traced.answered) / max(1, len(traced.answered))
    )
    layers["tracing.overhead_p50_ms"] = traced_e2e["latency_p50_ms"] - end_to_end["latency_p50_ms"]
    layers["tracing.overhead_qps_ratio"] = (
        end_to_end["throughput_qps"] - traced_e2e["throughput_qps"]
    ) / end_to_end["throughput_qps"]
    return phases, layers, traced_e2e, tracer, contents


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    disable_huge_pages()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # answers, and the replica workers' byte-identity, depend on it
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(pathlib.Path(__file__)), *argv], env)
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(parents=True, exist_ok=True)

    from common import SetupTimer, check_answers, digest, provenance, reference_ms

    scale = "small" if args.smoke else "standard"
    record = {
        "workload": args.workload,
        "provenance": provenance(ROOT, sys.argv, scale, args.seed),
    }
    workload = make_workload(args, record["provenance"]["source_sha256"])
    host_reference = [reference_ms()]
    # traced and smoke runs set up once; a full run sets up in two
    # rounds, one at its start and one at its end
    full = not (args.trace or args.smoke)
    repeats = workload.setup_repeats if full else 1
    pause = workload.setup_pause if full else 0.0
    timer = SetupTimer()
    server = timer.run(workload.setup, repeats, pause)
    try:
        phases, metrics, _, contents = serve(workload, server, args.seconds)
    finally:
        server.close()
        server = None  # the end round sets up without it alive
    probe = phases[2]
    extra = workload.extra("measured")
    wrong = check_answers(phases, workload.reference())
    answer_digest = digest(contents)
    digests_agree = len(probe.answered) == len(workload.probe)
    if full:
        timer.run(workload.setup, repeats, pause).close()
    record["measured_all_windows"] = metrics.pop("raw")
    end_to_end = {"setup_s": timer.median_s(), **metrics}

    layers, dead = None, []
    if args.trace:
        from layers import LIVE

        t_phases, layers, traced_e2e, tracer, t_contents = traced_run(
            workload, args.seconds, end_to_end
        )
        wrong += check_answers(t_phases, workload.reference())
        phases += t_phases
        digests_agree = digests_agree and answer_digest == digest(t_contents)
        record["traced_all_windows"] = traced_e2e.pop("raw")
        record["traced_end_to_end"] = traced_e2e
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        trace_path = traces / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        # a live layer that reads 0 means a wrapper stopped firing
        dead = [name for name in LIVE[args.workload] if not layers.get(name)]
    host_reference.append(reference_ms())

    attempted = sum(phase.sent for phase in phases)
    failed = sum(sum(phase.failures.values()) for phase in phases)
    writer_errors = workload.writer_errors
    correct = wrong == 0 and digests_agree and not writer_errors and not dead
    record.update(
        {
            "end_to_end": end_to_end,
            "extra": extra,
            "phases": {phase.name: phase.counts() for phase in phases},
            "answer_digest": answer_digest,
            "wrong_answers": wrong,
            "writer_errors": writer_errors,
            "error_rate": failed / attempted,
            "per_layer": layers,
            "dead_layer_metrics": dead,
            "host_reference_ms": host_reference,
        }
    )
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    for name, value in {**end_to_end, **extra}.items():
        print(f"  {name:<38} {value:14.4f}")
    raw = record["measured_all_windows"]
    print(f"  latency samples                        {raw['latency_samples']:14d}")
    print(f"  host CPU stolen, phase / max window    {raw['stolen_share']:8.3f} / "
          f"{raw['stolen_share_max_window']:.3f}  (share of phase kept {raw['kept_share']:.3f})")
    print(f"  all windows{''.join(f'  {k} {v:.4f}' for k, v in raw['wall'].items())}"
          f"  cpu_ms_per_query {raw['cpu_ms_per_query']:.4f}")
    print(f"  host reference loop ms, start / end    {host_reference[0]:8.2f} / "
          f"{host_reference[1]:.2f}")
    print(f"  error_rate                             {failed / attempted:14.6f}"
          f"  ({failed} of {attempted})")
    for name, counts in record["phases"].items():
        print(f"  phase {name:<16} {json.dumps(counts, sort_keys=True)}")
    print(f"  answer digest {answer_digest}  wrong answers {wrong}  writer errors {writer_errors}")
    if layers is not None:
        for name, value in record["traced_end_to_end"].items():
            print(f"  traced {name:<31} {value:14.4f}")
        for name in sorted(layers):
            print(f"  {name:<38} {layers[name]:14.4f}")
        if dead:
            print(f"perfbench: live per-layer metrics read 0: {', '.join(dead)}", file=sys.stderr)
    print(f"  results {result_path.relative_to(ROOT)}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported = layers if args.trace else end_to_end
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": float(reported.get(metric["name"], 0.0)),
                             "unit": metric["unit"]}
            for metric in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
