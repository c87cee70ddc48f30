"""The three workloads: system set-up, seeded inputs, load, references.

Every workload drives the program only through its public API
(``ESharp``, ``ExpertService``, ``FleetRouter``, ``SubprocessReplica``)
and hands it only the inputs generated here: the query stream (from
``--seed``) and, for ``refresh-mix``, a fixed sequence of delta
impression batches.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import replace

from common import canonical, closed_loop, directory_bytes
from layers import fleet_counters, memo_counters, service_counters
from repro.artifact import load_artifact_stages
from repro.core.config import ESharpConfig
from repro.core.esharp import ESharp
from repro.fleet import FleetRouter, SubprocessReplica
from repro.querylog.generator import QueryLogGenerator
from repro.serving.loadgen import candidate_queries_from
from repro.serving.service import ExpertService, ServiceConfig
from repro.utils.zipf import ZipfSampler

#: the system is always the paper-year world; ``--seed`` varies the load
SYSTEM_SEED = 2016
#: caller threads, detection threads and fleet workers: the 2-CPU host
#: the bounds were set on
THREADS = 2
ZIPF_EXPONENT = 1.1
ZIPF_STREAM_LENGTH = 200_000
#: distinct queries answered after the timed phase for the answer digest
PROBE_QUERIES = 64


def make_config(scale: str) -> ESharpConfig:
    if scale == "small":
        return ESharpConfig.small(seed=SYSTEM_SEED)
    return ESharpConfig.standard(seed=SYSTEM_SEED)


def supported_queries(store, domain_store) -> list[str]:
    """Every supported log query, most popular first."""
    return candidate_queries_from(store, domain_store, len(store.supported_queries()))


def zipf_stream(queries: list[str], seed: int) -> list[str]:
    sampler = ZipfSampler(len(queries), exponent=ZIPF_EXPONENT, rng=random.Random(seed))
    return [queries[sampler.sample()] for _ in range(ZIPF_STREAM_LENGTH)]


def artifact_queries(artifact) -> list[str]:
    stages = load_artifact_stages(artifact, ("store", "domain_store"))
    return supported_queries(stages.values["store"], stages.values["domain_store"])


class ArtifactReference:
    """``ESharp.find_experts`` on a fresh warm start of the artifact."""

    def __init__(self, artifact) -> None:
        self.system = ESharp.from_artifact(artifact)

    def __call__(self, query: str, version: int) -> tuple:
        if version != self.system.snapshot.version:
            return ("no reference for snapshot version", version)
        return canonical(
            self.system.find_experts(query), self.system.expansion_terms(query), version
        )


class Served:
    """One system behind one ``ExpertService``; ``directory`` (the
    system's own build directory, if any) is removed on close."""

    def __init__(self, system, service_config: ServiceConfig, directory=None) -> None:
        self.system = system
        self.service = ExpertService(system, service_config)
        self.directory = directory

    def close(self) -> None:
        self.service.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


class Workload:
    """Closed-loop callers replaying ``stream`` against one server."""

    callers = THREADS
    #: set-ups in each of a run's two set-up rounds, and the pause
    #: before each
    setup_repeats = 2
    setup_pause = 0.0
    writer_errors = 0

    def __init__(self, stream: list[str], smoke: bool) -> None:
        self.stream = stream
        self.probe = list(dict.fromkeys(stream))[: 16 if smoke else PROBE_QUERIES]

    def drive(self, server, phase, seconds, tracer=None, wait_for=None, on_done=None):
        return closed_loop(phase, lambda query: self.answer(server, query), self.stream,
                           callers=self.callers, seconds=seconds, trace=tracer,
                           wait_for=wait_for, on_done=on_done)

    def answer(self, served, query):
        return served.service.query(query)

    def pids(self, server):
        return [os.getpid()]

    def counters(self, served):
        return served.service.stats(), served.system.detector.cache_info()

    def layer_counters(self, before, after, server) -> dict:
        return {**service_counters(before[0], after[0]), **memo_counters(before[1], after[1])}

    def extra(self, phase: str) -> dict:
        return {}

    def refresh_stats(self, phase: str) -> list:
        return []


class ColdDetect(Workload):
    """Every request pays expansion plus per-term detection: no caches."""

    callers = 1
    #: a warm start takes about 0.03 s: many, spread over seconds
    setup_repeats = 16
    setup_pause = 0.25

    def __init__(self, seed: int, artifact, smoke: bool) -> None:
        self.artifact = artifact
        queries = artifact_queries(artifact)
        random.Random(seed).shuffle(queries)
        super().__init__(queries, smoke)

    def setup(self) -> Served:
        system = ESharp.from_artifact(self.artifact)
        system.detector.configure_score_cache(cache_scores=False)
        return Served(system, ServiceConfig(cache_capacity=0, detection_workers=THREADS))

    def artifact_bytes(self, served) -> int:
        return directory_bytes(self.artifact)

    def reference(self):
        return ArtifactReference(self.artifact)


class Fleet:
    """Subprocess workers behind a hash-sharded router."""

    def __init__(self, artifact) -> None:
        self.replicas = []
        try:
            for index in range(THREADS):
                self.replicas.append(
                    SubprocessReplica(
                        f"worker-{index}", artifact, detection_workers=1, cache_capacity=256
                    )
                )
            self.router = FleetRouter.from_artifact(artifact, self.replicas, sharding="hash")
        except BaseException:
            for replica in self.replicas:
                replica.close()
            raise

    def close(self) -> None:
        self.router.close()


class FleetScatter(Workload):
    """Zipf traffic that mostly scatters to both workers over the wire."""

    def __init__(self, seed: int, artifact, smoke: bool) -> None:
        self.artifact = artifact
        super().__init__(zipf_stream(artifact_queries(artifact), seed), smoke)

    def setup(self) -> Fleet:
        return Fleet(self.artifact)

    def answer(self, fleet, query):
        return fleet.router.query(query)

    def pids(self, fleet):
        return [os.getpid()] + [replica.pid for replica in fleet.replicas]

    def counters(self, fleet):
        return fleet.router.stats()

    def layer_counters(self, before, after, fleet) -> dict:
        return fleet_counters(before, after, fleet.router.health())

    def artifact_bytes(self, fleet) -> int:
        return directory_bytes(self.artifact)

    def reference(self):
        return ArtifactReference(self.artifact)


class RefreshMix(Workload):
    """Zipf reads beside a writer folding delta batches into serving.

    One reader, not paced: a pause between requests left the vCPU idle,
    and a cache hit then timed mostly the host's wake-up; a second
    unpaced reader only contended for the GIL (see README.md).
    """

    callers = 1
    #: a from-scratch build takes about 10 s: one a round
    setup_repeats = 1
    #: one timed delta fold per this many seconds of ``--seconds``
    batch_seconds = 1.25
    #: reads that end before each timed delta fold, and after the last:
    #: a fixed mix of reads and writes, so the share of reads the
    #: result cache answers does not follow the host's speed
    reads_per_batch = 6000
    #: one delta batch is this share of the log's impressions
    delta_share = 0.01

    def __init__(self, seed: int, work, smoke: bool, scale: str) -> None:
        self.seed = seed
        self.config = make_config(scale)
        self.directory = work / "refresh-mix-build"
        self.smoke = smoke
        self.world = None
        #: snapshot version -> its online pipeline (the answer reference)
        self.pipelines = {}
        #: (phase, wall seconds, DeltaRefreshStats) of every timed refresh
        self.refreshes = []

    def setup(self) -> Served:
        self.pipelines = {}  # let the previous build go before the next
        shutil.rmtree(self.directory, ignore_errors=True)
        system = ESharp(self.config).build(self.directory)
        served = Served(
            system, ServiceConfig(cache_capacity=256, detection_workers=THREADS), self.directory
        )
        if self.world is None:
            # the read stream needs the built log: made on first set-up
            offline = system.offline
            self.world = offline.world
            queries = supported_queries(offline.store, offline.domain_store)
            super().__init__(zipf_stream(queries, self.seed), self.smoke)
        self.pipelines = {system.snapshot.version: system.snapshot.pipeline}
        self.batch = 0
        return served

    def delta(self) -> list:
        """The next delta batch of the fixed write sequence.

        Seeded by the system seed and the batch's position, not by
        ``--seed``: every seed folds the same writes, so the write cost
        stays the same across seeds while the read stream varies.
        """
        self.batch += 1
        log = self.config.querylog
        generator = QueryLogGenerator(self.world, replace(log, seed=log.seed * 1000 + self.batch))
        return list(generator.impressions(max(1, int(log.impressions * self.delta_share))))

    def drive(self, served, phase, seconds, tracer=None, wait_for=None):
        """Readers beside the writer.

        The warm-up folds one batch at once (the first delta after a
        build re-seeds the resumable join) while the readers run for
        ``seconds``.  A timed phase is a fixed amount of work, sized to
        take about ``seconds`` on a 2-vCPU host: one fold per
        ``batch_seconds`` of ``seconds``, each after ``reads_per_batch``
        more reads have ended, then ``reads_per_batch`` more reads, and
        the readers stop.  So every run of a seed does the same reads
        and writes and ends on the same snapshot version.
        """
        timed = phase != "warm-up"
        count = max(1, int(seconds / self.batch_seconds)) if timed else 1
        batches = [self.delta() for _ in range(count)]
        reads, stop = threading.Semaphore(0), threading.Event()

        def wait_for_reads() -> bool:
            for _ in range(self.reads_per_batch):
                reads.acquire()
            return not stop.is_set()

        def writer() -> None:
            for batch in batches:
                if timed and not wait_for_reads():
                    return
                started = time.perf_counter()
                try:
                    snapshot = served.service.refresh_delta(batch)
                except Exception:  # noqa: BLE001 - counted; the run is not correct
                    self.writer_errors += 1
                    return
                elapsed = time.perf_counter() - started
                self.pipelines[snapshot.version] = snapshot.pipeline
                if timed:
                    stats = served.service.stats().last_delta_refresh
                    self.refreshes.append((phase, elapsed, stats))
            if timed:
                wait_for_reads()

        thread = threading.Thread(target=writer, name="bench-writer")
        thread.start()
        try:
            return super().drive(served, phase, 0.0 if timed else seconds, tracer,
                                 wait_for=thread, on_done=reads.release)
        finally:
            # readers that stopped early must not leave the writer waiting
            stop.set()
            reads.release(self.reads_per_batch)
            thread.join()

    def artifact_bytes(self, served) -> int:
        return directory_bytes(served.directory)

    def refresh_stats(self, phase: str) -> list:
        return [stats for name, _, stats in self.refreshes if name == phase]

    def extra(self, phase: str) -> dict:
        walls = [elapsed for name, elapsed, _ in self.refreshes if name == phase]
        return {
            "refresh_p50_s": statistics.median(walls) if walls else 0.0,
            "refreshes": float(len(walls)),
        }

    def reference(self):
        pipelines = self.pipelines

        def reference(query: str, version: int) -> tuple:
            pipeline = pipelines.get(version)
            if pipeline is None:
                return ("no reference for snapshot version", version)
            terms, _ = pipeline.expander.expand_terms(query)
            return canonical(pipeline.answer(query).experts, terms, version)

        return reference
