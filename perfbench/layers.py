"""What the traced run wraps, and how spans and counters become the
per-layer metrics.

Times named ``*_ms`` are milliseconds per answered request on its
critical path (see :func:`tracer.critical_path`), averaged over the
traced phase; ``*_s`` set-up times are the wall seconds the traced
set-up spent inside that layer.  A layer a workload bypasses reports 0.
"""

from __future__ import annotations

import statistics
import threading

import repro.artifact
import repro.core.esharp
import repro.core.offline
import repro.fleet.replica
import repro.fleet.router
from repro.artifact import ArtifactBuilder
from repro.community.parallel import ParallelCommunityDetector
from repro.core.esharp import ESharp
from repro.detector.engine import IndexedDetectionEngine
from repro.detector.palcounts import PalCountsDetector
from repro.expansion.expander import QueryExpander
from repro.fleet import FleetRouter, SubprocessReplica
from repro.microblog.platform import MicroblogPlatform
from repro.querylog.generator import QueryLogGenerator
from repro.serving.service import ExpertService

from tracer import critical_path

#: spans that open one request
ROOTS = ("serving.query", "fleet.route")


def _submit_attrs(args, result):
    return (args[0].name, result[0]) if result is not None else None


def _parse_attrs(args, result):
    request_id = result.get("id") if isinstance(result, dict) else None
    return (threading.current_thread().name, request_id, len(args[0]))


TARGETS = (
    # set-up: warm start, offline build, artifact save, fleet start
    (repro.artifact, "load_artifact", "artifact.load", None),
    (repro.artifact, "load_artifact_stages", "artifact.load", None),
    (ArtifactBuilder, "save_stage", "artifact.save", None),
    (ArtifactBuilder, "save_corpus", "artifact.save", None),
    (ArtifactBuilder, "save_engine", "artifact.save", None),
    (ArtifactBuilder, "finalize", "artifact.save", None),
    (repro.core.esharp, "generate_platform", "microblog.generate", None),
    (QueryLogGenerator, "fill_store", "querylog.fill_store", None),
    (IndexedDetectionEngine, "refresh", "detector.index_build", None),
    (repro.core.offline, "extract_similarity_graph", "simgraph.extract", None),
    (ParallelCommunityDetector, "run", "community.cluster", None),
    (SubprocessReplica, "__init__", "fleet.worker_ready", None),
    (ESharp, "refresh_domains_delta", "core.incremental.refresh", None),
    # the online path
    (ExpertService, "query", "serving.query", None),
    (QueryExpander, "expand_terms", "expansion.expand", None),
    (PalCountsDetector, "score", "detector.score", None),
    (IndexedDetectionEngine, "feature_vectors", "detector.feature_vectors", None),
    (MicroblogPlatform, "matching_rows", "microblog.matching_rows", None),
    # the fleet path
    (FleetRouter, "query", "fleet.route", None),
    (SubprocessReplica, "score_partial", "fleet.leg", None),
    (SubprocessReplica, "query", "fleet.leg", None),
    (SubprocessReplica, "submit", "fleet.send", _submit_attrs),
    (repro.fleet.replica, "parse_message", "fleet.rx_parse", _parse_attrs),
    (repro.fleet.replica, "partial_from_wire", "fleet.rx_decode", None),
    (repro.fleet.replica, "answer_from_wire", "fleet.rx_decode", None),
    (repro.fleet.router, "merge_partials", "fleet.merge", None),
)

DELTA_STAGES = {
    "core.incremental.ingest_s": "DeltaIngest",
    "core.incremental.join_s": "DeltaJoin",
    "core.incremental.graph_s": "DeltaGraph",
    "core.incremental.cluster_s": "DeltaCluster",
    "core.incremental.domains_s": "DeltaDomains",
}

#: per_layer metrics each workload must report non-zero (the run is not
#: correct otherwise: a wrapper stopped firing or a counter moved).
#: Every other metric may read 0 there: a layer the workload bypasses,
#: or a counter such as evictions or hedges that a quiet run leaves at 0.
LIVE = {
    "cold-detect": (
        "artifact.load_s", "artifact.bytes", "expansion.expand_ms",
        "expansion.terms_per_query", "microblog.matching_rows_ms",
        "detector.feature_vectors_self_ms", "detector.score_self_ms",
        "detector.terms_scored", "serving.query_self_ms",
    ),
    "fleet-scatter": (
        "artifact.load_s", "artifact.bytes", "expansion.terms_per_query",
        "serving.cache_hit_ratio", "fleet.worker_ready_s", "fleet.leg_ms",
        "fleet.rx_decode_ms", "fleet.rx_bytes_per_leg", "fleet.merge_ms",
        "fleet.route_self_ms", "fleet.scatter_ratio", "fleet.legs_per_query",
    ),
    "refresh-mix": (
        "artifact.save_s", "artifact.bytes", "microblog.generate_s",
        "querylog.fill_store_s", "detector.index_build_s", "simgraph.extract_s",
        "community.cluster_s", "core.incremental.refresh_s", *DELTA_STAGES,
        "simgraph.recomputed_pairs", "community.domains_reused_ratio",
        "expansion.expand_ms", "expansion.terms_per_query",
        "detector.score_self_ms", "detector.terms_scored", "detector.memo_hit_ratio",
        "serving.query_self_ms", "serving.cache_hit_ratio",
    ),
}

#: per_layer metric -> span names whose critical-path time it sums
PATH_METRICS = {
    "expansion.expand_ms": ("expansion.expand",),
    "microblog.matching_rows_ms": ("microblog.matching_rows",),
    "detector.feature_vectors_self_ms": ("detector.feature_vectors",),
    "detector.score_self_ms": ("detector.score",),
    "serving.query_self_ms": ("serving.query",),
    "fleet.route_self_ms": ("fleet.route",),
    "fleet.leg_ms": ("fleet.leg", "fleet.send", "fleet.rx_parse", "fleet.rx_decode"),
    "fleet.rx_decode_ms": ("fleet.rx_parse", "fleet.rx_decode"),
    "fleet.merge_ms": ("fleet.merge",),
}

#: per_layer metric -> span name whose wall time in the set-up it is
SETUP_METRICS = {
    "artifact.load_s": "artifact.load",
    "artifact.save_s": "artifact.save",
    "microblog.generate_s": "microblog.generate",
    "querylog.fill_store_s": "querylog.fill_store",
    "detector.index_build_s": "detector.index_build",
    "simgraph.extract_s": "simgraph.extract",
    "community.cluster_s": "community.cluster",
    "fleet.worker_ready_s": "fleet.worker_ready",
}


def _union_seconds(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def setup_metrics(spans, window) -> dict:
    start, end = window
    inside = [span for span in spans if span[2] >= start and span[3] <= end]
    return {
        metric: _union_seconds([(s[2], s[3]) for s in inside if s[1] == name])
        for metric, name in SETUP_METRICS.items()
    }


def path_metrics(spans, window) -> dict:
    """Per-request critical-path split of the requests that started in
    ``window``, plus the wire bytes per fleet leg."""
    start, end = window
    by_request: dict[int, list] = {}
    roots = []
    sends = {}
    parses = []
    for span in spans:
        if span[1] == "fleet.rx_parse":
            parses.append(span)
            continue
        if span[5]:
            if span[1] in ROOTS and span[4] == 0:
                if start <= span[2] <= end:
                    roots.append(span)
            else:
                by_request.setdefault(span[5], []).append(span)
            if span[1] == "fleet.send" and span[6] is not None:
                sends[span[6]] = span
    # a reply is parsed on the replica's reader thread: re-parent it
    # under the leg that sent the request it answers
    leg_bytes = []
    for span in parses:
        thread, request_id, size = span[6]
        replica = thread[len("fleet-"):-len("-reader")]
        send = sends.get((replica, request_id))
        if send is None:
            continue
        leg_bytes.append(size)
        by_request[send[5]].append(
            (span[0], span[1], span[2], span[3], send[4], send[5], None)
        )
    totals = dict.fromkeys(PATH_METRICS, 0.0)
    for root in roots:
        owned = critical_path(root, by_request.get(root[5], []))
        for metric, names in PATH_METRICS.items():
            totals[metric] += sum(owned.get(name, 0.0) for name in names)
    count = max(1, len(roots))
    metrics = {metric: total / count * 1e3 for metric, total in totals.items()}
    metrics["fleet.rx_bytes_per_leg"] = statistics.fmean(leg_bytes) if leg_bytes else 0.0
    scored = sum(
        1
        for request in by_request.values()
        for span in request
        if span[1] == "detector.score" and start <= span[2] <= end
    )
    metrics["detector.terms_scored"] = scored / count
    return metrics


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def service_counters(before, after) -> dict:
    """Serving-tier counters over a phase, from two ``stats()`` readings."""
    lookups = after.cache.lookups - before.cache.lookups
    return {
        "serving.cache_hit_ratio": ratio(after.cache.hits - before.cache.hits, lookups),
        "serving.cache_evictions": after.cache.evictions - before.cache.evictions,
        "serving.flight_coalesced": after.flight_coalesced - before.flight_coalesced,
        "serving.admission_rejected": after.admission.rejected - before.admission.rejected,
        "serving.pool_failed": after.detection_pool.failed - before.detection_pool.failed,
    }


def memo_counters(before, after) -> dict:
    lookups = after.lookups - before.lookups
    return {"detector.memo_hit_ratio": ratio(after.hits - before.hits, lookups)}


def fleet_counters(before, after, health) -> dict:
    """Router counters over a phase; worker cache ratios since start."""
    requests = after.requests - before.requests
    hedges = after.hedges_fired - before.hedges_fired
    legs = (after.single_shard - before.single_shard) + (
        after.scatter_legs - before.scatter_legs
    )
    return {
        "fleet.scatter_ratio": ratio(after.scattered - before.scattered, requests),
        "fleet.legs_per_query": ratio(legs, requests),
        "fleet.hedges_per_query": ratio(hedges, requests),
        "fleet.hedge_win_ratio": ratio(after.hedge_wins - before.hedge_wins, hedges),
        "serving.cache_hit_ratio": statistics.fmean(
            report.cache_hit_ratio for report in health.values()
        ),
    }


def refresh_metrics(spans, window, stats) -> dict:
    """Medians over the delta refreshes (``DeltaRefreshStats``) of a phase."""
    if not stats:
        return {}
    start, end = window
    metrics = {
        "core.incremental.refresh_s": statistics.median(
            s[3] - s[2] for s in spans
            if s[1] == "core.incremental.refresh" and start <= s[2] <= end
        ),
        "simgraph.recomputed_pairs": statistics.median(s.recomputed_pairs for s in stats),
        "community.domains_reused_ratio": statistics.median(
            ratio(s.domains_reused, s.domains) for s in stats
        ),
    }
    for metric, stage in DELTA_STAGES.items():
        metrics[metric] = statistics.median(s.stage_seconds.get(stage, 0.0) for s in stats)
    return metrics
