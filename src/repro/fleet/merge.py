"""Gather: merge shard partial pools into the exact single-replica answer.

The single-replica union (:meth:`QueryExpander.score_terms`) iterates
term pools **in term order** and keeps, per user, the first pool entry
achieving the maximum score — so on a score tie the *earliest term's*
:class:`~repro.detector.ranking.RankedExpert` wins (its per-term
``features``/``zscores`` ride along).  Each scatter leg reduces its
slice under that rule and tags survivors with their **global term
index** (:class:`~repro.serving.service.PartialPool`); this merge
applies the identical rule across legs:

    highest score wins; equal scores go to the lowest global index.

Then the exact final steps of the serving path: sort by
``(-score, user_id)``, threshold with ``>=``, cap at ``max_results``.
Because every comparison is on values computed identically on every
replica (same artifact generation ⇒ bit-equal floats), the merged
ranking is byte-identical to what one replica scoring every term would
have returned — the property test in ``tests/test_fleet.py`` proves it
for arbitrary queries.

**Each leg ships only its own top.**  A leg does not send its whole
per-user pool: it keeps the entries with ``score >= threshold`` and
returns at most ``K = max_results`` of them in ``(-score, user_id)``
order (:func:`~repro.serving.service.top_partial_entries`).  This loses
nothing the answer needs:

* Take a user ``u`` in the merged top K, with overall best score ``s``,
  and any leg ``L`` where ``u`` scores ``s``.  A user ``v`` ranked above
  ``u`` on ``L`` scores more than ``s`` there, or ``s`` with a smaller
  user id; ``v``'s overall score is at least its score on ``L``, so
  ``v`` also ranks above ``u`` overall.  Fewer than K users rank above
  ``u`` overall, so fewer than K rank above it on ``L``, and ``s``
  passes the threshold: ``L``'s cut keeps ``u``.
* That holds on *every* leg where ``u`` ties for its best score, so the
  merge still sees all of ``u``'s best entries and the lowest-index
  tie-break picks the same one as the single-replica union.
* A user the merge sees may be missing its best leg, but then it is
  seen with a score no higher than its true one, which only moves it
  down: it cannot push a true top-K user out.

The merge keeps its own threshold and cap, so the answer stays exact
even when a peer sends an uncut pool.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.detector.ranking import RankedExpert
from repro.fleet.errors import (
    FleetError,
    FleetTenantMismatchError,
    FleetVersionSkewError,
)
from repro.serving.service import PartialPool, top_partial_entries

# analysis: exact-path


def merge_partials(
    pools: Iterable[PartialPool],
    *,
    threshold: float,
    max_results: int,
) -> Tuple[Tuple[RankedExpert, ...], int]:
    """Merge scatter legs; returns ``(experts, snapshot_version)``.

    Raises :class:`FleetVersionSkewError` when the legs answered from
    different snapshot versions (a promotion raced the scatter) — the
    router retries rather than serve a cross-generation ranking.
    """
    pools = list(pools)
    if not pools:
        raise FleetError("merge_partials needs at least one partial pool")
    tenants = sorted({pool.tenant for pool in pools})
    if len(tenants) > 1:
        raise FleetTenantMismatchError(
            f"scatter legs answered for different tenants {tenants}"
        )
    versions = sorted({pool.snapshot_version for pool in pools})
    if len(versions) > 1:
        raise FleetVersionSkewError(
            f"scatter legs answered from mixed snapshot versions {versions}"
        )
    best: Dict[int, Tuple[int, RankedExpert]] = {}
    for pool in pools:
        for index, expert in pool.entries:
            incumbent = best.get(expert.user_id)
            if (
                incumbent is None
                or expert.score > incumbent[1].score
                or (
                    expert.score == incumbent[1].score
                    and index < incumbent[0]
                )
            ):
                best[expert.user_id] = (index, expert)
    kept = top_partial_entries(
        best.values(), threshold=threshold, max_results=max_results
    )
    return tuple(expert for _index, expert in kept), versions[0]
