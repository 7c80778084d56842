"""Range partitioning: the router and the stats merge behind the engine.

A :class:`ShardRouter` splits the u64 key space into K contiguous
ranges; :func:`merge_index_stats` folds per-shard
:class:`~repro.core.interfaces.IndexStats` into one view.  The sharded
engine itself — scatter, gather, scan spill — lives in
:mod:`repro.concurrency.parallel`, over worker processes or in-process
loopback shards.  Because the partition is by key *range*, ordered scans
stay ordered: a scan drains the start shard and continues into its
right-hand neighbours.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.interfaces import IndexStats
from repro.errors import InvalidConfigurationError

_KEY_SPACE = 1 << 64


class ShardRouter:
    """Maps keys to shard ids through K-1 ascending range boundaries.

    Shard ``i`` owns keys in ``[boundaries[i-1], boundaries[i])`` (the
    first shard is unbounded below, the last unbounded above), so every
    u64 key — including keys never loaded — routes to exactly one shard.
    """

    def __init__(self, shards: int, boundaries: Optional[Sequence[int]] = None):
        if shards < 1:
            raise InvalidConfigurationError(
                f"shards must be >= 1, got {shards}"
            )
        if boundaries is None:
            # Uniform split of the key space until data arrives.
            boundaries = [
                (_KEY_SPACE * i) // shards for i in range(1, shards)
            ]
        boundaries = list(boundaries)
        if len(boundaries) != shards - 1:
            raise InvalidConfigurationError(
                f"{shards} shards need {shards - 1} boundaries, "
                f"got {len(boundaries)}"
            )
        if any(b <= a for a, b in zip(boundaries, boundaries[1:])):
            raise InvalidConfigurationError(
                "shard boundaries must be ascending"
            )
        self.shards = shards
        self.boundaries = boundaries

    @classmethod
    def from_keys(cls, keys: Sequence[int], shards: int) -> "ShardRouter":
        """Equal-population boundaries from a sorted key sample.

        Splitting at the ``i*n/k``-th loaded key guarantees every shard
        starts non-empty (required: most indexes are built by
        ``bulk_load`` and then grown), so ``shards`` cannot exceed the
        number of loaded keys.  Duplicate-heavy samples can make two
        split points land on the same key value; the boundary then
        advances to the next strictly greater key so the boundary list
        stays ascending and every shard still starts non-empty.
        """
        n = len(keys)
        if shards > n:
            raise InvalidConfigurationError(
                f"cannot split {n} keys into {shards} non-empty shards"
            )
        boundaries: List[int] = []
        # Every boundary must exceed the previous one AND the first key,
        # otherwise the shard to its left would start empty.
        prev = keys[0] if n else 0
        for i in range(1, shards):
            candidate = keys[(n * i) // shards]
            if candidate <= prev:
                # Duplicate run: advance to the next distinct key.
                nxt = bisect_right(keys, prev)
                if nxt >= n:
                    distinct = len(set(keys))
                    raise InvalidConfigurationError(
                        f"cannot split keys into {shards} non-empty "
                        f"shards: only {distinct} distinct key(s) in the "
                        f"{n}-key sample"
                    )
                candidate = keys[nxt]
            boundaries.append(candidate)
            prev = candidate
        return cls(shards, boundaries)

    def shard_of(self, key: int) -> int:
        return bisect_right(self.boundaries, key)

    def partition(
        self, items: Sequence[Tuple[int, Any]]
    ) -> List[List[Tuple[int, Any]]]:
        """Split ``(key, value)`` pairs per shard, preserving input order
        inside each shard (so in-batch duplicate semantics survive)."""
        parts: List[List[Tuple[int, Any]]] = [[] for _ in range(self.shards)]
        for key, value in items:
            parts[self.shard_of(key)].append((key, value))
        return parts


def merge_index_stats(
    parts: Sequence[IndexStats], weights: Sequence[int]
) -> IndexStats:
    """Merge per-shard :class:`IndexStats`: counts sum, depths aggregate.

    ``weights`` carries each shard's live key count so the per-key
    averages (depth, error) combine population-weighted; the engine
    (:mod:`repro.concurrency.parallel`) merges its shards' stats here.
    """
    live = list(zip(parts, weights))
    total = sum(n for _, n in live)
    out = IndexStats(
        depth_avg=(
            sum(s.depth_avg * n for s, n in live) / total if total else 0.0
        ),
        depth_max=max((s.depth_max for s in parts), default=0),
        leaf_count=sum(s.leaf_count for s in parts),
        avg_error=(
            sum(s.avg_error * n for s, n in live) / total if total else 0.0
        ),
        max_error=max((s.max_error for s in parts), default=0),
        retrain_count=sum(s.retrain_count for s in parts),
        retrain_keys=sum(s.retrain_keys for s in parts),
        retrain_time_ns=sum(s.retrain_time_ns for s in parts),
    )
    for s in parts:
        for k, v in s.extra.items():
            if isinstance(v, (int, float)):
                out.extra[k] = out.extra.get(k, 0) + v
            else:
                out.extra[k] = v
    return out
