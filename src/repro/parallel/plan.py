"""Shard planning: deterministic partitioning of work across workers.

Regions simulate independently, so the unit of parallel work is a
*shard*: a disjoint, contiguous slice of the (caller-ordered) key
list. :class:`ShardPlan` owns the partitioning arithmetic and nothing
else: shards are balanced (sizes differ by at most one), cover every
key exactly once, and the plan for a given ``(keys, workers)`` pair is
a pure function of its inputs, which is what makes parallel results
reproducible and mergeable in a fixed order.

Keys are taken in the order given — callers that need a canonical
order sort before planning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Sequence, Tuple


@dataclass(frozen=True)
class ShardPlan:
    """A disjoint, covering partition of keys into ordered shards."""

    shards: Tuple[Tuple[Hashable, ...], ...]

    @classmethod
    def for_keys(
        cls, keys: Sequence[Hashable], workers: int
    ) -> "ShardPlan":
        """Partition ``keys`` into at most ``workers`` balanced shards.

        With fewer keys than workers every shard holds exactly one key
        (no empty shards are ever produced); with zero keys the plan is
        empty. Shard sizes differ by at most one, with the earlier
        shards taking the remainder.

        Raises:
            ValueError: when ``workers`` is not positive.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        keys = tuple(keys)
        count = len(keys)
        if count == 0:
            return cls(shards=())
        shard_count = min(workers, count)
        base, extra = divmod(count, shard_count)
        shards = []
        start = 0
        for index in range(shard_count):
            size = base + (1 if index < extra else 0)
            shards.append(keys[start : start + size])
            start += size
        return cls(shards=tuple(shards))

    @property
    def shard_count(self) -> int:
        """Number of shards in the plan."""
        return len(self.shards)

    @property
    def keys(self) -> Tuple[Hashable, ...]:
        """Every key, in plan order (shard 0 first)."""
        return tuple(key for shard in self.shards for key in shard)

    def shard_of(self, key: Hashable) -> int:
        """Index of the shard holding ``key``.

        Raises:
            KeyError: when the key is not in the plan.
        """
        for index, shard in enumerate(self.shards):
            if key in shard:
                return index
        raise KeyError(key)

    def assignment(self) -> Dict[Hashable, int]:
        """Mapping of every key to its shard index."""
        return {
            key: index
            for index, shard in enumerate(self.shards)
            for key in shard
        }

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:
        sizes = ", ".join(str(len(shard)) for shard in self.shards)
        return f"ShardPlan({self.shard_count} shards: [{sizes}])"
