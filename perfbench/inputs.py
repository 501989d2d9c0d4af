"""Seeded, stationary op sequences (pure functions, no I/O).

Every workload turns ``--seed`` into a fixed cycle of op inputs.  A run
walks the cycle from the start and wraps around, so a faster commit
reaches the same inputs in the same order, only more of them.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


def seeded_cycle(items: Sequence[T], seed: int, label: str) -> List[T]:
    """A permutation of ``items`` drawn from ``seed``; ``label`` keeps
    workloads that share a seed independent.  String seeding hashes with
    SHA-512, so the result does not depend on PYTHONHASHSEED."""
    cycle = list(items)
    random.Random(f"{label}:{seed}").shuffle(cycle)
    return cycle


def strata(items: Sequence[T], key: Callable[[T], object],
           count: int) -> List[List[T]]:
    """``items`` sorted by ``key`` and cut into ``count`` contiguous
    strata whose sizes differ by at most one."""
    if not 1 <= count <= len(items):
        raise ValueError(f"cannot cut {len(items)} items into {count} "
                         f"strata")
    ordered = sorted(items, key=key)
    base, extra = divmod(len(ordered), count)
    layers, start = [], 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        layers.append(ordered[start:start + size])
        start += size
    return layers


def digest(description) -> str:
    """SHA-256 of a JSON-serializable description of a cycle."""
    text = json.dumps(description, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
