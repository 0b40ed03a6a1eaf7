"""Pausing the cyclic garbage collector around a block of work."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["collector_paused"]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic collector from starting inside the block.

    Four callers: a whole ``JoinAlgorithm.run`` (its pairs and blocks
    are acyclic, and every collection re-walks all of them), building a
    result's ``Row`` tuples (``JoinResult.tuples``), building a relation
    (``Relation.from_column_blocks``) and building a relation's rows on
    request (``Relation.rows``: rows and intervals are acyclic too).
    The outermost pause ends by moving what the block left in the young
    generations into the oldest in O(1)
    (``gc.freeze(); gc.unfreeze()``), so no young collection walks it
    when the collector is back on; only a full collection does, as it
    would anyway.  Objects the caller froze (``gc.get_freeze_count()``
    non-zero) are left frozen, and nothing is promoted.  Pauses nest —
    an inner one, or one that found the collector off, neither promotes
    nor re-enables; one ending on another thread can cut this one
    short, never leave the collector off.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()
