"""Pausing the cyclic garbage collector around a block of work."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["collector_paused"]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic collector from starting inside the block.

    For a whole ``JoinAlgorithm.run`` (its pairs and tuples are acyclic,
    and every full collection re-walks all of them), and for short calls
    into C-level state that is not safe against the Python code a
    collection runs (finalisers).  Pauses nest; one ending on another
    thread can cut this one short, never leave the collector off.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()
