"""The paper's synthetic interval generator (Section 6.2).

Parameters match the paper's script exactly:

* ``n`` — number of intervals (the paper's *nI*);
* ``start_dist`` — distribution of start points (*dS*);
* ``length_dist`` — distribution of interval lengths (*dI*);
* ``t_range = (t_min, t_max)`` — the range all intervals lie within;
* ``length_range = (i_min, i_max)`` — min and max interval lengths.

Intervals are clipped so they never extend past ``t_max``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import WorkloadError
from repro.core.schema import DEFAULT_ATTRIBUTE, Relation
from repro.intervals.interval import Interval
from repro.workloads.distributions import Sampler, make_sampler

__all__ = ["SyntheticConfig", "generate_intervals", "generate_relation"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Configuration of the paper's synthetic interval script."""

    n: int
    start_dist: Union[str, Sampler] = "uniform"
    length_dist: Union[str, Sampler] = "uniform"
    t_range: Tuple[float, float] = (0.0, 100_000.0)
    length_range: Tuple[float, float] = (1.0, 100.0)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise WorkloadError("n must be non-negative")
        t_min, t_max = self.t_range
        if t_max <= t_min:
            raise WorkloadError("t_range must be non-degenerate")
        i_min, i_max = self.length_range
        if i_min < 0 or i_max < i_min:
            raise WorkloadError("length_range must satisfy 0 <= min <= max")


def _sample(config: SyntheticConfig) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(starts, ends)`` columns of the configured intervals."""
    rng = np.random.default_rng(config.seed)
    t_min, t_max = config.t_range
    i_min, i_max = config.length_range
    start_sampler = make_sampler(config.start_dist)
    length_sampler = make_sampler(config.length_dist)

    starts = t_min + start_sampler(rng, config.n) * (t_max - t_min)
    lengths = i_min + length_sampler(rng, config.n) * (i_max - i_min)
    ends = np.minimum(starts + lengths, t_max)
    return starts, ends


def generate_intervals(config: SyntheticConfig) -> List[Interval]:
    """Generate intervals per the paper's parameters."""
    starts, ends = _sample(config)
    return list(map(Interval, starts.tolist(), ends.tolist()))


def generate_relation(name: str, config: SyntheticConfig) -> Relation:
    """A single-attribute relation of synthetic intervals, built from
    the sampled columns."""
    return Relation.from_columns(name, {DEFAULT_ATTRIBUTE: _sample(config)})
