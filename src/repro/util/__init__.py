"""Small shared utilities: text vectors, statistics, RNG, task execution."""

from repro.util.text import charset_cosine, charset_vector
from repro.util.stats import ecdf, percentile_of, summarize
from repro.util.rng import child_rng, make_rng
from repro.util.parallel import EXECUTOR_KINDS, JobPool, resolve_workers

__all__ = [
    "EXECUTOR_KINDS",
    "JobPool",
    "charset_cosine",
    "charset_vector",
    "child_rng",
    "ecdf",
    "make_rng",
    "percentile_of",
    "resolve_workers",
    "summarize",
]
