"""Shared inputs, timing helpers and the result record of the benchmark.

Everything a workload needs to build its inputs from a seed lives here,
together with the small amount of wall-clock machinery the traced runs
use: a :class:`Tracer` that accumulates time per span name, and
:func:`patched`, which swaps a public function or method for a timed
wrapper for the length of a ``with`` block and always restores it.
Nothing here changes code under ``src/``; tracing wraps calls from the
benchmark's side only.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.core import PKGM, KeyRelationSelector, PKGMConfig, PKGMServer
from repro.data import CatalogConfig, generate_catalog

#: Catalog scale: 12 categories x 200 products x 2-4 seller listings
#: gives about 7.2k items and 9.7k-9.9k entities (items plus attribute
#: values), 17 relations and 43k-50k triples, depending on the seed.
CATALOG_SHAPE = dict(
    num_categories=12,
    products_per_category=200,
    min_items_per_product=2,
    max_items_per_product=4,
    noun_pool_size=4,
)
DIM = 32
KEY_RELATIONS = 5
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3


def catalog_config(seed: int) -> CatalogConfig:
    return CatalogConfig(seed=seed, **CATALOG_SHAPE)


@dataclass
class Inputs:
    """The seeded catalog and the (untrained) model tables built from it."""

    catalog: object
    model: PKGM
    selector: KeyRelationSelector
    server: PKGMServer

    @property
    def entity_table(self) -> np.ndarray:
        return self.server.entity_table

    @property
    def relation_table(self) -> np.ndarray:
        return self.server.relation_table

    @property
    def transfer(self) -> np.ndarray:
        return self.server.transfer_tensor

    def key_relations(self, entity_id: int) -> np.ndarray:
        return np.asarray(self.selector.for_item(entity_id), dtype=np.int64)


def build_model(catalog, seed: int) -> PKGM:
    """A freshly initialised PKGM sized for ``catalog``."""
    return PKGM(
        len(catalog.entities),
        len(catalog.relations),
        PKGMConfig(dim=DIM),
        rng=np.random.default_rng(seed),
    )


def build_inputs(seed: int) -> Inputs:
    """Catalog, PKGM tables and an in-RAM server, all from ``seed``."""
    catalog = generate_catalog(catalog_config(seed))
    model = build_model(catalog, seed)
    selector = KeyRelationSelector(
        catalog.store,
        {item.entity_id: item.category_id for item in catalog.items},
        k=KEY_RELATIONS,
    )
    return Inputs(
        catalog=catalog,
        model=model,
        selector=selector,
        server=PKGMServer(model, selector),
    )


def zipf_choice(
    rng: np.random.Generator, population: np.ndarray, size: int, exponent: float
) -> np.ndarray:
    """``size`` draws from ``population`` with Zipf(``exponent``) rank
    weights; which member gets which rank is itself a seeded shuffle."""
    ranked = rng.permutation(population)
    weights = 1.0 / np.arange(1, len(ranked) + 1, dtype=np.float64) ** exponent
    return ranked[rng.choice(len(ranked), size=size, p=weights / weights.sum())]


def repeat_setup(build: Callable[[], object], teardown: Callable[[object], None]):
    """Run ``build`` :data:`SETUP_REPEATS` times; keep the last result.

    Returns ``(result, median_seconds)``.  Earlier results are torn
    down as soon as the next one is timed, so at most two are alive.
    """
    durations: List[float] = []
    result = None
    for _ in range(SETUP_REPEATS):
        if result is not None:
            teardown(result)
            result = None
        started = time.perf_counter()
        result = build()
        durations.append(time.perf_counter() - started)
    return result, float(np.median(durations))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB.

    ``ru_maxrss`` is in KiB on Linux; for ``RUSAGE_CHILDREN`` it is the
    peak of the largest child waited for, so call this after every
    worker has been shut down and joined.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def rounds_for(seconds: float, seconds_per_round: float, minimum: int = 1) -> int:
    """Whole rounds that take about ``seconds`` on the reference machine.

    A run does a fixed amount of work, not as much as fits in its time:
    every run of a seed then does the very same operations, however
    fast the program is, so work-dependent figures (peak RSS, a stream
    whose state drifts as it ingests) compare like with like.
    ``seconds_per_round`` is a round's wall time on a 2-vCPU x86 VM
    with numpy 2.4.
    """
    return max(minimum, round(seconds / seconds_per_round))


def median_rate(work: float, seconds: List[float]) -> float:
    """Work per second of the median round: one slow round (a noisy
    neighbour, a page-cache flush) moves it less than a plain mean."""
    return float(work / np.median(seconds))


def percentile_ms(seconds: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


@dataclass
class Outcome:
    """What one workload pass measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)

    def check(self, errors: List[str]) -> None:
        self.errors.extend(errors)


class Tracer:
    """Wall time and call counts per span name, plus free-form counts."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - started
            self.calls[name] += 1

    def wrap(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def timed(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return timed

    def mean_ms(self, name: str, per: float = 0.0) -> float:
        """Milliseconds per call (or per ``per`` units when given)."""
        divisor = per if per else self.calls[name]
        return 1e3 * self.seconds[name] / divisor if divisor else 0.0


def no_span(name: str):
    """Stand-in for :meth:`Tracer.span` in untraced runs."""
    del name
    return contextlib.nullcontext()


@contextlib.contextmanager
def patched(owner, attribute: str, replacement):
    """Set ``owner.attribute`` to ``replacement`` for the block.

    An attribute the owner only inherited (a method looked up on an
    instance) is deleted again afterwards rather than pinned.
    """
    own = attribute in vars(owner)
    original = getattr(owner, attribute)
    setattr(owner, attribute, replacement)
    try:
        yield original
    finally:
        if own:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)


@contextlib.contextmanager
def timed_attribute(tracer: Tracer, owner, attribute: str, name: str):
    """Time every call to ``owner.attribute`` under span ``name``."""
    with patched(
        owner, attribute, tracer.wrap(name, getattr(owner, attribute))
    ) as original:
        yield original
