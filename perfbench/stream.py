"""Workload ``stream_churn``: catalog-delta ingest beside ANN reads.

A :class:`repro.stream.StreamPipeline` over the seeded catalog ingests
seeded delta batches in its write-ahead order (generate, log append,
absorb: continual training plus ``DeltaIndex`` insert/delete/update and
maintenance) and publishes a snapshot every :data:`PUBLISH_EVERY`
batches.  After each absorbed batch, while its tombstones are still
live, a burst of :data:`BURST` single-query searches runs against the
index.  A run ingests a fixed number of whole rounds (``PUBLISH_EVERY``
batches and one publish), about as many as fit in its time; the
stream's state drifts as it ingests, so every run of a seed ingests the
very same deltas.  The IVF k-means build happens in
the pipeline's constructor and so falls in ``setup_s``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import List

import numpy as np

import repro.index.ivf as ivf_module
from repro.config import ExperimentConfig
from repro.core import PKGMConfig
from repro.store import EmbeddingStore
from repro.stream import (
    ContinualConfig,
    DeltaIndexConfig,
    DeltaStreamConfig,
    StreamPipeline,
    StreamRunConfig,
)

import checks
from common import (
    DIM,
    KEY_RELATIONS,
    Outcome,
    Tracer,
    catalog_config,
    no_span,
    peak_rss_mb,
    percentile_ms,
    repeat_setup,
    rounds_for,
    timed_attribute,
)

NLIST = 16
NPROBE = 8
EVENTS_PER_BATCH = 32
PUBLISH_EVERY = 8
BURST = 16
K = 10
#: Mean recall@10 of a burst against brute force over the live rows.
RECALL_FLOOR = 0.6
#: Rows of each published snapshot compared with the trainer's table.
SNAPSHOT_ROWS = 64
#: Wall seconds of one round (ingest, searches and checks); see rounds_for.
SECONDS_PER_ROUND = 0.8


def _open(seed: int, workdir: Path) -> StreamPipeline:
    experiment = ExperimentConfig(
        catalog=catalog_config(seed),
        pkgm=PKGMConfig(dim=DIM),
        key_relations=KEY_RELATIONS,
        seed=seed,
    )
    config = StreamRunConfig(
        publish_every=PUBLISH_EVERY,
        nlist=NLIST,
        nprobe=NPROBE,
        metric="l2",
        delta=DeltaStreamConfig(seed=seed, events_per_batch=EVENTS_PER_BATCH),
        continual=ContinualConfig(seed=seed),
        index=DeltaIndexConfig(seed=seed),
    )
    return StreamPipeline(
        experiment, tempfile.mkdtemp(prefix="stream-", dir=workdir), config
    )


def _close(pipeline: StreamPipeline) -> None:
    shutil.rmtree(pipeline.run_dir, ignore_errors=True)


class Churn:
    """Counters and samples of one ingest loop."""

    def __init__(self) -> None:
        self.ops = 0
        self.batches = 0
        self.searches = 0
        self.ingest_seconds = 0.0
        #: (delta ops, ingest seconds) of each round.
        self.round_work: List[tuple] = []
        self.search_latencies: List[float] = []
        self.recalls: List[float] = []
        self.errors: List[str] = []

    def ops_per_s(self) -> float:
        """Delta ops per ingest second of the median-rate round."""
        return float(np.median([ops / seconds for ops, seconds in self.round_work]))


def _burst(pipeline: StreamPipeline, seed: int, churn: Churn, span) -> None:
    """``BURST`` searches, then the checks on what they returned."""
    rng = np.random.default_rng([seed, 5, churn.batches])
    live_items = pipeline.state.live_items()
    table = pipeline.trainer.entity_table
    picks = np.asarray(live_items)[rng.integers(0, len(live_items), BURST)]
    queries = table[picks] + 0.05 * rng.standard_normal((BURST, table.shape[1]))
    found = []
    for query in queries:
        started = time.perf_counter()
        with span("index.delta_search"):
            _, ids = pipeline.index.search(query[None, :], K)
        churn.search_latencies.append(time.perf_counter() - started)
        found.append(ids[0])
    churn.searches += BURST
    live = set(live_items)
    vectors, index_ids = pipeline.index._live_rows()
    errors = checks.check_live_ids(index_ids.tolist(), live_items)
    for ids in found:
        errors += checks.check_no_retired(ids, live)
    exact = [
        index_ids[
            np.argsort(np.sqrt(((vectors - query) ** 2).sum(axis=1)), kind="stable")[:K]
        ]
        for query in queries
    ]
    churn.recalls.append(checks.recall_at_k(np.asarray(found), np.asarray(exact)))
    churn.errors += errors


def _publish_check(pipeline: StreamPipeline, seed: int) -> List[str]:
    """Rows of the version just promoted load bit-equal to the trainer's."""
    versioner = pipeline.versioner
    version = versioner.current_version()
    store = EmbeddingStore.open(versioner.version_dir(version) / "store")
    try:
        table = pipeline.trainer.entity_table
        rng = np.random.default_rng([seed, 6, version])
        rows = rng.integers(0, len(table), SNAPSHOT_ROWS)
        return checks.check_rows_equal(
            store.read_rows("entity_table", rows), table[rows]
        )
    finally:
        store.close()


def churn_loop(
    pipeline: StreamPipeline, seed: int, rounds: int, tracer=None
) -> Churn:
    span = tracer.span if tracer is not None else no_span
    churn = Churn()
    for _ in range(rounds):
        ops_before, seconds_before = churn.ops, churn.ingest_seconds
        for _ in range(PUBLISH_EVERY):
            begin = time.perf_counter()
            batch = pipeline.stream.generate(churn.batches)
            with span("stream.log_append"):
                pipeline.log.append(batch)
            # The same absorb step ``StreamPipeline.run`` takes per batch;
            # run() itself offers no point between batches for the reads.
            pipeline._absorb(batch)
            churn.ingest_seconds += time.perf_counter() - begin
            churn.ops += len(batch.ops)
            churn.batches += 1
            _burst(pipeline, seed, churn, span)
        begin = time.perf_counter()
        with span("stream.publish"):
            pipeline.publish()
        churn.ingest_seconds += time.perf_counter() - begin
        churn.errors += _publish_check(pipeline, seed)
        churn.round_work.append(
            (churn.ops - ops_before, churn.ingest_seconds - seconds_before)
        )
    return churn


def _outcome(churn: Churn) -> Outcome:
    outcome = Outcome(attempted=churn.ops + churn.searches)
    outcome.check(churn.errors[:20])
    outcome.check(checks.check_recall(float(np.mean(churn.recalls)), RECALL_FLOOR))
    return outcome


def run(seed: int, seconds: float, workdir: Path) -> Outcome:
    pipeline, setup_s = repeat_setup(lambda: _open(seed, workdir), _close)
    try:
        churn = churn_loop(pipeline, seed, rounds_for(seconds, SECONDS_PER_ROUND))
    finally:
        _close(pipeline)
    outcome = _outcome(churn)
    ops_per_s = churn.ops_per_s()
    search_p50 = percentile_ms(churn.search_latencies, 50)
    outcome.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": ops_per_s,
        "p50_ms": search_p50,
    }
    outcome.lines = [
        f"stream_ops_per_s = {ops_per_s:.1f} delta ops/s ({churn.ops} ops in "
        f"{churn.batches} batches, {len(churn.round_work)} publishes)",
        f"stream_search_p50_ms = {search_p50:.4f} ms over {churn.searches} "
        f"searches; mean recall@{K} {np.mean(churn.recalls):.3f}",
    ]
    return outcome


def trace(seed: int, seconds: float, workdir: Path) -> Outcome:
    tracer = Tracer()
    with timed_attribute(tracer, ivf_module, "kmeans", "index.kmeans"):
        pipeline = _open(seed, workdir)
        try:
            index = pipeline.index
            with timed_attribute(
                tracer, pipeline.trainer, "absorb", "stream.absorb"
            ), timed_attribute(
                tracer, index, "insert", "stream.index_update"
            ), timed_attribute(
                tracer, index, "delete", "stream.index_update"
            ), timed_attribute(
                tracer, index, "update", "stream.index_update"
            ), timed_attribute(
                tracer, index, "maintenance", "stream.index_update"
            ):
                computations = _search_computations(index)
                churn = churn_loop(
                    pipeline, seed, rounds_for(seconds, SECONDS_PER_ROUND), tracer=tracer
                )
                computations = _search_computations(index) - computations
        finally:
            _close(pipeline)
    outcome = _outcome(churn)
    outcome.metrics = {
        "stream.absorb_ms": tracer.mean_ms("stream.absorb"),
        "stream.index_update_ms": tracer.mean_ms(
            "stream.index_update", per=churn.batches
        ),
        "stream.log_append_ms": tracer.mean_ms("stream.log_append"),
        "stream.publish_ms": tracer.mean_ms("stream.publish"),
        "index.delta_search_ms": tracer.mean_ms("index.delta_search"),
        "index.delta_candidates": computations / churn.searches,
        "index.kmeans_ms": tracer.mean_ms("index.kmeans"),
    }
    outcome.lines = [
        f"traced stream_ops_per_s = {churn.ops_per_s():.1f} "
        f"delta ops/s; k-means calls {tracer.calls['index.kmeans']}"
    ]
    return outcome


def _search_computations(delta_index) -> float:
    """Distances the IVF evaluated in searches so far; the counter lives
    in the registry a re-cluster hands on to the rebuilt index."""
    return delta_index.index.metrics.counter(
        "index.search.distance_computations"
    ).value
