"""Workload ``lookup_pool``: a closed loop into a two-worker pool.

One client keeps a window of :data:`WINDOW` requests outstanding at a
:class:`repro.serving.Supervisor` over an embedding store of the seeded
tables.  The mix is 70% ``serve`` and 30% ``exist``; item ids are
Zipf-skewed so each worker's page cache both hits and faults.  A run
sends a fixed number of rounds of the same :data:`BLOCK` requests,
about as many as fit in its time (the pool keeps every terminal
response, so its memory grows with the requests served), then checks
every answer against the in-RAM tables.

The traced run records every batch frame the supervisor sends and
replays those batches in-process through ``serving.worker.run_batch``
on ``PKGMServer.from_store``, so frame coding, the store gather and the
kernel get numbers of their own.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core import PKGMServer
from repro.obs.metrics import MetricsRegistry
from repro.serving import PoolConfig, Supervisor, run_batch
from repro.serving import protocol
from repro.serving import supervisor as supervisor_module

import checks
from common import (
    Inputs,
    Outcome,
    Tracer,
    build_inputs,
    median_rate,
    no_span,
    patched,
    peak_rss_mb,
    percentile_ms,
    repeat_setup,
    rounds_for,
    timed_attribute,
    zipf_choice,
)

WORKERS = 2
WINDOW = 32
TICK = 0.001  # virtual seconds between arrivals (coalescer clock)
MAX_BATCH = 16
MAX_DELAY = 0.002  # virtual seconds
CACHE_PAGES = 64
PAGE_BYTES = 4096
STORE_SHARDS = 2
SERVE_SHARE = 0.7
ZIPF_EXPONENT = 1.1
BLOCK = 1024
WARMUP = 512
#: Wall seconds of one round of the block; see rounds_for.
SECONDS_PER_ROUND = 0.28
#: Batches of the traced run replayed in-process.
REPLAY_BATCHES = 2000


@dataclass
class Served:
    """A started pool over a fresh store of the seeded tables."""

    inputs: Inputs
    store_dir: Path
    pool: Supervisor

    def close(self) -> None:
        try:
            self.pool.shutdown()
        finally:
            shutil.rmtree(self.store_dir, ignore_errors=True)


def open_pool(seed: int, workdir: Path, warm) -> Served:
    """Catalog -> tables -> store -> started pool, warmed by ``warm``.

    On any failure the pool is shut down and the store removed before
    the error propagates.
    """
    inputs = build_inputs(seed)
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))
    served = None
    try:
        inputs.server.save_store(
            store_dir, num_shards=STORE_SHARDS, page_bytes=PAGE_BYTES
        ).close()
        pool = Supervisor(
            store_dir,
            PoolConfig(
                num_workers=WORKERS,
                max_batch=MAX_BATCH,
                max_delay=MAX_DELAY,
                cache_pages=CACHE_PAGES,
            ),
        )
        served = Served(inputs=inputs, store_dir=store_dir, pool=pool)
        pool.start()
        warm(served)
        return served
    except BaseException:
        if served is not None:
            served.close()
        else:
            shutil.rmtree(store_dir, ignore_errors=True)
        raise


@dataclass
class Block:
    """One round of requests: parallel arrays of kind, entity, relation."""

    kinds: List[str]
    entities: np.ndarray
    relations: np.ndarray


def request_block(inputs: Inputs, seed: int, size: int = BLOCK) -> Block:
    rng = np.random.default_rng([seed, 2])
    items = np.asarray(inputs.server.known_items(), dtype=np.int64)
    entities = zipf_choice(rng, items, size, ZIPF_EXPONENT)
    serve = rng.permutation(np.arange(size) < round(SERVE_SHARE * size))
    relations = np.where(
        serve, -1, rng.integers(0, inputs.server.num_relations, size)
    )
    kinds = ["serve" if flag else "exist" for flag in serve]
    return Block(kinds=kinds, entities=entities, relations=relations)


@dataclass
class Drive:
    """What one closed-loop drive recorded."""

    submitted: List[int]
    answered: List[int]
    latencies: List[float]
    #: (block index, outcome, checksum, exist score or None) per answer.
    answers: List[tuple]
    #: Full payload of each block index's first answer.
    first_payloads: Dict[int, object]
    elapsed: float
    #: Wall seconds each round of the block took to submit.
    round_seconds: List[float]


def drive(pool: Supervisor, block: Block, rounds: int, tracer=None) -> Drive:
    """``rounds`` rounds of ``block`` with at most :data:`WINDOW` outstanding."""
    sent: Dict[int, tuple] = {}
    record = Drive([], [], [], [], {}, 0.0, [])
    span = tracer.span if tracer is not None else no_span

    def collect(responses) -> None:
        stamp = time.perf_counter()
        for response in responses:
            submitted_at, index = sent.pop(response.request_id)
            record.latencies.append(stamp - submitted_at)
            record.answered.append(response.request_id)
            score = response.payload if response.kind == "exist" else None
            record.answers.append(
                (index, response.outcome, response.checksum, score)
            )
            if response.ok and index not in record.first_payloads:
                record.first_payloads[index] = response.payload

    started = round_started = time.perf_counter()
    for _ in range(rounds):
        for index, kind in enumerate(block.kinds):
            pool.clock.advance(TICK)
            submitted_at = time.perf_counter()
            with span("serving.submit"):
                request_id = pool.submit(
                    kind,
                    int(block.entities[index]),
                    relation=int(block.relations[index]),
                )
                pool.pump()
            sent[request_id] = (submitted_at, index)
            record.submitted.append(request_id)
            collect(pool.responses())
            while pool.outstanding() > WINDOW:
                with span("serving.wait"):
                    pool.wait_any()
                collect(pool.responses())
        now = time.perf_counter()
        record.round_seconds.append(now - round_started)
        round_started = now
    collect(pool.drain())
    record.elapsed = time.perf_counter() - started
    return record


def check_drive(inputs: Inputs, block: Block, record: Drive) -> List[str]:
    """Exactly one terminal answer per request, each equal to numpy's."""
    errors = checks.check_terminal(record.submitted, record.answered)
    entities = np.asarray(inputs.entity_table)
    relations = np.asarray(inputs.relation_table)
    transfer = np.asarray(inputs.transfer)
    expected_crc: Dict[int, int] = {}
    for index, payload in sorted(record.first_payloads.items()):
        entity = int(block.entities[index])
        if block.kinds[index] == "serve":
            want = checks.expected_serve(
                entities,
                relations,
                transfer,
                inputs.key_relations(entity),
                entity,
            )
            errors += checks.check_serve_payload(payload, want)
            expected_crc[index] = protocol.payload_checksum("serve", want)
        else:
            want = checks.expected_exist(
                entities, relations, transfer, entity, int(block.relations[index])
            )
            if not np.isclose(payload, want, rtol=checks.RTOL):
                errors.append(f"exist score {payload} != {want}")
    for index, outcome, checksum, score in record.answers:
        if outcome != protocol.STATUS_OK:
            errors.append(f"request for block item {index} ended {outcome!r}")
        elif score is not None:
            errors += checks.check_checksum("exist", score, checksum)
            if not np.isclose(score, record.first_payloads[index], rtol=checks.RTOL):
                errors.append(f"exist answers for block item {index} disagree")
        elif checksum != expected_crc[index]:
            errors.append(f"serve CRC for block item {index} != the tables'")
        if len(errors) > 20:
            break
    return errors


def _coalesced(pool: Supervisor):
    """(requests offered, batches flushed) by the pool's coalescer so far."""
    return (
        pool.metrics.counter("coalesce.requests").value,
        pool.metrics.counter("coalesce.batches").value,
    )


def _warm(seed: int):
    def warm(served: Served) -> None:
        block = request_block(served.inputs, seed, size=WARMUP)
        drive(served.pool, block, rounds=1)

    return warm


def run(seed: int, seconds: float, workdir: Path) -> Outcome:
    served, setup_s = repeat_setup(
        lambda: open_pool(seed, workdir, _warm(seed)), Served.close
    )
    try:
        block = request_block(served.inputs, seed)
        before = _coalesced(served.pool)
        record = drive(served.pool, block, rounds_for(seconds, SECONDS_PER_ROUND))
        requests, batches = np.subtract(_coalesced(served.pool), before)
    finally:
        served.close()
    outcome = Outcome(attempted=len(record.submitted))
    outcome.check(check_drive(served.inputs, block, record))
    qps = median_rate(len(block.kinds), record.round_seconds)
    p50 = percentile_ms(record.latencies, 50)
    p99 = percentile_ms(record.latencies, 99)
    outcome.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": qps,
        "p50_ms": p50,
    }
    outcome.lines = [
        f"lookup_qps = {qps:.1f} req/s (median of {len(record.round_seconds)} "
        f"rounds x {BLOCK}; {len(record.answered) / record.elapsed:.1f} overall)",
        f"lookup_p50_ms = {p50:.4f} ms; lookup_p99_ms = {p99:.4f} ms",
        f"coalescing: {requests / batches:.2f} requests/batch "
        f"over {batches:.0f} batches",
    ]
    return outcome


def _replay(store_dir: Path, frames: List[tuple], tracer: Tracer) -> Dict[str, float]:
    """Replay recorded batch frames in-process; per-layer numbers."""
    registry = MetricsRegistry()
    server = PKGMServer.from_store(
        store_dir, cache_pages=CACHE_PAGES, registry=registry
    )
    store = server.store
    frame_bytes: List[int] = []
    read_rows = tracer.wrap("store.read_rows", store.read_rows)

    def counted_read_rows(name, rows):
        tracer.counts["store.rows"] += np.size(rows)
        return read_rows(name, rows)

    hits_before = registry.counter("store.page_hits").value
    faults_before = registry.counter("store.page_faults").value
    try:
        with patched(store, "read_rows", counted_read_rows), timed_attribute(
            tracer, server, "relation_service", "core.relation_service"
        ):
            for message in frames:
                _, kind, k, items = message
                with tracer.span(f"worker.run_batch.{kind}"):
                    results = run_batch(server, kind, int(k), items)
                for frame in (message, ("results", 0, results)):
                    with tracer.span("serving.encode"):
                        body = protocol.encode(frame)
                    with tracer.span("serving.decode"):
                        protocol.decode(body)
                    frame_bytes.append(len(body))
    finally:
        store.close()
    hits = registry.counter("store.page_hits").value - hits_before
    faults = registry.counter("store.page_faults").value - faults_before
    return {
        "serving.encode_us": 1e3 * tracer.mean_ms("serving.encode"),
        "serving.decode_us": 1e3 * tracer.mean_ms("serving.decode"),
        "serving.frame_bytes": float(np.mean(frame_bytes)),
        "worker.run_batch_ms.serve": tracer.mean_ms("worker.run_batch.serve"),
        "worker.run_batch_ms.exist": tracer.mean_ms("worker.run_batch.exist"),
        "store.read_rows_ms": tracer.mean_ms("store.read_rows"),
        "store.rows_per_call": tracer.counts["store.rows"]
        / max(1, tracer.calls["store.read_rows"]),
        "store.page_faults": float(faults),
        "store.cache_hits": hits / max(1, hits + faults),
        "core.relation_service_ms": tracer.mean_ms("core.relation_service"),
    }


def trace(seed: int, seconds: float, workdir: Path) -> Outcome:
    tracer = Tracer()
    frames: List[tuple] = []
    served = open_pool(seed, workdir, _warm(seed))
    try:
        block = request_block(served.inputs, seed)
        send_frame = supervisor_module.send_frame

        def recording_send_frame(sock, message):
            if message[0] == "batch" and len(frames) < REPLAY_BATCHES:
                frames.append(message)
            return send_frame(sock, message)

        before = _coalesced(served.pool)
        with patched(supervisor_module, "send_frame", recording_send_frame):
            record = drive(
                served.pool,
                block,
                rounds_for(seconds, SECONDS_PER_ROUND),
                tracer=tracer,
            )
        requests, batches = np.subtract(_coalesced(served.pool), before)
        outcome = Outcome(attempted=len(record.submitted))
        outcome.check(check_drive(served.inputs, block, record))
        outcome.metrics = {
            "serving.submit_ms": tracer.mean_ms("serving.submit"),
            "serving.batch_size": requests / max(1, batches),
            "serving.wait_ms": tracer.mean_ms("serving.wait"),
        }
        outcome.metrics.update(_replay(served.store_dir, frames, tracer))
    finally:
        served.close()
    outcome.lines = [
        f"traced lookup_qps = "
        f"{median_rate(len(block.kinds), record.round_seconds):.1f} req/s; "
        f"replayed {len(frames)} batches in-process"
    ]
    return outcome
