"""Workload ``complete_gateway``: one synchronous caller through the gateway.

A :class:`repro.reliability.gateway.PKGMGateway` fronts the same
two-worker pool as ``lookup_pool``, with one outstanding request at a
time.  Service-vector fetches (``submit``) are interleaved with
completion queries (``submit_retrieval``: the k nearest tails of
``S_T(h, r)``, an exact L1 Flat scan inside the worker).  The replica's
latency model has no virtual tail and the virtual clock moves a whole
second between arrivals, so nothing is shed or expires; every answer
must be a real one.  Retrieval answers are checked against a brute-force
L1 top-k computed here in plain numpy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

import repro.index.flat as flat_module
from repro.core import PKGMServer
from repro.obs.metrics import MetricsRegistry
from repro.reliability.gateway import (
    GatewayConfig,
    LatencyModel,
    PKGMGateway,
    TimedBackend,
)
from repro.reliability.retry import StepClock
from repro.serving import protocol

import checks
from common import (
    Inputs,
    Outcome,
    Tracer,
    median_rate,
    no_span,
    peak_rss_mb,
    percentile_ms,
    repeat_setup,
    rounds_for,
    timed_attribute,
)
from lookup import Block, Served, open_pool

K = 10
#: Half the requests are completion queries, so the exact-scan kernel,
#: not the two process wake-ups every request pays, sets the pace.
RETRIEVE_SHARE = 0.5
BLOCK = 256
ARRIVAL_GAP = 1.0  # virtual seconds; far past any call's virtual latency
DEADLINE_BUDGET = 0.5  # virtual seconds
#: Wall seconds of one round of the block; see rounds_for.
SECONDS_PER_ROUND = 0.75


def request_block(inputs: Inputs, seed: int) -> Block:
    """Uniform items; each retrieval asks about one of its key relations."""
    rng = np.random.default_rng([seed, 4])
    items = np.asarray(inputs.server.known_items(), dtype=np.int64)
    entities = items[rng.integers(0, len(items), BLOCK)]
    retrieve = rng.permutation(np.arange(BLOCK) < round(RETRIEVE_SHARE * BLOCK))
    relations = np.asarray(
        [
            int(rng.choice(inputs.key_relations(int(entity)))) if flag else -1
            for entity, flag in zip(entities, retrieve)
        ],
        dtype=np.int64,
    )
    kinds = ["retrieve" if flag else "serve" for flag in retrieve]
    return Block(kinds=kinds, entities=entities, relations=relations)


def _warm(served: Served) -> None:
    """Build each worker's lazy tail index before anything is timed."""
    items = served.inputs.server.known_items()
    for shard in range(served.pool.config.num_workers):
        entity = next(i for i in items if i % served.pool.config.num_workers == shard)
        relation = int(served.inputs.key_relations(entity)[0])
        served.pool.nearest_tails(entity, relation, K)
        served.pool.serve(entity)


def gateway_over(pool, seed: int) -> PKGMGateway:
    replica = TimedBackend(
        pool,
        latency=LatencyModel(base=0.001, jitter=0.001, tail_prob=0.0, seed=seed),
        name="pool",
    )
    return PKGMGateway(
        [replica],
        GatewayConfig(deadline_budget=DEADLINE_BUDGET, hedge_after=None),
        clock=StepClock(),
    )


def _checksum(kind: str, answer) -> int:
    if kind == "serve":
        payload = (
            answer.key_relations,
            answer.triple_vectors,
            answer.relation_vectors,
        )
    else:
        payload = (answer.distances, answer.neighbor_ids)
    return protocol.payload_checksum(kind, payload)


@dataclass
class Conversation:
    latencies: Dict[str, List[float]]
    #: (block index, error or None, payload CRC) per request.
    answers: List[tuple]
    first_answers: Dict[int, object]
    #: Summed request latency of each round of the block.
    round_seconds: List[float]


def converse(
    gateway: PKGMGateway, block: Block, rounds: int, tracer=None
) -> Conversation:
    """``rounds`` rounds of ``block``, one request outstanding at a time."""
    span = tracer.span if tracer is not None else no_span
    record = Conversation({"serve": [], "retrieve": []}, [], {}, [])
    for _ in range(rounds):
        busy = 0.0
        for index, kind in enumerate(block.kinds):
            entity = int(block.entities[index])
            begin = time.perf_counter()
            with span("gateway.call"):
                if kind == "serve":
                    shed = gateway.submit(entity)
                else:
                    shed = gateway.submit_retrieval(
                        entity, int(block.relations[index]), k=K
                    )
                gateway.clock.advance(ARRIVAL_GAP)
                done = gateway.step()
            latency = time.perf_counter() - begin
            record.latencies[kind].append(latency)
            busy += latency
            if shed is not None or len(done) != 1:
                record.answers.append((index, "shed or lost", 0))
                continue
            response = done[0]
            if not response.ok:
                record.answers.append((index, f"degraded: {response.reason}", 0))
                continue
            record.answers.append(
                (index, None, _checksum(kind, response.vectors))
            )
            record.first_answers.setdefault(index, response.vectors)
        record.round_seconds.append(busy)
    return record


def check_conversation(
    inputs: Inputs, block: Block, record: Conversation
) -> List[str]:
    entities = np.asarray(inputs.entity_table)
    relations = np.asarray(inputs.relation_table)
    transfer = np.asarray(inputs.transfer)
    errors: List[str] = []
    expected_crc: Dict[int, int] = {}
    for index, answer in sorted(record.first_answers.items()):
        entity = int(block.entities[index])
        if block.kinds[index] == "serve":
            want = checks.expected_serve(
                entities, relations, transfer, inputs.key_relations(entity), entity
            )
            got = (answer.key_relations, answer.triple_vectors, answer.relation_vectors)
            errors += checks.check_serve_payload(got, want)
            expected_crc[index] = protocol.payload_checksum("serve", want)
        else:
            query = entities[entity] + relations[int(block.relations[index])]
            want_d, want_i = checks.brute_force_l1(entities, query, K)
            errors += checks.check_neighbours(
                answer.distances, answer.neighbor_ids, want_d, want_i
            )
            expected_crc[index] = _checksum("retrieve", answer)
    for index, error, checksum in record.answers:
        if error is not None:
            errors.append(f"block item {index}: {error}")
        elif checksum != expected_crc[index]:
            errors.append(f"block item {index}: answer CRC changed between rounds")
        if len(errors) > 20:
            break
    return errors


def _open(seed: int, workdir: Path):
    served = open_pool(seed, workdir, _warm)
    return served, gateway_over(served.pool, seed)


def run(seed: int, seconds: float, workdir: Path) -> Outcome:
    (served, gateway), setup_s = repeat_setup(
        lambda: _open(seed, workdir), lambda opened: opened[0].close()
    )
    try:
        block = request_block(served.inputs, seed)
        record = converse(gateway, block, rounds_for(seconds, SECONDS_PER_ROUND))
    finally:
        served.close()
    outcome = Outcome(attempted=len(record.answers))
    outcome.check(check_conversation(served.inputs, block, record))
    everything = record.latencies["serve"] + record.latencies["retrieve"]
    qps = median_rate(len(block.kinds), record.round_seconds)
    serve_p50 = percentile_ms(record.latencies["serve"], 50)
    retrieve_p50 = percentile_ms(record.latencies["retrieve"], 50)
    p99 = percentile_ms(everything, 99)
    outcome.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": qps,
        "p50_ms": retrieve_p50,
    }
    outcome.lines = [
        f"complete_qps = {qps:.1f} req/s (median of "
        f"{len(record.round_seconds)} rounds x {BLOCK}, "
        f"{len(record.latencies['retrieve'])} retrievals)",
        f"complete_serve_p50_ms = {serve_p50:.4f} ms; "
        f"complete_retrieve_p50_ms = {retrieve_p50:.4f} ms; "
        f"complete_p99_ms = {p99:.4f} ms",
    ]
    return outcome


def _replay_index(store_dir: Path, block: Block, tracer: Tracer) -> Dict[str, float]:
    """Cold tail-index build and the block's retrievals, in-process."""
    server = PKGMServer.from_store(store_dir, registry=MetricsRegistry())
    try:
        with timed_attribute(tracer, server.store, "read_rows", "store.read_table"):
            index = server.build_tail_index()
        queries = [i for i, kind in enumerate(block.kinds) if kind == "retrieve"]
        with timed_attribute(
            tracer, index, "search", "index.flat_search"
        ), timed_attribute(
            tracer, flat_module, "pairwise_distances", "index.pairwise"
        ), timed_attribute(
            tracer, flat_module, "batch_top_k", "index.topk"
        ):
            for position in queries:
                server.nearest_tails(
                    int(block.entities[position]), int(block.relations[position]), K
                )
        computations = index.metrics.counter(
            "index.search.distance_computations"
        ).value
    finally:
        server.store.close()
    per_query = max(1, len(queries))
    return {
        "index.flat_search_ms": tracer.mean_ms("index.flat_search"),
        "index.pairwise_ms": tracer.mean_ms("index.pairwise", per=per_query),
        "index.topk_ms": tracer.mean_ms("index.topk", per=per_query),
        "index.distance_computations": computations / per_query,
        "store.read_table_ms": tracer.mean_ms("store.read_table"),
    }


def trace(seed: int, seconds: float, workdir: Path) -> Outcome:
    tracer = Tracer()
    served, gateway = _open(seed, workdir)
    try:
        block = request_block(served.inputs, seed)
        # Wrapped after the gateway is built: its replica inspects the
        # pool's ``serve`` signature once, at construction.
        with timed_attribute(
            tracer, served.pool, "serve", "serving.rtt.serve"
        ), timed_attribute(
            tracer, served.pool, "nearest_tails", "serving.rtt.retrieve"
        ):
            record = converse(
                gateway, block, rounds_for(seconds, SECONDS_PER_ROUND), tracer=tracer
            )
        outcome = Outcome(attempted=len(record.answers))
        outcome.check(check_conversation(served.inputs, block, record))
        backend = tracer.seconds["serving.rtt.serve"] + tracer.seconds[
            "serving.rtt.retrieve"
        ]
        outcome.metrics = {
            "gateway.self_ms": 1e3
            * (tracer.seconds["gateway.call"] - backend)
            / tracer.calls["gateway.call"],
            "serving.rtt_ms.serve": tracer.mean_ms("serving.rtt.serve"),
            "serving.rtt_ms.retrieve": tracer.mean_ms("serving.rtt.retrieve"),
        }
        outcome.metrics.update(_replay_index(served.store_dir, block, tracer))
    finally:
        served.close()
    outcome.lines = [
        f"traced complete_qps = "
        f"{median_rate(len(block.kinds), record.round_seconds):.1f} req/s"
    ]
    return outcome
