"""Workload ``pretrain``: ``PKGMTrainer.train`` on the seeded catalog.

TransE plus the relation module's ``M_r``, margin loss, one uniform
negative per edge with relation corruption, Adam and entity renorm,
for a fixed number of epochs, about as many as fit in the run's time
(at least two, so the loss trend can be checked).  The untraced run
reports edges per second and the time of one batch step; the traced
run hands the trainer a wall-clock ``profiler=`` so its four phases
are timed per batch.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

from repro.core import PKGMTrainer, TrainerConfig
from repro.data import generate_catalog
from repro.obs.metrics import MetricsRegistry

import checks
from common import (
    Outcome,
    Tracer,
    build_model,
    catalog_config,
    peak_rss_mb,
    repeat_setup,
    rounds_for,
)

BATCH_SIZE = 1024
LEARNING_RATE = 0.02
CORRUPT_RELATION_PROB = 0.2
MIN_EPOCHS = 2
#: Wall seconds of one epoch; see rounds_for.
SECONDS_PER_EPOCH = 3.5
#: Sampled true triples (and as many tail corruptions) for the AUC check.
AUC_SAMPLES = 4096
AUC_FLOOR = 0.75

#: Trainer phase -> per-layer span name.
PHASES = {
    "negative_sampling": "kg.sample",
    "forward": "nn.forward",
    "backward": "nn.backward",
    "optimizer": "nn.optimizer",
}


class _IdleClock:
    """The trainer advances its profiler's virtual clock once per phase;
    wall time needs no such clock, so the steps are dropped."""

    def advance(self, steps: float) -> None:
        del steps


class WallPhases:
    """A ``PKGMTrainer(profiler=...)`` hook that times phases in wall time."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.clock = _IdleClock()

    def phase(self, name: str, units: int = 0):
        del units
        return self.tracer.span(PHASES[name])

    def __enter__(self) -> "WallPhases":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


def _setup(seed: int, epochs: int, registry=None, profiler=None):
    catalog = generate_catalog(catalog_config(seed))
    model = build_model(catalog, seed)
    trainer = PKGMTrainer(
        model,
        TrainerConfig(
            epochs=epochs,
            batch_size=BATCH_SIZE,
            learning_rate=LEARNING_RATE,
            corrupt_relation_prob=CORRUPT_RELATION_PROB,
            seed=seed,
        ),
        registry=registry,
        profiler=profiler,
    )
    return catalog, trainer


def _train(trainer, store) -> Tuple[List[float], List[float]]:
    """Train every configured epoch; (losses, epoch wall durations)."""
    marks = [time.perf_counter()]

    def progress(epoch: int, loss: float) -> None:
        del epoch, loss
        marks.append(time.perf_counter())

    history = trainer.train(store, progress=progress)
    return history.epoch_losses, list(np.diff(marks))


def _check(
    seed: int, catalog, trainer, losses: List[float]
) -> Tuple[List[str], float]:
    model = trainer.model
    entities = model.triple_module.entity_embeddings.weight.data
    relations = model.triple_module.relation_embeddings.weight.data
    transfer = model.relation_module.transfer_matrices.data
    rng = np.random.default_rng([seed, 1])
    triples = catalog.store.to_array()
    sample = triples[rng.choice(len(triples), size=AUC_SAMPLES, replace=False)]
    corrupt = sample.copy()
    corrupt[:, 2] = rng.integers(0, len(entities), size=AUC_SAMPLES)
    auc = checks.ranking_auc(
        checks.transe_energy(entities, relations, sample),
        checks.transe_energy(entities, relations, corrupt),
    )
    heads, rels = sample[:256, 0], sample[:256, 1]
    return (
        checks.check_losses(losses)
        + checks.check_auc(auc, AUC_FLOOR)
        + checks.check_service(
            model.service_triple(heads, rels),
            model.service_relation(heads, rels),
            entities,
            relations,
            transfer,
            heads,
            rels,
        )
    ), auc


def run(seed: int, seconds: float, workdir) -> Outcome:
    del workdir
    epochs = rounds_for(seconds, SECONDS_PER_EPOCH, minimum=MIN_EPOCHS)
    (catalog, trainer), setup_s = repeat_setup(
        lambda: _setup(seed, epochs), lambda built: None
    )
    losses, durations = _train(trainer, catalog.store)
    edges = len(catalog.store) * len(losses)
    outcome = Outcome(attempted=edges)
    errors, auc = _check(seed, catalog, trainer, losses)
    outcome.check(errors)
    edges_per_s = len(catalog.store) / float(np.median(durations))
    batches_per_epoch = -(-len(catalog.store) // BATCH_SIZE)
    outcome.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": edges_per_s,
        "p50_ms": float(np.median(durations)) * 1e3 / batches_per_epoch,
    }
    outcome.lines = [
        f"pretrain_edges_per_s = {edges_per_s:.1f} edges/s (median of "
        f"{len(losses)} epochs x {len(catalog.store)} edges); "
        f"{outcome.metrics['p50_ms']:.2f} ms per {BATCH_SIZE}-edge step",
        f"epoch losses {[round(loss, 4) for loss in losses]}; "
        f"true-vs-corrupted tail AUC {auc:.3f}",
    ]
    return outcome


def trace(seed: int, seconds: float, workdir) -> Outcome:
    del workdir
    tracer = Tracer()
    registry = MetricsRegistry()
    epochs = rounds_for(seconds, SECONDS_PER_EPOCH, minimum=MIN_EPOCHS)
    catalog, trainer = _setup(
        seed, epochs, registry=registry, profiler=WallPhases(tracer)
    )
    losses, durations = _train(trainer, catalog.store)
    edges = len(catalog.store) * len(losses)
    outcome = Outcome(attempted=edges)
    errors, _ = _check(seed, catalog, trainer, losses)
    outcome.check(errors)
    batches = registry.counter("train.batches").value
    outcome.metrics = {
        f"{span}_ms": tracer.mean_ms(span, per=batches)
        for span in PHASES.values()
    }
    outcome.metrics["train.batches"] = float(batches)
    outcome.metrics["train.edges"] = float(
        registry.counter("train.examples").value
    )
    outcome.lines = [
        f"traced pretrain_edges_per_s = "
        f"{len(catalog.store) / float(np.median(durations)):.1f} edges/s"
    ]
    return outcome
