"""Correctness checks, each a pure function returning a list of errors.

The expected values are computed here from the tables the benchmark
generated, in plain numpy, or are properties the method must have; no
check compares against a stored copy of earlier output.  Every check is
shown to reject a deliberately wrong answer by ``selfcheck.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.serving.protocol import payload_checksum

#: Relative tolerance for float answers whose reduction order may
#: differ from the benchmark's own (batched kernels, matmul vs einsum).
RTOL = 1e-9


def _close(got, want) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=RTOL, atol=1e-12)
    )


# ----------------------------------------------------------------------
# pretrain
# ----------------------------------------------------------------------
def check_losses(losses: Sequence[float]) -> List[str]:
    """Every epoch loss is finite and the last is below the first."""
    if len(losses) < 2:
        return [f"need at least two epoch losses, got {len(losses)}"]
    if not np.all(np.isfinite(losses)):
        return [f"non-finite epoch loss in {list(losses)}"]
    if not losses[-1] < losses[0]:
        return [f"loss did not fall: first {losses[0]:.4f}, last {losses[-1]:.4f}"]
    return []


def transe_energy(
    entities: np.ndarray, relations: np.ndarray, triples: np.ndarray
) -> np.ndarray:
    """``||h + r - t||_1`` per (h, r, t) row, from the raw tables."""
    h = entities[triples[:, 0]]
    r = relations[triples[:, 1]]
    t = entities[triples[:, 2]]
    return np.abs(h + r - t).sum(axis=1)


def ranking_auc(true_energy: np.ndarray, corrupt_energy: np.ndarray) -> float:
    """P(true triple has lower energy than its corruption), ties half."""
    wins = (true_energy < corrupt_energy).mean()
    ties = (true_energy == corrupt_energy).mean()
    return float(wins + 0.5 * ties)


def check_auc(auc: float, floor: float) -> List[str]:
    if not np.isfinite(auc) or auc < floor:
        return [f"true-vs-corrupted tail AUC {auc:.3f} below {floor}"]
    return []


def relation_service(
    entities: np.ndarray,
    relations: np.ndarray,
    transfer: np.ndarray,
    heads: np.ndarray,
    rels: np.ndarray,
) -> np.ndarray:
    """``S_R(h, r) = M_r h - r`` with one matmul per pair."""
    h = entities[heads][..., :, None]
    return (transfer[rels] @ h)[..., 0] - relations[rels]


def check_service(
    got_triple: np.ndarray,
    got_relation: np.ndarray,
    entities: np.ndarray,
    relations: np.ndarray,
    transfer: np.ndarray,
    heads: np.ndarray,
    rels: np.ndarray,
) -> List[str]:
    """``service_triple``/``service_relation`` against ``h + r`` and
    ``M_r h - r`` computed here."""
    errors = []
    if not _close(got_triple, entities[heads] + relations[rels]):
        errors.append("service_triple differs from h + r")
    if not _close(
        got_relation, relation_service(entities, relations, transfer, heads, rels)
    ):
        errors.append("service_relation differs from M_r h - r")
    return errors


# ----------------------------------------------------------------------
# serving (lookup_pool / complete_gateway)
# ----------------------------------------------------------------------
def expected_serve(
    entities: np.ndarray,
    relations: np.ndarray,
    transfer: np.ndarray,
    key_relations: np.ndarray,
    entity_id: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``serve`` payload ``(key relations, S_T rows, S_R rows)``.

    Computed with the same einsum as the served kernel so the bytes,
    and hence the CRC, match exactly when the served tables match.
    """
    heads = np.full(len(key_relations), entity_id, dtype=np.int64)
    h = entities[heads]
    triple = h + relations[key_relations]
    relation = (
        np.einsum("...ij,...j->...i", transfer[key_relations], h)
        - relations[key_relations]
    )
    return key_relations, triple, relation


def expected_exist(
    entities: np.ndarray,
    relations: np.ndarray,
    transfer: np.ndarray,
    entity_id: int,
    relation: int,
) -> float:
    """``||M_r h - r||_1`` for one pair."""
    vector = relation_service(
        entities,
        relations,
        transfer,
        np.asarray([entity_id]),
        np.asarray([relation]),
    )
    return float(np.abs(vector).sum())


def check_serve_payload(
    payload: Tuple[np.ndarray, np.ndarray, np.ndarray],
    expected: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> List[str]:
    key_relations, triple, relation = payload
    want_keys, want_triple, want_relation = expected
    if not np.array_equal(np.asarray(key_relations), want_keys):
        return [f"key relations {list(key_relations)} != {list(want_keys)}"]
    if not _close(triple, want_triple) or not _close(relation, want_relation):
        return ["served vectors differ from the tables"]
    return []


def check_checksum(kind: str, payload, checksum: int) -> List[str]:
    if payload_checksum(kind, payload) != checksum:
        return [f"{kind} CRC {checksum} does not match its payload"]
    return []


def check_terminal(
    submitted: Iterable[int], answered: Sequence[int]
) -> List[str]:
    """Every submitted request id is answered exactly once."""
    submitted = list(submitted)
    counts: Dict[int, int] = {}
    for request_id in answered:
        counts[request_id] = counts.get(request_id, 0) + 1
    errors = []
    missing = [rid for rid in submitted if rid not in counts]
    repeated = [rid for rid, count in counts.items() if count > 1]
    stray = set(counts) - set(submitted)
    if missing:
        errors.append(f"{len(missing)} requests never answered")
    if repeated:
        errors.append(f"{len(repeated)} requests answered more than once")
    if stray:
        errors.append(f"{len(stray)} answers for requests never sent")
    return errors


def brute_force_l1(
    entities: np.ndarray, query: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact L1 top-k over every entity row, ties broken by lower id."""
    distances = np.abs(entities - query).sum(axis=1)
    ids = np.arange(len(entities))
    order = np.lexsort((ids, distances))[:k]
    return distances[order], ids[order]


def check_neighbours(
    got_distances: np.ndarray,
    got_ids: np.ndarray,
    want_distances: np.ndarray,
    want_ids: np.ndarray,
) -> List[str]:
    """Same ids in the same order and the same distances.

    Two ids may trade places only when their distances are equal to
    within rounding, which the tie rule cannot order reliably.
    """
    got_ids = np.asarray(got_ids)
    if not _close(got_distances, want_distances):
        return ["neighbour distances differ from brute force"]
    for position in np.flatnonzero(got_ids != want_ids):
        peers = np.isclose(want_distances, want_distances[position], rtol=RTOL)
        if got_ids[position] not in set(want_ids[peers].tolist()):
            return [
                f"neighbour {position} is {got_ids[position]}, brute force "
                f"says {want_ids[position]}"
            ]
    if set(got_ids.tolist()) != set(want_ids.tolist()):
        return ["neighbour set differs from brute force"]
    return []


# ----------------------------------------------------------------------
# stream_churn
# ----------------------------------------------------------------------
def check_no_retired(result_ids: np.ndarray, live: Set[int]) -> List[str]:
    found = [int(i) for i in np.asarray(result_ids).ravel() if i >= 0]
    dead = sorted({i for i in found if i not in live})
    if dead:
        return [f"search returned retired or deleted ids {dead[:5]}"]
    return []


def recall_at_k(got_ids: np.ndarray, want_ids: np.ndarray) -> float:
    """Mean share of the exact top-k that the index returned."""
    hits = [
        len(set(g[g >= 0].tolist()) & set(w.tolist())) / len(w)
        for g, w in zip(np.atleast_2d(got_ids), np.atleast_2d(want_ids))
    ]
    return float(np.mean(hits))


def check_recall(recall: float, floor: float) -> List[str]:
    if not recall >= floor:
        return [f"recall@10 {recall:.3f} below the floor {floor}"]
    return []


def check_live_ids(index_ids: Iterable[int], live_items: Iterable[int]) -> List[str]:
    index_ids, live_items = set(index_ids), set(live_items)
    if index_ids != live_items:
        return [
            f"index live ids differ from the live items: "
            f"{len(index_ids - live_items)} extra, "
            f"{len(live_items - index_ids)} missing"
        ]
    return []


def check_rows_equal(loaded: np.ndarray, expected: np.ndarray) -> List[str]:
    if not np.array_equal(np.asarray(loaded), np.asarray(expected)):
        return ["published snapshot rows differ from the trainer's tables"]
    return []
