"""Self-test of the benchmark's correctness checks.

Each check must accept a right answer and reject a deliberately wrong
one: a perturbed service vector, a swapped neighbour, a retired id in a
search result, a non-finite loss, and so on.  It also checks that the
metric names and units in ``run.py`` agree with ``BENCHMARK.json``.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

Exits 0 when every case behaves, 1 otherwise.  Runs in about a second.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from repro.serving.protocol import payload_checksum  # noqa: E402


def _tables(seed: int = 0):
    rng = np.random.default_rng(seed)
    entities = rng.standard_normal((50, 4))
    relations = rng.standard_normal((3, 4))
    transfer = rng.standard_normal((3, 4, 4))
    return entities, relations, transfer


def cases():
    """(name, errors for the right answer, errors for the wrong one)."""
    entities, relations, transfer = _tables()
    keys = np.asarray([0, 2, 1], dtype=np.int64)
    served = checks.expected_serve(entities, relations, transfer, keys, 7)
    perturbed = (served[0], served[1].copy(), served[2])
    perturbed[1][1, 2] += 1e-3
    yield (
        "serve payload vs tables",
        checks.check_serve_payload(served, served),
        checks.check_serve_payload(perturbed, served),
    )
    yield (
        "serve key relations vs tables",
        checks.check_serve_payload(served, served),
        checks.check_serve_payload((keys[::-1],) + served[1:], served),
    )
    crc = payload_checksum("serve", served)
    yield (
        "CRC vs payload",
        checks.check_checksum("serve", served, crc),
        checks.check_checksum("serve", perturbed, crc),
    )

    heads = np.asarray([1, 2, 3])
    rels = np.asarray([0, 1, 2])
    triple = entities[heads] + relations[rels]
    relation = checks.relation_service(entities, relations, transfer, heads, rels)
    wrong_relation = relation.copy()
    wrong_relation[0, 0] *= 1.01
    yield (
        "service_triple / service_relation vs h + r, M_r h - r",
        checks.check_service(
            triple, relation, entities, relations, transfer, heads, rels
        ),
        checks.check_service(
            triple, wrong_relation, entities, relations, transfer, heads, rels
        ),
    )

    query = entities[4] + relations[1]
    want_d, want_i = checks.brute_force_l1(entities, query, 5)
    swapped_i = want_i.copy()
    swapped_i[[1, 3]] = swapped_i[[3, 1]]
    yield (
        "swapped neighbour",
        checks.check_neighbours(want_d, want_i, want_d, want_i),
        checks.check_neighbours(want_d, swapped_i, want_d, want_i),
    )
    outsider = next(i for i in range(len(entities)) if i not in set(want_i))
    replaced_i = want_i.copy()
    replaced_i[-1] = outsider
    yield (
        "foreign neighbour",
        checks.check_neighbours(want_d, want_i, want_d, want_i),
        checks.check_neighbours(want_d, replaced_i, want_d, want_i),
    )

    live = {1, 2, 3, 5, 8}
    yield (
        "retired id in a search result",
        checks.check_no_retired(np.asarray([1, 5, -1]), live),
        checks.check_no_retired(np.asarray([1, 4, 5]), live),
    )
    yield (
        "index live ids vs live items",
        checks.check_live_ids([1, 2, 3, 5, 8], live),
        checks.check_live_ids([1, 2, 3, 5, 8, 13], live),
    )
    exact = np.asarray([[1, 2, 3]])
    yield (
        "recall floor",
        checks.check_recall(checks.recall_at_k(np.asarray([[3, 2, 1]]), exact), 0.9),
        checks.check_recall(checks.recall_at_k(np.asarray([[3, 5, 8]]), exact), 0.9),
    )
    rows = entities[:5]
    changed = rows.copy()
    changed[2, 1] = np.nextafter(changed[2, 1], np.inf)
    yield (
        "snapshot rows bit-equal",
        checks.check_rows_equal(rows, rows.copy()),
        checks.check_rows_equal(changed, rows),
    )

    yield (
        "non-finite loss",
        checks.check_losses([1.0, 0.5]),
        checks.check_losses([1.0, float("nan"), 0.5]),
    )
    yield (
        "loss must fall",
        checks.check_losses([1.0, 0.5]),
        checks.check_losses([1.0, 1.2]),
    )
    true_energy = np.asarray([0.1, 0.2, 0.3])
    yield (
        "true triples rank above corruptions",
        checks.check_auc(checks.ranking_auc(true_energy, true_energy + 1), 0.75),
        checks.check_auc(checks.ranking_auc(true_energy + 1, true_energy), 0.75),
    )
    yield (
        "exactly one answer per request",
        checks.check_terminal([0, 1, 2], [2, 0, 1]),
        checks.check_terminal([0, 1, 2], [2, 0, 0]),
    )


def benchmark_json_errors():
    """Metric names, units and workloads in run.py match BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    errors = []
    for key, units in (
        ("end_to_end", run.END_TO_END_UNITS),
        ("per_layer", run.PER_LAYER_UNITS),
    ):
        declared = {metric["name"]: metric["unit"] for metric in spec[key]}
        if declared != units:
            errors.append(f"{key} in BENCHMARK.json differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        errors.append("workloads in BENCHMARK.json differ from run.py")
    return errors


def main() -> int:
    failures = 0
    for name, right, wrong in cases():
        verdict = "ok" if not right and wrong else "BROKEN"
        failures += verdict != "ok"
        print(f"{verdict:6s} {name}: accepts right answer={not right}, "
              f"rejects wrong answer={bool(wrong)}")
    for error in benchmark_json_errors():
        failures += 1
        print(f"BROKEN {error}")
    print("selfcheck:", "PASS" if not failures else f"{failures} FAILED")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
