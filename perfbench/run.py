"""Seeded end-to-end benchmark of the PKGM reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lookup_pool --seed 1 --seconds 10 --trace 0

``--trace 0`` runs one workload untraced and prints the end-to-end
metrics.  ``--trace 1`` runs traced passes of every workload (the named
one first) with timers wrapped around each layer's public calls, and
prints the whole per-layer table.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit).  The exit code is 0 only when every output
check passed.

The program under test is imported from ``src/`` next to this
directory; scratch files (stores, delta logs, snapshots) go to a
temporary directory under ``.perfbench_tmp/`` in the working tree and
are removed on every exit path, as are the worker processes.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the client and its two workers already
# fill both cores.  Set before numpy is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("pretrain", "lookup_pool", "complete_gateway", "stream_churn")

#: End-to-end metrics (untraced runs); every workload reports each one.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
}

#: Per-layer metrics (traced runs), grouped by the pass that yields them.
PER_LAYER_UNITS = {
    # pretrain: PKGMTrainer phases, per batch
    "kg.sample_ms": "ms",
    "nn.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.optimizer_ms": "ms",
    "train.batches": "count",
    "train.edges": "count",
    # lookup_pool: client side of the pool
    "serving.submit_ms": "ms",
    "serving.batch_size": "req/batch",
    "serving.wait_ms": "ms",
    "serving.encode_us": "us",
    "serving.decode_us": "us",
    "serving.frame_bytes": "bytes",
    # lookup_pool: the same batches replayed in-process
    "worker.run_batch_ms.serve": "ms",
    "worker.run_batch_ms.exist": "ms",
    "store.read_rows_ms": "ms",
    "store.rows_per_call": "rows",
    "store.page_faults": "count",
    "store.cache_hits": "ratio",
    "core.relation_service_ms": "ms",
    # complete_gateway
    "gateway.self_ms": "ms",
    "serving.rtt_ms.serve": "ms",
    "serving.rtt_ms.retrieve": "ms",
    "index.flat_search_ms": "ms",
    "index.pairwise_ms": "ms",
    "index.topk_ms": "ms",
    "index.distance_computations": "count",
    "store.read_table_ms": "ms",
    # stream_churn
    "stream.absorb_ms": "ms",
    "stream.index_update_ms": "ms",
    "stream.log_append_ms": "ms",
    "stream.publish_ms": "ms",
    "index.delta_search_ms": "ms",
    "index.delta_candidates": "count",
    "index.kmeans_ms": "ms",
}


def _modules():
    """Workload name -> module (imported after ``src/`` is on the path)."""
    import complete
    import lookup
    import pretrain
    import stream

    return {
        "pretrain": pretrain,
        "lookup_pool": lookup,
        "complete_gateway": complete,
        "stream_churn": stream,
    }


def fingerprint() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} blas={blas_build!r} "
        f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def _terminate(signum, frame):
    del frame
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGTERM, _terminate)

    modules = _modules()
    scratch_root = Path.cwd() / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    outcomes = []
    try:
        if args.trace:
            order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
            share = max(1.0, args.seconds / len(order))
            for index, name in enumerate(order):
                passdir = workdir / f"{index}-{name}"
                passdir.mkdir()
                outcomes.append(
                    (name, modules[name].trace(args.seed, share, passdir))
                )
            units = PER_LAYER_UNITS
        else:
            outcomes.append(
                (
                    args.workload,
                    modules[args.workload].run(args.seed, args.seconds, workdir),
                )
            )
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run's files are there
            scratch_root.rmdir()

    machine = fingerprint()
    metrics = {}
    attempted = failed = 0
    errors = []
    for name, outcome in outcomes:
        print(
            f"[{name}] seed={args.seed} trace={args.trace} "
            f"attempted={outcome.attempted} failed={outcome.failed} | {machine}"
        )
        for line in outcome.lines:
            print(f"[{name}] {line}")
        for error in outcome.errors:
            print(f"[{name}] CHECK FAILED: {error}")
        attempted += outcome.attempted
        failed += outcome.failed
        errors.extend(outcome.errors)
        metrics.update(outcome.metrics)
    missing = sorted(set(units) - set(metrics))
    if missing:
        errors.append(f"metrics not measured: {missing}")
        print(f"CHECK FAILED: metrics not measured: {missing}")
    result = {
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
