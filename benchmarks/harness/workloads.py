"""The four workloads: seeded inputs, closed-loop drivers, output checks.

Every loop is closed.  One writer waits for each ``QueryServer.apply_batch``
before sending the next batch; ``serve_churn`` adds one reader client thread
that waits for each reply and then thinks for :data:`THINK_S`.  A repetition
builds fresh program state from the same inputs (its own copy of the
database, then maintainer, pool, server, pre-load), so repetitions of one run
must produce bit-identical results, and the first one is checked against
:func:`reference_covariance`, computed here from the generated inputs alone.
The time a repetition takes to get from the inputs to a system ready for its
first timed call is its ``setup_s``.

Sizes are fixed work, scaled linearly from :data:`FULL_SECONDS`: the same
seed and ``--seconds`` give the same inputs and the same counts.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import marshal
import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.aggregates.batch import covariance_batch
from repro.data.tuplestore import tuplestore_stats
from repro.datasets._synthetic import skewed_update_stream
from repro.datasets.retailer import RETAILER_FEATURES, retailer_database, retailer_query
from repro.durability import DurabilityOptions
from repro.ivm import FIVM, Update
from repro.ml.decision_tree import DecisionTreeRegressor
from repro.pipelines.structure_aware import StructureAwarePipeline
from repro.query.join_tree import build_join_tree
from repro.serving import QueryServer
from repro.serving.server import PoisonBatchError
from repro.sharding import ShardedMaintainer

from .spans import Tracer
from .stats import percentile

clock = time.perf_counter

#: ``--seconds`` at which the sizes below apply; other values scale them.
FULL_SECONDS = 20.0
REPETITIONS = 5
FACT = "Inventory"
DIMENSIONS = {"stores": 60, "items": 800, "dates": 200}
#: One feature per relation at least, so every relation carries payload.
IVM_FEATURES = ("inventoryunits", "prize", "maxtemp", "rain", "population", "avghhi")
#: The documented agreement of float results summed in different orders
#: (docs/architecture.md, "Horizontal sharding").
RTOL, ATOL = 1e-9, 1e-6

INGEST_BATCH = 1000
CHURN_BATCH = 100
THINK_S = 0.020
QUERY_EVERY = 10
TREE_DEPTH = 3

#: Fact rows (and, for serve_churn, pre-load and checkpoint interval) at
#: FULL_SECONDS, chosen so that one timed region lasts a little over 5 s on
#: the 2-CPU container.  The time cap of the benchmark contract (92 runs in
#: 3420 s) leaves 37 s per run, input generation and set-up included.
FULL_SIZES = {
    "train_models": {"inventory_rows": 200_000},
    "ingest_bulk": {"inventory_rows": 460_000},
    "ingest_sharded": {"inventory_rows": 290_000},
    "serve_churn": {
        "inventory_rows": 100_000,
        "preload_fact_rows": 50_000,
        "checkpoint_interval": 32,
    },
}


# -- inputs and the reference result ---------------------------------------------------------


def stream_digest(updates: Sequence[Update]) -> str:
    """Digest of an update stream, in order."""
    sha = hashlib.sha256()
    for start in range(0, len(updates), 4096):
        chunk = updates[start : start + 4096]
        # Version 2 of marshal writes values only, no object identities.
        sha.update(marshal.dumps([(u.relation_name, u.row, u.multiplicity) for u in chunk], 2))
    return sha.hexdigest()


def all_rows(database) -> List[Update]:
    """Every base row of ``database`` as an insert, relation by relation."""
    return [
        Update(relation.name, row, multiplicity)
        for relation in database
        for row, multiplicity in relation.items()
    ]


def chunked(updates: List[Update], size: int) -> List[List[Update]]:
    return [updates[start : start + size] for start in range(0, len(updates), size)]


def net_rows(updates: Sequence[Update]) -> Dict[str, Dict[Tuple, int]]:
    """Net multiplicity per relation and row: the database a stream leaves."""
    net: Dict[str, Dict[Tuple, int]] = {}
    for update in updates:
        bucket = net.setdefault(update.relation_name, {})
        bucket[update.row] = bucket.get(update.row, 0) + update.multiplicity
    return net


def reference_covariance(
    schemas: Dict[str, Sequence[str]],
    net: Dict[str, Dict[Tuple, int]],
    order: Sequence[str],
    features: Sequence[str],
) -> Tuple[float, np.ndarray, np.ndarray]:
    """``(count, sums, moments)`` of ``features`` over the natural join.

    ``order[0]`` is the fact relation; every later relation is looked up by
    the attributes it shares with what has been joined so far, which must
    identify one of its rows (the retailer join is key to foreign key).  A
    joined row weighs the product of its parts' multiplicities.
    """
    fact, *dimensions = order
    live = [(row, m) for row, m in net.get(fact, {}).items() if m]
    width = len(features)
    if not live:
        return 0.0, np.zeros(width), np.zeros((width, width))
    weights = np.array([m for _row, m in live], dtype=np.float64)
    columns = {
        name: np.array([row[position] for row, _m in live])
        for position, name in enumerate(schemas[fact])
    }
    for dimension in dimensions:
        names = list(schemas[dimension])
        shared = [position for position, name in enumerate(names) if name in columns]
        rows = [(row, m) for row, m in net.get(dimension, {}).items() if m]
        if not rows:
            return 0.0, np.zeros(width), np.zeros((width, width))
        slot = {tuple(row[position] for position in shared): i for i, (row, _m) in enumerate(rows)}
        if len(slot) != len(rows):
            raise ValueError(f"{dimension}: join attributes do not identify a row")
        # A fact row without a partner takes the slot past the end: weight 0.
        keys = zip(*(columns[names[position]].tolist() for position in shared))
        matched = np.fromiter(
            map(slot.get, keys, itertools.repeat(len(rows))), dtype=np.int64, count=len(weights)
        )
        rows.append((rows[0][0], 0))
        weights = weights * np.array([m for _row, m in rows], dtype=np.float64)[matched]
        for position, name in enumerate(names):
            if name not in columns:
                columns[name] = np.array([row[position] for row, _m in rows])[matched]
    data = np.column_stack([columns[feature].astype(np.float64) for feature in features])
    weighted = data * weights[:, None]
    return float(weights.sum()), weighted.sum(axis=0), data.T @ weighted


def fingerprint(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return sha.hexdigest()


# -- what one repetition reports ---------------------------------------------------------------


@dataclass
class Repetition:
    setup_s: float
    wall_s: float
    rows: int
    attempted: int
    #: One line per raised operation or failed output check.
    failures: List[str]
    #: Digest of the result; repetitions of one run must agree on it.
    fingerprint: str
    #: ``(count, sums, moments)`` as the program reported them.
    result: Tuple[float, np.ndarray, np.ndarray]
    #: Per-operation latencies in seconds: write / read_point / read_query.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Further end-to-end durations in seconds (recover_s) and counts
    #: (disk_bytes_per_update), one value per repetition.
    seconds: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics; filled for a traced repetition only.
    layers: Dict[str, float] = field(default_factory=dict)


class ReaderClient(threading.Thread):
    """One closed-loop reader: request, wait for the reply, think, repeat."""

    def __init__(self, server: QueryServer, batch) -> None:
        super().__init__(name="harness-reader")
        self.server = server
        self.batch = batch
        self.point: List[float] = []
        self.query: List[float] = []
        self.failures: List[str] = []
        self._done = threading.Event()

    def run(self) -> None:
        turn = 0
        while not self._done.is_set():
            started = clock()
            try:
                if turn % QUERY_EVERY == 0:
                    self.server.query(self.batch)
                    self.query.append(clock() - started)
                else:
                    self.server.statistics()
                    self.point.append(clock() - started)
            except Exception as error:  # a failed read is counted, the loop goes on
                self.failures.append(f"read {turn}: {error!r}")
            turn += 1
            self._done.wait(THINK_S)

    def stop(self) -> None:
        self._done.set()
        self.join()


@dataclass
class Drive:
    """One timed region: the writer loop and, optionally, the reader beside it."""

    wall_s: float
    write: List[float]
    point: List[float]
    query: List[float]
    failures: List[str]
    #: The program's counters before and after, and the harness's own.
    before: Dict[str, Dict[str, float]]
    after: Dict[str, Dict[str, float]]
    observed: Dict[str, float]


def read_counters(server: Optional[QueryServer] = None) -> Dict[str, Dict[str, float]]:
    """The program's own counters, read through its public surfaces."""
    counters = {
        "tuplestore": dict(tuplestore_stats),
        "kernels": {
            f"{name}.{key}": value
            for name, block in kernels.kernel_stats().items()
            for key, value in block.items()
        },
    }
    if server is not None:
        counters["maintainer"] = dict(server.maintainer.executor_stats)
        counters["serving"] = {
            key: value
            for key, value in server.serving_stats().items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        counters["serving"]["published"] = server.manager.published_generations
    return counters


def drive(
    server: QueryServer,
    batches: List[List[Update]],
    tracer: Optional[Tracer],
    reader_batch=None,
) -> Drive:
    write: List[float] = []
    failures: List[str] = []
    active_max = 0
    reader = ReaderClient(server, reader_batch) if reader_batch is not None else None
    before = read_counters(server)
    if tracer is not None:
        tracer.recording = True
    started = clock()
    if reader is not None:
        reader.start()
    for number, batch in enumerate(batches):
        sent = clock()
        try:
            server.apply_batch(batch)
        except PoisonBatchError as error:
            failures.append(f"write {number}: {error!r}")
        write.append(clock() - sent)
        if tracer is not None:
            active_max = max(active_max, server.manager.active_generations)
    wall = clock() - started
    if reader is not None:
        reader.stop()
        failures.extend(reader.failures)
    if tracer is not None:
        tracer.recording = False
    return Drive(
        wall_s=wall,
        write=write,
        point=reader.point if reader else [],
        query=reader.query if reader else [],
        failures=failures,
        before=before,
        after=read_counters(server),
        observed={
            "ivm.input_rows": sum(len(batch) for batch in batches),
            "serving.active_generations_max": active_max,
        },
    )


# -- per-layer metrics from one traced repetition ----------------------------------------------

#: Layers a workload does not touch report zero, so every workload emits every name.
ABSENT = (
    "data.first_encode_s",
    "data.live_rows_end",
    "aggregates.aggregates",
    "ml.tree_batches",
    "ml.tree_aggregates",
    "pipelines.batch_s",
    "pipelines.train_s",
    "ivm.input_rows",
    "serving.active_generations_max",
    "sharding.pool_start_s",
    "sharding.imbalance",
    "sharding.group_messages",
    "sharding.maintainer_ships",
)


def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    before: Dict[str, Dict[str, float]],
    after: Dict[str, Dict[str, float]],
    observed: Dict[str, float],
) -> Dict[str, float]:
    """Busy time is the sum of a layer's spans; counts are calls or rows.

    ``before`` / ``after`` are :func:`read_counters` around the timed region,
    ``observed`` what the harness counted itself.
    """
    totals = tracer.totals()

    def busy(name: str) -> float:
        return totals.get(name, {}).get("busy_s", 0.0)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    def self_time(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def moved(block: str, key: str) -> float:
        return after.get(block, {}).get(key, 0) - before.get(block, {}).get(key, 0)

    serving = after.get("serving", {})
    views: Dict[str, float] = {}
    for stats in tracer.captured("engine.evaluate"):
        for key, value in stats.items():
            views[key] = views.get(key, 0) + value
    all_views = sum(value for key, value in views.items() if key.startswith("views_"))
    stalls = tracer.durations("serving.apply_batch", with_child="durability.checkpoint_write")
    replay_s = tracer.busy_under("ivm.apply", "durability.recover")
    apply_s = busy("ivm.apply") - replay_s
    input_rows = observed.get("ivm.input_rows", 0)
    netted_rows = sum(tracer.captured("ivm.net_updates"))
    roots = ("serving.apply_batch", "pipelines.run", "ml.tree_fit")

    layers = dict.fromkeys(ABSENT, 0.0)
    layers.update(
        {
            "data.add_batch_s": busy("data.add_batch"),
            "data.add_batch_calls": calls("data.add_batch"),
            "data.compact_s": busy("data.compact"),
            "data.compact_calls": calls("data.compact"),
            "data.compactions": moved("tuplestore", "compactions"),
            "data.deferred_compactions": moved("tuplestore", "deferred_compactions"),
            "data.mult_copy_on_write": moved("tuplestore", "mult_copy_on_write"),
            "data.column_store_s": busy("data.column_store"),
            "data.column_store_calls": calls("data.column_store"),
            "data.zero_copy_snapshots": moved("tuplestore", "zero_copy_snapshots"),
            "data.full_encodes": moved("tuplestore", "full_encodes"),
            "aggregates.batch_build_s": busy("aggregates.batch_build"),
            "engine.construct_s": busy("engine.construct"),
            "engine.evaluate_s": busy("engine.evaluate"),
            "engine.evaluate_calls": calls("engine.evaluate"),
            "engine.views_columnar": views.get("views_columnar", 0),
            "engine.views_cached": views.get("views_cached", 0),
            "engine.views_delta_refreshed": views.get("views_delta_refreshed", 0),
            "engine.views_tuple_fallback": views.get("views_tuple_fallback", 0),
            "engine.view_cache_hit_ratio": (
                views.get("views_cached", 0) / all_views if all_views else 0.0
            ),
            "ml.ridge_fit_s": busy("ml.ridge_fit"),
            "ml.tree_fit_s": busy("ml.tree_fit"),
            "ivm.net_updates_s": busy("ivm.net_updates"),
            "ivm.apply_s": apply_s,
            "ivm.statistics_s": busy("ivm.statistics"),
            "ivm.delta_passes": moved("maintainer", "delta_passes"),
            "ivm.delta_pass_s": moved("maintainer", "delta_pass_ns") / 1e9,
            "ivm.netted_rows": netted_rows,
            "ivm.netting_ratio": netted_rows / input_rows if input_rows else 0.0,
            "serving.apply_batch_self_s": self_time("serving.apply_batch"),
            "serving.publish_s": busy("serving.publish"),
            "serving.publish_calls": calls("serving.publish"),
            "serving.generations_published": moved("serving", "published"),
            "serving.generations_reused": (
                calls("serving.publish") - moved("serving", "published")
            ),
            "serving.snapshot_age_p50_ms": serving.get("snapshot_age_p50_s", 0.0) * 1e3,
            "serving.reads_per_epoch_mean": serving.get("reads_per_epoch_mean", 0.0),
            "serving.read_point_busy_s": busy("serving.read_point"),
            "serving.read_query_busy_s": busy("serving.read_query"),
            "durability.journal_append_s": busy("durability.journal_append"),
            "durability.journal_append_calls": calls("durability.journal_append"),
            "durability.journal_bytes": moved("serving", "journal_bytes_written"),
            "durability.checkpoint_write_s": busy("durability.checkpoint_write"),
            "durability.checkpoints": calls("durability.checkpoint_write"),
            "durability.checkpoint_bytes_last": serving.get("checkpoint_last_size_bytes", 0),
            "durability.checkpoint_stall_p99_ms": (
                percentile(stalls, 99)[0] * 1e3 if stalls else 0.0
            ),
            "durability.recover_load_s": busy("durability.checkpoint_load"),
            "durability.replay_s": replay_s,
            "durability.replayed_batches": sum(tracer.captured("durability.recover")),
            "sharding.route_s": busy("sharding.route"),
            "sharding.executor_apply_s": busy("sharding.executor_apply"),
            "sharding.merge_s": busy("sharding.merge"),
            "sharding.routed_fact_rows": moved("maintainer", "routed_fact_rows"),
            "sharding.replicated_dimension_rows": moved(
                "maintainer", "replicated_dimension_rows"
            ),
            "harness.unattributed_share": sum(self_time(root) for root in roots) / wall_s,
        }
    )

    # The slowest shard sets the batch's time; what the parent waited beyond
    # it is pickling, pipes and scheduling.  Per-shard stats are public only
    # on the executor, which the apply wrapper handed over.
    executors = tracer.captured("sharding.executor_apply")
    worker_busy = 0.0
    if executors:
        worker_busy = max(
            stats.get("delta_pass_ns", 0) for stats in executors[-1].executor_stats()
        ) / 1e9
    layers["sharding.worker_busy_s"] = worker_busy
    layers["sharding.wait_s"] = max(0.0, busy("sharding.executor_apply") - worker_busy)

    # Kernel counters: this process's own, plus those of pool workers, whose
    # deltas ride back in the maintainer's executor_stats.  An in-process
    # maintainer folds the process-global counters in, so adding them again
    # would count twice.
    pooled = bool(executors) and executors[-1].mode == "processpool"
    total_ns = 0.0
    for name in kernels.KERNEL_NAMES:
        kernel_calls = moved("kernels", f"{name}.calls")
        kernel_ns = moved("kernels", f"{name}.ns")
        if pooled:
            kernel_calls += moved("maintainer", f"kernel_{name}_calls")
            kernel_ns += moved("maintainer", f"kernel_{name}_ns")
        layers[f"kernels.{name}.calls"] = kernel_calls
        layers[f"kernels.{name}.ms"] = kernel_ns / 1e6
        total_ns += kernel_ns
    layers["kernels.total_ms"] = total_ns / 1e6
    layers["kernels.share_of_apply"] = total_ns / 1e9 / apply_s if apply_s > 0 else 0.0
    layers.update(observed)
    return layers


# -- the workloads -----------------------------------------------------------------------------


def payload_result(payload) -> Tuple[float, np.ndarray, np.ndarray]:
    return payload.count, payload.sums, payload.moments


class Workload:
    """Seeded inputs plus one repetition of the timed region on fresh state.

    ``prepare`` is the load generator's work and runs once; its cost is
    reported per layer (``datasets.*``).  ``repetition`` starts from those
    inputs every time: the time from its start to a system ready for the
    first timed call is the repetition's ``setup_s``.
    """

    name = ""

    def __init__(self, seed: int, seconds: float, scratch: str) -> None:
        self.seed = seed
        self.scale = seconds / FULL_SECONDS
        self.scratch = scratch
        self.sizes: Dict[str, int] = {}
        self.digests: Dict[str, str] = {}
        #: Input generation, once per run (datasets.generate_s, ...), in seconds.
        self.once: Dict[str, float] = {}

    def scaled(self, key: str, floor: int) -> int:
        return max(floor, int(FULL_SIZES[self.name][key] * self.scale))

    def generate(self) -> None:
        started = clock()
        self.database = retailer_database(
            inventory_rows=self.scaled("inventory_rows", 1_000), seed=self.seed, **DIMENSIONS
        )
        self.query = retailer_query()
        self.once["datasets.generate_s"] = clock() - started
        started = clock()
        build_join_tree(self.query.hypergraph(self.database))
        self.once["query.join_tree_s"] = clock() - started
        self.schemas = {
            relation.name: tuple(relation.schema.names) for relation in self.database
        }
        self.sizes.update({relation.name: len(relation) for relation in self.database})

    def prepare(self) -> None:
        """Generate the inputs."""
        raise NotImplementedError

    def repetition(self, tracer: Optional[Tracer]) -> Repetition:
        raise NotImplementedError

    def reference(self) -> Tuple[float, np.ndarray, np.ndarray]:
        """The expected result, from the generated inputs alone."""
        raise NotImplementedError


class IngestBulk(Workload):
    """Every base row as one shuffled insert stream through a QueryServer."""

    name = "ingest_bulk"

    def prepare(self) -> None:
        self.generate()
        started = clock()
        self.updates = all_rows(self.database)
        random.Random(self.seed).shuffle(self.updates)
        self.batches = chunked(self.updates, INGEST_BATCH)
        self.digests["stream"] = stream_digest(self.updates)
        self.once["datasets.stream_build_s"] = clock() - started
        self.fact_multiplicity = sum(
            update.multiplicity for update in self.updates if update.relation_name == FACT
        )
        self.sizes.update(stream_updates=len(self.updates), batch=INGEST_BATCH)

    def build_maintainer(self, database):
        return FIVM(database, self.query, IVM_FEATURES)

    def maintainer_layers(self, maintainer, construct_s: float) -> Dict[str, float]:
        return {}

    def release(self, maintainer) -> None:
        pass

    def repetition(self, tracer: Optional[Tracer]) -> Repetition:
        gc.collect()
        started = clock()
        database = self.database.copy()
        copied = clock()
        maintainer = self.build_maintainer(database)
        construct_s = clock() - copied
        server = QueryServer(maintainer, readers=1)
        setup_s = clock() - started
        try:
            run = drive(server, self.batches, tracer)
            payload = server.statistics().value
            layers: Dict[str, float] = {}
            if tracer is not None:
                run.observed["data.live_rows_end"] = sum(
                    len(relation) for relation in maintainer.database
                )
                run.observed.update(self.maintainer_layers(maintainer, construct_s))
                layers = layer_metrics(tracer, run.wall_s, run.before, run.after, run.observed)
        finally:
            server.close()
            self.release(maintainer)
        failures = list(run.failures)
        if payload.count != self.fact_multiplicity:
            failures.append(
                f"root count {payload.count} != live fact multiplicity {self.fact_multiplicity}"
            )
        return Repetition(
            setup_s=setup_s,
            wall_s=run.wall_s,
            rows=len(self.updates),
            attempted=len(self.batches) + 1,
            failures=failures,
            fingerprint=fingerprint(*payload_result(payload)),
            result=payload_result(payload),
            samples={"write": run.write},
            layers=layers,
        )

    def reference(self) -> Tuple[float, np.ndarray, np.ndarray]:
        return reference_covariance(
            self.schemas, net_rows(self.updates), self.query.relation_names, IVM_FEATURES
        )


class IngestSharded(IngestBulk):
    """The ingest_bulk stream through two shard worker processes."""

    name = "ingest_sharded"

    def build_maintainer(self, database):
        return ShardedMaintainer(
            database, self.query, IVM_FEATURES, shards=2, executor="processpool"
        )

    def maintainer_layers(self, maintainer, construct_s: float) -> Dict[str, float]:
        block = maintainer.sharding_stats()
        return {
            "sharding.pool_start_s": construct_s,
            "sharding.imbalance": block["imbalance"],
            "sharding.group_messages": block["group_messages"],
            "sharding.maintainer_ships": block["maintainer_ships"],
        }

    def release(self, maintainer) -> None:
        maintainer.close()


class ServeChurn(Workload):
    """Durable server, cancel-heavy small batches, a reader beside, then recovery."""

    name = "serve_churn"

    def prepare(self) -> None:
        self.generate()
        self.interval = self.scaled("checkpoint_interval", 2)
        # Five periodic checkpoints, then a journal tail of two fifths of an
        # interval to replay (the issue's 540 batches at interval 100, halved).
        batches = 5 * self.interval + max(1, (2 * self.interval) // 5)
        started = clock()
        fact_rows = self.scaled("preload_fact_rows", 500)
        self.preload = [
            update for update in all_rows(self.database) if update.relation_name != FACT
        ] + [Update(FACT, row, 1) for row in self.database.relation(FACT).rows()[:fact_rows]]
        random.Random(self.seed).shuffle(self.preload)
        self.updates = skewed_update_stream(
            self.database,
            FACT,
            batches * CHURN_BATCH,
            seed=self.seed,
            skew_alpha=1.1,
            fanout=4,
            delete_fraction=0.4,
            dimension_fraction=0.02,
        )
        self.batches = chunked(self.updates, CHURN_BATCH)
        self.digests["preload"] = stream_digest(self.preload)
        self.digests["stream"] = stream_digest(self.updates)
        self.once["datasets.stream_build_s"] = clock() - started
        self.reader_batch = covariance_batch(list(IVM_FEATURES))
        self.sizes.update(
            preload_updates=len(self.preload),
            stream_updates=len(self.updates),
            batch=CHURN_BATCH,
            checkpoint_interval=self.interval,
            replay_batches=len(self.batches) % self.interval,
        )

    def repetition(self, tracer: Optional[Tracer]) -> Repetition:
        gc.collect()
        started = clock()
        directory = tempfile.mkdtemp(prefix="serve_churn-", dir=self.scratch)
        try:
            return self._repetition(tracer, directory, started)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _repetition(self, tracer: Optional[Tracer], directory: str, started: float) -> Repetition:
        maintainer = FIVM(self.database.copy(), self.query, IVM_FEATURES)
        for batch in chunked(self.preload, INGEST_BATCH):
            maintainer.apply_batch(batch)
        options = DurabilityOptions(directory, sync="batch", checkpoint_interval=self.interval)
        server = QueryServer(maintainer, readers=2, durability=options)
        # Both reader threads build their engine now, not inside the timed region.
        for future in [server.submit_query(self.reader_batch) for _reader in range(2)]:
            future.result()
        setup_s = clock() - started

        run = drive(server, self.batches, tracer, self.reader_batch)
        live = server.statistics().value
        run.observed["data.live_rows_end"] = sum(len(relation) for relation in maintainer.database)
        disk_bytes = sum(entry.stat().st_size for entry in os.scandir(directory))
        failures = list(run.failures)

        # The unclean stop: the server is dropped, never closed, so recovery
        # starts from the last periodic checkpoint plus the journal tail.
        del server, maintainer
        gc.collect()
        if tracer is not None:
            tracer.recording = True
        recover_started = clock()
        recovered = QueryServer.recover(options, readers=2)
        try:
            first_read = recovered.statistics().value
            recover_s = clock() - recover_started
            if tracer is not None:
                tracer.recording = False
            if fingerprint(*payload_result(first_read)) != fingerprint(*payload_result(live)):
                failures.append("recovered statistics differ from the live ones at the stop")
            if recovered.prefix != len(self.batches):
                failures.append(
                    f"recovered prefix {recovered.prefix} != {len(self.batches)} batches"
                )
        finally:
            recovered.close()

        checks = 2
        layers: Dict[str, float] = {}
        if tracer is not None:
            layers = layer_metrics(tracer, run.wall_s, run.before, run.after, run.observed)
            checks += 1
            if layers["durability.replayed_batches"] != self.sizes["replay_batches"]:
                failures.append(
                    f"replayed {layers['durability.replayed_batches']} batches, "
                    f"expected {self.sizes['replay_batches']}"
                )
        return Repetition(
            setup_s=setup_s,
            wall_s=run.wall_s,
            rows=len(self.updates),
            attempted=len(self.batches) + len(run.point) + len(run.query) + checks,
            failures=failures,
            fingerprint=fingerprint(*payload_result(live)),
            result=payload_result(live),
            samples={"write": run.write, "read_point": run.point, "read_query": run.query},
            seconds={"recover_s": recover_s},
            counts={"disk_bytes_per_update": disk_bytes / len(self.updates)},
            layers=layers,
        )

    def reference(self) -> Tuple[float, np.ndarray, np.ndarray]:
        return reference_covariance(
            self.schemas,
            net_rows(self.preload + self.updates),
            self.query.relation_names,
            IVM_FEATURES,
        )


class TrainModels(Workload):
    """Ridge regression and a regression tree from aggregate batches."""

    name = "train_models"

    def prepare(self) -> None:
        self.generate()
        self.target = RETAILER_FEATURES["target"]
        self.continuous = list(RETAILER_FEATURES["continuous"])
        self.categorical = list(RETAILER_FEATURES["categorical"])
        # The database is the input here: it is generated and never updated.
        self.rows = all_rows(self.database)
        self.digests["database"] = stream_digest(self.rows)
        self.sizes.update(tree_depth=TREE_DEPTH, models=2)

    def repetition(self, tracer: Optional[Tracer]) -> Repetition:
        gc.collect()
        started = clock()
        database = self.database.copy()
        copied = clock()
        for relation in database:
            relation.column_store()
        first_encode_s = clock() - copied
        setup_s = clock() - started

        before = read_counters()
        if tracer is not None:
            tracer.recording = True
        started = clock()
        pipeline = StructureAwarePipeline(self.target, self.continuous, self.categorical)
        report = pipeline.run(database, self.query)
        tree = DecisionTreeRegressor(
            self.target, self.continuous, self.categorical, max_depth=TREE_DEPTH
        )
        tree.fit(database, self.query)
        wall = clock() - started
        if tracer is not None:
            tracer.recording = False

        sigma = pipeline.sigma
        block = sigma.submatrix(
            [sigma.index.intercept_position()]
            + [sigma.index.position(feature) for feature in self.continuous]
        )
        layers: Dict[str, float] = {}
        if tracer is not None:
            observed = {
                "data.first_encode_s": first_encode_s,
                "data.live_rows_end": len(self.rows),
                "aggregates.aggregates": report.aggregate_count + tree.aggregates_evaluated,
                "ml.tree_batches": tree.batches_evaluated,
                "ml.tree_aggregates": tree.aggregates_evaluated,
                "pipelines.batch_s": report.batch_seconds,
                "pipelines.train_s": report.train_seconds,
            }
            layers = layer_metrics(tracer, wall, before, read_counters(), observed)
        return Repetition(
            setup_s=setup_s,
            wall_s=wall,
            rows=2 * len(self.rows),
            attempted=2,
            failures=[],
            fingerprint=fingerprint(
                sigma.matrix, [tree.batches_evaluated, tree.aggregates_evaluated]
            ),
            result=(block[0, 0], block[0, 1:], block[1:, 1:]),
            layers=layers,
        )

    def reference(self) -> Tuple[float, np.ndarray, np.ndarray]:
        return reference_covariance(
            self.schemas, net_rows(self.rows), self.query.relation_names, self.continuous
        )


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    workload.name: workload
    for workload in (TrainModels, IngestBulk, IngestSharded, ServeChurn)
}
