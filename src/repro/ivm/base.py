"""The maintainer contract: update protocol, netting and the ground truth.

A maintainer keeps its own copy of the base relations (starting from an
initially empty database, as in the paper's streaming experiment), accepts
signed tuple updates, and exposes the maintained covariance statistics over
the continuous features of the feature-extraction join.

Updates arrive one at a time (:meth:`CovarianceMaintainer.apply`) or as
batches (:meth:`CovarianceMaintainer.apply_batch`).  A batch is itself a
*delta relation*: :meth:`apply_batch` nets out multiplicities per tuple,
groups the batch per relation and hands every group at once to the
subclass's *fused multi-delta pass* (``_apply_multi_delta``), which carries
every touched relation's delta in a single leaf-to-root traversal.  Grouping
is sound because the delta effect on any view is *linear* in the delta of a
single relation (a group's tuples never join against their own relation),
and the final state is order-independent across relations (every maintainer
invariant is a function of the base relations alone); the fused pass
realises the telescoped form of that sum (new views before the current
child, old views after it), so it lands on the same state in one traversal.
A subclass that only implements ``_apply_update`` (the comparison strategies
of ``benchmarks/figure4_strategies.py``) gets the same protocol with every
netted row applied per tuple.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.batch import covariance_batch
from repro.aggregates.sparse_tensor import sigma_from_batch_results
from repro.data.database import Database
from repro.data.tuplestore import net_rows
from repro.engine.lmfao import LMFAOEngine
from repro.engine.plan import designate_attributes
from repro.kernels import kernel_stats, kernel_stats_enabled
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.join_tree import JoinTree, build_join_tree
from repro.rings.covariance import CovariancePayload, CovarianceRing


@dataclass(frozen=True)
class Update:
    """A signed tuple update: +1 multiplicity inserts, -1 deletes."""

    relation_name: str
    row: Tuple
    multiplicity: int = 1


def _check_arity(database: Database, relation_name: str, rows: Sequence[Tuple]) -> None:
    """Raise ``ValueError`` naming the relation if a row's arity disagrees
    with its schema."""
    relation = database.relation(relation_name)
    if set(map(len, rows)) - {relation.arity}:
        row = next(row for row in rows if len(row) != relation.arity)
        raise ValueError(
            f"update row {row!r} has arity {len(row)}, but relation "
            f"{relation_name!r} has schema {list(relation.schema.names)} "
            f"(arity {relation.arity})"
        )


def coerce_groups(
    database: Database,
    groups: Iterable[Tuple[str, Sequence[Tuple], Sequence[int]]],
    validated: bool = False,
) -> List[Tuple[str, List[Tuple], List[int]]]:
    """Already-netted groups made ready for ``apply_groups``, before anything
    mutates: tuple rows, int multiplicities, every row's arity checked
    against ``database``'s schemas (the check :func:`net_update_stream`
    runs).  ``validated=True`` takes groups straight out of
    :func:`net_update_stream` as they stand."""
    if validated:
        return groups if isinstance(groups, list) else list(groups)
    prepared = [
        (name, [tuple(row) for row in rows], [int(m) for m in netted])
        for name, rows, netted in groups
    ]
    for name, rows, _netted in prepared:
        _check_arity(database, name, rows)
    return prepared


def net_update_stream(
    database: Database, updates: Iterable[Update]
) -> List[Tuple[str, List[Tuple], List[int]]]:
    """Net a batch per (relation, row) against ``database``'s schemas.

    The shared netting step behind :meth:`CovarianceMaintainer.net_updates`
    and :class:`repro.sharding.ShardedMaintainer` — netting happens exactly
    once, whoever routes the groups afterwards.  Returns
    ``(relation_name, rows, multiplicities)`` groups with relations in
    first-touched order, rows in first-seen order and zero-netting rows
    dropped; raises (without side effects) if any update's arity disagrees
    with its relation's schema.
    """
    split: Dict[str, Tuple[List[Tuple], List[int]]] = {}
    for update in updates:
        group = split.get(update.relation_name)
        if group is None:
            group = split[update.relation_name] = ([], [])
        group[0].append(update.row)
        group[1].append(update.multiplicity)
    for relation_name, (rows, _multiplicities) in split.items():
        _check_arity(database, relation_name, rows)
    groups: List[Tuple[str, List[Tuple], List[int]]] = []
    for relation_name, (rows, multiplicities) in split.items():
        # Distinct rows (a bulk load) are netted as they stand.
        if len(dict.fromkeys(rows)) < len(rows) or 0 in multiplicities:
            rows, multiplicities = net_rows(rows, multiplicities)
        if rows:
            groups.append((relation_name, rows, multiplicities))
    return groups


def largest_relation(database: Database, query: ConjunctiveQuery) -> str:
    """The query relation with the most rows in ``database`` (ties: wider, then
    later by name): the root of every maintainer's join tree, and the sharded
    facade's fact relation, unless the caller names another."""
    return max(
        query.relation_names,
        key=lambda name: (len(database.relation(name)), database.relation(name).arity, name),
    )


def recompute_covariance(
    query: ConjunctiveQuery,
    database: Database,
    features: Sequence[str],
    ring: CovarianceRing,
) -> CovariancePayload:
    """The covariance statistics of ``query`` over ``database``, from scratch.

    The ground truth shared by :meth:`CovarianceMaintainer.recompute_statistics`
    and the sharded facade: one :func:`~repro.aggregates.batch.covariance_batch`
    evaluated by :class:`~repro.engine.lmfao.LMFAOEngine`, which never
    materialises the join.  An empty join is the ring's zero; a feature with
    a non-numeric value in a relation of the query raises ``ValueError``
    naming it.
    """
    for feature in features:
        if any(
            feature in relation.schema.names and relation.column_store().float_column(feature) is None
            for relation in map(database.relation, query.relation_names)
        ):
            raise ValueError(f"feature {feature!r} has non-numeric values")
    values = LMFAOEngine(database, query).evaluate(covariance_batch(features)).values
    sigma = sigma_from_batch_results(values, features).matrix      # the intercept first
    if not sigma[0, 0]:
        return ring.zero()
    return CovariancePayload(float(sigma[0, 0]), sigma[0, 1:].copy(), sigma[1:, 1:].copy())


class CovarianceMaintainer(abc.ABC):
    """Base class: the update protocol and schema bookkeeping of a maintainer."""

    def __init__(
        self,
        schema_database: Database,
        query: ConjunctiveQuery,
        features: Sequence[str],
        root_relation: Optional[str] = None,
    ) -> None:
        """Set up the maintained state.

        ``root_relation`` forces the join-tree root.  Otherwise the tree is
        rooted at the relation with the most rows in ``schema_database``
        (:func:`largest_relation`):
        for *maintenance* (as opposed to batch evaluation) the dominant cost
        is the leaf-to-root propagation distance weighted by each relation's
        update mass, and absent a workload trace the representative row
        counts are the best static proxy for where updates will land — an
        update stream drawn from the data (the Figure-4 experiment) hits the
        fact table in proportion to its size, and rooting there makes the
        bulk of all deltas root-local (zero propagation hops).
        """
        self.query = query
        self.features = tuple(features)
        self.ring = CovarianceRing(len(self.features))
        #: Counters mirroring ``BatchResult.executor_stats``: the fused pass
        #: records ``delta_passes`` (traversals run), ``delta_pass_ns`` (time
        #: spent inside them) and ``slot_map_probes`` (dictionary probes
        #: resolving parent key codes to view slots), so benchmarks can
        #: attribute maintenance time without profiling.
        self.executor_stats: Dict[str, int] = {}
        # Maintainers are single-writer by contract: updates mutate tuple
        # and payload stores with no internal synchronisation.  The gate
        # turns a violated contract (two threads applying concurrently)
        # into an immediate error instead of silent corruption; it is an
        # RLock so apply_batch's per-tuple fallback can re-enter apply().
        self._writer_gate = threading.RLock()
        # The maintainer owns an initially-empty copy of the database: the
        # streaming experiment of Figure 4 (right) starts from nothing.
        self.database = schema_database.empty_copy()
        hypergraph = query.hypergraph(schema_database)
        root = root_relation
        if root is None:
            root = largest_relation(schema_database, query)
        self.join_tree: JoinTree = build_join_tree(hypergraph, root=root)
        self._designation = self._designate_features()
        self._feature_positions = {
            feature: position for position, feature in enumerate(self.features)
        }
        # Per relation: (schema position, feature position) of each feature
        # designated to it — the hot lift paths skip all name resolution.
        self._lift_plans: Dict[str, List[Tuple[int, int]]] = {}
        for relation_name in self.query.relation_names:
            schema = self.database.relation(relation_name).schema
            self._lift_plans[relation_name] = [
                (schema.index_of(feature), self._feature_positions[feature])
                for feature in self.features_of(relation_name)
            ]

    # -- feature designation -----------------------------------------------------------

    def _designate_features(self) -> Dict[str, str]:
        """Assign each feature to the relation the engine designates it to
        (:func:`~repro.engine.plan.designate_attributes`: the deepest
        join-tree node containing it, ties broken by relation name)."""
        every = designate_attributes(self.join_tree)
        missing = [feature for feature in self.features if feature not in every]
        if missing:
            raise ValueError(f"feature {missing[0]!r} does not occur in the query")
        return {feature: every[feature] for feature in self.features}

    def features_of(self, relation_name: str) -> List[str]:
        return [
            feature
            for feature in self.features
            if self._designation[feature] == relation_name
        ]

    # -- update protocol -----------------------------------------------------------------

    def apply(self, update: Update) -> None:
        """Apply one signed tuple update.

        ``Relation.add`` bumps the relation's mutation counter, which also
        invalidates any cached column store (see ``Relation.column_store``) —
        an engine over the maintained database reads a fresh snapshot on its
        next evaluation.  A zero multiplicity is
        validated and then changes nothing, exactly as :meth:`apply_batch`
        nets it away.
        """
        if not self._writer_gate.acquire(blocking=False):
            raise RuntimeError(
                "concurrent writers: CovarianceMaintainer.apply is single-writer; "
                "serialize updates through one thread (e.g. QueryServer.apply_batch)"
            )
        try:
            _check_arity(self.database, update.relation_name, [update.row])
            if update.multiplicity == 0:
                return
            self._apply_update(update)
            self.database.relation(update.relation_name).add(
                update.row, update.multiplicity
            )
        finally:
            self._writer_gate.release()

    def apply_batch(self, updates: Iterable[Update]) -> int:
        """Apply a stream of updates, propagating whole per-relation deltas.

        The batch is netted out per (relation, row) — an insert/delete pair
        inside one batch cancels — and grouped per relation, with every
        update's arity validated *before* anything is applied (an invalid
        update anywhere in the batch leaves the maintainer untouched).
        All groups go at once through ``_apply_multi_delta`` (one
        leaf-to-root traversal for the whole batch, which also lands the
        groups' rows in the base relations).  Batches netting to a single
        row, and subclasses without a fused pass, run the per-tuple
        :meth:`apply` over the *netted* pairs — the same rule
        :meth:`apply_groups` uses, so
        ``apply_batch(U)`` and ``apply_groups(net_updates(U))`` retrace the
        identical computation (the durability journal relies on this for
        bit-identical replay).

        Kernel-stat deltas fold into ``executor_stats`` and the writer gate
        releases in ``finally`` blocks, so a raising batch neither loses its
        partial counters nor wedges future writers.
        """
        batch = list(updates)
        if not self._writer_gate.acquire(blocking=False):
            raise RuntimeError(
                "concurrent writers: CovarianceMaintainer.apply_batch is "
                "single-writer; serialize updates through one thread "
                "(e.g. QueryServer.apply_batch)"
            )
        try:
            before = kernel_stats() if kernel_stats_enabled() else None
            try:
                self._apply_groups_locked(self.net_updates(batch))
            finally:
                if before is not None:
                    self._merge_kernel_stats(before)
            return len(batch)
        finally:
            self._writer_gate.release()

    def net_updates(
        self, updates: Iterable[Update]
    ) -> List[Tuple[str, List[Tuple], List[int]]]:
        """Net a batch per (relation, row) and validate every update up front.

        Returns ``(relation_name, rows, multiplicities)`` groups — relations
        in first-touched order, rows in first-seen order, zero-netting rows
        dropped — the exact shape :meth:`apply_groups` consumes and the
        write-ahead journal records.  Raises (without side effects) if any
        update's arity disagrees with its relation's schema.
        """
        return net_update_stream(self.database, updates)

    def apply_groups(
        self,
        groups: Iterable[Tuple[str, Sequence[Tuple], Sequence[int]]],
        validated: bool = False,
    ) -> int:
        """Apply already-netted per-relation groups (the journal replay path).

        ``groups`` is the shape :meth:`net_updates` produces; applying them
        here runs exactly the code path :meth:`apply_batch` would have run on
        the original batch, so replaying journaled groups reproduces the
        original maintainer state bit for bit.  Returns the number of netted
        rows applied.

        Rows are coerced and arity-checked first (:func:`coerce_groups`): a
        bad row raises ``ValueError`` and leaves the maintainer untouched.
        ``validated=True`` skips that — only for groups that came straight
        out of this maintainer's own :meth:`net_updates` (the durable
        server's write path); journal replay and any hand-built groups must
        keep the default.
        """
        prepared = coerce_groups(self.database, groups, validated)
        if not self._writer_gate.acquire(blocking=False):
            raise RuntimeError(
                "concurrent writers: CovarianceMaintainer.apply_groups is "
                "single-writer; serialize updates through one thread "
                "(e.g. QueryServer.apply_batch)"
            )
        try:
            before = kernel_stats() if kernel_stats_enabled() else None
            try:
                self._apply_groups_locked(prepared)
            finally:
                if before is not None:
                    self._merge_kernel_stats(before)
            return sum(len(rows) for _name, rows, _netted in prepared)
        finally:
            self._writer_gate.release()

    def _merge_kernel_stats(self, before: Dict[str, Dict[str, int]]) -> None:
        """Fold this batch's kernel counter deltas into ``executor_stats``.

        Only runs when :func:`repro.kernels.enable_kernel_stats` turned
        counting on (the counters are process-global; the delta against the
        batch-start snapshot attributes them to this maintainer).  Keys are
        ``kernel_<name>_calls`` / ``kernel_<name>_ns``.
        """
        stats = self.executor_stats
        for name, counters in kernel_stats().items():
            calls = counters["calls"] - before[name]["calls"]
            if not calls:
                continue
            calls_key = f"kernel_{name}_calls"
            ns_key = f"kernel_{name}_ns"
            stats[calls_key] = stats.get(calls_key, 0) + calls
            stats[ns_key] = (
                stats.get(ns_key, 0) + counters["ns"] - before[name]["ns"]
            )

    def _apply_groups_locked(
        self, groups: List[Tuple[str, List[Tuple], List[int]]]
    ) -> None:
        """Propagate netted groups; the single dispatch point both
        :meth:`apply_batch` and :meth:`apply_groups` funnel through.

        Fewer than two netted rows run per tuple; otherwise the subclass's
        ``_apply_multi_delta`` (per tuple too, unless it fuses a pass).  The
        rule keys on the *netted* row count (not the raw batch length), so
        netting a batch and replaying its groups later picks the same code
        path — a precondition for bit-identical journal replay.
        """
        total_rows = sum(len(rows) for _name, rows, _netted in groups)
        if total_rows < 2:
            CovarianceMaintainer._apply_multi_delta(self, groups)
        else:
            self._apply_multi_delta(groups)

    @abc.abstractmethod
    def _apply_update(self, update: Update) -> None:
        """Strategy-specific maintenance, run before the base relation changes."""

    def _apply_multi_delta(self, groups: List[Tuple[str, List[Tuple], List[int]]]) -> None:
        """Maintenance for a whole batch; by default every netted row through
        :meth:`apply`, one at a time.

        ``groups`` lists every touched relation's netted delta as
        ``(relation_name, rows, multiplicities)``.  A subclass that fuses the
        batch into one pass must also land every group's rows in its base
        relation (``Relation.add_batch``), at the point of the traversal its
        arithmetic needs them.
        """
        for relation_name, rows, netted in groups:
            for row, multiplicity in zip(rows, netted):
                self.apply(Update(relation_name, row, multiplicity))

    # -- durability support ---------------------------------------------------------------

    def __getstate__(self) -> Dict:
        """Checkpoint pickling: the writer gate is process-local, drop it, and
        so is every wall-clock counter (``delta_pass_ns``,
        ``kernel_<name>_ns``: a file holds the history's counts, not how long
        this process took; readers default them to 0)."""
        state = self.__dict__.copy()
        state.pop("_writer_gate", None)
        state["executor_stats"] = {
            name: value for name, value in self.executor_stats.items()
            if not name.endswith("_ns")
        }
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._writer_gate = threading.RLock()

    @abc.abstractmethod
    def statistics(self) -> CovariancePayload:
        """The maintained covariance statistics over the join."""

    # -- reference -------------------------------------------------------------------------

    def recompute_statistics(self) -> CovariancePayload:
        """Recompute the statistics from scratch (used by tests as ground truth).

        The join result is read through its dictionary-encoded column store:
        count, sums and the quadratic form are three matrix expressions over
        the feature columns instead of a Python loop over tuples.
        """
        return recompute_covariance(self.query, self.database, self.features, self.ring)
