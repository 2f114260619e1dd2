"""Reusable columnar delta machinery: join-key alignment and keyed deltas.

The vectorised executor matches join keys in code space and the fused IVM
pass merges keyed payload blocks on its way up the join tree.  This module is
the shared home for those primitives:

- :func:`match_key_columns` — vectorised key matching between two typed key
  dictionaries (factored out of :mod:`repro.engine.executor`);
- :func:`merge_keyed_deltas` — deterministically merge several keyed payload
  blocks (the per-relation deltas arriving at one join-tree node) into one;
- :func:`subtree_schedule` — the traversal order a fused leaf-to-root pass
  follows.

Everything here is pure array manipulation over dictionary-encoded keys —
no per-row Python on any hot path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "match_key_columns",
    "merge_keyed_deltas",
    "subtree_schedule",
]


def match_key_columns(
    parent_columns: List[np.ndarray], child_columns: List[np.ndarray]
) -> Optional[np.ndarray]:
    """Vectorised key matching: child slot (or -1) per parent key combination.

    Both sides are re-coded per attribute into the shared value domain (one
    ``np.unique`` over the concatenated dictionaries), the per-attribute codes
    are mixed arithmetically, and the parent's mixed codes are located among
    the child's via ``searchsorted`` — no per-key Python at all.
    """
    parent_mixed: Optional[np.ndarray] = None
    child_mixed: Optional[np.ndarray] = None
    capacity = 1
    for parent, child in zip(parent_columns, child_columns):
        parent_kind = parent.dtype.kind
        child_kind = child.dtype.kind
        if (parent_kind in "iufb") != (child_kind in "iufb"):
            return None
        if (parent_kind in "iub") != (child_kind in "iub"):
            # One integer side, one float side: concatenation would promote
            # to float64 and collapse distinct integers beyond 2**53 —
            # Python equality would keep them apart.  Probe the dictionary.
            return None
        domain = np.unique(np.concatenate((parent, child)))
        capacity *= max(int(domain.size), 1)
        if capacity > 2 ** 62:
            return None
        parent_codes = np.searchsorted(domain, parent)
        child_codes = np.searchsorted(domain, child)
        if parent_mixed is None:
            parent_mixed, child_mixed = parent_codes, child_codes
        else:
            parent_mixed = parent_mixed * domain.size + parent_codes
            child_mixed = child_mixed * domain.size + child_codes
    if parent_mixed is None or child_mixed is None:
        return None
    if child_mixed.size == 0:
        return np.full(parent_mixed.size, -1, dtype=np.int64)
    order = np.argsort(child_mixed)
    ordered = child_mixed[order]
    positions = np.searchsorted(ordered, parent_mixed)
    inside = positions < ordered.size
    clipped = np.where(inside, positions, 0)
    matches = inside & (ordered[clipped] == parent_mixed)
    return np.where(matches, order[clipped], -1).astype(np.int64, copy=False)


def merge_keyed_deltas(contributions, concatenate: Callable):
    """Merge keyed payload blocks into one ``(keys, block)`` delta.

    ``contributions`` is a non-empty sequence of ``(keys, block)`` pairs — the
    deltas arriving at one join-tree node from its children plus its own
    update group.  The merged key list holds every distinct key in
    first-seen order (contribution order, then key order within each), and
    the merged block sums the rows of equal keys via the block's
    ``segment_sum``; ``concatenate`` stacks the blocks (payload-type
    specific, e.g. ``CovarianceBlock.concatenate``).  Both the key order and
    the floating-point reduction order are therefore fully determined by the
    contribution order, which is what makes a journal replay retrace the
    original pass bit for bit.
    """
    if len(contributions) == 1:
        return contributions[0]
    first_keys = contributions[0][0]
    if all(keys == first_keys for keys, _block in contributions[1:]):
        # Identical key lists (e.g. every contribution targets the root's
        # single empty key): elementwise block addition, no re-coding.
        merged = contributions[0][1]
        for _keys, block in contributions[1:]:
            merged = merged.add(block)
        return first_keys, merged
    index: Dict[Tuple, int] = {}
    merged_keys: List[Tuple] = []
    codes: List[int] = []
    for keys, _block in contributions:
        for key in keys:
            code = index.get(key)
            if code is None:
                code = len(merged_keys)
                index[key] = code
                merged_keys.append(key)
            codes.append(code)
    stacked = concatenate([block for _keys, block in contributions])
    merged = stacked.segment_sum(
        np.asarray(codes, dtype=np.int64), len(merged_keys)
    )
    return merged_keys, merged


def subtree_schedule(join_tree) -> List:
    """The traversal order of a fused leaf-to-root multi-delta pass.

    Returns the join tree's nodes deepest level first, each level in tree
    order — so every node comes after all of its children, and the children
    of one parent stay in the parent's child order.  That order is
    significant: a node's delta must land in its view before a later
    sibling's hop reads it.
    """
    levels: Dict[int, List] = {}

    def visit(node, depth: int) -> None:
        levels.setdefault(depth, []).append(node)
        for child in node.children:
            visit(child, depth + 1)

    visit(join_tree.root, 0)
    return [node for depth in sorted(levels, reverse=True) for node in levels[depth]]
