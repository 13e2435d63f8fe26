"""Batched truth-mask evaluation across many models at once.

Lays the state blocks of M models over the same (n, K) side by side in a
single integer: bit m*S + v is state v of model m.  Boolean connectives
are then single bignum operations for the whole batch, and the two
modalities vectorize as well:

* <C> phi collapses the child mask along each coalition member's digit
  axis (OR of the r per-digit shifts, masked to the digit-0 plane) and
  spreads back by multiplying with the axis comb.  Shifted bits that
  cross a block boundary or borrow across digits never land on the
  digit-0 plane, so the plane mask discards them.
* pref(i) phi peels the child mask by the rank (under model m's true
  order for i) of each state's outcome: the lowest rank present in a
  block decides that block's result, a precomputed at-or-below-rank mask.

Used by the axiom soundness sweep, where tens of thousands of instances
meet thousands of models, and by per-SCF property checks, which stack the
(|K|!)^n models that differ only in their true profile; agreement with
the per-model evaluator is enforced by property tests.
"""

from __future__ import annotations

from typing import Sequence

from .core import ScfModel
from .logic import (
    Diamond,
    Formula,
    FormulaDomainMismatch,
    Not,
    Or,
    Out,
    Pref,
    Rep,
    Top,
    _space,
)

__all__ = ["StackedEvaluator"]


def _stack(small_masks: Sequence[int], block_bits: int) -> int:
    """Concatenate per-model masks, model 0 lowest; binary fold so the
    copy volume stays O(M log M) words."""
    parts = list(small_masks)
    width = block_bits
    while len(parts) > 1:
        merged = []
        for k in range(0, len(parts) - 1, 2):
            merged.append(parts[k] | (parts[k + 1] << width))
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
        width *= 2
    return parts[0]


class StackedEvaluator:
    """Memoized truth masks for a batch of models sharing one (n, K)."""

    def __init__(self, models: Sequence[ScfModel]):
        if not models:
            raise ValueError("need at least one model")
        first = models[0]
        for model in models:
            if model.n != first.n or model.outcomes != first.outcomes:
                raise ValueError("all stacked models must share (n, outcomes)")
        self.models = list(models)
        self.space = _space(first.n, first.outcomes)
        self.block = self.space.size
        self.count = len(self.models)
        total = self.block * self.count
        self.full = (1 << total) - 1
        self.block_ones = (1 << self.block) - 1
        self.tile = self.full // self.block_ones  # one bit per block, at the block base
        radix = 1
        for k in range(2, len(first.outcomes) + 1):
            radix *= k
        self._radix = radix
        # per agent axis: stride, tiled digit-0 plane, spread comb
        self._axis: list[tuple[int, int, int]] = []
        for agent in range(1, first.n + 1):
            stride = radix ** (first.n - agent)
            plane_small = 0
            for v in range(self.block):
                if self.space.digits[v][agent - 1] == 0:
                    plane_small |= 1 << v
            comb = sum(1 << (d * stride) for d in range(radix))
            self._axis.append((stride, plane_small * self.tile, comb))
        # per distinct outcome function, the states choosing each outcome;
        # stacked, the states of each model choosing it
        by_values: dict[tuple[str, ...], dict[str, int]] = {}
        small_out: list[dict[str, int]] = []
        for model in self.models:
            masks = by_values.get(model.table.values)
            if masks is None:
                masks = dict.fromkeys(first.outcomes, 0)
                for v, value in enumerate(model.table.values):
                    masks[value] |= 1 << v
                by_values[model.table.values] = masks
            small_out.append(masks)
        self._out_masks = {
            name: _stack([masks[name] for masks in small_out], self.block)
            for name in first.outcomes
        }
        # per agent, per rank: states whose outcome sits exactly at / at or
        # below that rank of the model's true order for the agent
        k_size = len(first.outcomes)
        self._exact: list[list[int]] = []
        self._at_or_below: list[list[int]] = []
        for agent in range(1, first.n + 1):
            exact_smalls: list[list[int]] = [[] for _ in range(k_size)]
            for model, masks in zip(self.models, small_out):
                for r, name in enumerate(model.true_order(agent).ranking):
                    exact_smalls[r].append(masks[name])
            exact = [_stack(per_model, self.block) for per_model in exact_smalls]
            below = [0] * (k_size + 1)
            for r in range(k_size - 1, -1, -1):
                below[r] = below[r + 1] | exact[r]
            self._exact.append(exact)
            self._at_or_below.append(below)
        self._agents = frozenset(range(1, first.n + 1))
        self._memo: dict[Formula, int] = {}

    # --- vector primitives -------------------------------------------------

    def _collapse_axis(self, x: int, agent: int) -> int:
        stride, plane, _ = self._axis[agent - 1]
        acc = x
        for d in range(1, self._radix):
            acc |= x >> (d * stride)
        return acc & plane

    def _spread_axis(self, x: int, agent: int) -> int:
        _, _, comb = self._axis[agent - 1]
        return x * comb

    def _block_any(self, x: int) -> int:
        """One bit per block (at the block base) iff the block is non-empty."""
        for agent in range(1, self.space.n + 1):
            x = self._collapse_axis(x, agent)
        return x

    # --- evaluation ----------------------------------------------------------

    def truth_mask(self, formula: Formula) -> int:
        """Truth mask of `formula` across the batch.

        Walks the formula DAG in post-order on an explicit stack, so depth
        is limited by memory only.  The stack holds one path from the root,
        each entry a child of the one below it, so no node waits twice: a
        node whose child has no mask yet pushes that child, and a node
        whose children have masks computes its own, once, from theirs.
        The mask just computed is passed up without a memo lookup."""
        memo = self._memo
        get = memo.get
        mask = get(formula)
        if mask is not None:
            return mask
        full = self.full
        stack = [formula]
        push = stack.append
        last = None
        node = formula
        while True:
            kind = type(node)
            if kind is Or:
                child = node.left
                if child is last:
                    x = mask
                else:
                    x = get(child)
                    if x is None:
                        push(child)
                        node = child
                        continue
                child = node.right
                if child is last:
                    y = mask
                else:
                    y = get(child)
                    if y is None:
                        push(child)
                        node = child
                        continue
                mask = x | y
            elif kind is Not or kind is Diamond or kind is Pref:
                child = node.child
                if child is last:
                    x = mask
                else:
                    x = get(child)
                    if x is None:
                        push(child)
                        node = child
                        continue
                if kind is Not:
                    mask = full ^ x
                elif kind is Diamond:
                    mask = self._diamond(node.coalition, x)
                else:
                    mask = self._pref(node.agent, x)
            else:
                mask = self._atom(node)
            stack.pop()
            memo[node] = mask
            if not stack:
                return mask
            last = node
            node = stack[-1]

    def clear_memo(self) -> None:
        self._memo.clear()

    def _atom(self, formula: Formula) -> int:
        if type(formula) is Top:
            return self.full
        if type(formula) is Rep:
            small = self.space.rep_mask(formula.agent, formula.left, formula.right)
            return small * self.tile
        if type(formula) is Out:
            if formula.name not in self.space.outcomes:
                raise FormulaDomainMismatch(
                    f"outcome atom {formula.name!r} outside {self.space.outcomes}"
                )
            return self._out_masks[formula.name]
        raise TypeError(f"not a formula node: {formula!r}")

    def _diamond(self, coalition: frozenset[int], x: int) -> int:
        if not coalition <= self._agents:
            raise FormulaDomainMismatch(
                f"coalition {sorted(coalition)} not within agents 1..{self.space.n}"
            )
        for agent in sorted(coalition):
            x = self._spread_axis(self._collapse_axis(x, agent), agent)
        return x

    def _pref(self, agent: int, child: int) -> int:
        if not 1 <= agent <= self.space.n:
            raise FormulaDomainMismatch(f"agent {agent} out of range 1..{self.space.n}")
        result = 0
        assigned = 0
        for r in range(len(self.space.outcomes)):
            hits = self._block_any(child & self._exact[agent - 1][r])
            fresh = hits & ~assigned
            if fresh:
                assigned |= fresh
                result |= self._at_or_below[agent - 1][r] & (fresh * self.block_ones)
        return result

    def first_failure(self, formula: Formula) -> tuple[int, int] | None:
        """(model index, state index) of the lowest falsified bit, if any."""
        bad = self.full ^ self.truth_mask(formula)
        if not bad:
            return None
        pos = (bad & -bad).bit_length() - 1
        return divmod(pos, self.block)
