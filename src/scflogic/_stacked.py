"""Batched truth-mask evaluation across many models at once.

Lays the state blocks of M models over the same (n, K) side by side in a
single integer: bit m*S + v is state v of model m.  Boolean connectives
are then single bignum operations for the whole batch, and the two
modalities vectorize as well:

* <C> phi collapses the child mask along each coalition member's digit
  axis (a fold by doubling shifts, ceil(log2 r) of them for r = |K|!
  digits, masked to the digit-0 plane) and spreads back by multiplying
  with the axis comb.  Shifted bits that cross a block boundary or borrow
  across digits never land on the digit-0 plane, so the plane mask
  discards them.  <N> phi asks which blocks hold any set bit in one carry
  test (`_block_any`, Warren's *Hacker's Delight*, ch. 6), which leaves
  each such block's top bit t, and fills the block from it as t - (t >>
  S-1) | t: one shift, one subtraction that borrows within the block, one
  OR.  Multiplying a block's bit by the block's ones instead is about 10%
  faster at 6- and 8-bit blocks, but twice as slow at the 216-bit blocks
  of (3,{a,b,c}).
* pref(i) phi walks i's true ranking of the outcomes from the best down,
  keeping a running OR of the top bits of the blocks that have met a
  phi-state so far, each rank's blocks found by one carry test and filled
  as <N> fills them: a state holds once its block has met one at or above
  its outcome's rank.

This is the only evaluator: the axiom soundness sweep stacks thousands
of models, per-SCF property checks stack the (|K|!)^n models that differ
only in their true profile, satisfiability and validity stack chunks of
the enumerated model class, and `Evaluator` is a stack of one model, on
which `evaluate` and `valid_in_model` each read one `truth_mask`.
Every stack is a grid (`TableGrid`): outcome-function rows, each with
one sequence of L true profiles that all rows share.  Property checks
and the enumeration pass grids of the profiles a read-set keeps and build
a model only for the index of the failure they find; a model list is read
into the grid it spells (`_as_grid`).  A row's outcome masks are spread
over its L blocks by one multiplication, when an evaluation first reads
them.

Only pref(i) reads a model's true profile, and only agent i's ranking in
it; only outcome atoms and pref(i) read its outcome function.  Each
node's read-set (`Formula.reads`) says which it reaches.  One rule, on
the grid, maps a read-set to the models that decide it
(`TableGrid.narrowed`), the cone of influence of the read-set along the
true-profile axis: every row if the read-set is not empty (the first row
alone if it is), and in each row the first truth of each distinct
restriction of the truths to the agents whose pref(i) it reads (one
truth if it reads none, and the grid itself if it reads every agent).
Every truth of a row gives such a root the mask of the first truth of
its class, so the narrowed grid's first failing block is the first
failing model of the whole grid too, and counterexamples do not change:
the narrowed grid keeps the indices of its truths (`kept`), which map
its block (row, t) back to the grid's model row*L + kept[t] (`_locate`).
`first_failure` evaluates its formula on a view of the grid its read-set
narrows to, kept on the evaluator from the first call that asks for it;
the enumeration stacks narrowed grids directly, and the property check
chunks of the truths a narrowed grid keeps (`sieve`).

A formula is evaluated by running its program (`StackedEvaluator._run`),
which one emitter writes: `_Emit`, an emitting scope that separates
binding times, as an online partial evaluator does (Jones, Gomard and
Sestoft, *Partial Evaluation and Automatic Program Generation*, 1993;
Carette, Kiselyov and Shan, "Finally tagless, partially evaluated", JFP
2009).  A program is three parallel lists (op code; child slot, outcome
name or constant mask; child slot, coalition or agent), one entry per
distinct value in post-order, so a shared node is computed once.  What reads no outcome
atom and no pref modality is the same for every table, in every block:
the scope computes it at once, as one block's mask, and an entry that
reads it has it as a constant operand, spread over a grid by its tile
when a run reads it.  The scope folds what a constant decides (x | 0, x
& full, ...) and enters equal entries once.  A `Not` gets no entry: it is
an edge attribute, as in the complemented edges of Brace, Rudell and
Bryant's BDD package (1990).  A parent reads its child through any chain
of `Not`s, and the chain's parity goes into the parent's op code, so ~a |
~b is one entry, full ^ (a & b); the root's parity goes with the program,
and the run complements the last entry's mask by it.  Once the values
are emitted, one reverse pass from the root down marks the entries it
reaches and sets the free schedule in the op codes (Collins's erasure of
lists, 1960): an entry frees each child whose last reader it is, so a
run holds only the masks later entries still read.  One forward pass
then numbers the reached entries in the order they were entered
(`_Emit.program`).  A program names children by slot and atoms by their
fields, so it never references a formula node.

A formula is lifted into an emitting scope over (n, K) (`_Emit.lift`):
each distinct node's value is computed from its children's by the
scope's constructors.  A formula is usually asked again on other stacks,
such as the chunks of an enumeration, so its program is lifted on its
first call over (n, K) and kept in that state space's `programs`, which
holds formulas weakly: a program lives as long as its formula, and no
mask outlives the call.  To ask one formula at many states, read its
mask once instead of calling `evaluate` per state.

A property check builds no formula: the property's builder runs once per
(property, n, K) against the same constructors, which give the program
lifting the property's formula gives, as many entries with the same
read-set.  Folding and sharing make it smaller than the formula: at
(2,{a,b,c}) `strproof` has 2,088 entries where its formula has 2,115
distinct nodes that are not a `Not`, `mon` 2,942 against 56,012, and at
(3,{a,b,c}) `mon` 64,106 where the formula has 7,025,186 nodes.  The
program's read-set is that of the outcome atoms and pref modalities it
reaches, and the check runs it truth-major on the truths a grid narrowed
to that read-set keeps (`sieve`), over one table or many of one (n, K):
the first chunk is each table's first kept truth, and each later one the
next kept truths, as many as fit in `_CHUNK_BITS` bits over the tables
still alive, the tables split across grids of at most that width.  A
table leaves the sieve at its first failing chunk, whose lowest failing
bit is its counterexample, so a manipulable table, which almost always
fails at its first truth, runs the program on one model: a (2,{a,b,c})
table in chunks of 1 and 35 truths at most, a (2,{a,b,c,d}) table in
chunks of 1, 56, 56, ..., which bounds a run's masks by `_CHUNK_BITS`
bits where one grid of its 576 truths took 331,776.  The sieve does not
ramp its chunks up by doubling: at (2,{a,b,c}) a run's cost is mostly
per-entry dispatch, about 0.5 ms on one truth and 0.63 ms on 36 (Python
3.11.7, two shared cores), so six doubling chunks would cost a passing
table about five times one run, where these two cost about twice.

The axiom sweep builds neither instance formulas nor programs: a schema
builder runs against the constructors of `_Direct`, which compute each
value's mask at once on a view of the stack (`_view`) and carry its
read-set.  An outcome atom, a `Pref` or a lifted formula that reads more
than the read-set the view was asked for raises `_Narrow` with the
read-set it needs, and the sweep resumes on the view for it
(`axioms.soundness_check`).  Sharing there comes from the builders' memo
tables, keyed by value identity, not from hash-consing.  A ballot, the
conjunction of a profile's reported atoms, holds at the one state that
reports the profile, so a direct scope builds it as the tile shifted to
that state (`_Direct.Ballot`); each evaluator, a view or a tiled view,
keeps the reported-atom masks it spreads (`_rep`), as it keeps its
outcome masks.

The sweep stacks instances as well as models, the same SIMD-within-a-
register step (Fisher and Dietz, "Compiling for SIMD Within a Register",
LCPC 1998) taken once more.  A block of up to d instances of one schema
that differ only in their last binder's values (pool formulas, comp-At
fragment pairs, profiles' ballots) and read alike is checked on the view
tiled d times (`_Tiled`): the evaluator over the view's grid with its
rows repeated d times, so that copy e of a mask is instance e's mask on
the view, the builder runs once for the block, and the lowest bad bit's
copy is the block's first failing instance.  d = `_CHUNK_BITS` // W for
the view's width W, the bound an enumeration chunk keeps too.  The tiled
view's constant masks are the view's own, broadcast by doubling
shift-ors (`_tiled`): on views of 1,000 to 6,000 bits that is 10 to 20
times faster than multiplying by a comb, which wins only on views of a
few bytes, where both take microseconds.  A tiled view is never kept on
an evaluator.

The axiom sweep asks one model list again and again, a
`soundness_check` per schema, so its evaluator is kept between calls
(`stack`), a memo function in Michie's sense ("Memo functions and
machine learning", Nature 1968) keyed on the identity of what was
stacked.  The state space of (n, K) has one slot, the last evaluator
`stack` built over it; a `TableGrid` hits it only as the same object, as
a grid is not changed once made, and a list or tuple when it holds the
same model objects in the same order as the tuple the evaluator was
built on.  Until other models over that (n, K) replace it, the slot
keeps that tuple and its models alive, with the evaluator's outcome and
rank masks and its narrowed views and theirs; tiled views and direct
scopes live for one run.  The property check builds its own evaluator
per chunk grid (`sieve`).

Satisfiability and validity walk the same first chunks of the class on
every call, so the enumeration is a memo function too.  The state space
keeps, per read-set shape, the evaluators of the enumeration's ramp,
with the masks their runs build: the chunks of 1, 2, 4, ... outcome
functions up to the first that reaches `_CHUNK_BITS` bits
(`_StateSpace.chunks`).  A later walk over that shape runs them and
builds none; only the full-width chunks past the ramp are laid out,
built and dropped.  The ramp is bounded by its last chunk, to fewer than
2 * `_CHUNK_BITS` bits per shape where one row fits in `_CHUNK_BITS`,
and its grids hold their rows as `_ClassRows` slices, not laid out.  At
(2,{a,b}), (3,{a,b}) and (1,{a,b,c}) it is the whole class.  A root
that reads nothing is decided on the first chunk alone, narrowed to the
class's first model, and the walk stops there, so the ramp of the empty
read-set's shape is that one model's evaluator, at any scale.

The per-(n, K) state data every stack shares (profiles, grid axes,
reported-atom masks, the first truths of each agent set's rankings among
all S profiles, and the rank blocks of those and of all S) is built once
per domain (`_space`).  Agreement with the relational semantics
(`logic.eval_kripke`), which shares none of this state data, is enforced
by property tests.
"""

from __future__ import annotations

import collections.abc
import weakref
from functools import lru_cache
from itertools import chain, compress, count, cycle, islice, product, repeat
from operator import is_
from typing import Iterable, Iterator, Sequence

from .core import InvalidDomain, Profile, ScfModel, ScfTable, _model, _positions, _state_index
from .core import all_profiles
from .logic import Diamond, Formula, Not, Or, Out, Pref, Rep, Top, _pref_bit

__all__ = ["StackedEvaluator", "Evaluator", "evaluate", "valid_in_model", "stack"]


class _StateSpace:
    """Per-(n, K) state data shared by every evaluator: `core`'s canonical
    profiles, the axes of the state grid, reported-atom masks, the truths a
    narrowed grid keeps (`narrowings`, which `TableGrid.narrowed` fills)
    and the rank blocks of a grid's true profiles, the last two built once
    for all S in order and their narrowings; the
    evaluators kept over it, `stack`'s last one and the enumeration's ramps
    (`chunks`); and the program of each live formula evaluated over it
    (`programs`, `StackedEvaluator.truth_mask`)."""

    def __init__(self, n: int, outcomes: tuple[str, ...]):
        self.n = n
        self.outcomes = outcomes
        self.profiles = all_profiles(n, outcomes)
        self.size = len(self.profiles)
        self.radix = radix = _positions(outcomes).radix
        # per agent: the shifts folding its axis (`_collapse_axis`), the
        # states whose digit on it is 0, and the comb spreading one state
        # along it; state v's digit on it is v // stride % radix.  The fold's
        # spans double from 1, the last cut so that they add up to r - 1.
        spans = [min(1 << k, radix - (1 << k)) for k in range((radix - 1).bit_length())]
        self.axes: list[tuple[tuple[int, ...], int, int]] = []
        for agent in range(n):
            stride = radix ** (n - 1 - agent)
            plane = 0
            for v in range(self.size):
                if v // stride % radix == 0:
                    plane |= 1 << v
            comb = sum(1 << (d * stride) for d in range(radix))
            self.axes.append((tuple(span * stride for span in spans), plane, comb))
        self._rep_masks: dict[tuple[int, str, str], int] = {}
        # per agent set, the first truths of its rankings among `profiles`, by
        # index and as profiles (`TableGrid.narrowed`)
        self.narrowings: dict[int, tuple[tuple[int, ...], tuple[Profile, ...]]] = {}
        # rank blocks by the id of a truth tuple this space holds for its life
        self._blocks: dict[int, list[list[dict[str, int]]]] = {}
        self.stacked: StackedEvaluator | None = None  # the last evaluator `stack` built here
        # per read-set shape, the evaluators of the enumeration's ramp (`chunks`)
        self.ramps: dict[int, list[StackedEvaluator]] = {}
        # formula -> its program over this space (`truth_mask`); held weakly,
        # so a program dies with its formula
        self.programs: weakref.WeakKeyDictionary[Formula, _Program] = weakref.WeakKeyDictionary()

    def chunks(self, reads: int) -> Iterator[StackedEvaluator]:
        """The evaluators of the enumeration's chunks for a root of read-set
        `reads`, in class order (`decision._first_failure`): consecutive
        outcome functions, one in the first chunk and twice as many in each
        next, up to the most whose narrowed grid fits in `_CHUNK_BITS` bits
        (at least one), each chunk's grid narrowed to `reads`.  A root that
        reads nothing has its truth at a state the same in every model, so
        it is decided on the first chunk alone, the first outcome function's
        grid narrowed to the empty read-set, the class's first model: the
        walk stops there, and the class, which may be too large to count
        (4^13,824 outcome functions at (3,{a,b,c,d})), is not counted.  The
        ramp, the chunks up to and including the first of full width, is
        kept in `ramps` under the read-set's shape (`_shape`) as walks first
        reach it, its grids' rows `_ClassRows` slices, so a later walk over
        that shape builds none of it; it holds fewer than 2 * `_CHUNK_BITS`
        bits where one row fits in `_CHUNK_BITS`.  Past the ramp each chunk's
        rows are laid out by `product`, and its evaluator is built and
        dropped in turn."""
        ramp = self.ramps.setdefault(_shape(self.n, reads), [])
        start, tables = 0, 1
        for k in count():
            if k == len(ramp):
                rows = (_ClassRows(self.outcomes, self.size, range(start, start + tables)) if reads
                        else [self.outcomes[:1] * self.size])
                # the module's name, which a tracer may replace
                ramp.append(StackedEvaluator(TableGrid(self.n, self.outcomes, rows).narrowed(reads)))
            chunk = ramp[k]
            yield chunk
            start += tables
            if not reads or start >= (total := len(self.outcomes) ** self.size):
                return
            most = max(1, _CHUNK_BITS // (self.size * len(chunk.grid.truths)))
            if tables == most:
                break
            tables = min(2 * tables, most, total - start)
        values = islice(product(self.outcomes, repeat=self.size), start, None)
        while True:
            rows = list(islice(values, tables))
            if not rows:
                return
            yield StackedEvaluator(TableGrid(self.n, self.outcomes, rows).narrowed(reads))

    def rep_mask(self, agent: int, left: str, right: str) -> int:
        key = (agent, left, right)
        mask = self._rep_masks.get(key)
        if mask is None:
            if not 1 <= agent <= self.n:
                raise InvalidDomain(f"agent {agent} out of range 1..{self.n}")
            if left not in self.outcomes or right not in self.outcomes:
                raise InvalidDomain(
                    f"rep({agent},{left},{right}) mentions an outcome outside {self.outcomes}"
                )
            mask = 0
            for i, p in enumerate(self.profiles):
                if p.orders[agent - 1].at_least_as_good(left, right):
                    mask |= 1 << i
            self._rep_masks[key] = mask
        return mask

    def rank_blocks(self, truths: Sequence[Profile]) -> list[list[dict[str, int]]]:
        """Per agent and rank r, per outcome: one bit per true profile t of
        `truths`, at bit t*S, set where t ranks the outcome at r for the
        agent.  The blocks of this space's `profiles`, and of each agent
        set's first truths among them (`narrowings`), are built once."""
        blocks = self._blocks.get(id(truths))
        if blocks is None:
            blocks = [[dict.fromkeys(self.outcomes, 0) for _ in self.outcomes] for _ in range(self.n)]
            for t, truth in enumerate(truths):
                for ranks, order in zip(blocks, truth.orders):
                    for at_rank, name in zip(ranks, order.ranking):
                        at_rank[name] |= 1 << t * self.size
            if truths is self.profiles or any(truths is kept for _, kept in self.narrowings.values()):
                self._blocks[id(truths)] = blocks
        return blocks


@lru_cache(maxsize=None)
def _space(n: int, outcomes: tuple[str, ...]) -> _StateSpace:
    return _StateSpace(n, outcomes)


def _shape(n: int, reads: int) -> int:
    """The shape of a grid over n agents narrowed for `reads`, the read-set
    it decides as the grid does: -1, every bit, if `reads` reads every
    agent's true preference or that of an agent outside 1..n (whose bit
    `logic._pref_bit` puts past bit n); otherwise bit 0 if `reads` is not
    empty, and the pref bits it sets."""
    agents = (2 << min(n, 63)) - 2
    if reads & ~(agents | 1) or reads & agents == agents:
        return -1
    return reads & agents | (reads != 0)


class TableGrid(collections.abc.Sequence):
    """The models of outcome-function rows over (n, K), each with one
    sequence of true profiles (all S in order by default), table outer,
    truth inner: the one code that pairs a row with a truth.  A grid is
    not changed once made, so `stack` reuses the evaluator it kept for the
    same grid object.  A model is built only when its index is read, or
    when iteration reaches it, the models of a row then sharing one table,
    and without re-checking that its truth is a state (`core._model`): a
    grid's truths are states of its (n, K).  `StackedEvaluator` stacks a
    grid per row without reading any.  A grid `narrowed` from another holds
    in `kept` the indices of its truths among the other's and in `keeps`
    its shape, the read-set it decides as the other does; they are None
    and -1 on any other grid."""

    kept: tuple[int, ...] | None = None
    keeps = -1

    def __init__(
        self,
        n: int,
        outcomes: tuple[str, ...],
        rows: Sequence[tuple[str, ...]],
        truths: Sequence[Profile] | None = None,
    ):
        self.n, self.outcomes, self.rows = n, outcomes, rows
        self.truths = _space(n, outcomes).profiles if truths is None else truths

    def __len__(self) -> int:
        return len(self.rows) * len(self.truths)

    def __getitem__(self, index: int) -> ScfModel:
        row, truth = divmod(index, len(self.truths))
        return _model(ScfTable(self.n, self.outcomes, self.rows[row]), self.truths[truth])

    def __iter__(self) -> Iterator[ScfModel]:
        for values in self.rows:
            table = ScfTable(self.n, self.outcomes, values)
            for truth in self.truths:
                yield _model(table, truth)

    def narrowed(self, reads: int) -> TableGrid:
        """The grid that decides a root of read-set `reads` (`Formula.reads`)
        as this one does, by the one narrowing rule: every row if `reads` is
        not empty and the first row alone if it is, and in each row the first
        truth of each distinct restriction of the truths to the agents whose
        pref bits `reads` sets, in order, so one truth if it sets none.  This
        grid itself if that keeps every model, as it does on a grid narrowed
        to the same shape.  The models of a row that agree on those agents'
        rankings give such a root the same mask, and each kept truth is the
        first of its class, so the narrowed grid's first failing block is
        this grid's first failing model.  For all S profiles in order the
        kept truths are the states whose digits on the other agents are 0,
        found once per agent set and kept in the state space's `narrowings`,
        whose rank blocks it keeps too (`_StateSpace.rank_blocks`)."""
        shape = _shape(self.n, reads)
        if shape == -1 or shape == self.keeps:
            return self
        space = _space(self.n, self.outcomes)
        canonical = self.truths is space.profiles
        narrowing = space.narrowings.get(shape >> 1) if canonical else None
        if narrowing is None:
            agents = [i for i in range(self.n) if shape >> i + 1 & 1]
            first: dict[tuple, int] = {}
            for t, truth in enumerate(self.truths):
                first.setdefault(tuple([truth.orders[i].ranking for i in agents]), t)
            narrowing = tuple(first.values()), tuple([self.truths[t] for t in first.values()])
            if canonical:
                space.narrowings[shape >> 1] = narrowing
        kept, truths = narrowing
        rows = self.rows if shape else self.rows[:1]
        if len(rows) * len(kept) == len(self):
            return self
        grid = TableGrid(self.n, self.outcomes, rows, truths)
        grid.kept, grid.keeps = kept, shape
        return grid


class _ClassRows(collections.abc.Sequence):
    """Every outcome function over `states` states, as rows of outcome
    names in mixed-radix order over `outcomes`, the first state's outcome
    the most significant digit (`itertools.product`'s order): the rows of
    the class's grid (`decision.enumerate_models`).  A row is computed from
    its index when read, so no row is laid out up front; a slice is the
    rows of the slice of indices, and iterating a slice of consecutive
    indices reads its rows off `product`."""

    def __init__(self, outcomes: tuple[str, ...], states: int, span: range | None = None):
        self.outcomes, self.states = outcomes, states
        self.span = range(len(outcomes) ** states) if span is None else span

    def __len__(self) -> int:
        return len(self.span)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _ClassRows(self.outcomes, self.states, self.span[index])
        index, radix, digits = self.span[index], len(self.outcomes), []
        for _ in range(self.states):
            index, digit = divmod(index, radix)
            digits.append(self.outcomes[digit])
        return tuple(reversed(digits))

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        rows = product(self.outcomes, repeat=self.states)
        if self.span == range(len(self.outcomes) ** self.states):
            return rows
        if self.span.step == 1:
            # `product` skips a row before the slice in about 40 ns, where
            # `__getitem__` takes about 2 us per row of 16 states (Python
            # 3.11.7, two shared cores)
            return islice(rows, self.span.start, self.span.stop)
        return map(self.__getitem__, range(len(self)))


def _as_grid(models: Sequence[ScfModel]) -> TableGrid:
    """The grid a model list spells, or ValueError: runs of L models, each
    on one outcome function, with the first run's true profiles in order.
    L counts the leading models on the first model's table (by value) up
    to a table change or a repeat of the first model's truth.  Tables and
    truths are compared by identity first, as the models of one row
    usually share their table and the rows their truths, and by value
    only where identity fails.  Truths that are all S profiles in order
    are read as the space's own `profiles`, whose narrowings and rank
    blocks the space keeps."""
    first = models[0]
    table, n, outcomes = first.table, first.n, first.outcomes
    for model in models:
        if model.table is not table:
            table = model.table
            if table.agents != n or table.outcomes is not outcomes and table.outcomes != outcomes:
                raise ValueError("all stacked models must share (n, outcomes)")
    table, truth = first.table, first.truth
    width = 1
    for model in models[1:]:
        if model.table is not table and model.table.values != table.values:
            break
        if model.truth is truth or model.truth == truth:
            break
        width += 1
    truths = tuple(model.truth for model in models[:width])
    tables = [model.table for model in models[::width]]
    each_table = chain.from_iterable(repeat(table, width) for table in tables)
    if len(models) % width or any(
        model.table is not table
        and model.table.values != table.values
        or model.truth is not truth
        and model.truth != truth
        for model, table, truth in zip(models, each_table, cycle(truths))
    ):
        raise ValueError(
            "a stacked model list must be runs of equal length, each run one"
            " outcome function with the first run's true profiles in order"
        )
    rows = [table.values for table in tables]
    profiles = _space(n, outcomes).profiles
    return TableGrid(n, outcomes, rows, profiles if truths == profiles else truths)


def _stack(small_masks: Sequence[int], block_bits: int) -> int:
    """Concatenate masks at stride `block_bits`, the first lowest; binary
    fold so the copy volume stays O(M log M) words."""
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


def _tiled(mask: int, width: int, times: int) -> int:
    """`times` copies of the `width`-bit `mask` side by side, the first
    lowest, by doubling shift-ors: one per bit of `times`, and one more
    per bit set in it."""
    out = at = 0
    while True:
        if times & 1:
            out |= mask << at
            at += width
        times >>= 1
        if not times:
            return out
        mask |= mask << width
        width *= 2


# widest stacked mask, in bits, that one chunk of an enumeration or one
# block of axiom instances (`_Tiled`) may use
_CHUNK_BITS = 1 << 15


# a program: three parallel lists of plain data, one entry (op, a, b) per
# value of an emitting scope that the root reaches, in post-order (see
# `_Emit.program`), and the root's parity; op is a code, not a node's class,
# so a program references no node.  The high bits of op are the entry's kind
# plus the parity of the edges it reads: _NOT_A if it reads child a (a
# modality's only one) complemented, _NOT_B if child b.  The low two bits
# are the free schedule: free child a, or child b, once the entry is
# computed.  An atom is an outcome atom, _OUT with its name in a, or a
# constant, _MASK with one block's mask in a, spread over every block.
_OR, _DIAMOND, _PREF, _OUT, _MASK = 0, 64, 96, 128, 144
_NOT_A, _NOT_B = 16, 32
_FREE_A, _FREE_B = 1, 2
_Program = tuple[list[int], list, list, int]


class StackedEvaluator:
    """Truth masks for a batch of models sharing one (n, K): a `TableGrid`,
    or a model list read into one (`_as_grid`), whose `models` stay the
    caller's own objects (a tuple of them, when `stack` built it).  Each
    call runs one formula's program on a list of masks of its own, dropped
    on return; the program, which holds no mask or node, is kept in the
    state space's `programs`.  Its block layout is set by `_layout` from a
    tile of one bit per model, as every evaluator's is, and its outcome and
    rank masks are built when an evaluation first reads them;
    `first_failure` evaluates on a view of the narrowed grid, one per
    narrowing, built on the first call that asks for it and kept."""

    def __init__(self, models: Sequence[ScfModel]):
        if not models:
            raise ValueError("need at least one model")
        grid = models if isinstance(models, TableGrid) else _as_grid(models)
        self.models = models
        self.grid = grid
        space = _space(grid.n, grid.outcomes)
        self._layout(space, _tiled(1, space.size, len(grid)))
        self._by_row: dict[str, int] | None = None  # built when first read (`_row_masks`)
        self._views: dict[int, StackedEvaluator] = {}  # narrowed views, by what they keep

    def _layout(self, space: _StateSpace, tile: int) -> None:
        """Set the block layout of an evaluator over `space` whose blocks
        have their base bits at the bits of `tile`.  The outcome, rank and
        reported-atom masks are built when first read (`_outcome_masks`,
        `_rank_masks`, `_rep`); their caches are set here, empty, as every
        attribute is set before it is read, so that attribute reads stay
        fast."""
        self.space = space
        self.block = space.size
        self.block_ones = (1 << space.size) - 1
        self.tile = tile
        self.full = tile * self.block_ones
        self._low = (self.block_ones >> 1) * tile  # each block's low S-1 bits
        self._top = self.full ^ self._low  # each block's top bit
        # per agent axis: fold shifts, tiled digit-0 plane, spread comb
        self._axis = [(shifts, plane * tile, comb) for shifts, plane, comb in space.axes]
        self._agents = frozenset(range(1, space.n + 1))
        self._out_masks: dict[str, int] | None = None
        self._ranked: list[list[int]] | None = None
        self._reps: dict[tuple[int, str, str], int] = {}

    def _row_masks(self) -> dict[str, int]:
        """Per outcome, each row's states choosing it, rows at stride L*S."""
        if self._by_row is None:
            rows = []
            for values in self.grid.rows:
                masks = dict.fromkeys(self.grid.outcomes, 0)
                for v, value in enumerate(values):
                    masks[value] |= 1 << v
                rows.append(masks)
            row_bits = self.block * len(self.grid.truths)
            self._by_row = {
                name: _stack([m[name] for m in rows], row_bits) for name in self.grid.outcomes
            }
        return self._by_row

    def _outcome_masks(self) -> dict[str, int]:
        """Per outcome, its rows' masks spread over each row's L blocks by
        one multiplication with a comb."""
        comb = ((1 << self.block * len(self.grid.truths)) - 1) // self.block_ones
        self._out_masks = {name: stack * comb for name, stack in self._row_masks().items()}
        return self._out_masks

    def _rank_masks(self) -> list[list[int]]:
        """Per agent and rank r: per outcome, its rows' masks spread over
        the blocks whose truth ranks it at r (one outcome per truth:
        disjoint), summed over the outcomes."""
        by_row = self._row_masks()
        self._ranked = [
            [sum(by_row[name] * blocks for name, blocks in at_rank.items()) for at_rank in ranks]
            for ranks in self.space.rank_blocks(self.grid.truths)
        ]
        return self._ranked

    # --- vector primitives -------------------------------------------------

    def _collapse_axis(self, x: int, agent: int) -> int:
        """On the digit-0 plane of `agent`'s axis, the OR of the r = |K|!
        states along the axis.  Folds by doubling: once x |= x >> (s *
        stride) for s = 1, 2, 4, ... a bit holds the OR of 2s digits; the
        last span is cut so that the fold reads digits 0..r-1 exactly."""
        shifts, plane, _ = self._axis[agent - 1]
        for shift in shifts:
            x |= x >> shift
        return x & plane

    def _block_any(self, x: int) -> int:
        """One bit per block, at the block's top bit, iff the block is not
        empty.  Adding `low` to a block's low S-1 bits carries into its top
        bit iff one is set; the sum stays below 2^S, so no carry leaves the
        block (Warren, *Hacker's Delight*, ch. 6)."""
        return ((x & self._low) + self._low | x) & self._top

    # --- evaluation ----------------------------------------------------------

    def truth_mask(self, formula: Formula) -> int:
        """Truth mask of `formula` across the batch, from one run of its
        program over this (n, K): `formula` lifted into an emitting scope
        (`_Emit.lift`) on the first call for it over (n, K), and kept in the
        state space's `programs`, which holds `formula` weakly, for every
        evaluator over (n, K)."""
        programs = self.space.programs
        program = programs.get(formula)
        if program is None:
            emit = _Emit(self.space.n, self.space.outcomes)
            program = programs[formula] = emit.program(emit.lift(formula))[1]
        return self._run(program)

    def _run(self, program: _Program) -> int:
        """Run `program` on a list of masks of its own, entry k's mask at
        slot k, and return its root's mask: the last entry's, complemented
        if the root's `Not` chain is odd.  An entry reads its children's
        slots and frees those it is the last reader of.  A `<N>` entry is
        `_diamond` inlined, without its domain check, which the emitter made
        (`_Emit.Diamond`)."""
        full, low, top, base = self.full, self._low, self._top, self.block - 1
        grand = self.space.n
        masks: list = []
        push = masks.append
        ops, args, keys, odd = program
        for op, a, b in zip(ops, args, keys):
            if op < _DIAMOND:
                if op < _NOT_A:
                    push(masks[a] | masks[b])
                elif op < _NOT_B:
                    push(full ^ masks[a] | masks[b])
                elif op & _NOT_A:  # ~a | ~b is the complement of a & b
                    push(full ^ masks[a] & masks[b])
                else:
                    push(masks[a] | full ^ masks[b])
            elif op < _OUT:
                x = full ^ masks[a] if op & _NOT_A else masks[a]
                if op >= _PREF:
                    push(self._pref(b, x))
                elif len(b) == grand:
                    x = ((x & low) + low | x) & top  # as in `_diamond`
                    push(x - (x >> base) | x)
                else:
                    push(self._diamond(b, x))
            else:
                push(self._atom(op, a))
            if op & _FREE_A:
                masks[a] = None
            if op & _FREE_B:
                masks[b] = None
        return full ^ masks[-1] if odd else masks[-1]

    def _atom(self, op: int, a) -> int:
        """Mask of the atom whose program entry is (op, a, None): a
        constant's block mask spread over every block, or an outcome's."""
        if op == _MASK:
            return a * self.tile
        if a not in self.space.outcomes:
            raise InvalidDomain(f"outcome atom {a!r} outside {self.space.outcomes}")
        return (self._out_masks or self._outcome_masks())[a]

    def _rep(self, agent: int, left: str, right: str) -> int:
        """The mask of rep(agent, left, right): the state space's block mask
        spread over every block by the tile, on the first read, and kept."""
        key = (agent, left, right)
        mask = self._reps.get(key)
        if mask is None:
            mask = self._reps[key] = self.space.rep_mask(agent, left, right) * self.tile
        return mask

    def _diamond(self, coalition: frozenset[int], x: int) -> int:
        if not coalition <= self._agents:
            raise InvalidDomain(
                f"coalition {sorted(coalition)} not within agents 1..{self.space.n}"
            )
        if len(coalition) == self.space.n:
            # fill each block whose top bit is set: the top bit less the
            # block's base bit is the S-1 bits below it, a subtraction that
            # borrows within the block
            top = self._block_any(x)
            return top - (top >> self.block - 1) | top
        for agent in sorted(coalition):
            x = self._collapse_axis(x, agent) * self._axis[agent - 1][2]
        return x

    def _pref(self, agent: int, child: int) -> int:
        """States whose outcome `agent` truly ranks at or below the outcome
        of some `child`-state of the same model.  Walks the ranks from the
        best down: `reached` marks the blocks that have met a `child`-state
        so far, and each rank's states join in the blocks reached."""
        if not 1 <= agent <= self.space.n:
            raise InvalidDomain(f"agent {agent} out of range 1..{self.space.n}")
        low, top, base = self._low, self._top, self.block - 1
        reached = result = 0
        for rank in (self._ranked or self._rank_masks())[agent - 1]:
            x = child & rank
            reached |= ((x & low) + low | x) & top  # `_block_any`
            result |= rank & (reached - (reached >> base) | reached)  # as in `_diamond`
        return result

    def first_failure(self, formula: Formula) -> tuple[ScfModel, Profile] | None:
        """(model, state) of the first model of the batch that falsifies
        `formula`, at its lowest falsified state, or None.

        The formula is evaluated on the view of the grid its read-set asks
        for (`_view`), and the view's lowest falsified bit is mapped back to
        the batch (`_locate`): the answer is the model the full grid would
        report, and for a model list the caller's own object."""
        view = self._view(formula.reads)
        bad = view.full ^ view.truth_mask(formula)
        return self._locate(view, bad) if bad else None

    def _view(self, reads: int) -> StackedEvaluator:
        """The evaluator over `TableGrid.narrowed(reads)`: the first model
        alone for an empty read-set, and otherwise every row with the first
        truth of each ranking of the agents whose true preference `reads`
        reads; this one if that is the whole grid.  A narrowed view is built
        on the first call that asks for its shape (`_shape`: rows kept or
        not, and the agents kept), and kept, with the masks it builds, for
        later calls."""
        shape = _shape(self.space.n, reads)
        if shape == -1:
            return self
        view = self._views.get(shape)
        if view is None:
            grid = self.grid.narrowed(reads)
            if grid is self.grid:
                return self
            # type(self), not the module's name, which a tracer may replace
            view = self._views[shape] = type(self)(grid)
        return view

    def _locate(self, view: StackedEvaluator, bad: int) -> tuple[ScfModel, Profile]:
        """The (model, state) of the lowest of the bits `bad` of `view`:
        block (row, t) of a narrowed view stands for model row*L + kept[t]
        of the batch, the first failing model of that row where it fails."""
        block_idx, state_idx = divmod((bad & -bad).bit_length() - 1, self.block)
        if view is not self:
            row, t = divmod(block_idx, len(view.grid.truths))
            block_idx = row * len(self.grid.truths) + view.grid.kept[t]
        return self.models[block_idx], self.space.profiles[state_idx]


def stack(models: Iterable[ScfModel]) -> StackedEvaluator:
    """The evaluator over `models`, kept in the one slot of their (n, K)'s
    state space (`_StateSpace.stacked`) until other models over that (n, K)
    are stacked: a `TableGrid` hits the slot only as the same object, and a
    list or tuple when it holds the same model objects in the same order as
    the tuple the kept evaluator was built on (`models`); any other
    iterable is listed first.  A miss drops the kept evaluator, then builds
    one on the grid, or on a tuple of the listed models, so that the
    counterexamples it reports are the caller's own objects and a list
    changed in place later misses."""
    if not isinstance(models, (TableGrid, list, tuple)):
        models = list(models)
    if not models:
        raise ValueError("need at least one model")
    if isinstance(models, TableGrid):
        space = _space(models.n, models.outcomes)
        kept = space.stacked
        if kept is not None and kept.models is models:
            return kept
    else:
        space = _space(models[0].n, models[0].outcomes)
        kept = space.stacked
        if (
            kept is not None
            and type(kept.models) is tuple
            and len(kept.models) == len(models)
            and all(map(is_, kept.models, models))
        ):
            return kept
        models = tuple(models)
    space.stacked = None  # freed before the new one is built
    # the module's name, which a tracer may replace
    space.stacked = kept = StackedEvaluator(models)
    return kept


def sieve(tables: Sequence[ScfTable], reads: int, program: _Program) -> list[tuple[ScfModel, Profile] | None]:
    """Per table, (model, state) of the first true profile at which the
    root of `program`, a residual program (`_Emit`) of read-set `reads`,
    fails for the table, at its lowest failing state, or None: the tables,
    of one (n, K), sieved truth-major.  The truths are those the first
    table's one-row grid narrowed to `reads` keeps (`TableGrid.narrowed`),
    in order, the same for every table of (n, K).  The first
    chunk is each table's first kept truth; each later chunk the next kept
    truths, as many as fit in `_CHUNK_BITS` bits over the tables still
    alive, and at least one.  A chunk's tables are split across grids of at
    most `_CHUNK_BITS` bits, and a table leaves the sieve at the first chunk
    where it fails: the lowest failing bit of its part of that chunk's grid
    is its first failing block, kept truth k of the chunk, and the state
    within it."""
    n, outcomes = tables[0].agents, tables[0].outcomes
    space = _space(n, outcomes)
    truths = TableGrid(n, outcomes, [tables[0].values]).narrowed(reads).truths
    found: list[tuple[ScfModel, Profile] | None] = [None] * len(tables)
    alive = list(range(len(tables)))
    start = 0
    while alive and start < len(truths):
        width = max(1, _CHUNK_BITS // (space.size * len(alive))) if start else 1
        chunk = truths[start : start + width]
        bits = space.size * len(chunk)  # one table's part of a grid
        most = max(1, _CHUNK_BITS // bits)
        survivors = []
        for at in range(0, len(alive), most):
            part = alive[at : at + most]
            # the module's name, which a tracer may replace
            ev = StackedEvaluator(TableGrid(n, outcomes, [tables[i].values for i in part], chunk))
            bad = ev.full ^ ev._run(program)
            # bit k of `bad` at index k; each failing table's part is skipped
            # past once its lowest failing bit is read
            text = f"{bad:0{len(part) * bits}b}"[::-1] if bad else ""
            done, pos = 0, text.find("1")
            while pos >= 0:
                row = pos // bits
                survivors += part[done:row]
                block, state = divmod(pos - row * bits, space.size)
                found[part[row]] = _model(tables[part[row]], chunk[block]), space.profiles[state]
                done = row + 1
                pos = text.find("1", done * bits)
            survivors += part[done:]
        alive = survivors
        start += len(chunk)
    return found


class _Tiled(StackedEvaluator):
    """`view` tiled `times` times: the evaluator over `view`'s grid with its
    rows repeated `times` times, so that copy e of a mask, its bits e*W to
    (e+1)*W - 1 for the view's width W, is a mask on `view`.  A block of
    axiom instances is checked on it at once, copy e holding instance e's
    mask (`axioms._check_run`).  Its layout is set by `_layout` from the
    view's tile broadcast by `_tiled`, and its outcome and rank masks are
    the view's when first read, broadcast the same way.  It narrows to no
    view and builds no model: it only evaluates, through the constructors
    of a `_Direct` or a program."""

    def __init__(self, view: StackedEvaluator, times: int):
        width = view.full.bit_length()
        self.view, self.width, self.times = view, width, times
        self._layout(view.space, _tiled(view.tile, width, times))

    def _outcome_masks(self) -> dict[str, int]:
        masks = self.view._out_masks or self.view._outcome_masks()
        self._out_masks = {name: _tiled(mask, self.width, self.times) for name, mask in masks.items()}
        return self._out_masks

    def _rank_masks(self) -> list[list[int]]:
        ranked = self.view._ranked or self.view._rank_masks()
        self._ranked = [[_tiled(mask, self.width, self.times) for mask in ranks] for ranks in ranked]
        return self._ranked


class _Value:
    """A direct value: a formula's mask on its scope's view and the
    formula's read-set (`Formula.reads`).  Hashed by identity, so a memo
    table keyed by values never hashes a mask."""

    __slots__ = ("mask", "reads")

    def __init__(self, mask: int, reads: int):
        self.mask, self.reads = mask, reads


class _Narrow(Exception):
    """A direct value reads more of the models than its view keeps; the
    one argument is the read-set it needs."""


class _Direct:
    """The constructors of a direct scope (`Or`, `Diamond`, `Pref`, the
    atoms and the derived forms), each computing its value's mask at once
    on `view`, with the same domain checks as a program run, and `TRUE`,
    the full mask; `lift` evaluates a formula on it.  `keeps` is the
    read-set shape the caller asked for (`_shape`), which `view`
    decides, -1 for every bit: an outcome atom where it has no bit 0, a
    `Pref` whose agent bit it lacks and a lifted formula reading more than
    it each raise `_Narrow` with the read-set they need, even where `view`
    is wider and could decide them.  `Not` takes one complement
    per value from `complements`, so a memo table keyed by values hits
    through it; the table goes with this object, which no value refers to.
    The derived forms complement masks, not values, so the table keeps no
    instance's intermediate values."""

    def __init__(self, view: StackedEvaluator, keeps: int):
        self.view, self.keeps, self.full = view, keeps, view.full
        self.TRUE = _Value(view.full, 0)
        self.complements: dict[_Value, _Value] = {}

    def Not(self, x: _Value) -> _Value:
        y = self.complements.get(x)
        if y is None:
            y = self.complements[x] = _Value(self.full ^ x.mask, x.reads)
            self.complements[y] = x
        return y

    def Or(self, x: _Value, y: _Value) -> _Value:
        return _Value(x.mask | y.mask, x.reads | y.reads)

    def And(self, x: _Value, y: _Value) -> _Value:
        return _Value(x.mask & y.mask, x.reads | y.reads)

    def Implies(self, x: _Value, y: _Value) -> _Value:
        return _Value(self.full ^ x.mask | y.mask, x.reads | y.reads)

    def Iff(self, x: _Value, y: _Value) -> _Value:
        return _Value(self.full ^ x.mask ^ y.mask, x.reads | y.reads)

    def Diamond(self, coalition, x: _Value) -> _Value:
        return _Value(self.view._diamond(frozenset(coalition), x.mask), x.reads)

    def Box(self, coalition, x: _Value) -> _Value:
        full = self.full
        return _Value(full ^ self.view._diamond(frozenset(coalition), full ^ x.mask), x.reads)

    def Pref(self, agent: int, x: _Value) -> _Value:
        bit = _pref_bit(agent)
        if bit & ~self.keeps:
            raise _Narrow(bit)
        return _Value(self.view._pref(agent, x.mask), x.reads | bit)

    def PrefBox(self, agent: int, x: _Value) -> _Value:
        y = self.Pref(agent, _Value(self.full ^ x.mask, x.reads))
        return _Value(self.full ^ y.mask, y.reads)

    def Rep(self, agent: int, left: str, right: str) -> _Value:
        return _Value(self.view._rep(agent, left, right), 0)

    def Ballot(self, profile: Profile) -> _Value:
        """The ballot of `profile` (`encodings.ballot_profile`), the
        conjunction of its reported atoms, which holds at the one state
        that reports it: the tile shifted to that state; InvalidDomain if
        it is no state here (`axioms.soundness_check` refuses instances
        over another (n, K) before any is built)."""
        space = self.view.space
        return _Value(self.view.tile << _state_index(space.n, space.outcomes, profile), 0)

    def Out(self, name: str) -> _Value:
        if not self.keeps:
            raise _Narrow(1)
        return _Value(self.view._atom(_OUT, name), 1)

    def lift(self, formula: Formula) -> _Value:
        if formula.reads & ~self.keeps:
            raise _Narrow(formula.reads)
        return _Value(self.view.truth_mask(formula), formula.reads)


class _Emit(StackedEvaluator):
    """The constructors of an emitting scope over (n, K) (`Or`, `Diamond`,
    `Pref`, the atoms and the derived forms, and `TRUE`), which split the
    values of a builder, or of a formula's nodes (`lift`), by binding time:
    what no outcome function changes is computed now, and the rest is
    emitted as a residual program (`program`), the one program format
    every run reads: `truth_mask` runs a formula's on any grid over (n,
    K), and `sieve` a property's on chunks of tables' kept truths.

    A static value reads neither an outcome atom nor a pref modality:
    `TRUE`, the reported-preference atoms and what only they feed.  It is
    the same in every block of every grid over (n, K), so it is a `_Value`
    holding one block's mask, computed at once by the evaluator of one
    block that this scope is (laid out by `_layout` with a tile of one
    bit, without a grid), and `TRUE` and `FALSE` are its two shared
    values.  Every other value is an entry of the program, named by an
    int, 2 * slot + parity, as a complemented edge names a node: `Not`
    flips the low bit, and a parent reads its child through the parity.
    A static value that such a value reads is a constant entry, `_MASK`
    with the block's mask, which a run spreads over its grid by
    multiplying with the tile.  A mask and its complement share one
    constant, read through a parity.

    The constructors fold what a constant decides: x | 0 and x & full are
    x, x | full and x & 0 are the shared static value, x | x is x and x |
    ~x full, and pref(i) of no state or of every state is that static
    value.  Equal entries are entered once (`slots`, keyed by op code and
    operands, a commutative pair in slot order), so two memo tables, or
    two builders, that reach one value share its entry.  The domain checks
    are made as values are emitted, worded as the relational semantics
    words them (`logic.eval_kripke`), so a program's run over (n, K)
    refuses nothing."""

    def __init__(self, n: int, outcomes: tuple[str, ...]):
        self._layout(_space(n, outcomes), 1)
        self.TRUE, self.FALSE = _Value(self.full, 0), _Value(0, 0)
        self.ops: list[int] = []
        self.args: list = []
        self.keys: list = []
        self.slots: dict[object, int] = {}  # an entry's key -> its value, 2 * slot

    def _static(self, mask: int) -> _Value:
        return self.TRUE if mask == self.full else _Value(mask, 0) if mask else self.FALSE

    def _enter(self, key, op: int, a, b) -> int:
        """The entry (op, a, b), entered under `key` unless it is there; a
        child is held as its edge until `program` numbers the entries."""
        entry = self.slots.get(key)
        if entry is None:
            entry = self.slots[key] = len(self.ops) << 1
            self.ops.append(op)
            self.args.append(a)
            self.keys.append(b)
        return entry

    def _emitted(self, x) -> int:
        """`x` as an entry: itself, or a static value's constant, whose
        state 0 is clear, read through the parity of `x`'s state 0."""
        if type(x) is int:
            return x
        odd = x.mask & 1
        mask = self.full ^ x.mask if odd else x.mask
        return self._enter((_MASK, mask), _MASK, mask, None) | odd

    def Not(self, x):
        return x ^ 1 if type(x) is int else self._static(self.full ^ x.mask)

    def Or(self, x, y):
        if type(x) is not int:
            if type(y) is not int:
                return self._static(x.mask | y.mask)
            x, y = y, x
        if type(y) is not int:
            if y is self.FALSE:
                return x
            if y is self.TRUE:
                return y
        elif x >> 1 == y >> 1:
            return x if x == y else self.TRUE
        y = self._emitted(y)
        if x > y:
            x, y = y, x
        # an int key, the bulk of the table: the pair of edges, each below 2^40
        return self._enter(x << 40 | y, _OR + (x & 1) * _NOT_A + (y & 1) * _NOT_B, x, y)

    def And(self, x, y):
        if type(x) is not int:
            if type(y) is not int:
                return self._static(x.mask & y.mask)
            x, y = y, x
        if y is self.TRUE or y is self.FALSE:
            return x if y is self.TRUE else y
        return self.Or(x ^ 1, self.Not(y)) ^ 1

    def Implies(self, x, y):
        if type(x) is not int:
            if type(y) is not int:
                return self._static(self.full ^ x.mask | y.mask)
            if x is self.TRUE or x is self.FALSE:
                return y if x is self.TRUE else self.TRUE
        return self.Or(self.Not(x), y)

    def Iff(self, x, y):
        return self.And(self.Implies(x, y), self.Implies(y, x))

    def Diamond(self, coalition, x):
        coalition = frozenset(coalition)
        if type(x) is not int:
            return self._static(self._diamond(coalition, x.mask))
        if not coalition <= self._agents:
            raise InvalidDomain(f"coalition {sorted(coalition)} not within agents 1..{self.space.n}")
        return self._enter((_DIAMOND, x, coalition), _DIAMOND + (x & 1) * _NOT_A, x, coalition)

    def Box(self, coalition, x):
        return self.Not(self.Diamond(coalition, self.Not(x)))

    def Pref(self, agent: int, x):
        if not 1 <= agent <= self.space.n:
            raise InvalidDomain(f"agent {agent} out of range 1..{self.space.n}")
        if x is self.TRUE or x is self.FALSE:
            return x
        x = self._emitted(x)
        return self._enter((_PREF, x, agent), _PREF + (x & 1) * _NOT_A, x, agent)

    def PrefBox(self, agent: int, x):
        return self.Not(self.Pref(agent, self.Not(x)))

    def Rep(self, agent: int, left: str, right: str) -> _Value:
        return self._static(self.space.rep_mask(agent, left, right))

    def Out(self, name: str) -> int:
        if name not in self.space.outcomes:
            raise InvalidDomain(f"outcome atom {name!r} outside {self.space.outcomes}")
        return self._enter((_OUT, name), _OUT, name, None)

    def lift(self, root: Formula):
        """The value of the formula `root` in this scope: each distinct
        node's value from its children's values by the constructors above,
        in the post-order of a walk that takes an `Or`'s left child first.
        A `Not` is valued by its parent, which reads its child through any
        chain of `Not`s, complemented if the chain is odd; the chain above
        the root complements the root's value.  The walk runs on an
        explicit stack, so depth is limited by memory only: the stack holds
        one path from the root, a node with a child not yet valued pushes
        that child, and a node whose children are valued is valued, once,
        in the identity table `values`, so a node reached twice is one
        value.  The domain checks are the constructors', so the fault
        reported is the first in that post-order, as `logic.eval_kripke`
        reports it."""
        values: dict[Formula, object] = {}
        get = values.get
        negate = self.Not
        base, odd = root, 0
        while type(base) is Not:
            base, odd = base.child, odd ^ 1
        stack = [base]
        push = stack.append
        while stack:
            node = stack[-1]
            kind = type(node)
            if kind is Or:
                left, right, a, b = node.left, node.right, 0, 0
                while type(left) is Not:
                    left, a = left.child, a ^ 1
                while type(right) is Not:
                    right, b = right.child, b ^ 1
                x = get(left)
                if x is None:
                    push(left)
                    continue
                y = get(right)
                if y is None:
                    push(right)
                    continue
                value = self.Or(negate(x) if a else x, negate(y) if b else y)
            elif kind is Diamond or kind is Pref:
                child, a = node.child, 0
                while type(child) is Not:
                    child, a = child.child, a ^ 1
                x = get(child)
                if x is None:
                    push(child)
                    continue
                if a:
                    x = negate(x)
                if kind is Diamond:
                    value = self.Diamond(node.coalition, x)
                else:
                    value = self.Pref(node.agent, x)
            elif kind is Out:
                value = self.Out(node.name)
            elif kind is Rep:
                value = self.Rep(node.agent, node.left, node.right)
            elif kind is Top:
                value = self.TRUE
            else:
                raise TypeError(f"not a formula node: {node!r}")
            values[stack.pop()] = value
        return negate(values[base]) if odd else values[base]

    def program(self, root) -> tuple[int, _Program]:
        """The read-set of `root` and its residual program, which takes the
        emitted entries from this scope: the entries `root` reaches, in the
        order they were entered, a post-order, with the free schedule (see
        `_OR`) and the root's parity.  One reverse pass from the root marks
        the reached entries, each child at its last reader, which frees it;
        one forward pass numbers them and collects the read-set, bit 0 if
        an outcome atom is reached and the bit of each agent whose pref
        modality is.  A static root is one constant.  Between two entries
        a run then holds at most 110 masks for `mon` at (2,{a,b,c}), 650 at
        (3,{a,b,c}), 225 for `strproof` at (2,{a,b,c}) and 4,624 at
        (2,{a,b,c,d}), where a walk from the root that took an `Or`'s later
        entry first held 1,347, 31,299, 195 and 4,055.  A property check's
        masks are at most `_CHUNK_BITS` bits wide (`sieve`)."""
        root = self._emitted(root)
        ops, args, keys = self.ops, self.args, self.keys
        self.ops = self.args = self.keys = self.slots = None
        top = root >> 1
        # from the root down: a child is reached at its last reader, which
        # frees it (Collins's erasure of lists, 1960)
        reached = bytearray(top + 1)
        reached[top] = 1
        for slot in range(top, -1, -1):
            op = ops[slot]
            if op < _OUT and reached[slot]:
                a = args[slot] >> 1
                if not reached[a]:
                    reached[a] = 1
                    op |= _FREE_A
                if op < _DIAMOND and not reached[keys[slot] >> 1]:
                    reached[keys[slot] >> 1] = 1
                    op |= _FREE_B
                ops[slot] = op
        renumbered = [0] * (top + 1)
        new_ops, new_args, new_keys = [], [], []
        reads = 0
        for slot in compress(range(top + 1), reached):
            op, a, b = ops[slot], args[slot], keys[slot]
            if op < _OUT:
                a = renumbered[a >> 1]
                if op < _DIAMOND:
                    b = renumbered[b >> 1]
                elif op >= _PREF:
                    reads |= _pref_bit(b)
            elif op == _OUT:
                reads |= 1
            renumbered[slot] = len(new_ops)
            new_ops.append(op)
            new_args.append(a)
            new_keys.append(b)
        return reads, (new_ops, new_args, new_keys, root & 1)


class Evaluator(StackedEvaluator):
    """A stack of one model, whose single block is the model's truth mask.
    To evaluate many models over one (n, K), stack them instead of building
    one evaluator per model."""

    def __init__(self, model: ScfModel):
        super().__init__([model])


def evaluate(model: ScfModel, state: Profile, formula: Formula) -> bool:
    """Truth of `formula` at `state` in `model`; InvalidDomain if `state`
    is not one of the model's states."""
    idx = _state_index(model.n, model.outcomes, state)
    return bool(Evaluator(model).truth_mask(formula) >> idx & 1)


def valid_in_model(model: ScfModel, formula: Formula) -> tuple[bool, list[Profile]]:
    """Whether `formula` holds at every state; falsifying states in
    canonical order otherwise."""
    ev = Evaluator(model)
    missing = ev.full ^ ev.truth_mask(formula)
    bad = [state for i, state in enumerate(model.states) if missing >> i & 1]
    return (not bad, bad)
