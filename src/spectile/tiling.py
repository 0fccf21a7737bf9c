"""Tiling-pair verification and tiling-complement search.

A k-set S is a transversal of a subgroup H of order |G| / k exactly when its
character sum vanishes on H^perp minus 0 (the Fourier tiling criterion), so
subgroup_transversal reads it from the zero mask of S: one AND per subgroup.
Each H^perp is read from the same kernel, as the nonzero complement of the
zero mask of H, once per group and order (subgroup_annihilators).
A k-set whose mask misses a class that every tile of size k must hold
(IndexTables.forced_mask, the prime-power certificate of Lam and Leung) has
no complement at all, which is read from the mask the same way. Otherwise
complement search is an exact cover, which does not read the mask: choose
translates S + g that partition the group. The search fixes the translate
at 0 first (complements are translation-invariant, so some complement
contains 0 iff any exists) and branches on the uncovered cell with the
fewest remaining options.

tiling_complement, the certificate first, a subgroup second and exact cover
last, is the one tiling policy of the sweeps, enumerate_tiles and
find_tiling_complement; find_complement skips the subgroup step.
is_tiling_pair checks every witness: it reads the sums s + t as element
indices from the IndexTables addition rows, at both sets' element indices
(Multiset.indices, the one index form of a set), never from a zero mask or
a CharTable. The searches read a set's indices from Multiset.indices and its
zero mask from set_zero_mask, which returns only the mask.

The sweeps and enumerate_tiles read the same candidates in one form,
(keys, part) blocks: keys[i] is candidate i's memo key (its class word as
CharTable.key gives it), and part(i) its nonzero part as
element indices, built only when asked. There is one producer per source:
_stem_blocks walks every 0-containing k-set in lexicographic order, one
CharTable.stem_batches batch per stem (--canonicalize filters its blocks),
and _draw_blocks draws a size's seeded candidates as kernel sums.

Seeded draws (sampled sweeps, enumerate_tiles, the case-5 probe) go through
SeededDraws, on the stream candidate_draws names: the draws of
random.Random(seed).sample, made from generator outputs fetched a block at
a time, as their sums or as sets of fibers.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import random
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .cyclotomic import char_table, set_zero_mask
from .errors import (
    DEFAULT_BUDGET,
    UNDECIDED,
    EmptyInput,
    GroupMismatch,
    InvalidArgument,
    NotADivisor,
    Undecided,
    check_candidates,
    integers,
)
from .groups import Group, IndexTables, Multiset, Subgroup, index_tables, subgroups_of_order


class ComplementMethod(str, enum.Enum):
    EXACT_COVER = "exact-cover"
    SUBGROUP = "subgroup"


@dataclass(frozen=True)
class ComplementWitness:
    """A verified tiling complement containing 0."""

    t: Multiset
    method: ComplementMethod


def is_tiling_pair(S: Multiset, T: Multiset) -> bool:
    """True iff |S| |T| = |G| and S + T covers every element exactly once.

    For sets with |S| |T| = |G| that holds exactly when the |G| sums s + t
    are distinct. They are read as element indices from the addition rows of
    the group's IndexTables, one row per element of S, and never from a zero
    mask or a CharTable.
    """
    if S.group != T.group:
        raise GroupMismatch("S and T live on different groups")
    G = S.group
    if S.mass * T.mass != G.order:
        return False
    if not (S.is_set and T.is_set):
        return False
    add_rows = index_tables(G).add_rows
    sums: set[int] = set()
    for s in S.indices:
        sums.update(map(add_rows[s].__getitem__, T.indices))
    return len(sums) == G.order


class _OutOfBudget(Exception):
    pass


def _cover_search(
    n: int,
    option_masks: list[int],
    cell_options: Sequence[Sequence[int]],
    start_mask: int,
    budget: int,
) -> tuple[Union[list[int], None, Undecided], int]:
    """Exact cover of cells 0..n-1 by options, with option 0 pre-chosen."""
    full = (1 << n) - 1
    nodes = 0

    def search(covered: int, chosen: list[int]) -> Optional[list[int]]:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _OutOfBudget
        if covered == full:
            return chosen
        # branch on the uncovered cell with the fewest viable options
        best_cell = -1
        best_count = n + 1
        rest = ~covered & full
        while rest:
            lb = rest & -rest
            c = lb.bit_length() - 1
            rest ^= lb
            count = 0
            for g in cell_options[c]:
                if not option_masks[g] & covered:
                    count += 1
                    if count >= best_count:
                        break
            if count == 0:
                return None
            if count < best_count:
                best_cell, best_count = c, count
                if count == 1:
                    break
        for g in cell_options[best_cell]:
            if not option_masks[g] & covered:
                out = search(covered | option_masks[g], chosen + [g])
                if out is not None:
                    return out
        return None

    try:
        return search(start_mask, [0]), nodes
    except _OutOfBudget:
        return UNDECIDED, nodes
    finally:
        # search reaches itself through its closure; breaking that cycle
        # frees the options now, not at the next garbage collection
        del search


def cover_complement(
    tables: IndexTables, cand: Sequence[int], budget: int
) -> tuple[Union[list[int], None, Undecided], int]:
    """Exact cover: a tiling complement (element indices, 0 first) of the set
    of element indices cand, with the search nodes spent.

    Option g (the translate cand + g) covers the bits add_bit_cols[s][g];
    they are distinct, so their sum is their union. Cell c is covered by
    the translates c - s = c + (-s), read from the addition row of -s and
    listed in the order of cand: the order only steers the branching of the
    exhaustive search, not its verdict.
    """
    # unpack a list, not a map: CPython builds the argument tuple of
    # zip(*map(...)) by resizing, which bypasses the tuple free list on
    # allocation but not on release, so the free list would fill up to
    # 2 000 retained tuples of every candidate size
    add_bit_cols, add, neg = tables.add_bit_cols, tables.add_rows, tables.neg
    option_masks = list(map(sum, zip(*[add_bit_cols[s] for s in cand])))
    cell_options = list(zip(*[add[neg[s]] for s in cand]))
    return _cover_search(tables.n, option_masks, cell_options, option_masks[0], budget)


@functools.lru_cache(maxsize=None)
def subgroup_annihilators(G: Group, m: int) -> tuple[tuple[Subgroup, int, Multiset], ...]:
    """(H, bitmask over element indices of H^perp minus 0, H^perp) for every
    subgroup H of order m, in subgroups_of_order order. The character sum of
    H is |H| on H^perp and 0 off it, so Z(H) is G minus H^perp: the mask is
    the nonzero complement of the zero mask of H, from the kernel, and
    H^perp, the indices outside Z(H), is built once as a set."""
    out = []
    for H in subgroups_of_order(G, m):
        zmask = set_zero_mask(H.as_set())
        perp = Multiset.of_indices(G, [i for i in range(G.order) if not zmask >> i & 1])
        out.append((H, ((1 << G.order) - 2) & ~zmask, perp))
    return tuple(out)


def subgroup_transversal(
    tables: IndexTables, zmask: int, k: int
) -> Optional[tuple[Subgroup, int, Multiset]]:
    """The (H, H^perp mask, H^perp) entry of subgroup_annihilators for the
    first subgroup H of order |G| / k (in canonical order) that a k-set with
    zero mask zmask is a transversal of, or None.

    Requires k to divide |G|.
    """
    for entry in subgroup_annihilators(tables.group, tables.n // k):
        if not entry[1] & ~zmask:
            return entry
    return None


def certified_non_tile(tables: IndexTables, k: int, zmask: int) -> bool:
    """Whether a certificate that spends no search nodes proves that no k-set
    with zero mask zmask tiles: k does not divide |G|, or zmask misses a bit
    of IndexTables.forced_mask(|G| / k) (the prime-power certificate). It
    reads the mask alone, so it needs no set."""
    n = tables.n
    return bool(n % k or tables.forced_mask(n // k) & ~zmask)


def tiling_complement(
    tables: IndexTables, cand: Sequence[int], zmask: int, budget: int
) -> Union[Subgroup, list[int], None, Undecided]:
    """The tiling policy on the set of element indices cand, whose zero mask
    is zmask: None when certified_non_tile says so, else a subgroup cand is
    a transversal of when there is one, else an exact cover's complement
    (element indices, 0 first).

    None means no complement exists, proved by the certificate or by an
    exhausted exact cover; the certificate spends no nodes, so it decides at
    every budget. UNDECIDED is returned only when the exact cover runs out
    of budget.
    """
    if certified_non_tile(tables, len(cand), zmask):
        return None
    found = subgroup_transversal(tables, zmask, len(cand))
    return found[0] if found is not None else cover_complement(tables, cand, budget)[0]


def _require_set(S: Multiset) -> None:
    """Refuse a complement search on anything but a nonempty set."""
    if S.mass == 0:
        raise EmptyInput("cannot search a complement for the empty set")
    if not S.is_set:
        raise InvalidArgument("complement search expects a set (0/1 multiset)")


def _checked(
    S: Multiset, out: Union[Subgroup, list[int], None, Undecided]
) -> Union[ComplementWitness, None, Undecided]:
    """The complement out of S as a ComplementWitness that is_tiling_pair has
    checked; None and UNDECIDED pass through."""
    if out is None or out is UNDECIDED:
        return out
    if isinstance(out, Subgroup):
        witness = ComplementWitness(t=out.as_set(), method=ComplementMethod.SUBGROUP)
    else:
        t = Multiset.of_indices(S.group, out)
        witness = ComplementWitness(t=t, method=ComplementMethod.EXACT_COVER)
    if not is_tiling_pair(S, witness.t):  # pragma: no cover - transversals and covers tile
        raise InvalidArgument("internal error: complement witness failed verification")
    return witness


def find_complement(
    S: Multiset, budget: int = DEFAULT_BUDGET
) -> Union[ComplementWitness, None, Undecided]:
    """Search for a tiling complement of S containing 0 by exact cover, with
    no subgroup step.

    None means no complement exists: the certificate (certified_non_tile,
    on the zero mask of S, at no search nodes) or an exhausted exact cover
    proved it. UNDECIDED is returned only on budget exhaustion.
    """
    _require_set(S)
    if S.group.order % S.mass:  # certified_non_tile, before any table is built
        return None
    tables = index_tables(S.group)
    if certified_non_tile(tables, S.mass, set_zero_mask(S)):
        return None
    return _checked(S, cover_complement(tables, S.indices, budget)[0])


def tiles_by_subgroup(S: Multiset) -> Optional[Subgroup]:
    """A subgroup complement for S (S hits each coset exactly once), or None."""
    if not S.is_set:
        raise InvalidArgument("subgroup-complement search expects a set")
    G = S.group
    if S.mass == 0 or G.order % S.mass:
        raise NotADivisor(f"|S| = {S.mass} does not divide |G| = {G.order}")
    found = subgroup_transversal(index_tables(G), set_zero_mask(S), S.mass)
    return None if found is None else found[0]


def find_tiling_complement(
    S: Multiset, budget: int = DEFAULT_BUDGET
) -> Union[ComplementWitness, None, Undecided]:
    """A tiling complement of the set S containing 0 (see tiling_complement).

    None means no complement exists, proved by the certificate on the zero
    mask of S or by an exhausted exact cover; UNDECIDED is returned only
    when the exact cover runs out of budget.
    """
    _require_set(S)
    tables = index_tables(S.group)
    return _checked(S, tiling_complement(tables, S.indices, set_zero_mask(S), budget))


@functools.lru_cache(maxsize=None)
def _sample_plan(n: int, k: int) -> tuple[bool, tuple]:
    """How random.Random.sample draws k of n: (pool branch, its per-draw
    (shift, last pool slot) pairs) or (set branch, (shift, n - 1)).

    A draw below m is the top m.bit_length() bits of an output: of its top
    byte for n below 256, of the whole 32-bit output from 256 on. Each draw
    shifts the byte or output right by its shift and rejects a value past
    the last slot."""
    if n >> 32:
        raise ValueError("SeededDraws samples populations of fewer than 2**32 elements")
    setsize = 21  # the rule of random.Random.sample
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    width = 8 if n < 256 else 32
    if n <= setsize:
        return True, tuple((width - m.bit_length(), m - 1) for m in range(n, n - k, -1))
    return False, (width - n.bit_length(), n - 1)


class SeededDraws:
    """The draws of random.Random(seed).sample, made from buffered outputs.

    sums yields the samples of count calls of
    random.Random(seed).sample(items, k) as their sums, a block at a time;
    and fibers yields sets of fibers (the case-5 probe's candidates) as the
    masks and the sum of their points, each set read from its sample calls
    in one loop over the buffer. Both take the same pool and set branches,
    chosen by the same setsize rule, and make each draw below a bound m from
    the top m.bit_length() bits of one 32-bit generator output, rejected
    when it is m or more (Random._randbelow_with_getrandbits). The outputs are
    fetched BLOCK at a time: getrandbits(32 * BLOCK) holds them in order,
    least significant first, so its little-endian bytes hold output i at
    [4i, 4i + 4). The generator is private to the stream, so drawing ahead
    changes nothing.

    A population below 256 draws from the top bytes of the outputs alone,
    which index as small cached ints; larger populations read whole
    outputs, converted from the fetched bytes only when such a population
    reads them. Either is shifted inline. The pool branch copies the
    population once per sample and moves the pool's last item into each
    drawn slot, as random.Random.sample does. A sample that runs off the end
    of the buffer fetches a block, or as many outputs as it has used if that
    is more, and is drawn again from its first output: the fetches grow with
    the sample, so a long sample costs time linear in its length. Each call
    of sums or fibers starts at the next unused output.
    """

    BLOCK = 4096

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._raw = b""  # the unused outputs, 4 little-endian bytes each
        self._top = b""  # their top bytes
        self._words: Optional[array] = None  # the outputs as ints, once read
        self._pos = 0  # the next unused output

    def _extend(self, size: int) -> None:
        """Drop the used outputs and fetch size more (none only drops)."""
        raw = self._rng.getrandbits(32 * size).to_bytes(4 * size, "little")
        self._raw = self._raw[4 * self._pos :] + raw
        self._top = self._top[self._pos :] + raw[3::4]
        self._words = None
        self._pos = 0

    def _whole_outputs(self) -> array:
        """The buffered outputs as 32-bit ints, built on the first read after
        a fetch: only a population of 256 or more reads them."""
        if self._words is None:
            self._words = array("I", self._raw)
            if sys.byteorder == "big":
                self._words.byteswap()
        return self._words

    def sums(self, items: Sequence, k: int, count: int, total, cap: int) -> Iterator[tuple]:
        """The draws of count calls of random.Random(seed).sample(items, k) as
        (sums, sample) per block of at most cap samples: sums[i] is total plus
        the items of sample i of the block, added in draw order, and sample(i)
        that sample as a tuple, drawn again while the block is held. Summed
        onto () from 1-tuples, items add up to the sample itself, so that is
        how a sample is drawn again (_block from its first output). A block
        starts at the next unused output and keeps its outputs until the
        next block is drawn.
        """
        items = list(items)  # so that only the buffer raises IndexError
        if not 0 <= k <= len(items):
            raise ValueError("Sample larger than population or is negative")
        singles = [(item,) for item in items]
        while count:
            self._extend(0)
            size = min(cap, count)
            sums, firsts, pos = self._block(items, k, total, size, 0)
            yield sums, lambda i, firsts=firsts: self._block(singles, k, (), 1, firsts[i])[0][0]
            self._pos = pos
            count -= size

    def _block(self, items: list, k: int, total, size: int, pos: int) -> tuple[list, list, int]:
        """size samples of k items from buffered output pos on, as (their sums
        onto total, the output each began at, the next unused output): the
        loop of random.Random.sample with no sample built, where a pool draw
        adds pool[j] and moves the pool's last item into slot j. A sample that
        runs off the buffer fetches more outputs and is drawn again from its
        first output. The fetch drops no output, since sums starts each block
        at output 0, so every position stays valid while the block is held."""
        n = len(items)
        pooled, steps = _sample_plan(n, k)
        sums: list = []
        firsts: list[int] = []
        add, mark = sums.append, firsts.append
        buf = self._top if n < 256 else self._whole_outputs()
        for _ in range(size):
            while True:
                first, t = pos, total
                try:
                    if pooled:
                        pool = items.copy()
                        for shift, last in steps:
                            j = buf[pos] >> shift
                            pos += 1
                            while j > last:
                                j = buf[pos] >> shift
                                pos += 1
                            t += pool[j]
                            pool[j] = pool[last]
                    else:
                        shift, last = steps
                        selected: set[int] = set()
                        for _ in range(k):
                            j = buf[pos] >> shift
                            pos += 1
                            while j > last or j in selected:
                                j = buf[pos] >> shift
                                pos += 1
                            selected.add(j)
                            t += items[j]
                    break
                except IndexError:
                    self._extend(max(self.BLOCK, pos - first))
                    buf = self._top if n < 256 else self._whole_outputs()
                    pos = first
            add(t)
            mark(first)
        return sums, firsts, pos

    def fibers(self, rows: Sequence[Sequence], k: int, q: int, count: int) -> Iterator[tuple]:
        """count sets of k fibers of q points each, as (masks, total) per set:
        the draws of random.Random(seed).sample(range(len(rows)), k) and then,
        for each drawn row a in draw order, sample(range(len(rows[a])), q).
        masks[a] has bit b set for each point b drawn in row a (0 for a row
        not drawn), and total sums rows[a][b] over the drawn points, onto 0.
        One loop over the buffered outputs per set, with no sample built: a
        point draw ORs its bit into its row's mask and adds its entry to the
        total, and the set branch rejects a repeated point by its bit. Each
        set starts at the next unused output, and one that runs off the
        buffer fetches more outputs and is drawn again from its first
        output. The rows must be of one length.
        """
        rows = [list(r) for r in rows]  # so that only the buffer raises IndexError
        na, nb = len(rows), len(rows[0]) if rows else 0
        if any(len(r) != nb for r in rows):
            raise ValueError("rows must be of one length")
        if not (0 <= k <= na and 0 <= q <= nb):
            raise ValueError("Sample larger than population or is negative")
        a_pooled, a_steps = _sample_plan(na, k)
        b_pooled, b_steps = _sample_plan(nb, q)
        a_base, b_base = list(range(na)), list(range(nb))
        bit = [1 << b for b in range(nb)]
        b_shift, b_last = (0, 0) if b_pooled else b_steps
        b_draws = range(q)
        while count:
            # read at every set: a fetch replaces the buffer
            abuf = self._top if na < 256 else self._whole_outputs()
            bbuf = self._top if nb < 256 else self._whole_outputs()
            pos = self._pos
            try:
                drawn = []
                if a_pooled:
                    pool = a_base.copy()
                    for shift, last in a_steps:
                        j = abuf[pos] >> shift
                        pos += 1
                        while j > last:
                            j = abuf[pos] >> shift
                            pos += 1
                        drawn.append(pool[j])
                        pool[j] = pool[last]
                else:
                    shift, last = a_steps
                    seen = 0
                    for _ in range(k):
                        j = abuf[pos] >> shift
                        pos += 1
                        while j > last or seen >> j & 1:
                            j = abuf[pos] >> shift
                            pos += 1
                        seen |= 1 << j
                        drawn.append(j)
                masks = [0] * na
                total = 0
                for a in drawn:
                    row = rows[a]
                    mask = 0
                    if b_pooled:
                        pool = b_base.copy()
                        for shift, last in b_steps:
                            j = bbuf[pos] >> shift
                            pos += 1
                            while j > last:
                                j = bbuf[pos] >> shift
                                pos += 1
                            b = pool[j]
                            pool[j] = pool[last]
                            mask |= bit[b]
                            total += row[b]
                    else:
                        for _ in b_draws:
                            j = bbuf[pos] >> b_shift
                            pos += 1
                            while j > b_last or mask >> j & 1:
                                j = bbuf[pos] >> b_shift
                                pos += 1
                            mask |= bit[j]
                            total += row[j]
                    masks[a] = mask
            except IndexError:
                self._extend(max(self.BLOCK, pos - self._pos))
                continue
            self._pos = pos
            count -= 1
            yield masks, total


def candidate_draws(seed: Optional[int], k: int) -> SeededDraws:
    """The draws of the sampled candidates of size k: those of
    random.Random(f"{seed}:{k}"), the one rule that names a size's stream.

    Sampled sweeps and enumerate_tiles draw the nonzero parts of
    0-containing k-sets from it, in draw order (they may repeat), as
    sample(range(1, |G|), k - 1) calls (_draw_blocks); the case-5 probe
    draws its size-k candidates as fibers (SeededDraws.fibers).
    """
    return SeededDraws(f"{seed}:{k}")


# Candidates per block of _draw_blocks, so that a sampled size holds one
# block's sums and draws at a time, not a whole size's.
_DECODE_BLOCK = 4096


def _stem_blocks(G: Group, k: int, stems: Optional[Iterable] = None) -> Iterator[tuple]:
    """Every 0-containing k-set, or those of the given stems, as (keys, part)
    blocks, one per stem (CharTable.stem_batches); stems None walks every
    stem of size k.

    A stem is the first k - 1 - depth indices of a nonzero part, where depth
    is CharTable.batch_depth(k): 2, so a stem is a (k - 3)-subset of
    range(1, |G| - 2) and its batch every (d, last) pair above its largest
    index; 1 at size 2 (the empty stem, whose batch is every single column)
    or for a group whose pair tables pass the cap; 0 at size 1, or when the
    single-column tables pass it too, one candidate per stem. Stems in
    lexicographic order, and each batch in combinations order, enumerate
    the parts as itertools.combinations does. part(i) is the stem plus the
    batch's i-th tail; the tails are listed on the first call of a block,
    and part is valid while its block is held.
    """
    n = G.order
    kernel = char_table(G)
    depth = kernel.batch_depth(k)
    if stems is None:
        stems = itertools.combinations(range(1, n - depth), k - 1 - depth)
    stem = tails = None

    def part(i: int) -> tuple[int, ...]:
        nonlocal tails
        if tails is None:
            tails = list(itertools.combinations(range(stem[-1] + 1 if stem else 1, n), depth))
        return stem + tails[i]

    for stem, keys in kernel.stem_batches(k, stems):
        tails = None
        yield keys, part


def _draw_blocks(G: Group, k: int, seed: int, count: int) -> Iterator[tuple]:
    """The count seeded draws of size k (candidate_draws) as (keys, part)
    blocks of at most _DECODE_BLOCK. Which items a draw picks depends only
    on how many there are, so the draws of range(1, |G|) are drawn as sums
    of the kernel columns CharTable.cols[1:] (SeededDraws.sums); part(i)
    draws sample i again and maps its columns back to element indices
    (CharTable.col_index), in draw order, while its block is held."""
    kernel = char_table(G)
    col_index = kernel.col_index.__getitem__
    draws = candidate_draws(seed, k)
    for sums, again in draws.sums(kernel.cols[1:], k - 1, count, kernel.sum_base(k), _DECODE_BLOCK):
        # a list, since tuple() of a map would fill the tuple free list
        # (cover_complement)
        yield kernel.keys(sums), lambda i, again=again: list(map(col_index, again(i)))


def enumerate_tiles(
    G: Group,
    k: int,
    seed: Optional[int] = None,
    count: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[tuple[Multiset, ComplementWitness]]:
    """Yield size-k tiles containing 0, each with a complement witness.

    With no count, every 0-containing k-subset is scanned (_stem_blocks, in
    lexicographic order); with a count (at least 1, and a seed), that many
    seeded random subsets are drawn (_draw_blocks, the draws of a sampled
    sweep with the same seed) and the distinct tiles among them are yielded.
    A size not dividing |G| yields nothing; a plan of more than
    MAX_CANDIDATES candidates is refused.

    The one tile lister (verify_fuglede only tallies). Whether a set tiles,
    and its first subgroup complement, are functions of its class word, so
    of the memo key a block gives it. At budgets of at least DEFAULT_BUDGET
    a dict of this call keeps each key's outcome, no tile or a subgroup, and
    does not decide it again: a candidate of a known non-tile key is
    skipped without building its set, and only the others are sorted,
    deduplicated and listed. A tile with no subgroup complement gets its
    own exact cover. Below DEFAULT_BUDGET each set is decided on its own,
    as in the sweep: cover nodes depend on the set, not on its mask.
    """
    sampled = count is not None
    integers((x for x in (seed, count) if x is not None), "seed and count", InvalidArgument)
    if sampled and (seed is None or count < 1):
        raise InvalidArgument("a sampled tile enumeration needs a seed and a count of at least 1")
    if k < 1 or G.order % k:
        return
    total = count if sampled else math.comb(G.order - 1, k - 1)
    check_candidates(f"tile enumeration of size {k} on {G!r}", total, sampled)
    tables = index_tables(G)
    expand = char_table(G).expand
    # per key: None for no tile, or the first subgroup complement
    known: dict[bytes, Optional[Subgroup]] = {}
    seen: set[tuple[int, ...]] = set()
    for keys, part in _draw_blocks(G, k, seed, count) if sampled else _stem_blocks(G, k):
        for i, key in enumerate(keys):
            out = known.get(key, False)  # False: not decided in this call
            if out is None:
                continue
            cand = (0,) + tuple(sorted(part(i)))
            if sampled:  # draws may repeat
                if cand in seen:
                    continue
                seen.add(cand)
            if out is False:
                out = tiling_complement(tables, cand, expand(key), budget)
                if out is UNDECIDED:
                    raise InvalidArgument(
                        f"tile enumeration budget exhausted on {list(map(G.coords_of, cand))!r}"
                    )
                if budget >= DEFAULT_BUDGET and (out is None or isinstance(out, Subgroup)):
                    known[key] = out
            if out is not None:
                S = Multiset.of_indices(G, cand)
                yield S, _checked(S, out)
