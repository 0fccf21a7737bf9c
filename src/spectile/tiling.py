"""Tiling-pair verification and tiling-complement search.

Complement search is an exact cover problem: choose translates S + g that
partition the group. The search always fixes the translate at 0 first
(complements are translation-invariant, so some complement contains 0 iff
any exists) and branches on the uncovered cell with the fewest remaining
options.

subgroup_transversal and cover_complement are the one subgroup-complement
test and the one exact cover: they work on element indices, and both the
public operations and the verification sweeps call them. The tiling policy
of the public operations, a subgroup complement first and exact cover
second, is find_tiling_complement. is_tiling_pair stays on coordinate sums:
it is the independent check every returned witness passes.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .errors import (
    DEFAULT_BUDGET,
    UNDECIDED,
    EmptyInput,
    GroupMismatch,
    InvalidArgument,
    NotADivisor,
    Undecided,
)
from .groups import Element, Group, IndexTables, Multiset, Subgroup, index_tables


class ComplementMethod(str, enum.Enum):
    EXACT_COVER = "exact-cover"
    SUBGROUP = "subgroup"


@dataclass(frozen=True)
class ComplementWitness:
    """A verified tiling complement containing 0."""

    t: Multiset
    method: ComplementMethod


def is_tiling_pair(S: Multiset, T: Multiset) -> bool:
    """True iff |S| |T| = |G| and S + T covers every element exactly once."""
    if S.group != T.group:
        raise GroupMismatch("S and T live on different groups")
    G = S.group
    if S.mass * T.mass != G.order:
        return False
    if not (S.is_set and T.is_set):
        return False
    counts = bytearray(G.order)
    index_of = G.index_of
    add = G.add
    for s in S.mult:
        for t in T.mult:
            i = index_of(add(s, t))
            if counts[i]:
                return False
            counts[i] = 1
    return True


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
    the translates c - s, listed in the order of cand: the order only steers
    the branching of the exhaustive search, not its verdict.
    """
    # unpack a list, not a map: CPython builds the argument tuple of
    # zip(*map(...)) by resizing, which bypasses the tuple free list on
    # allocation but not on release, so the free list would fill up to
    # 2 000 retained tuples of every candidate size
    add_bit_cols = tables.add_bit_cols
    sub_cols = tables.sub_cols
    option_masks = list(map(sum, zip(*[add_bit_cols[s] for s in cand])))
    cell_options = list(zip(*[sub_cols[s] for s in cand]))
    return _cover_search(tables.n, option_masks, cell_options, option_masks[0], budget)


def subgroup_transversal(tables: IndexTables, cand: Sequence[int]) -> Optional[Subgroup]:
    """The first subgroup of order |G| / |cand| (in canonical order) whose
    cosets the set of element indices cand hits once each, or None.

    Requires |cand| to divide |G|.
    """
    for H, ids in tables.coset_tables(tables.n // len(cand)):
        seen = 0
        for s in cand:
            b = 1 << ids[s]
            if seen & b:
                break
            seen |= b
        else:
            return H
    return None


def find_complement(
    S: Multiset, budget: int = DEFAULT_BUDGET
) -> Union[ComplementWitness, None, Undecided]:
    """Search for a tiling complement of S containing 0.

    None means exhaustive search proved no complement exists; UNDECIDED is
    returned only on budget exhaustion.
    """
    if S.mass == 0:
        raise EmptyInput("cannot search a complement for the empty set")
    if not S.is_set:
        raise InvalidArgument("complement search expects a set (0/1 multiset)")
    G = S.group
    if G.order % S.mass:
        return None
    cand = sorted(G.index_of(x) for x in S.mult)
    out, _nodes = cover_complement(index_tables(G), cand, budget)
    if out is None or out is UNDECIDED:
        return out
    t = Multiset.set_of(G, [G.coords_of(g) for g in out])
    if not is_tiling_pair(S, t):  # pragma: no cover - cover search guarantees this
        raise InvalidArgument("internal error: cover witness failed verification")
    return ComplementWitness(t=t, method=ComplementMethod.EXACT_COVER)


def tiles_by_subgroup(S: Multiset) -> Optional[Subgroup]:
    """A subgroup complement for S (S hits each coset exactly once), or None."""
    if not S.is_set:
        raise InvalidArgument("subgroup-complement search expects a set")
    G = S.group
    if S.mass == 0 or G.order % S.mass:
        raise NotADivisor(f"|S| = {S.mass} does not divide |G| = {G.order}")
    return subgroup_transversal(index_tables(G), [G.index_of(x) for x in S.mult])


def find_tiling_complement(
    S: Multiset, budget: int = DEFAULT_BUDGET
) -> Union[ComplementWitness, None, Undecided]:
    """A tiling complement of the set S containing 0: a subgroup S is a
    transversal of when there is one, an exact-cover complement otherwise.

    None means no complement exists; UNDECIDED is returned only when the
    exact cover runs out of budget.
    """
    G = S.group
    if S.mass and G.order % S.mass == 0:
        H = tiles_by_subgroup(S)
        if H is not None:
            t = H.as_set()
            if not is_tiling_pair(S, t):  # pragma: no cover - transversals tile
                raise InvalidArgument("internal error: subgroup witness failed verification")
            return ComplementWitness(t=t, method=ComplementMethod.SUBGROUP)
    return find_complement(S, budget)


def enumerate_tiles(
    G: Group,
    k: int,
    mode: str = "exhaustive",
    seed: Optional[int] = None,
    count: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[tuple[Multiset, ComplementWitness]]:
    """Yield size-k tiles containing 0, each with a complement witness.

    Exhaustive mode scans every 0-containing k-subset; sample mode draws
    `count` seeded random subsets and yields the tiles among them. A size
    not dividing |G| yields nothing.
    """
    if k < 1 or G.order % k:
        return
    if mode == "exhaustive":
        candidates: Iterator[tuple[Element, ...]] = (
            (G.identity,) + tuple(G.coords_of(i) for i in combo)
            for combo in itertools.combinations(range(1, G.order), k - 1)
        )
    elif mode == "sample":
        if seed is None or count is None:
            raise InvalidArgument("sample mode requires seed and count")
        rng = random.Random(f"{seed}:{k}")
        population = range(1, G.order)

        def _sampled() -> Iterator[tuple[Element, ...]]:
            seen = set()
            for _ in range(count):
                picks = tuple(sorted(rng.sample(population, k - 1)))
                if picks in seen:
                    continue
                seen.add(picks)
                yield (G.identity,) + tuple(G.coords_of(i) for i in picks)

        candidates = _sampled()
    else:
        raise InvalidArgument(f"unknown mode {mode!r}")

    for cand in candidates:
        S = Multiset.set_of(G, cand)
        witness = find_tiling_complement(S, budget)
        if witness is UNDECIDED:
            raise InvalidArgument(
                f"tile enumeration budget exhausted on {sorted(S.mult)!r}"
            )
        if witness is not None:
            yield S, witness
