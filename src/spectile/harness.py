"""Theorem-level verification sweeps and constructive witnesses.

verify_fuglede decides spectrality and tiling for every candidate set and
tallies agreement; any disagreement is recorded with full witness data. The
same pass tallies the subgroup-complement claim: a tile found only by exact
cover is a violation of it. Both verdicts of a k-set are functions of its
zero mask (CharTable.zero_mask), and so of the class word the mask expands
from (CharTable.class_word, one bit per direction class).
One memo per group and size (spectra._memo), keyed by the word's memo key
(CharTable.key), holds the verdict of spectra.spectrum_search, which
find_spectrum reads and fills as well (spectra._spectral_verdict),
and the outcome of tiling.tiling_complement, which reads the mask for its
prime-power certificate and its subgroup step; its exact cover does not
read the mask and runs on the first set of each key (of each orbit, in
an exhaustive walk) that neither decides. A settled word,
whose verdicts agree and need no per-set entry, is a bare bool there;
every other word keeps a (verdict, nodes, tile) tuple. The mask is
expanded from the word only off the settled path. Both verdicts are
invariant under the automorphisms of G, which permute the direction
classes, so an exhaustive walk that settles a word settles the word's
whole orbit with it (CharTable.orbit).

Every size's candidates travel in one form, the (keys, part) blocks of
tiling, in the order enumerate_tiles lists them: keys[i] is candidate i's
memo key, and part(i) its nonzero part as element indices, built only when
asked. There is one producer per source: an exhaustive size walks stems
(tiling._stem_blocks, one CharTable.stem_batches batch per stem), and a
sampled size draws kernel sums (tiling._draw_blocks). A canonicalized size
is a walk whose blocks keep only the sets that no automorphism lowers
(_least_blocks). One loop, _sweep_chunk, tallies them all. A candidate
whose word is settled, in this sweep or any earlier one of the process, is
tallied as a count per verdict (a block of them with list.count) and never
has its part built; every other candidate goes to the one slow path, which
tallies it on its own, in enumeration order, and sorts its part into its
set only when an exact cover or a listed entry needs the set.

Sampled sweeps and the case-5 probe draw their candidates with
tiling.SeededDraws: the draws of random.Random(f"{seed}:{k}").sample for
size k (tiling.candidate_draws), made from generator outputs fetched a
block at a time. A sweep draws all of a size's samples from one stream as
their kernel sums (SeededDraws.sums), in the one process that sweeps the
size, pooled or not, and draws a sample off the settled path again from
its first output; the probe draws each candidate's leaves and then their
points in one loop, as leaf masks and a kernel sum (SeededDraws.fibers).
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import math
import operator
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .cyclotomic import char_table, set_zero_mask
from .errors import (
    DEFAULT_BUDGET,
    UNDECIDED,
    BudgetExhausted,
    InvalidArgument,
    NotASpectralPair,
    NotATilingPair,
    NotPQShape,
    TheoremViolation,
    Undecided,
    check_candidates,
    integers,
)
from .groups import (
    Group,
    IndexTables,
    Multiset,
    Subgroup,
    automorphism_index_perms,
    index_tables,
)
from .spectra import (
    COVER_TILE,
    NOT_A_TILE,
    SUBGROUP_TILE,
    TILE_UNSET,
    SpectrumWitness,
    _memo,
    _spectral_verdict,
    find_spectrum,
    is_spectral_pair,
)
from .structure import (
    CaseKind, LeafTables, PQShape, aligned_leaves, classify_case, leaf_tables, pq_shape
)
from .tiling import (
    ComplementMethod,
    ComplementWitness,
    _draw_blocks,
    _stem_blocks,
    candidate_draws,
    certified_non_tile,
    find_tiling_complement,
    is_tiling_pair,
    subgroup_transversal,
    tiling_complement,
)


# ---------------------------------------------------------------------------
# per-candidate decisions of the sweep


def _clique_nodes_bounded(zeros: int, k: int) -> bool:
    """Whether every clique search for a k-set on a zero mask of zeros
    elements stays within DEFAULT_BUDGET nodes. Each node of
    spectra.spectrum_search is a distinct clique of 1 to k - 1 vertices of
    the mask, increasing in its vertex order, so a search spends at most
    sum_{i=1}^{k-1} C(zeros, i) nodes, whatever the order."""
    return sum(map(math.comb, itertools.repeat(zeros, k - 1), range(1, k))) <= DEFAULT_BUDGET


def _tile_outcome(
    tables: IndexTables, k: int, zmask: int, budget: int, cand: Callable[[], tuple[int, ...]]
) -> Union[int, Undecided]:
    """The tile outcome of tiling_complement on the k-set cand(), whose zero
    mask is zmask, or UNDECIDED: NOT_A_TILE when the certificate
    (tiling.certified_non_tile) or an exhausted exact cover proves it,
    SUBGROUP_TILE or COVER_TILE by the complement found. The certificate
    reads the mask alone, so the set is built only when it does not decide;
    it spends no nodes, so only a cover that runs out of budget is
    UNDECIDED."""
    if certified_non_tile(tables, k, zmask):
        return NOT_A_TILE
    out = tiling_complement(tables, cand(), zmask, budget)
    if out is UNDECIDED:
        return UNDECIDED
    if out is None:
        return NOT_A_TILE
    return SUBGROUP_TILE if isinstance(out, Subgroup) else COVER_TILE


# ---------------------------------------------------------------------------
# plans and reports


@dataclass(frozen=True)
class VerificationPlan:
    """What to sweep: group, sizes, candidates, budgets.

    Sizes must be distinct. A plan given count_per_size samples: it draws
    that many seeded sets of each size and needs a seed and a count of at
    least 1. A plan without enumerates every 0-containing set of each size,
    C(|G| - 1, k - 1) of them (canonicalize filters the same stem walk).
    More than MAX_CANDIDATES candidates in total is refused.
    """

    group: Group
    sizes: tuple[int, ...]
    seed: Optional[int] = None
    count_per_size: Optional[int] = None
    budget: int = DEFAULT_BUDGET
    canonicalize: bool = False
    workers: int = 1

    @property
    def mode(self) -> str:
        return "exhaustive" if self.count_per_size is None else "sample"

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", integers(self.sizes, "sizes", InvalidArgument))
        if not self.sizes:
            raise InvalidArgument("plan needs at least one size")
        if any(k < 1 or k > self.group.order for k in self.sizes):
            raise InvalidArgument(f"sizes {self.sizes!r} out of range for {self.group!r}")
        if len(set(self.sizes)) != len(self.sizes):
            raise InvalidArgument(f"sizes {self.sizes!r} repeat a size")
        given = (x for x in (self.seed, self.count_per_size) if x is not None)
        integers(given, "seed and count", InvalidArgument)  # no float, string or bool
        sampled = self.count_per_size is not None
        if sampled:
            if self.seed is None or self.count_per_size < 1:
                raise InvalidArgument("a sampled plan needs a seed and a count of at least 1")
            if self.canonicalize:
                raise InvalidArgument("canonicalize filters exhaustive plans only, not samples")
            count = self.count_per_size * len(self.sizes)
        else:
            count = sum(math.comb(self.group.order - 1, k - 1) for k in self.sizes)
        check_candidates(f"plan on {self.group!r}", count, sampled)
        if self.budget < 1:
            raise InvalidArgument("budget must be positive")
        if self.workers < 1:
            raise InvalidArgument("workers must be positive")


@dataclass
class SizeTally:
    """Verdict tallies of one size; merging chunk tallies is associative.

    The Fuglede tallies skip a candidate with an undecided verdict. The
    subgroup-complement tallies (`tiles_any`, `violations`,
    `tile_undecided`) count every tile verdict, whatever the spectral one.
    """

    size: int
    examined: int = 0
    spectral: int = 0
    tiles: int = 0
    both_yes: int = 0
    both_no: int = 0
    mismatches: list[dict] = field(default_factory=list)
    undecided: list[dict] = field(default_factory=list)
    tiles_any: int = 0
    violations: list[dict] = field(default_factory=list)
    tile_undecided: list[dict] = field(default_factory=list)

    def merge(self, other: SizeTally) -> None:
        self.examined += other.examined
        self.spectral += other.spectral
        self.tiles += other.tiles
        self.both_yes += other.both_yes
        self.both_no += other.both_no
        self.mismatches.extend(other.mismatches)
        self.undecided.extend(other.undecided)
        self.tiles_any += other.tiles_any
        self.violations.extend(other.violations)
        self.tile_undecided.extend(other.tile_undecided)

    def add_settled(self, no: int, yes: int) -> None:
        """Fold in the candidates tallied from settled entries: no of them
        with both verdicts no, yes with both verdicts yes (a subgroup tile)."""
        self.examined += no + yes
        self.both_no += no
        self.spectral += yes
        self.tiles += yes
        self.tiles_any += yes
        self.both_yes += yes

    def subgroup_tiling_dict(self) -> dict:
        return {
            "size": self.size,
            "examined": self.examined,
            "tiles": self.tiles_any,
            "violations": self.violations,
            "undecided": self.tile_undecided,
        }

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "examined": self.examined,
            "spectral": self.spectral,
            "tiles": self.tiles,
            "both_yes": self.both_yes,
            "both_no": self.both_no,
            "mismatches": self.mismatches,
            "undecided": self.undecided,
        }


@dataclass
class VerificationReport:
    """The tallies of one sweep of plan, rendered as two blocks: to_dict
    (spectral <=> tile) and subgroup_tiling_dict (subgroup complements)."""

    plan: VerificationPlan
    per_size: dict[int, SizeTally]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(
            not t.mismatches and not t.undecided for t in self.per_size.values()
        )

    @property
    def subgroup_tiling_ok(self) -> bool:
        return all(
            not t.violations and not t.tile_undecided for t in self.per_size.values()
        )

    @property
    def mismatch_count(self) -> int:
        return sum(len(t.mismatches) for t in self.per_size.values())

    @property
    def undecided_count(self) -> int:
        return sum(len(t.undecided) for t in self.per_size.values())

    @property
    def violation_count(self) -> int:
        return sum(len(t.violations) for t in self.per_size.values())

    def to_dict(self) -> dict:
        plan = self.plan
        return {
            "group": list(plan.group.moduli),
            "mode": plan.mode,
            "sizes": list(plan.sizes),
            # no draw reads the seed of an exhaustive plan
            "seed": None if plan.count_per_size is None else plan.seed,
            "budget": plan.budget,
            "canonicalize": plan.canonicalize,
            "per_size": {str(k): t.to_dict() for k, t in sorted(self.per_size.items())},
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed, 3),
        }

    @property
    def subgroup_claim(self) -> Optional[str]:
        """The claim the subgroup-complement tallies check: the paper's, made
        for its family Z_p^2 x Z_q^2 (structure.pq_shape) alone. It is false
        in general ({0, 2} tiles Z_16, whose one subgroup of order 8 holds
        2), so elsewhere it is None and a violation is an observation."""
        try:
            shape = pq_shape(self.plan.group)
        except NotPQShape:
            return None
        return f"every tile of Z_{shape.p}^2 x Z_{shape.q}^2 has a subgroup complement"

    def subgroup_tiling_dict(self) -> dict:
        """to_dict less budget and canonicalize, over the subgroup-complement
        tallies: every tile counted, a tile found only by exact cover listed
        as a violation, and the claim they check (subgroup_claim)."""
        doc = self.to_dict()
        del doc["budget"], doc["canonicalize"]
        doc["per_size"] = {
            str(k): t.subgroup_tiling_dict() for k, t in sorted(self.per_size.items())
        }
        elapsed = doc.pop("elapsed_seconds")
        doc.update(ok=self.subgroup_tiling_ok, claim=self.subgroup_claim, elapsed_seconds=elapsed)
        return doc


def _coords(G: Group, cand: tuple[int, ...]) -> list[list[int]]:
    return [list(G.elements[i]) for i in cand]


def _mismatch_entry(
    G: Group, cand: tuple[int, ...], lam: Optional[list[int]], tile: bool, budget: int
) -> dict:
    """Full witness data for a disagreement (rare: a theorem violation).

    lam is the spectrum (element indices) of the search that decided cand
    spectral, or None when cand is not spectral; it is checked with
    is_spectral_pair before it is listed. The search is deterministic on
    the zero mask and size, so lam is the spectrum find_spectrum gives."""
    S = Multiset.of_indices(G, cand)
    spectrum = None
    complement = None
    if lam is not None:
        L = Multiset.of_indices(G, lam)
        if not is_spectral_pair(S, L):  # pragma: no cover - the search guarantees this
            raise InvalidArgument("internal error: clique witness failed verification")
        spectrum = [list(x) for x in L.support]
    if tile:
        wit = find_tiling_complement(S, budget)
        if isinstance(wit, ComplementWitness):
            complement = [list(x) for x in wit.t.support]
    return {
        "set": _coords(G, cand),
        "spectral": lam is not None,
        "tile": tile,
        "spectrum": spectrum,
        "complement": complement,
    }


def _sweep_chunk(
    G: Group, k: int, blocks: Iterable[tuple], budget: int, orbits: bool = False
) -> SizeTally:
    """Decide both properties for each candidate and tally the verdicts: the
    one tally loop of the sweeps.

    Candidates come in the (keys, part) blocks of tiling: a stem walk's
    (_stem_blocks, through _least_blocks when canonicalized) or a sample's
    (_draw_blocks). keys[i] is candidate i's memo key (_memo), and part(i)
    its nonzero part as element indices, built only when asked. One map of
    the memo's lookup reads a block's keys, and list.count counts the
    candidates whose entry is settled, False or True, which
    SizeTally.add_settled folds in when the loop ends. That takes a budget
    of at least DEFAULT_BUDGET, and below it a sentinel matches none. A
    settled entry stays settled, so only the others are looked up again, in
    order, since the slow path may settle a word that a later candidate
    shares. The slow path tallies a candidate on its own: it expands the
    word of its key to the zero mask for the decisions, and appends any
    undecided entry, violation or mismatch, in enumeration order. The
    spectral verdict and the certificate read the mask alone, so the
    candidate's part is built, and sorted into its set, only for an exact
    cover or a listed entry (cand below).

    With orbits (an unfiltered stem walk of size k >= 2), every key of the
    orbit of a word that the slow path settles (CharTable.orbit) that is not
    yet in the memo gets the same bool; tuple entries are left alone. Both
    verdicts are orbit invariants (_memo), and each image is the word of a
    0-containing k-set, which the walk meets, so the memo ends as settling
    each word alone leaves it. Two conditions make it so. The clique search
    of every image must fit DEFAULT_BUDGET, so the orbit settles only when
    _clique_nodes_bounded holds for the mask's size, which an orbit shares.
    And a sampled or canonicalized sweep meets few of the images, so only
    an unfiltered walk settles orbits; elsewhere they would fill the memo
    with words no candidate reads. The tile side reads as for one word: a
    cover that finishes for the first set met decides its word, and now the
    orbit. A walk meets every word of each orbit, so on Z_2^2 x Z_3^2 the
    slow path decides 3, 7, 15 and 63 words at sizes 2, 3, 4 and 6, one per
    orbit, of the 16, 41, 139 and 1 778 that the sizes realise.
    """
    kernel = char_table(G)
    tables = index_tables(G)
    memo = _memo(G, k)
    get = memo.get
    keep_tiles = budget >= DEFAULT_BUDGET
    unmatched = object()
    settled = (False, True) if keep_tiles else (unmatched, unmatched)
    settled_no, settled_yes = settled
    tally = SizeTally(size=k)
    orbits = orbits and k >= 2

    def slow(part: Callable[[int], Sequence[int]], i: int, key: bytes) -> None:
        def cand() -> tuple[int, ...]:
            return (0,) + tuple(sorted(part(i)))

        tally.examined += 1
        zmask = kernel.expand(key)
        sp, lam = _spectral_verdict(memo, tables, key, zmask, k, budget)
        entry = get(key) if keep_tiles else None
        tile = TILE_UNSET if entry is None else entry[2]
        if tile == TILE_UNSET:
            tile = _tile_outcome(tables, k, zmask, budget, cand)
            if entry is not None and tile is not UNDECIDED:
                settles = (
                    entry[1] <= DEFAULT_BUDGET
                    and tile != COVER_TILE
                    and entry[0] is (tile == SUBGROUP_TILE)
                )
                memo[key] = entry[0] if settles else (entry[0], entry[1], tile, entry[3])
                if settles and orbits and _clique_nodes_bounded(zmask.bit_count(), k):
                    for image in kernel.orbit(key):
                        memo.setdefault(image, entry[0])
        ti = tile if tile is UNDECIDED else tile != NOT_A_TILE
        if ti is UNDECIDED:
            tally.tile_undecided.append({"set": _coords(G, cand())})
        elif ti:
            tally.tiles_any += 1
            if tile == COVER_TILE:
                tally.violations.append({"set": _coords(G, cand())})
        if sp is UNDECIDED or ti is UNDECIDED:
            tally.undecided.append(
                {
                    "set": _coords(G, cand()),
                    "spectral": "undecided" if sp is UNDECIDED else sp,
                    "tile": "undecided" if ti is UNDECIDED else ti,
                }
            )
            return
        if sp:
            tally.spectral += 1
        if ti:
            tally.tiles += 1
        if sp != ti:
            tally.mismatches.append(_mismatch_entry(G, cand(), lam, ti, budget))
        elif sp:
            tally.both_yes += 1
        else:
            tally.both_no += 1

    no = yes = 0  # candidates with a settled word, by verdict
    for keys, part in blocks:
        entries = list(map(get, keys))
        batch_no = entries.count(settled_no)
        batch_yes = entries.count(settled_yes)
        no += batch_no
        yes += batch_yes
        if batch_no + batch_yes == len(entries):
            continue
        unsettled = map(operator.not_, map(settled.__contains__, entries))
        for i in itertools.compress(itertools.count(), unsettled):
            entry = get(keys[i])
            if entry is settled_no:
                no += 1
            elif entry is settled_yes:
                yes += 1
            else:
                slow(part, i, keys[i])
    tally.add_settled(no, yes)
    return tally


def _least_blocks(perms: Sequence[Sequence[int]], blocks: Iterable[tuple]) -> Iterator[tuple]:
    """Of each (keys, part) block of a stem walk, the candidates that no
    element permutation in perms maps to a lexicographically smaller set, as
    a block of their keys and parts. Automorphisms fix 0, so the image of
    (0,) + rest is (0,) plus the sorted image of rest, and comparing nonzero
    parts decides it. A block's parts are listed before it is yielded: a
    part of _stem_blocks is valid only while its block is held."""
    for keys, part in blocks:
        parts = list(map(part, range(len(keys))))
        least = [all(tuple(sorted(map(a.__getitem__, p))) >= p for a in perms) for p in parts]
        yield list(itertools.compress(keys, least)), list(itertools.compress(parts, least)).__getitem__


def _sweep_job(job: tuple) -> SizeTally:
    """One job (plan, k, stems) of verify_fuglede (_jobs), run in this
    process or in a pool's worker: the size-k candidates as tiling's (keys,
    part) blocks, through the tally loop (_sweep_chunk). A sampled size
    draws its seeded candidates (_draw_blocks), always as a whole job.
    Every other size walks the given run of stems (_stem_blocks) and
    settles whole orbits. canonicalize filters the walk's blocks
    (_least_blocks) over all of Aut(G) (groups.automorphism_index_perms),
    and such a walk settles words one at a time.
    """
    plan, k, stems = job
    G = plan.group
    if plan.count_per_size is not None:
        blocks = _draw_blocks(G, k, plan.seed, plan.count_per_size)
    else:
        blocks = _stem_blocks(G, k, stems)
        if plan.canonicalize:
            blocks = _least_blocks(automorphism_index_perms(G), blocks)
    walk = plan.count_per_size is None and not plan.canonicalize
    return _sweep_chunk(G, k, blocks, plan.budget, orbits=walk)


# Candidates per job of stems, on average. A batched candidate costs well
# under a microsecond, so job overhead needs large jobs: two workers swept
# Z_2^2 x Z_3^2 size 8 in 2.1-2.3 s with jobs of 4 096 candidates against
# 1.5-1.8 s with 32 768 (2-vCPU VM).
_CHUNK = 1 << 15


def _jobs(plan: VerificationPlan) -> Iterator[tuple]:
    """The jobs of a plan, serial or pooled. A sampled size is one job, so
    that its draws and its memo stay in one process, and the sizes run
    largest first, by k, so that a pool does not start the longest job last.
    An exhaustive size, canonicalized or not, is runs of as many stems as
    hold _CHUNK candidates on average, which each job batches itself
    (tiling._stem_blocks)."""
    if plan.count_per_size is not None:
        yield from ((plan, k, None) for k in sorted(plan.sizes, reverse=True))
        return
    G = plan.group
    n = G.order
    for k in plan.sizes:
        depth = char_table(G).batch_depth(k)
        stems = itertools.combinations(range(1, n - depth), k - 1 - depth)
        total_stems = math.comb(n - 1 - depth, k - 1 - depth)
        per_job = max(1, _CHUNK * total_stems // math.comb(n - 1, k - 1))
        for run in iter(lambda: list(itertools.islice(stems, per_job)), []):
            yield plan, k, run


def verify_fuglede(plan: VerificationPlan) -> VerificationReport:
    """Sweep the plan, deciding spectrality and tiling for every candidate.

    Both decisions go through one memo per group and size, _memo(G, k),
    keyed by the class word of the zero mask: each entry holds the spectral
    verdict with the clique nodes its search spent, and the tile outcome
    (not a tile, subgroup tile, exact-cover tile, or not yet decided). The
    clique search is deterministic, so an entry answers a budget exactly
    when its nodes fit, else UNDECIDED, as a fresh search would. Cover
    nodes depend on the set, not on its mask, so the tile outcome is read
    and stored only at budgets of at least DEFAULT_BUDGET, and never stored
    UNDECIDED: a report does not depend on what the process swept before.
    A settled word (verdicts decided and equal, at most DEFAULT_BUDGET
    clique nodes, a subgroup tile or no tile) is stored as a bare bool,
    which answers every budget of at least DEFAULT_BUDGET; below it, the
    clique search runs again and its result is not stored. Every other
    candidate is tallied on its own, so a key with an exact-cover tile
    lists each of its sets as a violation. The sweep only tallies: the
    tiles themselves are listed by tiling.enumerate_tiles.

    A stem walk settles a settled word's whole orbit under Aut(G) with it
    (_sweep_chunk); sampled and canonicalized sweeps settle words alone.

    Neither decision consults the other's verdict. Both read the zero mask,
    but by different arguments: a non-tile verdict comes from the
    prime-power certificate (IndexTables.forced_mask: a class of order p^a,
    p not dividing |G|/k, missing from the mask) or from an exact cover, and
    every tile with no subgroup complement from an exact cover, run once per
    orbit in a walk and once per key elsewhere, which does not read the
    mask; so agreement exercises the spectral <=> tile equivalence on the
    planned group. The certificate spends no nodes and decides at every
    budget, so a budget-bound sweep lists only the sets whose cover or
    clique search runs out.

    Serial or pooled, a plan runs the same jobs (_jobs, each a _sweep_job):
    one per sampled size, and runs of stems of each exhaustive size. No pool
    starts when it would hold one worker; a pool has at most the CPU count,
    and for a sampled plan one worker per size. map and imap return the
    tallies in job order, merged associatively into per_size, built in plan
    order, so no report depends on scheduling or on the pool size.
    """
    start = time.perf_counter()
    most = len(plan.sizes) if plan.count_per_size is not None else plan.workers
    processes = min(plan.workers, os.cpu_count() or 1, most)
    per_size = {k: SizeTally(size=k) for k in plan.sizes}
    pool = None
    if processes > 1:
        import multiprocessing as mp

        pool = mp.get_context("fork").Pool(processes)
    with pool or contextlib.nullcontext():
        for tally in (pool.imap if pool else map)(_sweep_job, _jobs(plan)):
            per_size[tally.size].merge(tally)
    return VerificationReport(plan, per_size, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# constructive witnesses for tiles and spectral sets


class SpectrumConstruction(str, enum.Enum):
    PRIME_CYCLE = "prime-cycle"
    SYLOW_DUAL = "sylow-dual"
    COPRIME_CYCLE = "coprime-cycle"
    MIXED_SUBGROUP = "mixed-subgroup"
    SEARCH_FALLBACK = "search-fallback"


@dataclass(frozen=True)
class ConstructedSpectrum:
    witness: SpectrumWitness
    tag: SpectrumConstruction


class ComplementConstruction(str, enum.Enum):
    WHOLE_GROUP = "whole-group"
    PRIME_SUBGROUP = "prime-subgroup"
    SYLOW_SUBGROUP = "sylow-subgroup"
    SUBGROUP_FIRST = "subgroup-first-search"
    COPRIME_SUBGROUP = "coprime-subgroup"
    SEARCH_FALLBACK = "search-fallback"


@dataclass(frozen=True)
class ConstructedComplement:
    witness: ComplementWitness
    tag: ComplementConstruction


# the (spectrum, complement) tags of a set with a subgroup complement, by the
# divisibility case of its size (structure.classify_case), as the paper finds them
_CASE_TAGS = {
    CaseKind.TRIVIAL: (SpectrumConstruction.SEARCH_FALLBACK, ComplementConstruction.WHOLE_GROUP),
    CaseKind.PRIME: (SpectrumConstruction.PRIME_CYCLE, ComplementConstruction.SUBGROUP_FIRST),
    CaseKind.PRIME_SQUARE: (
        SpectrumConstruction.SYLOW_DUAL,
        ComplementConstruction.SYLOW_SUBGROUP,
    ),
    CaseKind.COPRIME_PRODUCT: (
        SpectrumConstruction.COPRIME_CYCLE,
        ComplementConstruction.COPRIME_SUBGROUP,
    ),
    CaseKind.SQUARE_TIMES_PRIME: (
        SpectrumConstruction.MIXED_SUBGROUP,
        ComplementConstruction.PRIME_SUBGROUP,
    ),
}


def _case_tags(shape: PQShape, S: Multiset) -> tuple[SpectrumConstruction, ComplementConstruction]:
    """The (spectrum, complement) tags of a set S with a subgroup complement
    (_CASE_TAGS). Sizes 1 and |G| tile by the whole group and by {0}; their
    spectra, {0} and G, are left to the search."""
    if S.mass == shape.group.order:  # classify_case refuses gcd |G|
        return SpectrumConstruction.SEARCH_FALLBACK, ComplementConstruction.WHOLE_GROUP
    return _CASE_TAGS[classify_case(shape, S).kind]


def tile_to_spectrum(
    shape: PQShape, S: Multiset, T: Multiset, budget: int = DEFAULT_BUDGET
) -> ConstructedSpectrum:
    """Produce a verified spectrum for the tile S (T is a checked complement).

    S is a transversal of a subgroup H exactly when its character sum
    vanishes on H^perp minus 0, and then H^perp, of order |S|, is a
    spectrum of S: the one Fourier test gives both the complement H
    (spectral_to_complement) and the spectrum H^perp. The spectrum is H^perp
    for the first subgroup H of order |G|/|S| that S is a transversal of
    (tiling.subgroup_transversal, on the zero mask of S), built once per
    subgroup, tagged by the divisibility case of |S| (_case_tags), and
    checked by is_spectral_pair. Sizes 1 and |G|, and a tile with no
    subgroup complement, take a budgeted generic search.
    """
    G = shape.group
    if S.group != G or T.group != G:
        raise NotATilingPair("sets live on a different group")
    if not is_tiling_pair(S, T):
        raise NotATilingPair("inputs do not tile the group")
    tag = _case_tags(shape, S)[0]
    if tag is not SpectrumConstruction.SEARCH_FALLBACK:
        found = subgroup_transversal(index_tables(G), set_zero_mask(S), S.mass)
        if found is not None:
            lam = found[2]
            if not is_spectral_pair(S, lam):  # pragma: no cover - H^perp is a spectrum
                raise InvalidArgument("internal error: annihilator spectrum failed verification")
            return ConstructedSpectrum(SpectrumWitness(lam, S.mass * (S.mass - 1) // 2), tag)

    out = find_spectrum(S, budget)
    if out is UNDECIDED:
        raise BudgetExhausted(f"fallback spectrum search exceeded {budget} nodes")
    if out is None:
        raise TheoremViolation(f"tile {list(S.support)!r} has no spectrum")
    return ConstructedSpectrum(out, SpectrumConstruction.SEARCH_FALLBACK)


def spectral_to_complement(
    shape: PQShape, S: Multiset, lam: Multiset, budget: int = DEFAULT_BUDGET
) -> ConstructedComplement:
    """Produce a verified tiling complement for a spectral set.

    The complement is find_tiling_complement's: the first subgroup H of
    order |G|/|S| that S is a transversal of, the subgroup whose annihilator
    tile_to_spectrum returns, else an exact cover. A subgroup complement is
    tagged by the divisibility case of |S| (_case_tags), an exact-cover
    complement SEARCH_FALLBACK. A spectral set with no complement at all is
    a certified theorem violation and raises.
    """
    G = shape.group
    if S.group != G or lam.group != G:
        raise NotASpectralPair("sets live on a different group")
    if not is_spectral_pair(S, lam):
        raise NotASpectralPair("inputs are not a spectral pair")
    witness = find_tiling_complement(S, budget)
    if witness is UNDECIDED:
        raise BudgetExhausted(f"fallback complement search exceeded {budget} nodes")
    if witness is None:
        raise TheoremViolation(f"spectral set {list(S.support)!r} has no tiling complement")
    if witness.method is ComplementMethod.SUBGROUP:
        return ConstructedComplement(witness, _case_tags(shape, S)[1])
    return ConstructedComplement(witness, ComplementConstruction.SEARCH_FALLBACK)


# ---------------------------------------------------------------------------
# size-pq < |S| < pq min(p,q) probe


@dataclass
class ProbeReport:
    group: tuple[int, ...]
    sizes: tuple[int, ...]
    seed: int
    count_per_size: int
    budget: int
    examined: int
    refuted: int
    spectral_hits: list[dict]
    undecided: list[dict]
    obstructions: dict[str, int]
    aligned_leaf_hits: int
    direction_gap: dict[str, int]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.spectral_hits and not self.undecided

    def to_dict(self) -> dict:
        return {
            "group": list(self.group),
            "sizes": list(self.sizes),
            "seed": self.seed,
            "count_per_size": self.count_per_size,
            "budget": self.budget,
            "examined": self.examined,
            "refuted": self.refuted,
            "spectral_hits": self.spectral_hits,
            "undecided": self.undecided,
            "obstructions": dict(sorted(self.obstructions.items())),
            "aligned_leaf_hits": self.aligned_leaf_hits,
            "direction_gap": dict(sorted(self.direction_gap.items())),
            "ok": self.ok,
            "note": "sampled evidence only, not an exhaustive search",
            "elapsed_seconds": round(self.elapsed, 3),
        }


def probe_sizes(shape: PQShape) -> tuple[int, ...]:
    """Sizes n with gcd(n, |G|) = pq and pq < n < pq min(p, q)."""
    G = shape.group
    pq = shape.p * shape.q
    hi = pq * min(shape.p, shape.q)
    return tuple(
        n for n in range(pq + 1, hi) if math.gcd(n, G.order) == pq
    )


def case5_nonexistence_probe(
    shape: PQShape,
    sizes: Iterable[int],
    seed: int,
    count_per_size: int,
    budget: int = DEFAULT_BUDGET,
) -> ProbeReport:
    """Sample structured candidates in the hard size range and verify that
    none is spectral, recording which obstruction rejects each candidate.

    Candidates are built with every nonempty q-square fiber of size exactly
    q (the forced structure for a spectral set in this range), yet random
    leaves rarely reach other obstructions: probe-case5 --group 3,3,5,5
    --sizes 30 --samples 400 --seed 7 tallies all 400 as vanishing-pattern,
    with direction_gap fails 400 and aligned_leaf_hits 0.

    Each candidate is the draws of random.Random(f"{seed}:{size}")
    (tiling.candidate_draws): one sample of size // q leaves of Z_p^2, then
    one sample of q points of Z_q^2 per leaf, in leaf draw order.
    SeededDraws.fibers reads it from them in one loop: a drawn leaf's mask
    is the OR of its points' bits, and the kernel sum adds the points'
    columns. Every decision that is a function of the class word is made
    once per word and size in a call: a dict per size, keyed by the word,
    holds its spectral verdict (_spectral_verdict on its zero mask, under
    its memo key, CharTable.key, made at the word's first candidate) and its
    obstruction kind. A verdict that _spectral_verdict searches again
    without storing (below DEFAULT_BUDGET) is thus searched once per word
    and size of a call; the search is deterministic, so every candidate of
    the word gets the verdict its own search would.
    A candidate then costs its draw, its class word, one lookup and the two
    leaf tallies (aligned leaves and the direction gap), which read its
    leaf masks alone. Only a listed candidate (undecided or spectral) is
    sorted into its set, and a spectral one gets its spectrum from
    find_spectrum, which reads the clique the word's verdict stored (unless
    the word was settled) and checks it against the set.

    An empty size list is refused, as it is by VerificationPlan: for p = 2
    the probe range is empty, and a probe of no size would report ok.

    count_per_size 0 is a table warm-up: it checks the sizes and builds the
    group's index, character and leaf tables, examines nothing and reports
    ok with examined 0 (the zero-mask kernel is built by the first
    candidate). The CLI's --samples refuses 0.
    """
    start = time.perf_counter()
    G = shape.group
    q = shape.q
    sizes = integers(sizes, "sizes", InvalidArgument)
    integers((seed, count_per_size), "seed and count", InvalidArgument)  # no float, string or bool
    if not sizes:
        raise InvalidArgument(
            f"probe needs at least one size; the probe range of {G!r}"
            f" (gcd pq, pq < n < pq min(p,q)) is {list(probe_sizes(shape))}"
        )
    if len(set(sizes)) != len(sizes):
        raise InvalidArgument(f"sizes {sizes!r} repeat a size")
    for n in sizes:
        if n not in probe_sizes(shape):
            raise InvalidArgument(
                f"size {n} is outside the probe range (gcd pq, pq < n < pq min(p,q))"
            )
    if count_per_size < 0:
        raise InvalidArgument("count_per_size must be nonnegative")
    check_candidates(f"probe on {G!r}", count_per_size * len(sizes), True)

    tables = index_tables(G)
    kernel = char_table(G)
    class_word = kernel.class_word
    lt = leaf_tables(shape)
    # the kernel columns of the elements of each leaf, by p-part index; a
    # warm-up draws nothing and leaves the kernel unbuilt
    col_at = [list(map(kernel.cols.__getitem__, row)) for row in lt.elem] if count_per_size else None
    examined = 0
    spectral_hits: list[dict] = []
    undecided: list[dict] = []
    obstructions: dict[str, int] = {
        # kept at 0: every drawn candidate passes the leaf-size part
        # (_classify_obstruction), so no candidate is refuted by it
        "leaf-structure": 0,
        "vanishing-pattern": 0,
        "leaf-overflow": 0,
    }
    aligned_leaf_hits = 0
    gap_holds = 0

    for size in sizes if col_at else ():
        # gcd(size, |G|) = pq, so q divides size
        leaves_needed = size // q
        memo = _memo(G, size)
        # per class word at this size: its spectral verdict and its
        # obstruction kind, a function of the zero mask. A verdict depends
        # on the size, so the dict does too
        by_word: dict[int, tuple[Union[bool, Undecided], str]] = {}
        draws = candidate_draws(seed, size).fibers(col_at, leaves_needed, q, count_per_size)
        for leaves, total in draws:
            examined += 1
            word = class_word(total, size)
            known = by_word.get(word)
            if known is None:
                key = kernel.key(total, size)
                zmask = kernel.expand(key)
                known = by_word[word] = (
                    _spectral_verdict(memo, tables, key, zmask, size, budget)[0],
                    _classify_obstruction(lt, zmask),
                )
            verdict, kind = known
            if verdict is not False:
                cand = tuple(sorted(_leaf_elements(lt, leaves)))
                if verdict is UNDECIDED:
                    undecided.append({"size": size, "set": _coords(G, cand)})
                else:
                    wit = find_spectrum(Multiset.of_indices(G, cand), budget)
                    spectral_hits.append(
                        {
                            "size": size,
                            "set": _coords(G, cand),
                            "spectrum": [list(x) for x in wit.lam.support]
                            if isinstance(wit, SpectrumWitness)
                            else None,
                        }
                    )

            obstructions[kind] += 1
            if _aligned_along_some_direction(lt, leaves):
                aligned_leaf_hits += 1
            # a candidate with no clean p-direction or no clean q-direction
            # determines every direction of that square factor; spectral sets
            # in this size range always keep both gaps, so the tally splits
            # the sample by which refutation route applies
            if _direction_gap_ok(lt, leaves):
                gap_holds += 1

    return ProbeReport(
        group=G.moduli,
        sizes=sizes,
        seed=seed,
        count_per_size=count_per_size,
        budget=budget,
        examined=examined,
        refuted=examined - len(spectral_hits) - len(undecided),
        spectral_hits=spectral_hits,
        undecided=undecided,
        obstructions=obstructions,
        aligned_leaf_hits=aligned_leaf_hits,
        direction_gap={"holds": gap_holds, "fails": examined - gap_holds},
        elapsed=time.perf_counter() - start,
    )


def _leaf_elements(lt: LeafTables, leaves: list[int]) -> Iterator[int]:
    """The element indices of the set whose leaf masks are leaves."""
    for row, K in zip(lt.elem, leaves):
        while K:
            low = K & -K
            yield row[low.bit_length() - 1]
            K ^= low


def _classify_obstruction(lt: LeafTables, zmask: int) -> str:
    """Which structural necessary condition for spectrality fails, from the
    zero mask zmask alone: "vanishing-pattern" when the sum does not vanish
    at some mixed (u, v) nor at both (u, 0) and (0, v), else "leaf-overflow".

    The leaf-size part (leaf sizes of at most q, with a leaf constancy) is
    not tested: SeededDraws.fibers draws exactly q points in each drawn
    leaf and none elsewhere, so every probe candidate passes it.
    """
    for gu, row in zip(lt.p_embed[1:], lt.elem[1:]):
        u_vanishes = zmask >> gu & 1
        for gv, g in zip(lt.q_embed[1:], row[1:]):
            if not zmask >> g & 1 and not (u_vanishes and zmask >> gv & 1):
                return "vanishing-pattern"
    return "leaf-overflow"


def _aligned_along_some_direction(lt: LeafTables, leaves: list[int]) -> bool:
    """Aligned leaves (aligned_leaves) along some p-direction.

    Along a direction, each of its p lines holds at most one distinct
    nonempty mask, so more than p distinct nonempty masks rule out every
    direction at once.
    """
    distinct = set(leaves)
    distinct.discard(0)
    return len(distinct) <= lt.p and any(aligned_leaves(lines, leaves) for lines in lt.p_lines)


def _direction_gap_ok(lt: LeafTables, leaves: list[int]) -> bool:
    """Some pure p-direction and some pure q-direction are both missed by S-S.

    leaves are the set's leaf masks. A pure p-difference (a - a', 0) joins
    the leaves at a and a' at a q-part they share, so a p-direction is hit
    at the first pair of its lines (LeafTables.p_pairs) whose masks
    intersect; the check ends as soon as every p-direction is hit. A pure
    q-difference (0, b - b') joins two points of one leaf; the q side ends
    as soon as every q-direction is hit.
    """
    for pairs in lt.p_pairs:
        for a, a2 in pairs:
            if leaves[a] & leaves[a2]:
                break
        else:
            break  # no pair hits this p-direction
    else:
        return False
    q_dir = lt.q_dir
    q_hit = set()
    for K in leaves:
        bits = []
        while K:
            low = K & -K
            bits.append(low.bit_length() - 1)
            K ^= low
        for b in bits:
            q_hit.update(map(q_dir[b].__getitem__, bits))
        q_hit.discard(-1)
        if len(q_hit) == lt.q_dir_count:
            return False
    return True
