"""The four workloads: inputs from a seed, the timed call, and its check.

Each workload drives the package only through its public entry points
(spectile.cli.main and the functions exported by the spectile package). A
workload's input stream is a deterministic function of the seed; a
time-boxed run consumes a prefix of it.

    set_up(sp)        the throwaway minimal call that builds the per-group
                      tables; it touches none of the timed inputs
    inputs(seed)      the stream of timed inputs ("chunks")
    run(state, spec)  the timed call on one chunk
    items(spec)       candidates or sets the chunk decides
    check(spec, out)  a gate.Verdict, computed outside the call's timing
    summarize(tallies)  what the results file keeps of the verdict tallies
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from typing import Iterator

import gate

Z36 = (2, 2, 3, 3)
Z225 = (3, 3, 5, 5)


def _cli(sp, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sp.cli.main(argv)
    return rc, buf.getvalue()


def _group_arg(moduli: tuple[int, ...]) -> str:
    return ",".join(map(str, moduli))


def _sub_seeds(name: str, seed: int) -> Iterator[int]:
    rng = random.Random(f"{name}:{seed}")
    while True:
        yield rng.randrange(2**31)


def _warm_z36(sp) -> None:
    """A size-1 verify: builds the Z_2^2 x Z_3^2 tables, leaves the memo empty."""
    _cli(sp, ["verify", "--group", _group_arg(Z36), "--sizes", "1", "--exhaustive"])


class _CliWorkload:
    """A workload whose chunk is one `spectile` command, stdout captured."""

    def set_up(self, sp):
        _warm_z36(sp)
        return sp

    def run(self, sp, argv: list[str]) -> tuple[int, str]:
        return _cli(sp, argv)

    def summarize(self, tallies: list) -> object:
        return tallies


class SweepExhaustive(_CliWorkload):
    """Every 0-containing subset of sizes 2, 3, 4, 6 of Z_2^2 x Z_3^2, as one CLI call."""

    name = "sweep_exhaustive"
    sizes = (2, 3, 4, 6)

    def inputs(self, seed: int) -> Iterator[list[str]]:
        # one input only: the whole sweep, whatever the seed
        yield [
            "verify", "--group", _group_arg(Z36),
            "--sizes", ",".join(map(str, self.sizes)), "--exhaustive", "--workers", "1",
        ]

    def items(self, argv: list[str]) -> int:
        n = math.prod(Z36)
        return sum(math.comb(n - 1, k - 1) for k in self.sizes)

    def check(self, argv: list[str], out: tuple[int, str]) -> gate.Verdict:
        return gate.check_exhaustive(*out)


class SweepSampled(_CliWorkload):
    """Seeded samples of sizes 9, 12, 18 of Z_2^2 x Z_3^2, `samples` per size per CLI call."""

    name = "sweep_sampled"
    sizes = (9, 12, 18)
    samples = 1000

    def inputs(self, seed: int) -> Iterator[list[str]]:
        for s in _sub_seeds(self.name, seed):
            yield [
                "verify", "--group", _group_arg(Z36),
                "--sizes", ",".join(map(str, self.sizes)),
                "--samples", str(self.samples), "--seed", str(s), "--workers", "1",
            ]

    def items(self, argv: list[str]) -> int:
        return self.samples * len(self.sizes)

    def check(self, argv: list[str], out: tuple[int, str]) -> gate.Verdict:
        v = gate.check_sampled(*out, self.sizes, self.samples)
        v.tallies = {"seed": int(argv[argv.index("--seed") + 1]), "per_size": v.tallies}
        return v


class Case5Probe(_CliWorkload):
    """Structured size-30 candidates on Z_3^2 x Z_5^2, `samples` per CLI call."""

    name = "case5_probe"
    size = 30
    samples = 400

    def set_up(self, sp):
        shape = sp.pq_shape(sp.make_group(Z225))
        sp.case5_nonexistence_probe(shape, (self.size,), seed=0, count_per_size=0)
        return sp

    def inputs(self, seed: int) -> Iterator[list[str]]:
        for s in _sub_seeds(self.name, seed):
            yield [
                "probe-case5", "--group", _group_arg(Z225), "--sizes", str(self.size),
                "--samples", str(self.samples), "--seed", str(s),
            ]

    def items(self, argv: list[str]) -> int:
        return self.samples

    def check(self, argv: list[str], out: tuple[int, str]) -> gate.Verdict:
        v = gate.check_probe(*out, self.samples)
        v.tallies = {"seed": int(argv[argv.index("--seed") + 1]), **v.tallies}
        return v


# ---------------------------------------------------------------------------
# single sets


def _elements(moduli: tuple[int, ...]) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(n) for n in moduli)))


def _add(moduli, x, y):
    return tuple((a + b) % n for a, b, n in zip(x, y, moduli))


def _span(moduli, gens) -> frozenset:
    zero = (0,) * len(moduli)
    out = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = _add(moduli, x, g)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return frozenset(out)


def subgroups(moduli: tuple[int, ...]) -> list[frozenset]:
    """Every subgroup generated by at most two elements, sorted canonically.

    On Z_p^2 x Z_q^2 that is every subgroup.
    """
    elems = _elements(moduli)
    found = {_span(moduli, (a, b)) for a in elems for b in elems}
    return sorted(found, key=lambda H: (len(H), sorted(H)))


class PerSet:
    """Single sets on Z_2^2 x Z_3^2 through the per-set public API.

    Even positions are random subgroup transversals (tiles, complement
    known), odd positions uniformly random 0-containing sets; sizes are
    drawn uniformly from `sizes`. Each set runs what `spectile analyze`
    decides (find_spectrum, then tiles_by_subgroup, then find_complement);
    each tile then runs tile_to_spectrum and spectral_to_complement on the
    spectrum it returns.
    """

    name = "per_set"
    sizes = (2, 3, 4, 6, 9, 12, 18)

    def __init__(self):
        self.tags: dict[str, int] = {}

    def set_up(self, sp):
        _warm_z36(sp)
        group = sp.make_group(Z36)
        return sp, group, sp.pq_shape(group)

    def inputs(self, seed: int) -> Iterator[tuple[bool, tuple]]:
        elems = _elements(Z36)
        # subgroup order -> the non-identity cosets of each subgroup of that order
        cosets_by_order: dict[int, list[list[list]]] = {}
        for H in subgroups(Z36):
            cosets: dict[frozenset, list] = {}
            for x in elems:
                cosets.setdefault(frozenset(_add(Z36, x, h) for h in H), []).append(x)
            rest = sorted((c for c in cosets.values() if elems[0] not in c), key=min)
            cosets_by_order.setdefault(len(H), []).append(rest)
        return self._stream(random.Random(f"{self.name}:{seed}"), elems, cosets_by_order)

    def _stream(self, rng, elems, cosets_by_order) -> Iterator[tuple[bool, tuple]]:
        zero, nonzero = elems[0], elems[1:]
        for i in itertools.count():
            k = rng.choice(self.sizes)
            if i % 2 == 0:
                cosets = rng.choice(cosets_by_order[len(elems) // k])
                yield True, (zero,) + tuple(rng.choice(c) for c in cosets)
            else:
                yield False, (zero,) + tuple(rng.sample(nonzero, k - 1))

    def run(self, state, spec: tuple[bool, tuple]) -> dict:
        sp, G, shape = state
        S = sp.Multiset.set_of(G, spec[1])
        w = sp.find_spectrum(S)
        out: dict = {
            "spectrum": gate.UNDECIDED if w is sp.UNDECIDED else w.lam.support if w else None,
            "complement": None,
        }
        T = None
        if G.order % S.mass == 0:
            H = sp.tiles_by_subgroup(S)
            if H is not None:
                T = H.as_set()
            else:
                c = sp.find_complement(S)
                if c is sp.UNDECIDED:
                    out["complement"] = gate.UNDECIDED
                elif c is not None:
                    T = c.t
        if T is not None:
            out["complement"] = T.support
            cs = sp.tile_to_spectrum(shape, S, T)
            cc = sp.spectral_to_complement(shape, S, cs.witness.lam)
            out["constructed_spectrum"] = cs.witness.lam.support
            out["constructed_complement"] = cc.witness.t.support
            out["tags"] = (cs.tag.value, cc.tag.value)
        return out

    def items(self, spec) -> int:
        return 1

    def check(self, spec, out: dict) -> gate.Verdict:
        known_tile, elems = spec
        v = gate.check_per_set(Z36, elems, known_tile, out)
        t = v.tallies
        # one letter per set: both yes, both no, mismatch, undecided
        v.tallies = "u" if not t else "m" if t["spectral"] != t["tile"] else "b" if t["tile"] else "n"
        for tag in out.get("tags", ()):
            self.tags[tag] = self.tags.get(tag, 0) + 1
        return v

    def summarize(self, tallies: list) -> object:
        return {"verdicts": "".join(tallies), "construction_tags": dict(sorted(self.tags.items()))}


WORKLOADS = {w.name: w for w in (SweepExhaustive, SweepSampled, PerSet, Case5Probe)}
