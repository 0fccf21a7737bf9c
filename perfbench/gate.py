"""Correctness gate: re-checks every output of a run with the benchmark's own code.

Witnesses are verified by coordinate arithmetic and exact cyclotomic
arithmetic written here, never by the package's own is_*_pair, so a defect
in the package cannot vouch for itself. Each check returns a Verdict: the
number of failed items (undecided entries, mismatches, violations,
exceptions and failed checks) and the verdict tallies of the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

# exact tallies of the exhaustive sweep of 0-containing subsets of
# Z_2^2 x Z_3^2: size -> (examined, spectral = tiles)
EXHAUSTIVE_TALLIES = {2: (35, 27), 3: (595, 448), 4: (6545, 729), 6: (324632, 74520)}


@dataclass
class Verdict:
    failed: int = 0
    tallies: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(message)


# ---------------------------------------------------------------------------
# exact arithmetic


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (low degree first), den monic."""
    rem = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(rem) - dd, 1)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                rem[i - dd + j] -= c * dj
    return quot, rem[:dd]


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n, from x^n - 1 = prod over d | n of Phi_d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, list(cyclotomic(d)))
            assert not any(rem)
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


@lru_cache(maxsize=None)
def root_sum_vanishes(counts: tuple[int, ...]) -> bool:
    """Exactly: sum_j counts[j] * zeta_M^j == 0, with M = len(counts)."""
    _, rem = _poly_divmod(list(counts), list(cyclotomic(len(counts))))
    return not any(rem)


def exponent(moduli: tuple[int, ...]) -> int:
    return reduce(math.lcm, moduli, 1)


def _in_group(moduli: tuple[int, ...], x) -> bool:
    return len(x) == len(moduli) and all(0 <= c < n for c, n in zip(x, moduli))


def is_tiling_pair(moduli: tuple[int, ...], S, T) -> bool:
    """|S| |T| = |G| and every s + t is distinct."""
    S, T = [tuple(x) for x in S], [tuple(x) for x in T]
    if len(set(S)) != len(S) or len(set(T)) != len(T):
        return False
    if not all(_in_group(moduli, x) for x in S + T):
        return False
    if len(S) * len(T) != math.prod(moduli):
        return False
    sums = {tuple((a + b) % n for a, b, n in zip(s, t, moduli)) for s in S for t in T}
    return len(sums) == len(S) * len(T)


def is_spectral_pair(moduli: tuple[int, ...], S, L) -> bool:
    """|S| = |L| and the character sum of S vanishes at every a - b, a != b in L."""
    S, L = [tuple(x) for x in S], [tuple(x) for x in L]
    if len(set(S)) != len(S) or len(set(L)) != len(L) or len(S) != len(L):
        return False
    if not all(_in_group(moduli, x) for x in S + L):
        return False
    M = exponent(moduli)
    weighted = [[(M // n) * c for c, n in zip(s, moduli)] for s in S]
    checked = set()
    for i, a in enumerate(L):
        for b in L[:i]:
            d = tuple((x - y) % n for x, y, n in zip(a, b, moduli))
            if d in checked:
                continue
            # the sum at -d is the conjugate of the sum at d
            checked.add(d)
            checked.add(tuple(-x % n for x, n in zip(d, moduli)))
            counts = [0] * M
            for w in weighted:
                counts[sum(wi * di for wi, di in zip(w, d)) % M] += 1
            if not root_sum_vanishes(tuple(counts)):
                return False
    return True


# ---------------------------------------------------------------------------
# report gates


def _parse(rc: int, text: str, v: Verdict):
    if rc != 0:
        v.fail(f"exit code {rc}")
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        v.fail("stdout is not one JSON document")
        return None


def _verify_common(doc: dict, v: Verdict) -> tuple[dict, dict]:
    fug = doc["fuglede"]["per_size"]
    sub = doc["subgroup_tiling"]["per_size"]
    for k, t in fug.items():
        bad = len(t["mismatches"]) + len(t["undecided"])
        if bad:
            v.fail(f"size {k}: {len(t['mismatches'])} mismatches, {len(t['undecided'])} undecided", bad)
        if not t["spectral"] == t["tiles"] == t["both_yes"]:
            v.fail(f"size {k}: spectral/tiles/both_yes disagree")
        if t["both_yes"] + t["both_no"] != t["examined"]:
            v.fail(f"size {k}: both_yes + both_no != examined")
        s = sub.get(k)
        if s is None:
            v.fail(f"size {k}: missing from subgroup_tiling")
            continue
        bad = len(s["violations"]) + len(s["undecided"])
        if bad:
            v.fail(f"size {k}: {len(s['violations'])} violations, {len(s['undecided'])} undecided", bad)
        if s["examined"] != t["examined"] or s["tiles"] != t["tiles"]:
            v.fail(f"size {k}: subgroup pass disagrees with the sweep")
    return fug, sub


def _sweep_tallies(fug: dict, sub: dict) -> dict:
    return {
        k: {
            "examined": t["examined"],
            "spectral": t["spectral"],
            "tiles": t["tiles"],
            "both_yes": t["both_yes"],
            "both_no": t["both_no"],
            "mismatches": len(t["mismatches"]),
            "undecided": len(t["undecided"]),
            "subgroup_tiles": sub.get(k, {}).get("tiles"),
            "violations": len(sub.get(k, {}).get("violations", ())),
        }
        for k, t in fug.items()
    }


def check_exhaustive(rc: int, text: str) -> Verdict:
    """The exhaustive sweep must reproduce EXHAUSTIVE_TALLIES exactly."""
    v = Verdict()
    doc = _parse(rc, text, v)
    if doc is None:
        return v
    try:
        fug, sub = _verify_common(doc, v)
    except (KeyError, TypeError) as exc:
        v.fail(f"malformed report: {exc!r}")
        return v
    v.tallies = _sweep_tallies(fug, sub)
    if sorted(fug) != sorted(str(k) for k in EXHAUSTIVE_TALLIES):
        v.fail(f"sizes {sorted(fug)} != {sorted(EXHAUSTIVE_TALLIES)}")
    for k, (examined, tiles) in EXHAUSTIVE_TALLIES.items():
        t = fug.get(str(k))
        if t is not None and (t["examined"], t["spectral"], t["tiles"]) != (examined, tiles, tiles):
            v.fail(
                f"size {k}: examined/spectral/tiles {t['examined']}/{t['spectral']}/{t['tiles']}"
                f" != {examined}/{tiles}/{tiles}"
            )
    return v


def check_sampled(rc: int, text: str, sizes: tuple[int, ...], samples: int) -> Verdict:
    """Every size examined `samples` times, spectral = tiles = both_yes, nothing undecided."""
    v = Verdict()
    doc = _parse(rc, text, v)
    if doc is None:
        return v
    try:
        fug, sub = _verify_common(doc, v)
    except (KeyError, TypeError) as exc:
        v.fail(f"malformed report: {exc!r}")
        return v
    v.tallies = _sweep_tallies(fug, sub)
    if sorted(fug) != sorted(str(k) for k in sizes):
        v.fail(f"sizes {sorted(fug)} != {sorted(sizes)}")
    for k, t in fug.items():
        if t["examined"] != samples:
            v.fail(f"size {k}: examined {t['examined']} != {samples}")
    return v


def check_probe(rc: int, text: str, samples: int) -> Verdict:
    """Every probed candidate is examined and refuted."""
    v = Verdict()
    doc = _parse(rc, text, v)
    if doc is None:
        return v
    try:
        v.tallies = {
            "examined": doc["examined"],
            "refuted": doc["refuted"],
            "obstructions": doc["obstructions"],
            "aligned_leaf_hits": doc["aligned_leaf_hits"],
            "direction_gap": doc["direction_gap"],
        }
        bad = len(doc["spectral_hits"]) + len(doc["undecided"])
        if bad:
            v.fail(f"{len(doc['spectral_hits'])} spectral hits, {len(doc['undecided'])} undecided", bad)
        if doc["examined"] != samples:
            v.fail(f"examined {doc['examined']} != {samples}")
        if doc["refuted"] != doc["examined"]:
            v.fail(f"refuted {doc['refuted']} != examined {doc['examined']}")
    except (KeyError, TypeError) as exc:
        v.fail(f"malformed report: {exc!r}")
    return v


UNDECIDED = "undecided"


def check_per_set(moduli: tuple[int, ...], elems, known_tile: bool, out: dict) -> Verdict:
    """One set's pipeline: decided verdicts that agree, and every witness verified.

    `out` holds "spectrum" and "complement" (a witness, None, or UNDECIDED)
    and, for a tile, "constructed_spectrum" and "constructed_complement".
    """
    v = Verdict()
    spectrum, complement = out["spectrum"], out["complement"]
    if spectrum == UNDECIDED or complement == UNDECIDED:
        v.fail(f"{sorted(elems)}: undecided")
        return v
    spectral, tile = spectrum is not None, complement is not None
    v.tallies = {"spectral": spectral, "tile": tile}
    if spectral != tile:
        v.fail(f"{sorted(elems)}: spectral {spectral} but tile {tile}")
    if known_tile and not tile:
        v.fail(f"{sorted(elems)}: a subgroup transversal was not found to tile")
    if spectral and not is_spectral_pair(moduli, elems, spectrum):
        v.fail(f"{sorted(elems)}: spectrum {spectrum} does not verify")
    if tile:
        if not is_tiling_pair(moduli, elems, complement):
            v.fail(f"{sorted(elems)}: complement {complement} does not verify")
        lam = out.get("constructed_spectrum")
        if lam is None or not is_spectral_pair(moduli, elems, lam):
            v.fail(f"{sorted(elems)}: constructed spectrum {lam} does not verify")
        t = out.get("constructed_complement")
        if t is None or not is_tiling_pair(moduli, elems, t):
            v.fail(f"{sorted(elems)}: constructed complement {t} does not verify")
    return v
