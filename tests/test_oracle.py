"""The exact character sums and verifiers against an independent oracle.

The oracle pairs every element with every g by a plain coordinate sum,
counts the exponents of each character sum, and reduces the count vectors
modulo Phi_M by the remainders of x^t by sympy's cyclotomic polynomial. It
shares no code with spectile's character sums and evaluates every g (not
one per direction class). It works in Python ints, so it stays exact at any
mass, multiplicities of 2^32 and more included. The tiling oracle counts the
coordinate sums s + t by plain modular arithmetic.
"""

import copy
import itertools
import pickle
import random
from functools import lru_cache

import pytest
import sympy

from spectile import (
    Multiset,
    char_sum,
    find_spectrum,
    find_tiling_complement,
    is_spectral_pair,
    is_tiling_pair,
    make_group,
    pq_shape,
    subgroups_of_order,
    tile_to_spectrum,
    zero_set,
)
from spectile import cyclotomic, spectra, tiling
from spectile.cyclotomic import CharTable
from spectile.errors import DEFAULT_BUDGET
from spectile.groups import coset_id_table, index_tables
from spectile.spectra import spectrum_search

GROUPS = [(2, 2, 3, 3), (3, 3, 5, 5), (25,), (3, 3, 3, 3, 3)]
BIG = 1 << 32


@lru_cache(maxsize=None)
def _phi(M):
    x = sympy.Symbol("x")
    return sympy.Poly(sympy.cyclotomic_poly(M, x), x)


@lru_cache(maxsize=None)
def _reduction(M):
    """Entry t: the phi(M) coefficients of x^t mod Phi_M, ascending."""
    phi_M = _phi(M)
    cols = []
    for t in range(M):
        rem = sympy.Poly.from_list([1] + [0] * t, phi_M.gen).rem(phi_M).all_coeffs()[::-1]
        cols.append([int(c) for c in rem] + [0] * (phi_M.degree() - len(rem)))
    return cols


def _oracle_sums(G, A):
    """Entry g (an element index): the reduced coefficients of the character
    sum of A at element g."""
    M = G.exponent
    weights = [M // n for n in G.moduli]
    R = _reduction(M)
    out = []
    for g in G.elements:
        wg = [w * gi for w, gi in zip(weights, g)]
        counts = [0] * M
        for x, m in A.mult.items():
            counts[sum(a * b for a, b in zip(x, wg)) % M] += m  # <x, g>
        out.append([sum(c * col[i] for c, col in zip(counts, R)) for i in range(len(R[0]))])
    return out


def _oracle_zero_set(G, sums):
    return {G.elements[g] for g in range(1, G.order) if not any(sums[g])}


def _oracle_spectral_pair(G, S, zs, L):
    if S.mass != L.mass or not L.is_set:
        return False
    return all(
        tuple((a - b) % n for a, b, n in zip(x, y, G.moduli)) in zs
        for x in L.mult
        for y in L.mult
        if x != y
    )


def _add(G, x, y):
    return tuple((a + b) % n for a, b, n in zip(x, y, G.moduli))


def _span(G, gens):
    """The subgroup generated by gens, sorted."""
    out = {G.identity}
    todo = [G.identity]
    while todo:
        x = todo.pop()
        for y in (_add(G, x, g) for g in gens):
            if y not in out:
                out.add(y)
                todo.append(y)
    return sorted(out)


def _random_subgroups(G, rng):
    """Three proper subgroups, each generated by one or two random elements."""
    out = []
    while len(out) < 3:
        H = _span(G, rng.sample(G.elements[1:], rng.randint(1, 2)))
        if len(H) < G.order:
            out.append(H)
    return out


def _transversal(G, H, rng):
    """A random transversal of the subgroup H: 0 and one element of every
    other coset."""
    coset_of = {}
    for i in rng.sample(range(1, G.order), G.order - 1):
        coset = frozenset(_add(G, G.elements[i], h) for h in H)
        if G.identity not in coset:
            coset_of.setdefault(coset, G.elements[i])
    return Multiset.set_of(G, [G.identity, *coset_of.values()])


def _perp(G, H):
    """H^perp: the g with <h, g> = 0 for every h of H, by a plain coordinate sum."""
    M = G.exponent
    weights = [M // n for n in G.moduli]
    return [
        g
        for g in G.elements
        if all(sum(w * a * b for w, a, b in zip(weights, h, g)) % M == 0 for h in H)
    ]


def _oracle_tiling_pair(G, S, T):
    """S + T covers every element exactly once: the coordinate sums s + t,
    counted with multiplicity S(s) T(t), hit each element of G once."""
    counts = {}
    for s, a in S.mult.items():
        for t, b in T.mult.items():
            x = _add(G, s, t)
            counts[x] = counts.get(x, 0) + a * b
    return len(counts) == G.order and set(counts.values()) == {1}


def _pickled(A):
    return pickle.loads(pickle.dumps(A))


def _coset_sums(G, rng):
    """Multisets with large zero sets: weighted sums of subgroup cosets,
    weights from 1 up to past 2^32."""
    out = []
    for weights in ([BIG], [BIG + 1, 3], [2, BIG * 5, 7], [1, 1]):
        counts = {}
        for w, H in zip(weights, _random_subgroups(G, rng)):
            t = rng.choice(G.elements)
            for h in H:
                x = _add(G, h, t)
                counts[x] = counts.get(x, 0) + w
        out.append(Multiset(G, counts))
    # one point more breaks most of the vanishing
    out.append(Multiset(G, {**out[0].mult, G.elements[-1]: out[0](G.elements[-1]) + BIG}))
    return out


@pytest.mark.parametrize("moduli", GROUPS, ids=lambda m: ",".join(map(str, m)))
def test_char_sums_and_zero_sets_match_the_oracle(moduli):
    G = make_group(moduli)
    rng = random.Random(sum(moduli))
    sets = [Multiset.of_indices(G, rng.sample(range(G.order), k)) for k in (1, 3, G.order // 3)]
    seen_zero = seen_nonzero = 0
    for A in _coset_sums(G, rng) + sets:
        sums = _oracle_sums(G, A)
        zs = _oracle_zero_set(G, sums)
        assert zero_set(G, A).elements == zs
        for g in range(G.order):
            exact = char_sum(G, A, G.elements[g])
            assert exact.coeffs == tuple(sums[g])
            assert exact.is_zero == (not any(sums[g]))
        seen_zero += bool(zs)
        seen_nonzero += len(zs) < G.order - 1
    assert seen_zero >= 4 and seen_nonzero >= 4


@pytest.mark.parametrize("moduli", GROUPS, ids=lambda m: ",".join(map(str, m)))
def test_is_spectral_pair_matches_the_oracle(moduli):
    G = make_group(moduli)
    rng = random.Random(sum(moduli))
    n = G.order
    subgroups = _random_subgroups(G, rng)
    transversals = [_transversal(G, H, rng) for H in subgroups]
    basis = [tuple(int(i == j) for i in range(len(moduli))) for j in range(len(moduli))]
    cands = [Multiset.set_of(G, H) for H in subgroups] + transversals
    cands.append(Multiset.set_of(G, [G.identity] + basis))
    verified = swaps_rejected = 0
    for S in cands:
        wit = find_spectrum(S)
        if not wit:
            continue
        verified += 1
        zs = _oracle_zero_set(G, _oracle_sums(G, S))
        lam = wit.lam
        assert _oracle_spectral_pair(G, S, zs, lam)
        assert is_spectral_pair(S, lam)
        # the verified spectrum with one element swapped for an outsider
        outside = [i for i in range(n) if G.elements[i] not in lam.mult]
        for _ in range(6):
            drop = rng.choice(lam.support[1:])
            add = G.elements[rng.choice(outside)]
            swapped = Multiset.set_of(G, [x for x in lam.support if x != drop] + [add])
            expected = _oracle_spectral_pair(G, S, zs, swapped)
            assert is_spectral_pair(S, swapped) == expected
            swaps_rejected += not expected
        # a multiset of the same mass is never a spectrum, nor a shorter set
        assert not is_spectral_pair(S, Multiset(G, {G.identity: S.mass}))
        assert not is_spectral_pair(S, Multiset.set_of(G, lam.support[1:]))
    assert verified >= 2 and swaps_rejected >= 4
    # S itself a multiset: multiplicity 2 on half the points of a set of size 2k
    L = cands[0]
    k = L.mass // 2
    S2 = Multiset(G, {x: 2 for x in L.support[:k]})
    zs = _oracle_zero_set(G, _oracle_sums(G, S2))
    for cand in (L, Multiset.of_indices(G, rng.sample(range(n), S2.mass))):
        assert is_spectral_pair(S2, cand) == _oracle_spectral_pair(G, S2, zs, cand)


@pytest.mark.parametrize("moduli", GROUPS, ids=lambda m: ",".join(map(str, m)))
def test_is_tiling_pair_matches_the_oracle(moduli):
    G = make_group(moduli)
    rng = random.Random(sum(moduli) + 1)
    pairs, kinds = [], []
    for H in _random_subgroups(G, rng):
        S, T = _transversal(G, H, rng), Multiset.set_of(G, H)
        outside_T = [x for x in G.elements if x not in T.mult]
        outside_S = [x for x in G.elements if x not in S.mult]
        # a transversal with its subgroup
        pairs.append((S, T))
        kinds.append("tile")
        # one element of T swapped for an outsider: |S| |T| = |G| still
        for _ in range(3):
            drop, add = rng.choice(T.support[1:]), rng.choice(outside_T)
            pairs.append((S, Multiset.set_of(G, [x for x in T.support if x != drop] + [add])))
            kinds.append("swapped")
        # masses whose product is not |G|, and a multiset whose mass is |T|:
        # 0 twice, T's last element dropped
        pairs.append((S, Multiset.set_of(G, T.support[:-1])))
        pairs.append((Multiset.set_of(G, [*S.support, rng.choice(outside_S)]), T))
        pairs.append((S, Multiset(G, {**dict.fromkeys(T.support[:-1], 1), G.identity: 2})))
        kinds += ["mass"] * 3
    verdicts = {}
    for (S, T), kind in zip(pairs, kinds):
        for A, B in ((S, T), (T, S)):
            expected = _oracle_tiling_pair(G, A, B)
            assert is_tiling_pair(A, B) == expected, (A, B)
            verdicts.setdefault(kind, set()).add(expected)
    assert verdicts["tile"] == {True} and verdicts["mass"] == {False}
    assert False in verdicts["swapped"]


@pytest.mark.parametrize("moduli", GROUPS, ids=lambda m: ",".join(map(str, m)))
def test_checks_read_no_zero_mask_and_cache_per_object(moduli, monkeypatch):
    """Both checks decide fresh multisets as the oracles do with every
    CharTable access, set_zero, set_zero_mask and the zero-mask slot made to raise;
    the per-object cache of is_spectral_pair never answers for another set,
    and copies and pickles compare and hash equal."""
    G = make_group(moduli)
    rng = random.Random(sum(moduli) + 2)

    def refused(*_args, **_kwargs):
        raise AssertionError("a check read the zero mask or its character table")

    monkeypatch.setattr(CharTable, "__getattribute__", refused)
    monkeypatch.setattr(cyclotomic, "char_table", refused)
    for module, name in (
        (cyclotomic, "set_zero"),
        (cyclotomic, "set_zero_mask"),
        (spectra, "set_zero"),
        (tiling, "set_zero_mask"),
    ):
        monkeypatch.setattr(module, name, refused)
    # the slot may be cleared (every constructor does) but not read
    monkeypatch.setattr(
        Multiset, "_zero", property(refused, lambda _self, value: value is None or refused())
    )

    def fresh(A):
        return Multiset(G, dict(A.mult))

    other_served, filled = [], {}
    for H in _random_subgroups(G, rng):
        S, lam = _transversal(G, H, rng), Multiset.set_of(G, _perp(G, H))
        zs = _oracle_zero_set(G, _oracle_sums(G, S))
        assert _oracle_spectral_pair(G, S, zs, lam)
        # lam with one element swapped, until the oracle refuses it
        outside = [x for x in G.elements if x not in lam.mult]
        for _ in range(50):
            drop, add = rng.choice(lam.support[1:]), rng.choice(outside)
            bad = Multiset.set_of(G, [x for x in lam.support if x != drop] + [add])
            if not _oracle_spectral_pair(G, S, zs, bad):
                break
        else:
            pytest.fail("no swapped non-spectrum found")
        # another set of the same size, which lam may or may not serve
        other = Multiset.of_indices(G, [0, *rng.sample(range(1, G.order), S.mass - 1)])
        other_zs = _oracle_zero_set(G, _oracle_sums(G, other))
        expected = {
            (S, lam): True,
            (S, bad): False,
            (other, lam): _oracle_spectral_pair(G, other, other_zs, lam),
        }
        other_served.append(expected[other, lam])
        # one S against a non-spectrum, then a spectrum, and the reverse; one
        # L against two sets, in both orders; each order on fresh objects
        for order in (
            [(S, bad), (S, lam)],
            [(S, lam), (S, bad)],
            [(S, lam), (other, lam)],
            [(other, lam), (S, lam)],
        ):
            copies = {A: fresh(A) for pair in order for A in pair}
            for A, L in order:
                assert is_spectral_pair(copies[A], copies[L]) == expected[A, L], (A, L)
                assert is_spectral_pair(copies[A], copies[L]) == expected[A, L], (A, L)
            filled.update(copies)
        T, H_set = fresh(S), Multiset.set_of(G, H)
        assert is_tiling_pair(T, H_set) and is_tiling_pair(H_set, T)
        assert is_tiling_pair(T, lam) == _oracle_tiling_pair(G, S, lam)
    monkeypatch.undo()
    assert False in other_served

    # copies and pickles of objects whose caches are filled: equal, with
    # empty caches, and giving the same answers
    assert filled[S]._classes[0] and filled[lam]._classes[1]
    twins = {}
    for A in (S, lam, bad, other):
        assert filled[A]._classes is not None
        twins[A] = [f(filled[A]) for f in (copy.copy, copy.deepcopy, _pickled)]
        for twin in twins[A]:
            assert twin == A and hash(twin) == hash(A) and twin._classes is None
    for (A, L), verdict in expected.items():
        for twin_A, twin_L in zip(twins[A], twins[L]):
            assert is_spectral_pair(twin_A, twin_L) == verdict


def _first_annihilator(G, S):
    """H^perp, by the coordinate pairing (_perp), of the first subgroup H of
    order |G| / |S| (subgroups_of_order) that S meets once in every coset,
    counted by coset ids; None when there is none."""
    for H in subgroups_of_order(G, G.order // S.mass):
        ids = coset_id_table(H)
        if len({ids[i] for i in S.indices}) == S.mass:
            return _perp(G, H.as_set().support)
    return None


def _assert_spectrum_rule(G, S, shape=None):
    """find_spectrum(S) gives the annihilator of S's first subgroup
    complement, else the set spectrum_search finds on the oracle's zero
    mask of S; every witness passes is_spectral_pair and the oracle's check,
    and for a tile it is the very object tile_to_spectrum returns. Returns
    which rule applied: "annihilator", "search" or "none"."""
    got = find_spectrum(S)
    perp = _first_annihilator(G, S)
    zs = _oracle_zero_set(G, _oracle_sums(G, S))
    if perp is not None:
        assert sorted(got.lam.support) == perp, S
        rule = "annihilator"
    else:
        zmask = sum(1 << G.index_of(g) for g in zs)
        own = spectrum_search(index_tables(G), zmask, S.mass, DEFAULT_BUDGET)[0]
        if own is None:
            assert got is None, S
            return "none"
        assert got.lam.indices == tuple(sorted(own)), S
        rule = "search"
    assert is_spectral_pair(S, got.lam) and _oracle_spectral_pair(G, S, zs, got.lam)
    if shape is not None:
        T = find_tiling_complement(S)
        if T is not None:
            assert tile_to_spectrum(shape, S, T.t).witness.lam is got.lam, S
    return rule


@pytest.mark.parametrize(
    "moduli, rules",
    [
        # Z_12 has spectral sets that are no subgroup's transversal, such
        # as {0, 6}: the one subgroup of order 6 holds 6
        ((12,), {"annihilator", "search", "none"}),
        ((2, 6), {"annihilator", "none"}),
        ((2, 2, 3), {"annihilator", "none"}),
    ],
    ids=["12", "2,6", "2,2,3"],
)
def test_find_spectrum_is_the_first_annihilator_else_the_search(moduli, rules, monkeypatch):
    # every 0-containing set whose size divides |G|, on a fresh memo
    monkeypatch.setattr(spectra, "_memo", lru_cache(maxsize=None)(lambda G, k, budget: {}))
    G = make_group(moduli)
    seen = set()
    for k in (k for k in range(1, G.order + 1) if G.order % k == 0):
        for rest in itertools.combinations(range(1, G.order), k - 1):
            seen.add(_assert_spectrum_rule(G, Multiset.of_indices(G, (0,) + rest)))
    assert seen == rules


def test_find_spectrum_rule_on_seeded_sets_of_the_papers_family(monkeypatch):
    # seeded sets and seeded transversals of random subgroups of
    # Z_2^2 x Z_3^2 at every size dividing 36, on a fresh memo; a tile's
    # spectrum is tile_to_spectrum's own object
    monkeypatch.setattr(spectra, "_memo", lru_cache(maxsize=None)(lambda G, k, budget: {}))
    G = make_group([2, 2, 3, 3])
    shape = pq_shape(G)
    rng = random.Random(45)
    seen = set()
    for k in (1, 2, 3, 4, 6, 9, 12, 18, 36):
        for _ in range(12):
            S = Multiset.of_indices(G, [0, *rng.sample(range(1, G.order), k - 1)])
            seen.add(_assert_spectrum_rule(G, S, shape))
    for _ in range(10):
        for H in _random_subgroups(G, rng):
            seen.add(_assert_spectrum_rule(G, _transversal(G, H, rng), shape))
    assert seen == {"annihilator", "none"}


def _count_and_reduce(G, A, g):
    """The count polynomial of A's character sum at g, sum_x A(x) x^{<x, g>}
    with <x, g> from the coordinates, reduced by cyclotomic._reduce: the
    count-and-reduce formula, a second path to char_sum_coeffs's
    coefficients."""
    M = G.exponent
    counts = [0] * M
    for x, m in A.mult.items():
        counts[sum(M // n * a * b for a, b, n in zip(x, g, G.moduli)) % M] += m
    return cyclotomic._reduce(M, counts)


def _sets_and_multisets(G, rng):
    """Random sets of a few sizes, the empty multiset, and random multisets
    with small and with 2^32-sized multiplicities."""
    for k in (1, 2, rng.randint(3, G.order - 1), G.order):
        yield Multiset.of_indices(G, sorted(rng.sample(range(G.order), k)))
    yield Multiset(G, {})
    for top in (3, BIG):
        support = rng.sample(G.elements, rng.randint(1, min(G.order, 12)))
        yield Multiset(G, {x: rng.randint(1, top) for x in support})


@pytest.mark.parametrize(
    "moduli", [(2, 2, 3, 3), (3, 3, 5, 5), (3, 3, 3, 3, 3), (105,)], ids=lambda m: ",".join(map(str, m))
)
def test_char_sum_coeffs_are_the_reduced_count_polynomial(moduli):
    # coefficient for coefficient at every g; Phi_105 has a coefficient -2,
    # so there the reduced powers the columns are read from reach +-2
    G = make_group(moduli)
    if moduli == (105,):
        assert max(abs(c) for row in cyclotomic._reduced_powers(105) for c in row) == 2
    rng = random.Random(sum(moduli) + 5)
    for A in _sets_and_multisets(G, rng):
        got = list(cyclotomic.char_sum_coeffs(G, A, G.elements))
        assert got == [_count_and_reduce(G, A, g) for g in G.elements], A


def test_z105_sums_reduce_modulo_the_minimal_polynomial_of_zeta():
    # the minimal polynomial of zeta_105 = exp(2 pi i / 105), as sympy finds
    # it, divides the count polynomial less the reduced sum, which has degree
    # below its 48; {0, 35, 70} is a coset of the subgroup of order 3, so its
    # sum vanishes at g = 1 and the minimal polynomial divides its count polynomial
    G = make_group((105,))
    x = sympy.Symbol("x")
    minpoly = sympy.minimal_polynomial(sympy.exp(2 * sympy.pi * sympy.I / 105), x, polys=True)
    assert minpoly.degree() == 48
    rng = random.Random(105)
    coset = Multiset.of_indices(G, [0, 35, 70])
    sets = [coset, Multiset.of_indices(G, [0, 1, 2]), Multiset(G, {(3,): 2, (40,): 5, (77,): 1})]
    for A in sets:
        for g in [(1,), *rng.sample(G.elements, 3)]:
            (coeffs,) = cyclotomic.char_sum_coeffs(G, A, [g])
            assert len(coeffs) == 48
            counts = sympy.Poly(sum(m * x ** (a * g[0] % 105) for (a,), m in A.mult.items()), x)
            reduced = sympy.Poly(sum(c * x**j for j, c in enumerate(coeffs)), x)
            assert (counts - reduced).rem(minpoly).is_zero, (A, g)
            assert (not any(coeffs)) == counts.rem(minpoly).is_zero, (A, g)
    (coeffs,) = cyclotomic.char_sum_coeffs(G, coset, [(1,)])
    assert not any(coeffs)


@pytest.mark.parametrize("M", [6, 15, 25, 3])
def test_from_polynomial_is_sympys_remainder(M):
    # degrees past M too: the reduction does not assume a count polynomial
    rng = random.Random(M)
    phi_M = _phi(M)
    for _ in range(20):
        coeffs = [rng.randint(-BIG, BIG) for _ in range(rng.randint(0, 3 * M))]
        rem = sympy.Poly.from_list(coeffs[::-1] or [0], phi_M.gen).rem(phi_M).all_coeffs()
        expected = [int(c) for c in rem[::-1]]
        expected += [0] * (phi_M.degree() - len(expected))
        assert cyclotomic._reduce(M, list(coeffs)) == expected
