import cmath
import itertools
import math
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectile import (
    CyclotomicInt,
    InvalidArgument,
    Multiset,
    NotTwoDistinctPrimes,
    char_sum,
    cube_decompose,
    cyclotomic_poly,
    dot,
    euler_phi,
    make_group,
    zero_set,
)
from spectile.cyclotomic import char_table
from spectile import groups
from spectile.groups import (
    automorphism_index_perms,
    coset_id_table,
    index_tables,
    subgroups_of_order,
)


# --- cyclotomic polynomials ---------------------------------------------------


def test_cyclotomic_examples():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    with pytest.raises(InvalidArgument):
        cyclotomic_poly(0)


def test_cyclotomic_poly_matches_sympy():
    x = sympy.symbols("x")
    for n in range(1, 61):
        coeffs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert cyclotomic_poly(n) == tuple(int(c) for c in reversed(coeffs)), n


def test_cyclotomic_product_small():
    for n in range(1, 40):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                out = [0] * (len(prod) + euler_phi(d))
                for i, a in enumerate(prod):
                    for j, b in enumerate(cyclotomic_poly(d)):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_cyclotomic_degree_is_phi():
    for n in range(1, 60):
        assert len(cyclotomic_poly(n)) - 1 == euler_phi(n)


# --- character sums -----------------------------------------------------------


def test_char_sum_examples(z6):
    empty = Multiset(z6, {})
    assert char_sum(z6, empty, (1, 1)).is_zero
    A = Multiset.set_of(z6, [(0, 0), (1, 0)])
    assert char_sum(z6, A, (0, 0)) == CyclotomicInt.from_int(6, 2)
    assert char_sum(z6, A, (1, 1)).is_zero
    assert not char_sum(z6, A, (0, 1)).is_zero
    coset = Multiset.set_of(z6, [(0, 0), (0, 1), (0, 2)])
    assert char_sum(z6, coset, (1, 1)).is_zero


def test_zero_set_examples(z6):
    single = Multiset.set_of(z6, [(1, 2)])
    assert len(zero_set(z6, single)) == 0
    assert len(zero_set(z6, Multiset(z6, {}))) == 5  # every sum of nothing is 0
    full = Multiset.set_of(z6, z6.elements)
    assert len(zero_set(z6, full)) == 5
    A = Multiset.set_of(z6, [(0, 0), (1, 0)])
    assert zero_set(z6, A).elements == frozenset({(1, 0), (1, 1), (1, 2)})


def _numeric_char_sum(G, A, g):
    z = 2j * cmath.pi / G.exponent
    return sum(m * cmath.exp(z * dot(G, x, g)) for x, m in A.items())


@pytest.mark.parametrize("moduli", [[2, 3], [4], [6, 6], [10, 10], [2, 2, 3, 3]])
def test_exact_matches_float(moduli):
    G = make_group(moduli)
    rng = random.Random(17)
    for _ in range(40):
        size = rng.randint(1, min(20, G.order))
        pts = rng.sample(range(G.order), size)
        mult = {G.coords_of(i): rng.randint(1, 3) for i in pts}
        A = Multiset(G, mult)
        g = G.coords_of(rng.randrange(G.order))
        exact = char_sum(G, A, g)
        approx = _numeric_char_sum(G, A, g)
        assert abs(exact.evaluate() - approx) < 1e-6
        assert (abs(approx) < 1e-6) == exact.is_zero


@pytest.mark.parametrize("moduli", [[2, 3], [4], [6, 6], [2, 2, 3, 3]])
def test_zero_set_matches_float(moduli):
    # sets take the zero-mask path, multisets one char_sum per direction class
    G = make_group(moduli)
    rng = random.Random(29)
    for _ in range(30):
        pts = rng.sample(range(G.order), rng.randint(1, min(20, G.order)))
        for mult in (
            {G.coords_of(i): 1 for i in pts},
            {G.coords_of(i): rng.randint(1, 3) for i in pts},
        ):
            A = Multiset(G, mult)
            expected = {
                g for g in G.elements
                if g != G.identity and abs(_numeric_char_sum(G, A, g)) < 1e-6
            }
            assert zero_set(G, A).elements == expected


def test_class_wise_zero_mask_matches_exact_char_sums():
    # one packed evaluation per direction class sets the bits of the whole
    # class; the oracle is the polynomial remainder at every g
    G = make_group([3, 3, 5, 5])
    table = char_table(G)
    assert len(index_tables(G).direction_classes) == 34
    rng = random.Random(41)
    sets = [rng.sample(range(G.order), k) for k in (1, 2, 5, 15, 30, 45, 100, 224)]
    for m in (3, 5, 9, 15, 25, 45, 75):
        for ids in map(coset_id_table, subgroups_of_order(G, m)[:2]):
            coset = [i for i in range(G.order) if ids[i] == 0]
            other = [i for i in range(G.order) if ids[i] == 1]
            sets += [coset, coset + other]
    seen_zero = 0
    for idx in sets:
        A = Multiset.set_of(G, [G.coords_of(i) for i in idx])
        mask = table.zero_mask(tuple(sorted(idx)))
        for g in range(1, G.order):
            assert bool(mask >> g & 1) == char_sum(G, A, G.coords_of(g)).is_zero
        assert not mask & 1
        seen_zero += mask != 0
    assert seen_zero > len(sets) // 2


# the reduced powers of Z_105 = Z_3 x Z_5 x Z_7 have coefficients of absolute
# value 2, the others 1; (bias, limb width) of each zero-mask kernel
KERNEL_GROUPS = {(2, 2, 3, 3): (1, 8), (3, 3, 5, 5): (1, 10), (105,): (2, 10)}


@pytest.mark.parametrize("moduli", list(KERNEL_GROUPS), ids=lambda m: ",".join(map(str, m)))
def test_zero_mask_limbs_keep_a_guard_bit_at_mass_G(moduli):
    G = make_group(moduli)
    table = char_table(G)
    bias, w = table.limb_layout()
    assert (bias, w) == KERNEL_GROUPS[moduli]
    assert table.max_abs == bias
    # the worst limb of a set of mass |G|: every coefficient at +max_abs
    assert G.order * (bias + table.max_abs) < 1 << (w - 1)
    cols, unit, low, *_ = table._kernel
    limbs = table.phi * len(index_tables(G).direction_classes)
    high = sum(1 << (w * j + w - 1) for j in range(limbs))
    assert sum(cols) & high == 0
    assert unit & high == 0 and low & high == 0 and low + (high >> (w - 1)) == high


@pytest.mark.parametrize("moduli", list(KERNEL_GROUPS), ids=lambda m: ",".join(map(str, m)))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
@example(data=None)  # the whole group: mass |G|
def test_zero_mask_matches_exact_char_sums_up_to_mass_G(moduli, data):
    G = make_group(moduli)
    if data is None:
        idx = list(range(G.order))
    else:
        order = data.draw(st.permutations(range(G.order)))
        idx = order[: data.draw(st.integers(0, G.order))]
    A = Multiset.set_of(G, [G.coords_of(i) for i in idx])
    mask = char_table(G).zero_mask(tuple(idx))
    assert not mask & 1
    for g in range(1, G.order):
        assert bool(mask >> g & 1) == char_sum(G, A, G.coords_of(g)).is_zero


# phi(24) = 8 takes three folds; Z_2^2 x Z_3^2 is the acceptance group
@pytest.mark.parametrize(
    "moduli", [(24,), (5, 5), (2, 6), (2, 2, 3, 3)], ids=lambda m: ",".join(map(str, m))
)
def test_packed_batch_keys_are_the_class_words_of_their_candidates(moduli):
    # every candidate of sizes 2 to 5, a stem and one combination of its
    # batch, in combinations order; its key is the L-byte form of the class
    # word of its own kernel sum, and L is the least byte count that holds
    # every limb
    G = make_group(moduli)
    table = char_table(G)
    n, L, cols = G.order, table.key_bytes, table.cols
    limb_bits = len(index_tables(G).direction_classes) * table.phi * table.limb_layout()[1]
    assert 8 * (L - 1) < limb_bits <= 8 * L
    for k in range(2, 6):
        depth = table.batch_depth(k)
        assert depth == min(2, k - 1)
        stems = itertools.combinations(range(1, n - depth), k - 1 - depth)
        cands = []
        for stem, keys in table.stem_batches(k, stems):
            tails = itertools.combinations(range(stem[-1] + 1 if stem else 1, n), depth)
            for tail, key in zip(tails, keys, strict=True):
                cand = (0,) + stem + tail
                cands.append(cand)
                word = table.class_word(sum(map(cols.__getitem__, cand)), k)
                assert key == word.to_bytes(L, "little"), cand
        assert cands == [(0,) + rest for rest in itertools.combinations(range(1, n), k - 1)]
    assert len(char_table(make_group((24,)))._kernel[3]) == 3


@pytest.mark.parametrize(
    "moduli", [(2, 2, 3, 3), (24,), (3, 3, 5, 5)], ids=lambda m: ",".join(map(str, m))
)
def test_packed_decode_gives_the_class_word_of_every_slot(moduli):
    # one decode of two random sets of every size m from 1 to |G|, with 0
    # or without it, each slot holding (|G| - m) * unit (sum_base(m) less
    # the column of 0) plus the sum of the set's m columns; on Z_24 every
    # class folds phi = 8 limbs
    G = make_group(moduli)
    table = char_table(G)
    n, L, cols = G.order, table.key_bytes, table.cols
    rng = random.Random(5)
    sets = [rng.sample(range(n), m) for m in range(1, n + 1) for _ in range(2)]
    sums = [table.sum_base(len(s)) - cols[0] + sum(map(cols.__getitem__, s)) for s in sets]
    packed = sum(total << 8 * L * j for j, total in enumerate(sums))
    assert table.decode(packed, len(sets)) == tuple(
        table.class_word(sum(map(cols.__getitem__, s)), len(s)).to_bytes(L, "little") for s in sets
    )
    assert {0 in s for s in sets} == {True, False}


@pytest.mark.parametrize("moduli, sizes", [((2, 2, 3), None), ((2, 2, 3, 3), (2, 3, 4))], ids=str)
def test_orbit_yields_the_keys_of_the_automorphic_images_of_a_set(moduli, sizes, monkeypatch):
    # one 0-containing set S per key realised at each size: the key and its
    # orbit (a breadth-first walk under the class generators) are exactly
    # the keys of the images of S under every element automorphism (the
    # closure of the generators), and the orbit repeats no key and never
    # yields the key itself
    G = make_group(moduli)
    table = char_table(G)
    perms = automorphism_index_perms(G)

    def key(s):
        return table.key(sum(map(table.cols.__getitem__, s)), len(s))

    realised = []
    for k in sizes or range(1, G.order + 1):
        by_key = {}
        for rest in itertools.combinations(range(1, G.order), k - 1):
            by_key.setdefault(key((0,) + rest), (0,) + rest)
        for word, S in by_key.items():
            orbit = list(table.orbit(word))
            assert len(set(orbit)) == len(orbit) and word not in orbit, S
            assert {word, *orbit} == {key([a[s] for s in S]) for a in perms}, S
        realised += by_key
    assert max(len(list(table.orbit(word))) for word in realised) > 1
    # the generators are read at each call: with none, every orbit is empty
    monkeypatch.setattr(groups.IndexTables, "class_generators", property(lambda self: ()))
    assert not any(list(table.orbit(word)) for word in realised)


@pytest.mark.parametrize(
    "moduli", [(2, 2, 3, 3), (3, 3, 5, 5), (16,), (3, 3, 3, 3, 3)], ids=lambda m: ",".join(map(str, m))
)
def test_kernel_columns_are_distinct_and_col_index_inverts_them(moduli):
    # characters separate points, so no two elements share a column; the
    # sweep maps a part of columns back to element indices by col_index
    table = char_table(make_group(moduli))
    cols = table.cols
    assert len(set(cols)) == len(cols)
    assert [table.col_index[col] for col in cols] == list(range(len(cols)))
    assert len(table.col_index) == len(cols)


def test_galois_and_negation_closure(z36):
    rng = random.Random(23)
    coprime = [k for k in range(1, 36) if math.gcd(k, 36) == 1]
    for _ in range(50):
        pts = rng.sample(range(36), rng.randint(2, 14))
        A = Multiset.set_of(z36, [z36.coords_of(i) for i in pts])
        zs = zero_set(z36, A)
        for g in zs.elements:
            assert z36.neg(g) in zs.elements
            for k in coprime:
                assert z36.scale(k, g) in zs.elements


# --- cube rule ------------------------------------------------------------------


def test_cube_decompose_examples(z6):
    coset = Multiset.set_of(z6, [(0, 0), (1, 0)])
    d = cube_decompose(coset)
    assert d.row_coeffs == (1, 0, 0) and d.col_coeffs == (0, 0)
    ones = Multiset(z6, {x: 1 for x in z6.elements})
    d = cube_decompose(ones)
    assert d.row_coeffs == (0, 0, 0) and d.col_coeffs == (1, 1)
    assert min(d.row_coeffs) == 0
    bad = Multiset.set_of(z6, [(0, 0), (0, 1), (0, 2), (1, 0)])
    assert cube_decompose(bad) is None


def test_cube_decompose_requires_two_distinct_primes():
    with pytest.raises(NotTwoDistinctPrimes):
        cube_decompose(Multiset(make_group([2, 2]), {}))
    with pytest.raises(NotTwoDistinctPrimes):
        cube_decompose(Multiset(make_group([4, 3]), {}))
    with pytest.raises(NotTwoDistinctPrimes):
        cube_decompose(Multiset(make_group([2, 3, 5]), {}))


def test_cube_rule_equivalence_exhaustive(z6):
    # multiplicities <= 1 here; the acceptance suite raises the bound to 2
    order6 = [(1, 1), (1, 2)]
    for bits in itertools.product((0, 1), repeat=6):
        mult = {x: b for x, b in zip(z6.elements, bits) if b}
        A = Multiset(z6, mult)
        d = cube_decompose(A)
        vanish = [char_sum(z6, A, g).is_zero for g in order6]
        assert all(v == vanish[0] for v in vanish)  # direction closure
        assert (d is not None) == vanish[0]
        if d is not None:
            assert d.reconstruct(z6) == A
