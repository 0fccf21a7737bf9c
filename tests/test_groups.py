import copy
import itertools
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectile import (
    Direction,
    GroupMismatch,
    InvalidArgument,
    InvalidModulus,
    Multiset,
    NotADivisor,
    Overflow,
    Subgroup,
    annihilator,
    automorphism_index_perms,
    cyclic_subgroup,
    determined_directions,
    direction_rep,
    dot,
    element_order,
    find_spectrum,
    make_group,
    subgroups_of_order,
    sylow_projection,
)
from spectile import groups
from spectile.cyclotomic import CharTable
from spectile.groups import automorphism_generators, automorphism_image, index_tables
from spectile.tiling import subgroup_annihilators


def test_make_group_basic():
    assert make_group([2, 3]).order == 6
    assert make_group([2, 3]).exponent == 6
    assert make_group([2, 2, 3, 3]).order == 36
    assert make_group([2, 2, 3, 3]).exponent == 6
    assert make_group([4]).order == 4
    assert make_group([4]).exponent == 4


def test_make_group_rejects_bad_moduli():
    with pytest.raises(InvalidModulus):
        make_group([1, 3])
    with pytest.raises(InvalidModulus):
        make_group([])
    with pytest.raises(Overflow):
        make_group([2**32, 2**32])
    with pytest.raises(InvalidModulus):
        make_group([2.0, 3])  # not truncated: only integers are moduli


def test_group_refuses_non_integral_moduli():
    # the constructor admits modulus 1 but truncates nothing: 2.7 is not 2
    assert groups.Group((1, 3)).order == 3
    for moduli in ((2.7, 3), ("2", 3), (2, 3.0)):
        with pytest.raises(InvalidModulus, match="integers"):
            groups.Group(moduli)


def test_group_refuses_bool_moduli():
    # bool is an int subclass: (True, 3) would be Z_1 x Z_3
    for moduli in ((True, 3), (2, False)):
        with pytest.raises(InvalidModulus, match="bool"):
            make_group(moduli)
        with pytest.raises(InvalidModulus, match="bool"):
            groups.Group(moduli)


def test_tables_refuse_groups_over_the_order_cap(monkeypatch, z36):
    # Z_100000 would need about 2 * 10^10 index-table entries
    with pytest.raises(Overflow, match="100000"):
        groups.check_table_order(make_group([100000]))
    groups.check_table_order(make_group([3, 3, 7, 7]))
    # both table builders check before they allocate; a lowered cap shows it
    # without building a large table
    monkeypatch.setattr(groups, "MAX_TABLE_ORDER", z36.order - 1)
    for build in (groups.IndexTables, CharTable):
        with pytest.raises(Overflow):
            build(z36)


def test_index_round_trip(z36):
    for G in (z36, make_group([3, 3, 5, 5])):
        for i in range(G.order):
            assert G.index_of(G.coords_of(i)) == i
        assert list(G.elements) == sorted(G.elements)  # index order is lex order


@st.composite
def group_with_operands(draw):
    """A Group of up to four factors, factors of 1 included (the constructor
    admits them), with aligned lists of elements and an element index."""
    moduli = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=4)))
    G = groups.Group(moduli)
    element = st.tuples(*(st.integers(0, n - 1) for n in moduli))
    pairs = draw(st.lists(st.tuples(element, element), min_size=1, max_size=6))
    return G, pairs, draw(st.integers(0, G.order - 1))


@given(group_with_operands())
def test_group_arithmetic_matches_a_per_coordinate_reference(data):
    G, pairs, i = data
    moduli = G.moduli
    sums = [tuple((a + b) % n for a, b, n in zip(x, y, moduli)) for x, y in pairs]
    diffs = [tuple((a - b) % n for a, b, n in zip(x, y, moduli)) for x, y in pairs]
    assert [G.add(x, y) for x, y in pairs] == sums
    assert [G.sub(x, y) for x, y in pairs] == diffs
    xs, ys = zip(*pairs)
    assert list(G.add_each(xs, ys)) == sums
    assert list(G.add_each((), ())) == []
    for x in xs:
        assert G.neg(x) == tuple(-a % n for a, n in zip(x, moduli))
        # row-major mixed radix, leftmost coordinate most significant (Horner)
        index = 0
        for c, n in zip(x, moduli):
            index = index * n + c
        assert G.index_of(x) == index
    # coords_of(i) is the i-th element of the lexicographic product
    assert G.coords_of(i) == next(itertools.islice(itertools.product(*map(range, moduli)), i, None))
    assert G.index_of(G.coords_of(i)) == i


def test_dot_examples(z6, z36):
    for y in z6.elements:
        assert dot(z6, (0, 0), y) == 0
    assert dot(z6, (1, 1), (1, 1)) == 5
    assert dot(z36, (1, 0, 1, 0), (1, 0, 2, 0)) == 1


def test_dot_rejects_foreign_elements(z6):
    with pytest.raises(GroupMismatch):
        dot(z6, (1, 1, 1), (0, 0))
    with pytest.raises(GroupMismatch):
        dot(z6, (0, 5), (0, 0))


@st.composite
def group_and_elements(draw, count=2):
    moduli = draw(st.lists(st.sampled_from([2, 3, 4, 5]), min_size=1, max_size=3))
    G = make_group(moduli)
    elems = [
        tuple(draw(st.integers(0, n - 1)) for n in moduli) for _ in range(count)
    ]
    return G, elems


@given(group_and_elements(count=2))
def test_dot_symmetric(data):
    G, (x, y) = data
    assert dot(G, x, y) == dot(G, y, x)


@given(group_and_elements(count=3))
def test_dot_bilinear(data):
    G, (x, y, z) = data
    lhs = dot(G, G.add(x, z), y)
    rhs = (dot(G, x, y) + dot(G, z, y)) % G.exponent
    assert lhs == rhs


def test_element_order_examples(z6):
    assert element_order(z6, (0, 0)) == 1
    assert element_order(z6, (1, 0)) == 2
    assert element_order(z6, (1, 1)) == 6


def test_direction_rep_examples(z6):
    assert direction_rep(z6, (0, 0)) == Direction(rep=(0, 0), order=1)
    assert direction_rep(z6, (0, 2)) == Direction(rep=(0, 1), order=3)
    assert direction_rep(z6, (1, 2)) == Direction(rep=(1, 1), order=6)


def test_directions_partition_group(z36):
    # every nonzero element belongs to exactly one direction class, and the
    # class of v has phi(ord v) members
    by_dir = {}
    for x in z36.elements:
        if x == z36.identity:
            continue
        by_dir.setdefault(direction_rep(z36, x), []).append(x)
    total = sum(len(v) for v in by_dir.values())
    assert total == z36.order - 1
    phi = lambda n: sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    for d, members in by_dir.items():
        assert len(members) == phi(d.order)
        assert set(members) == {
            x for x in cyclic_subgroup(z36, d.rep) if element_order(z36, x) == d.order
        }


@pytest.mark.parametrize(
    "moduli, classes", [([2, 2, 3, 3], 19), ([3, 3, 5, 5], 34), ([8], 3), ([4, 6], None)]
)
def test_direction_classes_match_direction_rep(moduli, classes):
    G = make_group(moduli)
    tables = index_tables(G)
    if classes is not None:
        assert len(tables.direction_classes) == classes
    assert len(tables.direction_classes) == len({direction_rep(G, x) for x in G.elements[1:]})
    assert tables.direction_of[0] == -1
    covered = 0
    for c, (rep, gens) in enumerate(tables.direction_classes):
        assert covered & gens == 0
        covered |= gens
        for g in range(1, G.order):
            in_class = direction_rep(G, G.coords_of(g)).rep == G.coords_of(rep)
            assert in_class == bool(gens >> g & 1)
            assert in_class == (tables.direction_of[g] == c)
    assert covered == (1 << G.order) - 2


@pytest.mark.parametrize("moduli", [[8], [12], [4, 6], [2, 2, 3, 3], [3, 3, 5, 5], [30]])
def test_forced_mask_holds_the_elements_of_prime_power_order_prime_to_t(moduli):
    # by coordinates: element_order, and the prime factors of each order
    G = make_group(moduli)
    tables = index_tables(G)
    for t in (t for t in range(1, G.order + 1) if G.order % t == 0):
        expected = 0
        for g in range(1, G.order):
            d = element_order(G, G.coords_of(g))
            primes = [p for p in range(2, d + 1) if d % p == 0 and all(p % q for q in range(2, p))]
            if len(primes) == 1 and t % primes[0]:
                expected |= 1 << g
        assert tables.forced_mask(t) == expected, t


@pytest.mark.parametrize("moduli", [[8], [4, 6], [2, 2, 3, 3], [3, 3, 5, 5]])
def test_index_tables_add_and_sub_rows_match_coordinate_arithmetic(moduli):
    G = make_group(moduli)
    tables = index_tables(G)
    elements = G.elements
    assert tables.add_rows == [[G.index_of(G.add(x, y)) for y in elements] for x in elements]
    assert tables.neg == [G.index_of(G.neg(x)) for x in elements]
    # the one table of differences: x - y is read as add_rows[x][neg[y]]
    add, neg = tables.add_rows, tables.neg
    assert [[add[i][neg[j]] for j in range(G.order)] for i in range(G.order)] == [
        [G.index_of(G.sub(x, y)) for y in elements] for x in elements
    ]


def test_annihilator_examples(z6):
    whole = annihilator(z6, Multiset.set_of(z6, [(0, 0)]))
    assert whole.order == 6
    trivial = annihilator(z6, Multiset.set_of(z6, z6.elements))
    assert trivial.elements == ((0, 0),)
    line = annihilator(z6, Multiset.set_of(z6, [(1, 0)]))
    assert line.elements == ((0, 0), (0, 1), (0, 2))


def test_annihilator_order_product(z36):
    # |ann(S)| * |<support S>| = |G|
    rng = random.Random(4)
    for _ in range(25):
        pts = rng.sample(range(z36.order), rng.randint(1, 6))
        S = Multiset.set_of(z36, [z36.coords_of(i) for i in pts])
        ann = annihilator(z36, S)
        gen = {z36.identity}
        frontier = list(S.mult)
        while frontier:
            x = frontier.pop()
            for g in list(gen):
                y = z36.add(g, x)
                if y not in gen:
                    gen.add(y)
                    frontier.append(y)
        assert ann.order * len(gen) == z36.order


def test_subgroups_of_order(z6, z36):
    assert [H.elements for H in subgroups_of_order(z6, 1)] == [((0, 0),)]
    assert len(subgroups_of_order(z6, 2)) == 1
    assert len(subgroups_of_order(z36, 2)) == 3
    with pytest.raises(NotADivisor):
        subgroups_of_order(z6, 4)


def test_subgroup_counts_of_z3_to_the_fifth_are_gaussian_binomials():
    # the subgroups of order 3^j of Z_3^5 are the j-dimensional subspaces of
    # F_3^5, counted by the Gaussian binomial [5 choose j]_3
    G = make_group([3] * 5)
    assert [len(subgroups_of_order(G, 3**j)) for j in range(6)] == [1, 121, 1210, 1210, 121, 1]


def test_subgroups_of_a_group_above_the_table_order_are_refused():
    # the lattice is built on index tables, which refuse before building
    with pytest.raises(Overflow, match="2048"):
        subgroups_of_order(make_group([2] * 12), 2)


def test_subgroups_no_duplicates(z36):
    for m in (2, 3, 4, 6, 9, 12, 18, 36):
        subs = subgroups_of_order(z36, m)
        assert len({H.elements for H in subs}) == len(subs)
        for H in subs:
            assert H.order == m


def test_subgroup_lattice_count(z36):
    # product of the subgroup counts of the two square factors: (1+3+1)(1+4+1)
    total = sum(
        len(subgroups_of_order(z36, m)) for m in (1, 2, 3, 4, 6, 9, 12, 18, 36)
    )
    assert total == 30


def test_subgroup_membership(z36):
    for H in subgroups_of_order(z36, 6):
        assert [x for x in z36.elements if x in H] == list(H.elements)


def test_subgroup_validation(z6):
    with pytest.raises(InvalidArgument):
        Subgroup(z6, ((0, 0), (0, 1)))  # not closed
    with pytest.raises(InvalidArgument):
        Subgroup(z6, ((1, 0),))  # no identity


def test_sylow_projection_examples(z6):
    empty = sylow_projection(z6, Multiset(z6, {}), 2)
    assert empty.mass == 0
    A = Multiset.set_of(z6, [(0, 0), (1, 1)])
    assert dict(sylow_projection(z6, A, 2).items()) == {(0,): 1, (1,): 1}
    B = Multiset.set_of(z6, [(0, 0), (0, 1)])
    assert dict(sylow_projection(z6, B, 2).items()) == {(0,): 2}
    with pytest.raises(NotADivisor):
        sylow_projection(z6, A, 5)


def test_sylow_projection_crt_moduli():
    G = make_group([10, 10])
    A = Multiset.set_of(G, [(3, 7), (4, 5)])
    S2 = sylow_projection(G, A, 2)
    assert S2.group.moduli == (2, 2)
    assert dict(S2.items()) == {(1, 1): 1, (0, 1): 1}
    S5 = sylow_projection(G, A, 5)
    assert dict(S5.items()) == {(3, 2): 1, (4, 0): 1}


def test_projection_preserves_mass(z36):
    rng = random.Random(9)
    for _ in range(20):
        pts = rng.sample(range(36), rng.randint(1, 12))
        A = Multiset.from_elements(
            z36, [z36.coords_of(i) for i in pts for _ in range(rng.randint(1, 3))]
        )
        assert sylow_projection(z36, A, 2).mass == A.mass
        assert sylow_projection(z36, A, 3).mass == A.mass


def test_determined_directions_examples(z6):
    single = Multiset.set_of(z6, [(1, 2)])
    assert determined_directions(single) == frozenset()
    pair = Multiset.set_of(z6, [(0, 0), (0, 1)])
    assert determined_directions(pair) == frozenset({Direction((0, 1), 3)})
    full = Multiset.set_of(z6, z6.elements)
    assert determined_directions(full) == {direction_rep(z6, x) for x in z6.elements[1:]}


def test_multiset_basics(z6):
    with pytest.raises(InvalidArgument):
        Multiset(z6, {(0, 0): 0})
    with pytest.raises(GroupMismatch):
        Multiset(z6, {(9, 0): 1})
    A = Multiset.from_elements(z6, [(0, 0), (0, 0), (1, 2)])
    assert A.mass == 3 and A((0, 0)) == 2 and not A.is_set
    B = A.translate((1, 0))
    assert B((1, 0)) == 2 and B.mass == 3
    assert Multiset.set_of(z6, [(0, 0), (0, 0)]).mass == 1


def test_bool_coordinates_are_not_elements(z6):
    # bool is an int subclass: (True, 0) == (1, 0), so a bool coordinate
    # would pass the range test and name another element
    for x in [(True, 0), (0, False), (False, True)]:
        assert not z6.contains(x)
        with pytest.raises(GroupMismatch):
            z6.check(x)
        with pytest.raises(GroupMismatch):
            Multiset.set_of(z6, [(1, 1), x])
        with pytest.raises(GroupMismatch):
            Multiset(z6, {x: 1})
    assert z6.contains((1, 0)) and Multiset.set_of(z6, [(0, 0), (1, 0)]).mass == 2


def test_bools_are_refused_before_equal_keys_merge(z6):
    # True == 1 and (0, False) == (0, 0): a bool multiplicity is refused,
    # and a bool element is refused whichever order it comes in, before a
    # dict can merge it into the valid element it equals
    for mult in ({(0, 0): 1, (1, 0): True}, {(1, 0): True, (0, 0): 1}):
        with pytest.raises(InvalidArgument, match="positive int"):
            Multiset(z6, mult)
    for elems in ([(0, 0), (0, False)], [(0, False), (0, 0)]):
        with pytest.raises(GroupMismatch):
            Multiset.from_elements(z6, elems)
        with pytest.raises(GroupMismatch):
            Multiset.set_of(z6, elems)
    assert Multiset.from_elements(z6, [(0, 0), (0, 0), (1, 2)]).mult == {(0, 0): 2, (1, 2): 1}
    assert Multiset(z6, {(0, 0): 2, (1, 0): 1}).mass == 3


def test_of_indices_equals_set_of_the_coordinates(z36):
    rng = random.Random(3)
    for G in (z36, make_group([8]), groups.Group((2, 1, 3))):
        for k in (0, 1, 5, 2 * G.order):
            # draws with replacement: duplicated indices collapse, as
            # duplicated elements do in set_of
            idx = [rng.randrange(G.order) for _ in range(k)]
            A = Multiset.of_indices(G, idx)
            B = Multiset.set_of(G, map(G.coords_of, idx))
            assert A == B and hash(A) == hash(B)
            assert (A.mass, A.support, A.is_set) == (B.mass, B.support, True)


def test_of_indices_rejects_indices_out_of_range(z36):
    for bad in (-1, z36.order, 10**6):
        with pytest.raises(GroupMismatch):
            Multiset.of_indices(z36, [0, bad])


def test_is_set_is_false_above_multiplicity_one(z36):
    x, y = z36.coords_of(1), z36.coords_of(7)
    assert Multiset(z36, {x: 1, y: 1}).is_set
    assert not Multiset(z36, {x: 2}).is_set
    assert not Multiset(z36, {x: 1, y: 3}).is_set
    assert Multiset(z36, {}).is_set


def test_multiset_survives_copy_and_pickle():
    # each copy is rebuilt through the constructor, so its cached hash and
    # zero mask start empty and refill on use
    S = Multiset.set_of(make_group([2, 3]), [(0, 0), (1, 0)])
    A = Multiset(make_group([6]), {(0,): 2, (3,): 1})
    for original in (S, A):
        copies = [
            copy.copy(original),
            copy.deepcopy(original),
            pickle.loads(pickle.dumps(original)),
        ]
        for twin in copies:
            assert twin == original and hash(twin) == hash(original)
            assert twin.mass == original.mass
    for twin in (copy.copy(S), copy.deepcopy(S), pickle.loads(pickle.dumps(S))):
        assert find_spectrum(twin) == find_spectrum(S) is not None


def test_every_constructor_fills_the_sorted_element_indices(z36):
    # Multiset.indices is the one index form the per-set checks read: every
    # way a set is made fills it, copies and pickles rebuild it, and a group
    # above the table cap makes sets with plain index arithmetic, no table
    rng = random.Random(5)
    pts = [z36.coords_of(rng.randrange(z36.order)) for _ in range(9)]
    S = Multiset.set_of(z36, pts)
    made = [
        Multiset(z36, {x: rng.randint(1, 3) for x in pts}),
        Multiset(z36, {}),
        S,
        Multiset.from_elements(z36, pts + pts[:4]),
        Multiset.of_indices(z36, [30, 7, 3, 7, 0, 30, 11]),
        Multiset.of_indices(z36, []),
        S.translate((1, 0, 2, 1)),
        subgroups_of_order(z36, 6)[2].as_set(),
        sylow_projection(z36, S, 2),
        sylow_projection(z36, S, 3),
    ]
    for A in made:
        G = A.group
        assert A.indices == tuple(sorted(map(G.index_of, A.mult))), A
        for twin in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
            assert twin.indices == A.indices, A
    assert made[4].indices == (0, 3, 7, 11, 30)
    big = make_group([2] * 12)
    assert big.order == 4096 > groups.MAX_TABLE_ORDER
    cached = index_tables.cache_info().currsize
    for A in (
        Multiset.from_elements(big, [(1,) * 12, (0,) * 11 + (1,), (1,) * 12]),
        Multiset.of_indices(big, [4095, 1, 4095]),
    ):
        assert A.indices == (1, 4095), A
    assert index_tables.cache_info().currsize == cached


def test_a_group_pickles_as_its_moduli():
    # a pooled sweep pickles its plan, and so its group, into every job: the
    # cached elements are not part of the pickle and are rebuilt on use
    G = make_group([3] * 5)
    assert len(G.elements) == 243
    twin = pickle.loads(pickle.dumps(G))
    assert twin == G and hash(twin) == hash(G) and vars(twin) == {"moduli": G.moduli}
    assert twin.elements == G.elements


def _every_construction(G, elems):
    """The set, and the multiset counting repeats, of the elements elems,
    built through every constructor and from a one-shot iterator of each
    input: (sets, multisets)."""
    counts: dict = {}
    for x in elems:
        counts[x] = counts.get(x, 0) + 1
    idx = [G.index_of(x) for x in elems]
    sets = [
        Multiset.set_of(G, elems),
        Multiset.set_of(G, iter(elems)),
        Multiset.set_of(G, (list(x) for x in elems)),
        Multiset(G, dict.fromkeys(elems, 1)),
        Multiset(G, dict.fromkeys(reversed(elems), 1)),
        Multiset.of_indices(G, idx),
        Multiset.of_indices(G, iter(idx)),
        Multiset.from_elements(G, list(dict.fromkeys(elems))),
        Multiset.from_elements(G, iter(dict.fromkeys(elems))),
    ]
    multisets = [
        Multiset.from_elements(G, elems),
        Multiset.from_elements(G, iter(elems)),
        Multiset.from_elements(G, map(list, reversed(elems))),
        Multiset(G, counts),
        Multiset(G, dict(reversed(counts.items()))),
    ]
    return sets, multisets


@pytest.mark.parametrize("moduli", [(2, 2, 3, 3), (8,), (2, 1, 3), (2,) * 12], ids=str)
def test_every_constructor_builds_the_same_multiset(moduli):
    # the constructor, set_of, from_elements and of_indices, on lists and on
    # one-shot iterators, in any order: equal sets and multisets, with equal
    # hashes, mult, support, indices and is_set, through copy and pickle too;
    # Z_2^12 is above MAX_TABLE_ORDER, where inputs are checked coordinate
    # by coordinate
    G = groups.Group(moduli)
    rng = random.Random(11)
    for k in (0, 1, 4, 9):
        elems = [G.coords_of(rng.randrange(G.order)) for _ in range(k)]
        elems += elems[: k // 2]  # repeats, where a set collapses them
        counts = {x: elems.count(x) for x in elems}
        for built, mult in zip(_every_construction(G, elems), (dict.fromkeys(counts, 1), counts)):
            first = built[0]
            assert first.mult == mult and first.mass == sum(mult.values())
            assert first.indices == tuple(sorted(map(G.index_of, mult)))
            assert first.support == tuple(sorted(mult))
            assert first.is_set == (set(mult.values()) <= {1})
            for A in built:
                for twin in (A, copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
                    assert twin == first and hash(twin) == hash(first), (twin, first)
                    got = (twin.mult, twin.support, twin.indices, twin.is_set, twin.mass)
                    assert got == (first.mult, first.support, first.indices, first.is_set, first.mass)
    A, B = Multiset(G, {G.identity: 2}), Multiset(G, {G.identity: 1})
    assert A != B and A != Multiset(G, {G.identity: 3}) and B == Multiset.of_indices(G, [0])


def test_of_indices_builds_coordinates_only_when_mult_is_read(z36):
    # indices are a set's primary form: reading them, is_set, support,
    # equality or the hash builds no element -> multiplicity dict, and mult
    # builds it once, with the elements in index order
    A = Multiset.of_indices(z36, [30, 7, 3, 7, 0])
    B = Multiset.of_indices(z36, [0, 3, 7, 30])
    assert A.indices == (0, 3, 7, 30) and A.is_set and A.mass == 4
    assert A.support == tuple(map(z36.coords_of, (0, 3, 7, 30)))
    assert A == B and hash(A) == hash(B)
    assert A._mult is None and B._mult is None
    assert A.mult == dict.fromkeys(A.support, 1) and list(A.mult) == list(A.support)
    assert A._mult is A.mult
    assert B._mult is None


def test_a_group_above_the_table_cap_builds_no_element_map():
    # above MAX_TABLE_ORDER a group holds neither its elements nor its
    # element map: sets are checked coordinate by coordinate and their
    # elements computed from their indices
    big = make_group([2] * 12)
    assert big.order > groups.MAX_TABLE_ORDER
    x, y = (1,) * 12, (0,) * 11 + (1,)
    made = [
        Multiset.set_of(big, [x, y, x]),
        Multiset.from_elements(big, [x, y, x]),
        Multiset(big, {x: 2, y: 1}),
        Multiset.of_indices(big, [4095, 1]),
    ]
    for A in made:
        assert A.indices == (1, 4095) and A.support == (y, x), A
        assert set(A.mult) == {x, y}
    with pytest.raises(GroupMismatch):
        Multiset.set_of(big, [x, (2,) * 12])
    assert big._element_index is None
    assert "elements" not in vars(big)
    small = make_group([2, 2, 3, 3])
    Multiset.set_of(small, [(0, 0, 0, 0)])
    assert small._element_index == {x: i for i, x in enumerate(small.elements)}


def _reference_elements(group, elems):
    """The per-element check of set_of and from_elements, kept here as the
    reference for their fast path: tuple(x) for each x, which must be a
    tuple of plain ints, one in range(n_i) per factor, else GroupMismatch
    names it."""
    for x in elems:
        x = tuple(x)
        if not (
            len(x) == len(group.moduli)
            and all(type(c) is int and 0 <= c < n for c, n in zip(x, group.moduli))
        ):
            raise GroupMismatch(f"{x!r} is not an element of {group!r}")
        yield x


def _reference_mult(group, mult):
    """The constructor's per-entry check, as above, with each multiplicity
    checked before its element."""
    for x, m in mult.items():
        if type(m) is not int or m < 1:
            raise InvalidArgument(f"multiplicity of {x!r} must be a positive int, got {m!r}")
        if not (
            isinstance(x, tuple)
            and len(x) == len(group.moduli)
            and all(type(c) is int and 0 <= c < n for c, n in zip(x, group.moduli))
        ):
            raise GroupMismatch(f"{x!r} is not an element of {group!r}")
    return Multiset(group, mult)


def _outcome(build, *args):
    """The set build makes, or the type and message of what it raises."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared as it is
        return type(exc), str(exc)


# each fault replaces one element of a valid input
_FAULTS = {
    "bool": lambda x: (True,) + x[1:],
    "float": lambda x: (float(x[0]),) + x[1:],
    "range": lambda x: x[:-1] + (3,),
    "negative": lambda x: (-1,) + x[1:],
    "short": lambda x: x[:-1],
    "long": lambda x: x + (0,),
    "non-iterable": lambda x: 7,
    "none": lambda x: None,
}


def test_bad_inputs_raise_what_the_per_element_check_raises(z36):
    # set_of, from_elements and the constructor take a fast path through the
    # element map; every bad input must still raise what the per-element
    # loop raises, with its message, at the same element: one fault at each
    # position, and two faults of every pair of kinds at two positions
    rng = random.Random(17)
    base = [z36.coords_of(i) for i in rng.sample(range(1, z36.order), 5)]
    # (True, 1, 2, 2) == (1, 1, 2, 2): a bool element equal to a valid one,
    # before it and after it
    base[2] = (1, 1, 2, 2)
    inputs = [base + [_FAULTS["bool"](base[2])], [_FAULTS["bool"](base[2])] + base]
    for kind, fault in _FAULTS.items():
        for i in range(len(base)):
            elems = list(base)
            elems[i] = fault(base[i])
            inputs.append(elems)
    for (k1, f1), (k2, f2) in itertools.product(_FAULTS.items(), repeat=2):
        i, j = sorted(rng.sample(range(len(base)), 2))
        elems = list(base)
        elems[i], elems[j] = f1(base[i]), f2(base[j])
        inputs.append(elems)
    inputs.append([list(x) for x in base])  # lists are valid elements
    for elems in inputs:
        want = _outcome(lambda: list(_reference_elements(z36, elems)))
        if isinstance(want, list):
            want = Multiset(z36, {x: want.count(x) for x in want})
        for build in (Multiset.from_elements, Multiset.set_of):
            got = _outcome(build, z36, elems)
            if isinstance(want, Multiset) and build is Multiset.set_of:
                assert got == Multiset(z36, dict.fromkeys(want.mult, 1)), elems
            else:
                assert got == want, (build, elems)
            assert _outcome(build, z36, iter(elems)) == got, (build, elems)
        if all(x is None or isinstance(x, (int, tuple)) for x in elems):
            mult = dict.fromkeys(elems, 1)
            assert _outcome(Multiset, z36, mult) == _outcome(_reference_mult, z36, mult), elems
    # multiplicity faults, alone and before or after an element fault
    x, y, z = base[:3]
    for m in (0, -1, True, 1.0, "1", None):
        for mult in ({x: 1, y: m}, {x: m, (2, 0, 0, 0): 1}, {(2, 0, 0, 0): 1, x: m}, {z: 2, (0, True, 0, 0): m}):
            assert _outcome(Multiset, z36, mult) == _outcome(_reference_mult, z36, mult), mult
    with pytest.raises(TypeError):
        Multiset.set_of(z36, 5)


def _class_closure(gens, count):
    """Every composite of the class permutations gens, on count classes."""
    identity = tuple(range(count))
    seen, todo = {identity}, [identity]
    for perm in todo:
        for gen in gens:
            image = tuple(map(gen.__getitem__, perm))
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


@pytest.mark.parametrize(
    "moduli", [(2, 2, 3, 3), (3, 3, 5, 5), (2, 2, 2, 2, 2), (2, 6), (4, 2)], ids=str
)
def test_automorphism_generators_are_automorphisms(moduli):
    # each matrix, applied to every element, is a bijection that carries
    # the addition table (add_rows) onto itself
    G = make_group(moduli)
    add = index_tables(G).add_rows
    gens = automorphism_generators(G)
    d = len(moduli)
    assert gens and tuple(tuple(int(i == j) for j in range(d)) for i in range(d)) not in gens
    for A in gens:
        perm = [G.index_of(automorphism_image(G, A, x)) for x in G.elements]
        assert sorted(perm) == list(range(G.order)), A
        for x in range(G.order):
            assert [perm[y] for y in add[x]] == [add[perm[x]][perm[y]] for y in range(G.order)], A


def _automorphisms_by_brute_force(G):
    """Every automorphism of G as an element-index permutation, found
    without automorphism_generators: a homomorphism is fixed by the images
    y_i of the basis vectors e_i, each an element whose order divides n_i,
    and sends x to sum_i x_i y_i; the bijective ones are kept."""
    moduli = G.moduli
    images = [
        [y for y in G.elements if all(n * c % m == 0 for c, m in zip(y, moduli))]
        for n in moduli
    ]
    out = set()
    for ys in itertools.product(*images):
        perm = tuple(
            G.index_of(tuple(
                sum(xi * y[j] for xi, y in zip(x, ys)) % m for j, m in enumerate(moduli)
            ))
            for x in G.elements
        )
        if len(set(perm)) == G.order:
            out.add(perm)
    return out


@pytest.mark.parametrize(
    "moduli, count",
    [((2, 2, 3, 3), 288), ((2, 2, 3), 12), ((5, 5), 480), ((3, 3), 48), ((2, 3), 2)],
    ids=str,
)
def test_automorphism_index_perms_are_every_automorphism(moduli, count):
    # the closure of automorphism_generators is all of Aut(G), in sorted
    # order with the identity first
    G = make_group(moduli)
    perms = automorphism_index_perms(G)
    assert len(perms) == count
    assert set(perms) == _automorphisms_by_brute_force(G)
    assert list(perms) == sorted(perms) and perms[0] == tuple(range(G.order))


@pytest.mark.parametrize("moduli, count", [((2, 2, 3, 3), 144), ((2, 2, 3), 6), ((5, 5), 120)], ids=str)
def test_class_generators_generate_the_class_action_of_every_automorphism(moduli, count):
    # the closure of the generators' class permutations is the set of class
    # permutations that all automorphisms (found by brute force) induce;
    # scalars fix every class, so Z_2^2 x Z_3^2 has 288 automorphisms and 144
    # class permutations
    G = make_group(moduli)
    tables = index_tables(G)
    classes = tables.direction_classes
    induced = {
        tuple(tables.direction_of[perm[r]] for r, _ in classes)
        for perm in _automorphisms_by_brute_force(G)
    }
    assert len(induced) == count
    assert _class_closure(tables.class_generators, len(classes)) == induced


@pytest.mark.parametrize(
    "moduli", [(2, 2, 3, 3), (3, 3, 5, 5), (24,), (4, 2), (2, 2, 2, 2), (3, 3, 3)], ids=str
)
def test_perp_masks_are_the_annihilators(moduli):
    # each H^perp mask, read from the zero-mask kernel, is annihilator's
    # H^perp minus 0, and the set kept beside it is H^perp
    G = make_group(moduli)
    for m in (d for d in range(1, G.order + 1) if G.order % d == 0):
        entries = subgroup_annihilators(G, m)
        assert [H for H, _, _ in entries] == list(subgroups_of_order(G, m))
        for H, mask, perp_set in entries:
            perp = annihilator(G, H.as_set())
            assert mask == sum(1 << G.index_of(x) for x in perp) ^ 1, (m, H)
            assert perp_set == perp.as_set(), (m, H)


def test_exact_cover_option_bits_share_one_int_per_element():
    # add_bit_cols holds |G|^2 references to |G| bit ints: on Z_3^2 x Z_7^2
    # about 1.7 MB, where a fresh int per entry took 13 MB
    G = make_group([3, 3, 7, 7])
    tables = groups.IndexTables(G)
    tracemalloc.start()
    try:
        cols = tables.add_bit_cols
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(
        col == 1 << g for row, cols_s in zip(tables.add_rows, cols) for g, col in zip(row, cols_s)
    )
    assert size < 4_000_000, size


def test_class_generators_of_z3_squared_times_z5_squared_close_to_s4_times_s5():
    # GL_2(3) x GL_2(5) has 23 040 elements and its 8 scalars fix every class
    tables = index_tables(make_group([3, 3, 5, 5]))
    assert len(_class_closure(tables.class_generators, len(tables.direction_classes))) == 2880


@pytest.mark.parametrize("moduli", [(24,), (12,), (7,), (2, 3), (4, 3, 5)], ids=str)
def test_cyclic_groups_have_no_class_generators(moduli):
    # every automorphism of a cyclic group is a unit scalar, which maps each
    # element to a generator of the same cyclic subgroup
    assert index_tables(make_group(moduli)).class_generators == ()
