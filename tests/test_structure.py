import random

import pytest

from spectile import (
    CaseKind,
    InvalidArgument,
    InvalidDirection,
    Multiset,
    NotPQShape,
    TooSmall,
    TrichotomyWitnessKind,
    WrongShape,
    assumption_a_holds,
    classify_case,
    direction_trichotomy,
    divisibility_class,
    is_tiling_pair,
    leaf_constancy,
    leaf_decomposition,
    make_group,
    pq_shape,
    prop1_validate,
    sylow_projection,
)
from spectile import groups


def test_pq_shape(z36):
    shape = pq_shape(z36)
    assert (shape.p, shape.q) == (2, 3)
    assert shape.p_positions == (0, 1) and shape.q_positions == (2, 3)
    # positions follow the moduli, not a fixed layout
    mixed = pq_shape(make_group([3, 2, 3, 2]))
    assert mixed.p_positions == (1, 3) and mixed.q_positions == (0, 2)
    assert mixed.split((1, 1, 2, 0)) == ((1, 0), (1, 2))
    assert mixed.join((1, 0), (1, 2)) == (1, 1, 2, 0)


def test_pq_shape_rejects(z6):
    with pytest.raises(NotPQShape):
        pq_shape(z6)
    with pytest.raises(NotPQShape):
        pq_shape(make_group([2, 2, 2, 3]))
    with pytest.raises(NotPQShape):
        pq_shape(make_group([4, 4, 3, 3]))
    with pytest.raises(NotPQShape):
        pq_shape(make_group([6, 6, 6, 6]))


def test_divisibility_class(z36):
    assert divisibility_class(z36, Multiset.set_of(z36, [(0, 0, 0, 0)])) == 1
    four = Multiset.set_of(z36, [(a, b, 0, 0) for a in range(2) for b in range(2)])
    assert divisibility_class(z36, four) == 4
    six = Multiset.set_of(z36, [z36.coords_of(i) for i in range(6)])
    assert divisibility_class(z36, six) == 6


def test_classify_case(shape36, z36):
    def set_of_size(k):
        return Multiset.set_of(z36, [z36.coords_of(i) for i in range(k)])

    assert classify_case(shape36, set_of_size(1)).kind == CaseKind.TRIVIAL
    tag = classify_case(shape36, set_of_size(12))
    assert tag.kind == CaseKind.SQUARE_TIMES_PRIME
    assert tag.square_prime == 2 and tag.linear_prime == 3
    tag18 = classify_case(shape36, set_of_size(18))
    assert tag18.square_prime == 3 and tag18.linear_prime == 2
    assert classify_case(shape36, set_of_size(6)).kind == CaseKind.COPRIME_PRODUCT
    assert classify_case(shape36, set_of_size(2)).kind == CaseKind.PRIME
    assert classify_case(shape36, set_of_size(4)).kind == CaseKind.PRIME_SQUARE
    assert classify_case(shape36, set_of_size(35)).kind == CaseKind.TRIVIAL
    with pytest.raises(InvalidArgument):
        classify_case(shape36, Multiset.set_of(z36, z36.elements))


def test_leaf_decomposition_examples(shape36, z36):
    sub = Multiset.set_of(z36, [(0, 0, b1, b2) for b1 in range(3) for b2 in range(3)])
    ld = leaf_decomposition(shape36, sub)
    assert ld.leaves[(0, 0)] == frozenset((b1, b2) for b1 in range(3) for b2 in range(3))
    assert all(not K for a, K in ld.leaves.items() if a != (0, 0))

    sheet = Multiset.set_of(z36, [(a1, a2, 1, 2) for a1 in range(2) for a2 in range(2)])
    ld = leaf_decomposition(shape36, sheet)
    assert all(K == frozenset({(1, 2)}) for K in ld.leaves.values())

    S = Multiset.set_of(
        z36,
        [(0, 0, b1, b2) for b1 in range(3) for b2 in range(3)] + [(1, 0, 0, 0)],
    )
    ld = leaf_decomposition(shape36, S)
    assert len(ld.leaves[(0, 0)]) == 9
    assert ld.leaves[(1, 0)] == frozenset({(0, 0)})
    assert ld.mass() == 10
    assert ld.reassemble() == S


def test_leaf_reassembly_random(shape36, z36):
    rng = random.Random(40)
    for _ in range(200):
        pts = rng.sample(range(36), rng.randint(1, 20))
        S = Multiset.set_of(z36, [z36.coords_of(i) for i in pts])
        ld = leaf_decomposition(shape36, S)
        assert ld.mass() == S.mass
        assert ld.reassemble() == S


def test_leaf_constancy(shape36, z36):
    # every fiber of size q: constant part q, remainder empty
    S = Multiset.set_of(
        z36, [shape36.join(a, (b, b)) for a in shape36.p_group.elements for b in range(3)]
    )
    lc = leaf_constancy(shape36, S)
    assert lc is not None and lc.c == 3 and lc.d.mass == 0

    # fibers of sizes 3,0,0,3: c = 0 and D marks two points
    S2 = Multiset.set_of(
        z36,
        [shape36.join((0, 0), (b, 0)) for b in range(3)]
        + [shape36.join((1, 1), (0, b)) for b in range(3)],
    )
    lc2 = leaf_constancy(shape36, S2)
    assert lc2 is not None and lc2.c == 0
    assert dict(lc2.d.items()) == {(0, 0): 1, (1, 1): 1}
    sp = sylow_projection(z36, S2, 2)
    recon = {a: lc2.c + 3 * lc2.d(a) for a in shape36.p_group.elements}
    assert all(recon[a] == sp(a) for a in shape36.p_group.elements)

    # fibers 1,2,0,0: not constant mod 3
    S3 = Multiset.set_of(
        z36,
        [shape36.join((0, 0), (0, 0))]
        + [shape36.join((0, 1), (b, 0)) for b in range(2)],
    )
    assert leaf_constancy(shape36, S3) is None


def test_assumption_a(shape36, z36):
    one_leaf = Multiset.set_of(z36, [(0, 0, b1, b2) for b1 in range(3) for b2 in range(2)])
    for u in [(1, 0), (0, 1), (1, 1)]:
        assert assumption_a_holds(shape36, one_leaf, u)

    # constant leaves along every direction
    sheet = Multiset.set_of(
        z36, [shape36.join(a, b) for a in shape36.p_group.elements for b in [(0, 0), (1, 2)]]
    )
    for u in [(1, 0), (0, 1), (1, 1)]:
        assert assumption_a_holds(shape36, sheet, u)

    # two different nonempty leaves on the same u-line
    S = Multiset.set_of(z36, [shape36.join((0, 0), (0, 0)), shape36.join((1, 0), (0, 1))])
    assert not assumption_a_holds(shape36, S, (1, 0))
    assert assumption_a_holds(shape36, S, (0, 1))

    with pytest.raises(InvalidDirection):
        assumption_a_holds(shape36, S, (0, 0))
    with pytest.raises(InvalidDirection):
        assumption_a_holds(shape36, S, (5, 0))


def test_prop1_validate_shapes():
    with pytest.raises(WrongShape):
        prop1_validate(Multiset(make_group([2, 3]), {}))
    with pytest.raises(WrongShape):
        prop1_validate(Multiset(make_group([3, 3, 3]), {}))
    with pytest.raises(WrongShape):
        prop1_validate(Multiset(make_group([2, 3, 5]), {}))


def test_prop1_validate_cases():
    G = make_group([2, 3, 3])
    const = Multiset(G, {x: 2 for x in G.elements})
    assert prop1_validate(const) == (True, True)

    # fibers differing by a constant: hypothesis and conclusion both hold
    rng = random.Random(3)
    base = {z: rng.randint(0, 2) for z in [(b1, b2) for b1 in range(3) for b2 in range(3)]}
    mult = {}
    for z, m in base.items():
        if m:
            mult[(0, z[0], z[1])] = m
        mult[(1, z[0], z[1])] = m + 1
    T = Multiset(G, mult)
    hyp, concl = prop1_validate(T)
    assert hyp and concl

    # non-constant fiber difference: hypothesis must fail
    T2 = Multiset(G, {(0, 0, 0): 1, (1, 1, 0): 1})
    hyp2, concl2 = prop1_validate(T2)
    assert not hyp2 and not concl2


def test_prop1_positions_follow_moduli():
    # the single-prime coordinate need not come first
    G = make_group([3, 2, 3])
    const = Multiset(G, {x: 1 for x in G.elements})
    assert prop1_validate(const) == (True, True)


def test_direction_trichotomy_tile(shape36, z36):
    sub = Multiset.set_of(
        z36, [shape36.join((a, 0), (b, 0)) for a in range(2) for b in range(3)]
    )
    out = direction_trichotomy(shape36, sub)
    assert out.tile is not None and out.witnesses is None
    assert is_tiling_pair(sub, out.tile.t)
    # the coset of 0 is <(a, b)>, cyclic of order pq
    t = out.tile.t
    assert any(t == Multiset.set_of(z36, groups.cyclic_subgroup(z36, g)) for g in t.support)

    small = Multiset.set_of(z36, [z36.coords_of(i) for i in range(4)])
    with pytest.raises(TooSmall):
        direction_trichotomy(shape36, small)


def test_direction_trichotomy_witnesses(shape36, z36):
    # 12 points filling one q-square plus a p-line: not a tile of size pq
    S = Multiset.set_of(
        z36,
        [(0, 0, b1, b2) for b1 in range(3) for b2 in range(3)]
        + [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)],
    )
    out = direction_trichotomy(shape36, S)
    assert out.tile is None
    assert set(out.witnesses) == {
        (a, b)
        for a in shape36.p_group.elements
        if a != (0, 0)
        for b in shape36.q_group.elements
        if b != (0, 0)
    }
    for (a, b), (kind, direction) in out.witnesses.items():
        assert kind in (
            TrichotomyWitnessKind.P_ONLY,
            TrichotomyWitnessKind.Q_ONLY,
            TrichotomyWitnessKind.MIXED,
        )
        assert direction.order > 1


def test_direction_trichotomy_builds_no_subgroup_lattice(shape36, z36, monkeypatch):
    # (a, b) has order pq, so its subgroup of index pq is <(a, b)>: neither
    # a tile nor a non-tile needs the whole subgroup lattice
    def unreachable(G):
        raise AssertionError("subgroup lattice built")

    monkeypatch.setattr(groups, "_all_subgroups", unreachable)
    tile = Multiset.set_of(z36, [shape36.join((a, 0), (b, 0)) for a in range(2) for b in range(3)])
    out = direction_trichotomy(shape36, tile)
    assert out.witnesses is None and is_tiling_pair(tile, out.tile.t)
    # a q-square and one more point: 10 points, not a tile
    square = [(0, 0, b1, b2) for b1 in range(3) for b2 in range(3)]
    out = direction_trichotomy(shape36, Multiset.set_of(z36, square + [(1, 0, 0, 0)]))
    assert out.tile is None and len(out.witnesses) == 3 * 8


def test_vanishing_in_every_p_direction_forces_leaf_constancy(shape36, z36):
    # if for every nonzero u in the p-square there is some x_u in the
    # q-square with the character sum of S vanishing at u + x_u, then the
    # Sylow p-projection is constant plus q times a multiset
    from spectile import char_sum, tiles_by_subgroup

    pg, qg = shape36.p_group, shape36.q_group
    nonzero_u = [u for u in pg.elements if u != pg.identity]

    def hypothesis(S):
        for u in nonzero_u:
            gu = shape36.join(u, (0, 0))
            if not any(
                char_sum(z36, S, z36.add(gu, shape36.join((0, 0), x))).is_zero
                for x in qg.elements
            ):
                return False
        return True

    from spectile import subgroups_of_order

    small_subgroups = list(subgroups_of_order(z36, 2)) + list(subgroups_of_order(z36, 3))
    rng = random.Random(61)
    hits = 0
    for trial in range(300):
        mode = trial % 3
        if mode == 0:
            # union of full q-square cosets: every mixed character dies
            D = rng.sample(list(pg.elements), rng.randint(1, 4))
            S = Multiset.set_of(
                z36, [shape36.join(a, b) for a in D for b in qg.elements]
            )
        elif mode == 1:
            # transversal of a small subgroup: vanishing on a large annihilator
            H = rng.choice(small_subgroups)
            reps = {}
            for x in z36.elements:
                key = min(z36.add(x, h) for h in H.elements)
                reps.setdefault(key, []).append(x)
            S = Multiset.set_of(z36, [rng.choice(v) for v in reps.values()])
        else:
            pts = rng.sample(range(36), rng.randint(2, 18))
            S = Multiset.set_of(z36, [z36.coords_of(i) for i in pts])
        if hypothesis(S):
            hits += 1
            assert leaf_constancy(shape36, S) is not None, sorted(S.mult)
    assert hits > 50


def test_direction_trichotomy_random_never_stuck(shape36, z36):
    rng = random.Random(55)
    for _ in range(300):
        k = rng.randint(6, 20)
        pts = rng.sample(range(36), k)
        A = Multiset.set_of(z36, [z36.coords_of(i) for i in pts])
        out = direction_trichotomy(shape36, A)
        assert (out.tile is None) != (out.witnesses is None)
        if out.witnesses is not None:
            assert len(out.witnesses) == 24
