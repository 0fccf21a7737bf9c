"""The per-set API on one Multiset: its error contract, and one zero mask per set."""

import json

import pytest

from spectile import (
    EmptyInput,
    InvalidArgument,
    Multiset,
    NotADivisor,
    char_sum,
    find_complement,
    find_spectrum,
    find_tiling_complement,
    spectral_to_complement,
    tile_to_spectrum,
    tiles_by_subgroup,
    zero_set,
)
from spectile.cli import EXIT_OK, main
from spectile.cyclotomic import CharTable

# the subgroup {0, 1} x {0} x {0} x Z_3 of Z_2^2 x Z_3^2: a size-6 subgroup tile
TILE = [(a, 0, 0, c) for a in range(2) for c in range(3)]


def _raises(kind, call, *args):
    with pytest.raises(kind) as info:
        call(*args)
    assert info.type is kind, info.type


def test_per_set_error_contract(z36):
    empty = Multiset.set_of(z36, [])
    doubled = Multiset(z36, {(0, 0, 0, 0): 2, (1, 0, 0, 0): 1})
    for search in (find_spectrum, find_complement, find_tiling_complement):
        _raises(EmptyInput, search, empty)
    _raises(NotADivisor, tiles_by_subgroup, empty)
    for search in (find_spectrum, find_complement, find_tiling_complement, tiles_by_subgroup):
        _raises(InvalidArgument, search, doubled)
    # zero_set answers both: the multiset through its exact character sums
    assert len(zero_set(z36, empty)) == 35
    assert set(zero_set(z36, doubled)) == {
        g for g in z36.elements[1:] if char_sum(z36, doubled, g).is_zero
    }


@pytest.fixture
def zero_mask_calls(monkeypatch):
    """The index tuples CharTable.zero_mask is called on, in call order."""
    calls = []
    inner = CharTable.zero_mask

    def counted(self, cand):
        calls.append(tuple(cand))
        return inner(self, cand)

    monkeypatch.setattr(CharTable, "zero_mask", counted)
    return calls


def test_analyze_computes_one_zero_mask(tmp_path, capsys, zero_mask_calls):
    f = tmp_path / "tile.json"
    f.write_text(json.dumps({"group": [2, 2, 3, 3], "set": [list(x) for x in TILE]}))
    assert main(["analyze", "--set", str(f)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["spectral"] is True and out["tile"] is True
    assert out["complement_method"] == "subgroup"
    assert len(zero_mask_calls) == 1


def test_per_set_flow_computes_one_zero_mask_per_multiset(z36, shape36, zero_mask_calls):
    S = Multiset.set_of(z36, TILE)
    assert find_spectrum(S)
    H = tiles_by_subgroup(S)
    constructed = tile_to_spectrum(shape36, S, H.as_set())
    spectral_to_complement(shape36, S, constructed.witness.lam)
    assert len(zero_mask_calls) == 1
    # the mask lives on the Multiset: an equal one computes its own
    twin = Multiset.set_of(z36, TILE)
    assert twin == S and twin is not S
    assert find_spectrum(twin)
    assert len(zero_mask_calls) == 2
