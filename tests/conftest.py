import os
from pathlib import Path

import pytest

import spectile
from spectile import UNDECIDED, annihilator, make_group, pq_shape, tiles_by_subgroup
from spectile.cyclotomic import set_zero_mask
from spectile.groups import index_tables
from spectile.spectra import spectrum_search


@pytest.fixture(scope="session")
def subprocess_env():
    """The environment of this process, with the tested spectile importable."""
    src = str(Path(spectile.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def z6():
    return make_group([2, 3])


@pytest.fixture(scope="session")
def z12():
    return make_group([2, 2, 3])


@pytest.fixture(scope="session")
def z36():
    return make_group([2, 2, 3, 3])


@pytest.fixture(scope="session")
def shape36(z36):
    return pq_shape(z36)


@pytest.fixture(scope="session")
def spectrum_rule():
    """The spectrum find_spectrum(S, budget) gives, as element indices, read
    from the per-set pieces rather than the memo: the annihilator H^perp (by
    the coordinate pairing) of the first subgroup H, in canonical order,
    that S is a transversal of (tiles_by_subgroup), else what
    spectrum_search finds on S's own zero mask at budget, as a sorted
    tuple, None or UNDECIDED."""

    def rule(S, budget):
        G = S.group
        H = None if G.order % S.mass else tiles_by_subgroup(S)
        if H is not None:
            return annihilator(G, H.as_set()).as_set().indices
        own = spectrum_search(index_tables(G), set_zero_mask(S), S.mass, budget)[0]
        return own if own is None or own is UNDECIDED else tuple(sorted(own))

    return rule
