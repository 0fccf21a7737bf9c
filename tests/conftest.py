import os
from pathlib import Path

import pytest

import spectile
from spectile import make_group, pq_shape


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
