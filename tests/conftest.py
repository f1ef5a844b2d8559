import numpy as np
import pytest

from nonlocalopt import BoxDomain
from nonlocalopt.catalog import catalog_field, field_names


def catalog(domain):
    """Every catalog field that exists on ``domain``, by name, in catalog order."""
    return {name: catalog_field(name, domain) for name in field_names(domain.dim)}


@pytest.fixture(scope="session")
def unit_interval():
    return BoxDomain.unit(1)


@pytest.fixture(scope="session")
def unit_square():
    return BoxDomain.unit(2)


@pytest.fixture(scope="session")
def fields_1d(unit_interval):
    return catalog(unit_interval)


@pytest.fixture(scope="session")
def fields_2d(unit_square):
    return catalog(unit_square)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
