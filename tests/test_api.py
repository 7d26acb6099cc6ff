"""The package namespace is exactly the union of its modules' public names."""

import backhaulopt
from backhaulopt import brute_force, continuum, density, discrete_placement, power_model

MODULES = (brute_force, continuum, density, discrete_placement, power_model)


def test_all_is_the_union_of_the_module_lists():
    names = backhaulopt.__all__
    assert len(names) == len(set(names))
    assert set(names) == set().union(*(m.__all__ for m in MODULES))


def test_every_public_name_resolves():
    for name in backhaulopt.__all__:
        assert getattr(backhaulopt, name) is not None, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from backhaulopt import *", namespace)
    assert set(backhaulopt.__all__) <= set(namespace)
    assert "cli" not in namespace
