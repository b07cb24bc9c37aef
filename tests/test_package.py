"""The package namespace exports exactly what it imports."""

import types

import rdmprop


def test_every_exported_name_imports():
    namespace = {}
    exec(f"from rdmprop import {', '.join(rdmprop.__all__)}", namespace)
    assert all(name in namespace for name in rdmprop.__all__)
    assert len(set(rdmprop.__all__)) == len(rdmprop.__all__)
    # the names __init__ binds, submodules aside, are the exported ones
    bound = {name for name, value in vars(rdmprop).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert bound | {"__version__"} == set(rdmprop.__all__)


def test_test_only_bath_helpers_are_not_exported():
    # the Redfield pair rates and the spectra row type live in tests/oracle.py
    # or are gone; sample_spectra returns arrays
    for name in ("SpectralSample", "spectral_function_redfield", "rme_rates",
                 "rme_lamb"):
        assert not hasattr(rdmprop, name)
        assert not hasattr(rdmprop.bath, name)


def test_second_generator_route_is_gone():
    # build_packed_generator is the one packed assembly, linear or blocked
    assert not hasattr(rdmprop, "liouvillian_action")
    assert not hasattr(rdmprop.generators, "liouvillian_action")
    assert not hasattr(rdmprop.propagate, "build_blocked_rhs")
