"""The package namespace exports exactly what it imports."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

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


def test_generator_spec_holds_its_rates():
    # the rates, clusters and frequency union are fields of GeneratorSpec,
    # and particle_hole_transform returns a (hamiltonian, spec) pair
    for name in ("RateTable", "HoleSystem", "build_rate_table"):
        assert not hasattr(rdmprop, name)
    for name in ("RateTable", "HoleSystem"):
        assert not hasattr(rdmprop.generators, name)
    # the names perfbench's tracer binds in rdmprop.generators
    for name in ("build_rate_table", "decompose", "build_generator",
                 "xi_integral", "ule_lamb_coefficient"):
        assert callable(getattr(rdmprop.generators, name)), name


def test_kronecker_route_is_gone():
    # the superoperator and its propagation live in tests/oracle.py
    for module, name in ((rdmprop.generators, "superoperator_matrix"),
                         (rdmprop.generators, "NonlinearGeneratorError"),
                         (rdmprop.propagate, "expm_propagate"),
                         (rdmprop.propagate, "ADAPTIVE_METHODS")):
        assert not hasattr(rdmprop, name)
        assert not hasattr(module, name)


RUNS = """
import json, sys
import rdmprop.cli
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
before = set(sys.modules)
out = sys.argv[1]
short = ["--t-end", "2000", "--samples", "20"]
ladder = ["--benchmark", "three-level", "--kind", "ule"]
for argv in (
        ["run", "--benchmark", "three-level", "--kind", "rme", *short],
        ["run", *ladder, "--blocked", *short],
        ["run", "--benchmark", "benzene", "--kind", "ume", "--threshold",
         "0.091", "--blocked", *short],
        ["run", *ladder, "--lamb-shift", *short],
        ["run", *ladder, "--copropagate-hole", *short],
        ["audit", "--benchmark", "three-level", "--kind", "rme"],
        ["spectra", "--lambda", "0.01", "--temperature", "300", "--points",
         "41"],
        ["bench", "three-level", "--me", "ule", "--t-end", "400",
         "--samples", "5"],
        ["sweep", *ladder, "--t-end", "400", "--samples", "5", "--param",
         "bath.lambda", "--values", "0.005,0.01", "--jobs", "1"]):
    assert rdmprop.cli.main(argv + ["--output-dir", out]) == 0, argv
print(json.dumps([scipy, sorted(set(sys.modules) - before)]))
"""


def _fresh_interpreter(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(rdmprop.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)


def test_runs_import_numpy_alone(tmp_path):
    # a fresh interpreter: importing the command line loads no scipy, and
    # linear, blocked, ume, Lamb-shift, hole, audit, spectra, bench and
    # serial sweep runs import nothing more
    done = _fresh_interpreter(RUNS, str(tmp_path))
    scipy, imported = json.loads(done.stdout.splitlines()[-1])
    assert scipy == []
    assert imported == []


START_UP = """
import json, sys
import numpy
masked = "numpy.ma" in sys.modules
import rdmprop.cli
print(json.dumps([masked, sorted(sys.modules)]))
"""


def test_command_line_starts_without_a_process_pool():
    # only sweep --jobs > 1 needs concurrent.futures and what it pulls in;
    # numpy.ma loads only where numpy itself loads it (numpy 1.x)
    done = _fresh_interpreter(START_UP)
    masked, loaded = json.loads(done.stdout.splitlines()[-1])
    unused = ["concurrent.futures", "multiprocessing", "subprocess",
              "socket"] + ([] if masked else ["numpy.ma"])
    assert [m for m in unused if m in loaded] == []


WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import rdmprop.cli
out = sys.argv[1]
short = ["--t-end", "400", "--samples", "5", "--output-dir", out]
ladder = ["--benchmark", "three-level", "--kind", "ule", *short]
commands = [["run", "--benchmark", "three-level", "--kind", kind, *blocked,
             *short]
            for kind in ("rme", "ume", "ule")
            for blocked in ([], ["--blocked"])]
commands += [
    ["run", *ladder, "--copropagate-hole"],
    ["audit", "--benchmark", "three-level", "--kind", "rme",
     "--output-dir", out],
    ["audit", "--benchmark", "three-level", "--kind", "rme", "--blocked",
     "--output-dir", out],
    ["spectra", "--lambda", "0.01", "--temperature", "300", "--points", "41",
     "--output-dir", out],
    ["bench", "three-level", "--me", "ule", *short],
    ["sweep", *ladder, "--param", "bath.lambda", "--values", "0.005,0.01",
     "--jobs", "1"]]
for argv in commands:
    assert rdmprop.cli.main(argv) == 0, argv
print(len(commands))
"""


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable, every
    # command exits 0
    done = _fresh_interpreter(WITHOUT_SCIPY, str(tmp_path))
    assert done.stdout.splitlines()[-1] == "12"
