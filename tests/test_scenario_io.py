"""Scenario JSON round-trips and validation diagnostics."""

import copy
import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdmprop.benchmarks import builtin_benzene, builtin_three_level
from rdmprop.cli import main
from rdmprop.scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    save_scenario,
)


def minimal_dict():
    return {
        "name": "ladder",
        "chi": 1.0,
        "hamiltonian": {"energies": [-0.5, 0.0, 0.5]},
        "coupling_operators": [
            {"label": "ladder",
             "matrix": [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]},
        ],
        "initial_state": {"matrix": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                     [0.0, 0.0, 1.0]]},
        "bath": {"lambda": 0.01, "temperature": 50.0},
        "generator": {"kind": "ule"},
    }


def test_roundtrip_preserves_builtin_scenarios():
    for scenario in (builtin_three_level(kind="ume", temperature=50.0),
                     builtin_benzene(kind="rme", pauli_blocked=True)):
        d = scenario.to_dict()
        rebuilt = Scenario.from_dict(copy.deepcopy(d))
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) \
            == json.dumps(d, sort_keys=True)
        npt.assert_allclose(rebuilt.initial_state, scenario.initial_state,
                            atol=0.0)
        assert rebuilt.kind is scenario.kind
        assert rebuilt.chi == scenario.chi


def test_save_load_roundtrip(tmp_path):
    scenario = builtin_three_level(kind="ule", temperature=50.0,
                                   t_end=1234.5, samples=7)
    path = tmp_path / "ladder.json"
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded.to_dict() == scenario.to_dict()
    assert loaded.schedule.t_end == 1234.5
    assert loaded.schedule.samples == 7
    save_scenario(scenario, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_occupations_fill_eigenbasis_levels():
    d = minimal_dict()
    d["initial_state"] = {"occupations": [1.0, 0.5, 0.0]}
    scenario = Scenario.from_dict(d)
    npt.assert_allclose(scenario.initial_state,
                        np.diag([1.0, 0.5, 0.0]), atol=0.0)


def test_complex_entries_use_re_im_pairs():
    d = minimal_dict()
    d["hamiltonian"] = {"energies": [-0.5, 0.5]}
    d["coupling_operators"] = [
        {"label": "sy", "matrix": [[0.0, [0.0, -1.0]], [[0.0, 1.0], 0.0]]}]
    d["initial_state"] = {"matrix": [[1.0, 0.0], [0.0, 0.0]]}
    scenario = Scenario.from_dict(d)
    npt.assert_allclose(scenario.coupling_operators[0].matrix,
                        np.array([[0, -1j], [1j, 0]]), atol=0.0)
    out = scenario.to_dict()
    assert out["coupling_operators"][0]["matrix"][0][1] == [0.0, -1.0]


def test_explicit_eigenvectors_roundtrip():
    c, s = np.cos(0.3), np.sin(0.3)
    d = minimal_dict()
    d["hamiltonian"] = {"energies": [-0.5, 0.5],
                        "eigenvectors": [[c, -s], [s, c]]}
    d["coupling_operators"] = [
        {"label": "x", "matrix": [[0.0, 1.0], [1.0, 0.0]]}]
    d["initial_state"] = {"occupations": [1.0, 0.0]}
    scenario = Scenario.from_dict(d)
    npt.assert_allclose(scenario.hamiltonian.eigenvectors,
                        [[c, -s], [s, c]], atol=0.0)
    rebuilt = Scenario.from_dict(scenario.to_dict())
    npt.assert_allclose(rebuilt.hamiltonian.eigenvectors,
                        scenario.hamiltonian.eigenvectors, atol=0.0)


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.update(extra=1), r"scenario: unknown keys \['extra'\]"),
    (lambda d: d.pop("name"), "missing required key 'name'"),
    (lambda d: d.update(name=7), "scenario.name: expected a string"),
    (lambda d: d.update(chi=True), "scenario.chi: expected a positive"),
    (lambda d: d.update(chi=0), "scenario.chi: expected a positive"),
    (lambda d: d["hamiltonian"].update(matrix=[[0.0]]),
     "either matrix or energies"),
    (lambda d: d["hamiltonian"].update(energies=[]),
     "expected a non-empty list"),
    (lambda d: d["hamiltonian"].update(energies=[0.0, True]),
     "got a boolean"),
    (lambda d: d.update(coupling_operators=[]),
     "coupling_operators: expected a non-empty list"),
    (lambda d: d.update(coupling_operators=[{"matrix": [[0.0, 1.0]]}]),
     r"coupling_operators\[0\]"),
    (lambda d: d["initial_state"].update(occupations=[0.0, 0.0, 1.0]),
     "exactly one of matrix or occupations"),
    (lambda d: d.update(initial_state={}),
     "exactly one of matrix or occupations"),
    (lambda d: d.update(initial_state={"occupations": 3}),
     "occupations: expected a list"),
    (lambda d: d["bath"].pop("temperature"),
     "scenario.bath: missing required key"),
    (lambda d: d["bath"].update({"lambda": -1.0}), "scenario.bath"),
    (lambda d: d["generator"].update(kind="secular"),
     "unknown kind 'secular'"),
    (lambda d: d["generator"].update(kind="ume"),
     "ume needs clustering_threshold"),
    (lambda d: d.update(schedule={"dt": 0.1}),
     r"scenario.schedule: unknown keys \['dt'\]"),
    (lambda d: d.update(schedule={"samples": 1}), "scenario.schedule"),
    (lambda d: d.update(copropagate_hole=1),
     "copropagate_hole: expected a boolean"),
    (lambda d: d["initial_state"].update(
        matrix=[[0.0, 0.0], [0.0, 0.0, 1.0]]), "row length"),
    (lambda d: d["coupling_operators"][0].update(matrix=[["x"]]),
     "expected a number"),
    (lambda d: d.update(chi=float("nan")),
     "scenario.chi: expected a positive"),
    (lambda d: d.update(chi=float("inf")),
     "scenario.chi: expected a positive"),
    (lambda d: d["coupling_operators"][0]["matrix"][0].__setitem__(
        1, float("nan")),
     r"scenario\.coupling_operators\[0\]\.matrix\[0\]\[1\]: expected a "
     r"finite number"),
    (lambda d: d["initial_state"]["matrix"][2].__setitem__(
        2, [1.0, float("inf")]),
     r"scenario\.initial_state\.matrix\[2\]\[2\]: expected a finite"),
    (lambda d: d.update(initial_state={"occupations": [0.0, float("nan"),
                                                       1.0]}),
     r"scenario\.initial_state\.occupations\[1\]: expected a finite"),
    (lambda d: d["hamiltonian"]["energies"].__setitem__(0, float("nan")),
     r"scenario\.hamiltonian\.energies\[0\]: expected a finite"),
    (lambda d: d["hamiltonian"].update(degeneracy_tol=float("nan")),
     "scenario.hamiltonian.degeneracy_tol: expected a finite"),
    (lambda d: d["hamiltonian"].update(degeneracy_tol=-1e-9),
     "scenario.hamiltonian.degeneracy_tol: expected a nonnegative"),
    (lambda d: d["generator"].update(kind="ume",
                                     clustering_threshold=float("nan")),
     "scenario.generator.clustering_threshold: expected a nonnegative"),
    (lambda d: d.update(schedule={"t_end": float("inf")}),
     r"^scenario\.schedule\.t_end: expected a finite number"),
    (lambda d: d.update(initial_state={"occupations": [0.0, 1.0]}),
     "scenario.initial_state.occupations: expected 3 entries, got 2"),
    (lambda d: d.update(initial_state={"matrix": [[1.0, 0.0], [0.0, 0.0]]}),
     "scenario.initial_state.matrix: expected a 3x3 matrix, got 2x2"),
    (lambda d: d["coupling_operators"][0].update(
        matrix=[[0.0, 1.0], [1.0, 0.0]]),
     r"scenario\.coupling_operators\[0\]\.matrix: expected a 3x3 matrix, "
     r"got 2x2"),
    # JSON integers past the largest float
    (lambda d: d.update(chi=10**400),
     "scenario.chi: expected a finite number, got an integer beyond the "
     "float range"),
    (lambda d: d["bath"].update(temperature=10**400),
     "scenario.bath.temperature: expected a finite number, got an integer "
     "beyond"),
    (lambda d: d["coupling_operators"][0]["matrix"][1].__setitem__(
        2, [1, -10**400]),
     r"scenario\.coupling_operators\[0\]\.matrix\[1\]\[2\]: expected a "
     r"finite number, got an integer beyond"),
])
def test_malformed_scenarios_report_dotted_paths(mutate, message):
    d = minimal_dict()
    mutate(d)
    with pytest.raises(ScenarioError, match=message):
        Scenario.from_dict(d)


def test_an_integer_beyond_the_float_range_exits_two(tmp_path, capsys):
    d = minimal_dict()
    d["bath"]["temperature"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(d))
    code = main(["run", "--scenario", str(path), "--output-dir",
                 str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario.bath.temperature: ")
    assert "Traceback" not in err


def test_samples_past_the_largest_array_are_refused_at_the_boundary():
    # a run stores (samples, d^2) float64 samples; from_dict allocates
    # none of them, so the largest legal count itself can be parsed
    largest = np.iinfo(np.intp).max // (8 * 3**2)
    d = minimal_dict()
    d["schedule"] = {"samples": largest}
    assert Scenario.from_dict(d).schedule.samples == largest
    d["schedule"] = {"samples": largest + 1}
    with pytest.raises(ScenarioError, match=r"^scenario\.schedule\.samples: "
                       f"at most {largest} samples fit"):
        Scenario.from_dict(d)


@pytest.mark.parametrize("source", ["file", "option"])
def test_a_huge_sample_count_exits_two(tmp_path, capsys, source):
    d = minimal_dict()
    if source == "file":
        d["schedule"] = {"samples": 10**400}
    path = tmp_path / "huge-samples.json"
    path.write_text(json.dumps(d))
    extra = ["--samples", str(10**400)] if source == "option" else []
    code = main(["run", "--scenario", str(path), "--output-dir",
                 str(tmp_path), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario.schedule.samples: at most ")
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_an_infinite_clustering_threshold_is_legal():
    # it joins every frequency into one cluster
    d = minimal_dict()
    d["generator"].update(kind="ume", clustering_threshold=float("inf"))
    scenario = Scenario.from_dict(d)
    assert scenario.clustering_threshold == float("inf")
    assert scenario.to_dict()["generator"]["clustering_threshold"] \
        == float("inf")


reals = st.floats(-1.0, 1.0)


def _hermitian(draw, d):
    """A Hermitian d x d matrix in scenario form, complex off the
    diagonal."""
    m = [[0.0] * d for _ in range(d)]
    for i in range(d):
        m[i][i] = draw(reals)
        for j in range(i + 1, d):
            re, im = draw(reals), draw(reals)
            m[i][j], m[j][i] = [re, im], [re, -im]
    return m


def _maybe(draw, section, key, strategy):
    if draw(st.booleans()):
        section[key] = draw(strategy)


@st.composite
def scenario_dicts(draw):
    """Scenario dicts on 1 to 4 levels: energies alone, energies with
    near-identity eigenvectors (diagonal phases up to 1e-5) or a Hermitian
    matrix, and each optional field present or absent."""
    d = draw(st.integers(1, 4))
    chi = draw(st.sampled_from([1.0, 2.0]))
    form = draw(st.sampled_from(["energies", "eigenvectors", "matrix"]))
    if form == "matrix":
        hamiltonian = {"matrix": _hermitian(draw, d)}
    else:
        hamiltonian = {"energies": sorted(draw(st.lists(
            reals, min_size=d, max_size=d)))}
    if form == "eigenvectors":
        phases = draw(st.lists(st.floats(-1e-5, 1e-5), min_size=d,
                               max_size=d))
        hamiltonian["eigenvectors"] = [
            [[np.cos(p), np.sin(p)] if i == j else 0.0 for j in range(d)]
            for i, p in enumerate(phases)]
    _maybe(draw, hamiltonian, "degeneracy_tol", st.floats(0.0, 1e-3))
    couplings = []
    for _ in range(draw(st.integers(1, 2))):
        couplings.append({"matrix": _hermitian(draw, d)})
        _maybe(draw, couplings[-1], "label", st.sampled_from(["a", "b"]))
    if draw(st.booleans()):
        initial = {"occupations": draw(st.lists(
            st.floats(0.0, chi), min_size=d, max_size=d))}
    else:
        initial = {"matrix": _hermitian(draw, d)}
    bath = {"lambda": draw(st.floats(1e-4, 1.0)),
            "temperature": draw(st.floats(0.0, 1e3))}
    _maybe(draw, bath, "pv_cutoff", st.floats(1.0, 1e3))
    _maybe(draw, bath, "pv_points", st.integers(64, 8192))
    generator = {"kind": draw(st.sampled_from(["rme", "ume", "ule"]))}
    thresholds = st.one_of(st.floats(0.0, 1.0), st.just(float("inf")))
    if generator["kind"] == "ume":
        generator["clustering_threshold"] = draw(thresholds)
    else:
        _maybe(draw, generator, "clustering_threshold", thresholds)
    _maybe(draw, generator, "pauli_blocked", st.booleans())
    _maybe(draw, generator, "lamb_shift", st.booleans())
    schedule = {}
    _maybe(draw, schedule, "t_end", st.floats(1.0, 1e4))
    _maybe(draw, schedule, "samples", st.integers(2, 1000))
    _maybe(draw, schedule, "rtol", st.floats(1e-13, 1e-3))
    _maybe(draw, schedule, "atol", st.floats(1e-15, 1e-6))
    out = {"name": "drawn", "chi": chi, "hamiltonian": hamiltonian,
           "coupling_operators": couplings, "initial_state": initial,
           "bath": bath, "generator": generator, "schedule": schedule}
    _maybe(draw, out, "copropagate_hole", st.booleans())
    return out


@settings(max_examples=200, deadline=None)
@given(scenario_dicts())
@example({**minimal_dict(), "hamiltonian": {
    "energies": [-0.5, 0.0, 0.5],
    "eigenvectors": [[[np.cos(1e-6), np.sin(1e-6)], 0.0, 0.0],
                     [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    "initial_state": {"occupations": [0.0, 0.5, 1.0]}})
def test_to_dict_is_a_fixed_point_of_the_round_trip(d):
    # a diagonal phase of 1e-6 in the eigenvectors survives the round trip,
    # and with it the eigenbasis the initial state is built in
    first = Scenario.from_dict(d)
    out = first.to_dict()
    again = Scenario.from_dict(copy.deepcopy(out))
    assert again.to_dict() == out
    for built in (lambda s: s.hamiltonian.energies,
                  lambda s: s.hamiltonian.eigenvectors,
                  lambda s: s.initial_state):
        npt.assert_array_equal(built(again), built(first))


def test_from_dict_rejects_non_objects():
    with pytest.raises(ScenarioError, match="expected a JSON object"):
        Scenario.from_dict([1, 2])


def test_non_hermitian_inputs_are_wrapped():
    d = minimal_dict()
    d["hamiltonian"] = {"matrix": [[0.0, 1.0], [0.0, 0.0]]}
    d["coupling_operators"] = [
        {"label": "x", "matrix": [[0.0, 1.0], [1.0, 0.0]]}]
    d["initial_state"] = {"occupations": [1.0, 0.0]}
    with pytest.raises(ScenarioError, match="scenario.hamiltonian"):
        Scenario.from_dict(d)
    d2 = minimal_dict()
    d2["coupling_operators"] = [
        {"label": "bad", "matrix": [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0]]}]
    with pytest.raises(ScenarioError,
                       match=r"coupling_operators\[0\]"):
        Scenario.from_dict(d2)


def test_load_scenario_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "chi": ,}\n')
    with pytest.raises(ScenarioError, match="line 2 column"):
        load_scenario(path)


def test_load_scenario_reports_missing_files(tmp_path):
    with pytest.raises(ScenarioError, match="nowhere.json"):
        load_scenario(tmp_path / "nowhere.json")


def test_schedule_and_flags_parse():
    d = minimal_dict()
    d["schedule"] = {"samples": 7, "rtol": 1e-8, "atol": 1e-10,
                     "t_end": 250.0}
    d["generator"].update(pauli_blocked=True, lamb_shift=True)
    d["copropagate_hole"] = True
    scenario = Scenario.from_dict(d)
    assert scenario.schedule.samples == 7
    assert scenario.schedule.t_end == 250.0
    assert scenario.pauli_blocked
    assert scenario.lamb_shift
    assert scenario.copropagate_hole
    out = scenario.to_dict()
    assert out["generator"]["pauli_blocked"] is True
    assert out["schedule"] == d["schedule"]


def test_unknown_schedule_method_is_rejected():
    # the generator picks the route, so a schedule names no method
    for method in ("DOP853", "RK45"):
        d = minimal_dict()
        d["schedule"] = {"method": method}
        with pytest.raises(ScenarioError, match=r"scenario\.schedule: "
                                                r"unknown keys \['method'\]"):
            Scenario.from_dict(d)


def test_integral_float_counts_are_accepted():
    d = minimal_dict()
    d["schedule"] = {"samples": 400.0}
    d["bath"]["pv_points"] = 4096.0
    scenario = Scenario.from_dict(d)
    assert scenario.schedule.samples == 400
    assert isinstance(scenario.schedule.samples, int)
    assert scenario.bath.pv_points == 4096
    assert isinstance(scenario.bath.pv_points, int)


def test_integer_chi_is_accepted():
    d = minimal_dict()
    d["chi"] = 2
    scenario = Scenario.from_dict(d)
    assert scenario.chi == 2.0
    assert isinstance(scenario.chi, float)
