"""Command-line interface.

Subcommands:
  run      propagate a scenario and write trajectory CSV + metadata JSON
  audit    algebraic representability checks without propagation
  spectra  tabulate bath rates and level-shift coefficients
  bench    time the built-in benchmark scenarios
  sweep    rerun a scenario over a grid of one parameter, in parallel

Every option that changes the scenario sets one dotted key of its JSON
form, as OVERRIDES lists; a --benchmark source is its builtin's to_dict(),
and `sweep --param` sets its key the same way per grid point, so the one
parser, Scenario.from_dict, checks every value.

Exit codes: 0 on success (including runs whose audits flag violations),
2 for configuration and parsing problems, 1 for runtime failures, numerical
ones (NumericalError) included.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale on the first parse; importing it here
# keeps that import out of every command's run
import locale  # noqa: F401
import os
import sys
from dataclasses import asdict

import numpy as np

from .bath import BathModel, QuadratureError, sample_spectra
from .benchmarks import BENCHMARKS
from .core import NumericalError, PhysicalityError, spectral_audit
from .generators import MEKind
from .output import resolve_output_dir, write_channels_csv, \
    write_metadata_json, write_spectra_csv, write_sweep_csv, \
    write_trajectory_csv
from .propagate import StiffnessError, integrate
from .representability import audit_trajectory, constraint_residual, \
    unitality_residual
from .scenario import Scenario, ScenarioError, read_scenario, set_keys

# each option that changes the scenario, by argparse dest, and the key it sets
OVERRIDES = {
    "kind": "generator.kind",
    "blocked": "generator.pauli_blocked",
    "lamb_shift": "generator.lamb_shift",
    "threshold": "generator.clustering_threshold",
    "temperature": "bath.temperature",
    "t_end": "schedule.t_end",
    "samples": "schedule.samples",
    "copropagate_hole": "copropagate_hole",
}


def _add_source_options(p: argparse.ArgumentParser, generator=True,
                        propagation=True):
    """Declare the source, the overrides a command reads and the output
    location; return the group of sources."""
    src = p.add_mutually_exclusive_group()
    src.add_argument("--scenario", metavar="PATH",
                     help="scenario JSON file")
    src.add_argument("--benchmark", choices=sorted(BENCHMARKS),
                     help="built-in scenario")
    if generator:
        p.add_argument("--kind", choices=[m.value for m in MEKind],
                       help="override the generator kind")
        p.add_argument("--blocked", action="store_true", default=None,
                       help="enable Pauli blocking")
        p.add_argument("--lamb-shift", action="store_true", default=None,
                       help="include the bath-induced level shift")
        p.add_argument("--threshold", type=float, metavar="W",
                       help="frequency clustering threshold (ume)")
    p.add_argument("--temperature", type=float, metavar="K",
                   help="override the bath temperature")
    if propagation:
        p.add_argument("--t-end", type=float, metavar="T",
                       help="override the integration window")
        p.add_argument("--samples", type=int, metavar="N",
                       help="override the number of stored samples")
        p.add_argument("--copropagate-hole", action="store_true",
                       default=None, help="co-propagate the 1-hole RDM and "
                                          "record the defect")
    p.add_argument("--output-dir", metavar="DIR",
                   help="where to write outputs (default: "
                        "$RDMPROP_OUTPUT_DIR or cwd)")
    p.add_argument("--prefix", metavar="NAME",
                   help="output file stem (default: scenario name)")
    return src


def _resolve_scenario(args, benchmark=None) -> Scenario:
    """The source's scenario with each option given set at its key; ume
    from --kind without a threshold takes 0, the secular limit."""
    if vars(args).get("scenario"):
        d = read_scenario(args.scenario)
    elif benchmark or args.benchmark:
        d = BENCHMARKS[benchmark or args.benchmark]().to_dict()
    else:
        raise ScenarioError("give either --scenario or --benchmark")
    keys = {key: value for dest, key in OVERRIDES.items()
            if (value := vars(args).get(dest)) is not None}
    set_keys(d, keys)
    if keys.get("generator.kind") == "ume" \
            and d["generator"].get("clustering_threshold") is None:
        d["generator"]["clustering_threshold"] = 0.0
    return Scenario.from_dict(d)


def _cmd_run(args) -> int:
    scenario = _resolve_scenario(args)
    traj = integrate(scenario)
    outdir = resolve_output_dir(args.output_dir)
    prefix = args.prefix or scenario.name

    hole_path = None if traj.hole is None else outdir / f"{prefix}.hole.csv"
    csv_path = write_trajectory_csv(traj, outdir / f"{prefix}.csv", hole_path)
    audit = audit_trajectory(traj)
    meta = dict(traj.metadata)
    meta["audit"] = _report(audit, "chi", "tol")
    if traj.defect is not None:
        meta["max_hole_defect"] = float(np.max(traj.defect))
    meta_path = write_metadata_json(meta, outdir / f"{prefix}.json")

    print(f"wrote {csv_path} and {meta_path}")
    print(f"final populations: "
          f"{np.array2string(traj.populations[-1], precision=6)}")
    print(f"eigenvalue range over run: [{audit.min_eigenvalue:.3e}, "
          f"{audit.max_eigenvalue:.3e}] (chi = {traj.chi})")
    if audit.violation:
        print(f"representability violated from t = "
              f"{audit.first_violation_time:.6g}")
    if traj.defect is not None:
        print(f"max hole co-propagation defect: {np.max(traj.defect):.3e}")
    return 0


def _cmd_audit(args) -> int:
    scenario = _resolve_scenario(args)
    setup = scenario.build()
    outdir = resolve_output_dir(args.output_dir)
    prefix = args.prefix or scenario.name

    # a linear spec's constraint report holds the unitality residual too,
    # so the generator is built once either way
    if setup.spec.pauli_blocked:
        con = None
        unit = unitality_residual(setup.hamiltonian, setup.spec)
    else:
        con = constraint_residual(setup.hamiltonian, setup.spec)
        unit = con.unitality_residual
    initial = spectral_audit(setup.rho0.data, setup.rho0.chi)
    report = {
        "scenario": scenario.to_dict(),
        "unitality_residual": unit,
        "initial_state": {**_report(initial, "hermiticity_defect", "chi",
                                    "tol"), "violation": initial.violation},
    }
    print(f"unitality residual ||L(chi*1)||: {unit:.6e}")
    if con is not None:
        report["constraint"] = _report(con, "residual_matrix",
                                       "unitality_residual", "tol")
        print(f"filled-state residual norm:     {con.residual_norm:.6e} "
              f"({'satisfied' if con.satisfied else 'violated'})")
        for c in con.per_channel:
            print(f"  channel {c.frequency:+.6g}: rate asymmetry "
                  f"{c.rate_asymmetry.real:.6e}, contribution "
                  f"{c.contribution_norm:.6e}")

    channels_path = write_channels_csv(setup.spec,
                                       outdir / f"{prefix}.channels.csv")
    report_path = write_metadata_json(report, outdir / f"{prefix}.audit.json")
    print(f"wrote {channels_path} and {report_path}")
    return 0


def _report(report, *drop) -> dict:
    """A report dataclass as a JSON block, without the fields ``drop``."""
    return {key: value for key, value in asdict(report).items()
            if key not in drop}


def _cmd_spectra(args) -> int:
    if args.points < 1:
        raise ScenarioError(f"--points must be at least 1, got {args.points}")
    if args.scenario or args.benchmark:
        scenario = _resolve_scenario(args)
        bath = scenario.bath
        name = args.prefix or f"{scenario.name}.spectra"
    else:
        if args.lam is None:
            raise ScenarioError("give --scenario, --benchmark, or --lambda "
                                "with --temperature")
        temperature = args.temperature if args.temperature is not None \
            else 300.0
        bath = BathModel(lam=args.lam, temperature=temperature)
        name = args.prefix or "spectra"
    omegas = np.linspace(args.omega_min, args.omega_max, args.points)
    outdir = resolve_output_dir(args.output_dir)
    path = write_spectra_csv(sample_spectra(bath, omegas),
                             outdir / f"{name}.csv")
    print(f"wrote {path} ({args.points} samples on "
          f"[{args.omega_min}, {args.omega_max}])")
    return 0


def _cmd_bench(args) -> int:
    outdir = resolve_output_dir(args.output_dir)
    names = [args.benchmark] if args.benchmark else sorted(BENCHMARKS)
    rows = []
    for name in names:
        scenario = _resolve_scenario(args, name)
        traj = integrate(scenario)
        wall = traj.metadata["wall_time_s"]
        nfev = traj.metadata["rhs_evaluations"]
        blocked = scenario.pauli_blocked
        print(f"{name:12s} kind={scenario.kind.value} blocked={blocked} "
              f"t_end={traj.metadata['t_end']:.6g} wall={wall:.3f}s "
              f"method={traj.metadata['method']} nfev={nfev}")
        print(f"{'':12s} final populations "
              f"{np.array2string(traj.populations[-1], precision=6)}")
        rows.append([name, scenario.kind.value, int(blocked),
                     traj.metadata["t_end"], wall, nfev])
    write_sweep_csv(rows, ["benchmark", "kind", "blocked", "t_end",
                           "wall_time_s", "rhs_evaluations"],
                    outdir / "bench.csv")
    return 0


def _sweep_worker(payload):
    idx, base, param, value, outdir, prefix = payload
    scenario = Scenario.from_dict(set_keys(json.loads(base),
                                           {param: value}))
    traj = integrate(scenario)
    tag = f"{prefix}.{idx:04d}"
    write_trajectory_csv(traj, f"{outdir}/{tag}.csv")
    audit = audit_trajectory(traj)
    row = [idx, value, float(traj.metadata["t_end"]),
           audit.min_eigenvalue, audit.max_eigenvalue,
           int(audit.violation)]
    row += [float(p) for p in traj.populations[-1]]
    return row


def _parse_sweep_values(args) -> list:
    if args.values is not None:
        out = []
        for chunk in args.values.split(","):
            chunk = chunk.strip()
            try:
                out.append(json.loads(chunk))
            except json.JSONDecodeError:
                out.append(chunk)
        return out
    spec = args.linspace.split(":")
    if len(spec) != 3:
        raise ScenarioError("--linspace expects START:STOP:COUNT")
    start, stop, count = float(spec[0]), float(spec[1]), int(spec[2])
    return [float(v) for v in np.linspace(start, stop, count)]


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ScenarioError(f"--jobs must be at least 1, got {args.jobs}")
    scenario = _resolve_scenario(args)
    values = _parse_sweep_values(args)
    if not values:
        raise ScenarioError("the sweep grid is empty")
    outdir = resolve_output_dir(args.output_dir)
    prefix = args.prefix or f"{scenario.name}.sweep"
    base = json.dumps(scenario.to_dict())

    payloads = [(i, base, args.param, v, str(outdir), prefix)
                for i, v in enumerate(values)]
    # a forking pool starts all its workers at once, so it gets no more
    # than the grid and the machine can use
    workers = min(args.jobs, len(payloads), os.cpu_count() or 1)
    if workers == 1:
        rows = [_sweep_worker(p) for p in payloads]
    else:
        # looked up on the module, so that it loads only here (and a test
        # can stand in for it)
        executor = sys.modules[__name__].ProcessPoolExecutor
        with executor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, payloads))
    rows.sort(key=lambda r: r[0])

    d = len(rows[0]) - 6
    header = ["index", "value", "t_end", "min_eigenvalue", "max_eigenvalue",
              "violation"] + [f"final_pop_{k}" for k in range(d)]
    path = write_sweep_csv(rows, header, outdir / f"{prefix}.csv")
    print(f"wrote {path} and {len(rows)} trajectory files")
    return 0


def __getattr__(name):
    # only sweep --jobs > 1 starts a pool, and concurrent.futures pulls in
    # multiprocessing, subprocess, socket and logging: it loads on demand
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdmprop",
        description="Propagate 1-electron reduced density matrices under "
                    "open-system master equations and audit their "
                    "fermionic representability.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="propagate a scenario")
    _add_source_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_audit = sub.add_parser("audit", help="algebraic audits, no propagation")
    _add_source_options(p_audit, propagation=False)
    p_audit.set_defaults(func=_cmd_audit)

    p_spec = sub.add_parser("spectra", help="tabulate bath rate functions")
    _add_source_options(p_spec, generator=False, propagation=False) \
        .add_argument("--lambda", dest="lam", type=float, metavar="L",
                      help="bath coupling scale, in place of a source")
    p_spec.add_argument("--omega-min", type=float, default=-1.0)
    p_spec.add_argument("--omega-max", type=float, default=1.0)
    p_spec.add_argument("--points", type=int, default=101)
    p_spec.set_defaults(func=_cmd_spectra)

    p_bench = sub.add_parser("bench", help="time the built-in benchmarks")
    p_bench.add_argument("benchmark", nargs="?", choices=sorted(BENCHMARKS),
                         help="benchmark to run (default: all)")
    p_bench.add_argument("--me", dest="kind",
                         choices=[m.value for m in MEKind],
                         help="override the generator kind")
    p_bench.add_argument("--blocked", action="store_true", default=None,
                         help="enable Pauli blocking")
    p_bench.add_argument("--threshold", type=float, metavar="W",
                         help="frequency clustering threshold (ume)")
    p_bench.add_argument("--samples", type=int, default=200)
    p_bench.add_argument("--t-end", type=float, metavar="T",
                         help="override the integration window")
    p_bench.add_argument("--output-dir", metavar="DIR")
    p_bench.set_defaults(func=_cmd_bench)

    p_sweep = sub.add_parser("sweep", help="grid over one scenario parameter")
    _add_source_options(p_sweep)
    p_sweep.add_argument("--param", required=True, metavar="DOTTED.KEY",
                         help="scenario key to vary, e.g. bath.temperature")
    grid = p_sweep.add_mutually_exclusive_group(required=True)
    grid.add_argument("--values", metavar="V1,V2,...",
                      help="comma-separated values (JSON scalars)")
    grid.add_argument("--linspace", metavar="START:STOP:COUNT",
                      help="uniform grid")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel workers, at most one per grid "
                              "point and CPU (default 1)")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code is not None else 0
    try:
        return args.func(args)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (StiffnessError, QuadratureError, PhysicalityError,
            NumericalError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
