"""rdmprop benchmark: CLI workloads timed end to end, with an optional trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see workloads.py):
builtins, random-family, lamb-quadrature, dense-output; `--workload all`
runs the four in turn and prints every metric of each.

With --trace 0 it repeats passes of the workload, each in a fresh
single-threaded process (BLAS capped at one thread), for about S seconds:
a pass is started only while the median pass so far predicts it ends
within S seconds, and there is always at least one. When the passes are
fewer than MIN_SETUPS, set-up-only processes make up the set-ups. It then
reports the medians over the passes (set-ups) of

  setup_s      process start -> rdmprop imported and inputs written
  run_ref_s    all the workload's cases, back to back, cold
  peak_rss_mb  peak resident memory of the pass process
and
  ok_frac      cases that exit 0 and pass their checks / cases attempted

setup_s and run_ref_s are times at a fixed reference host speed, from
samples of a reference kernel taken on the same vCPU while the set-up or
the cases ran (speed.py). Their wall times, and the CPU time of the cases,
are kept in the record but not reported as metrics: on a shared 2-vCPU
host they varied by 10-23 % (IQR/median) from run to run for the same
work, and their medians moved by 20 % within half an hour.

With --trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics of the traced one (tracing.py), its wall time run_s, the
tracing overhead (traced minus untraced run_s), the share of run_s each
workload's dominant layer took, and the share of blocked cases on random
systems that left [0, chi] (check.py).

Every pass is checked against references (check.py) outside its timed
region. The last line of standard output is the result as one JSON object;
the full record (environment, seed, input hashes, per-case detail) is
written to .perfbench_work/<workload>-seed<N>/record.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUN_TIMEOUT_S = 170
# set-ups measured per untraced run at least: a pass sets up once, and
# set-up-only processes make up the rest when the passes are fewer
MIN_SETUPS = 5

import workloads  # noqa: E402  (standard library only)


class WorkerError(RuntimeError):
    """A pass process failed before it could report."""


class Spawner:
    """Starts worker processes for one run, all within one deadline."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_TIMEOUT_S

    def __call__(self, name: str, *flags: str) -> tuple[dict, float]:
        """Run worker.py in a fresh process; its record and its wall time."""
        out = self.work / name
        out.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(out), *flags]
        started = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(started)],
                              capture_output=True, text=True,
                              timeout=max(self.deadline - started, 1.0))
        wall = time.monotonic() - started
        if proc.returncode != 0:
            raise WorkerError(f"pass process exited with {proc.returncode}:"
                              f"\n{proc.stderr[-3000:]}")
        return json.loads((out / "pass.json").read_text()), wall


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rdmprop").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu_model": cpu, "blas_threads": BLAS_THREADS,
            "thread_env": list(THREAD_VARS)}


class Gate:
    """Checks every pass of one run and keeps the per-case detail."""

    def __init__(self, workload: str, cases, inputs: Path):
        import check
        self.check = check
        self.cases = cases
        self.refs = dict(check.load_stored(workload))
        self.refs.update(check.seeded_references(cases, inputs))
        self.attempted = 0
        self.failures: list[str] = []
        self.detail = {c.name: {"wall_s": [], "cpu_s": [], "checks": []}
                       for c in cases}
        self.audited = 0
        self.leaving_bounds: list[str] = []

    def inspect(self, record: dict, outdir: Path, label: str):
        for case, result in zip(self.cases, record["cases"]):
            self.attempted += 1
            try:
                failed, detail = self.check.check_case(
                    case, outdir, result["exit_code"], self.refs[case.name])
            except (OSError, ValueError, TypeError, KeyError,
                    IndexError) as err:
                failed, detail = [f"output unreadable: {err!r}"], {}
            if result["exit_code"] != 0 and result["stderr"]:
                failed.append(result["stderr"].strip().splitlines()[-1])
            entry = self.detail[case.name]
            entry["wall_s"].append(result["wall_s"])
            entry["cpu_s"].append(result["cpu_s"])
            entry.update(detail)
            entry["checks"].append("ok" if not failed else failed)
            if case.seeded and "leaves_bounds" in detail:
                self.audited += 1
                if detail["leaves_bounds"]:
                    self.leaving_bounds.append(f"{label} {case.name}")
            self.failures += [f"{label} {case.name}: {f}" for f in failed]

    @property
    def failed(self) -> int:
        return sum(1 for d in self.detail.values() for c in d["checks"]
                   if c != "ok")

    @property
    def bound_violation_frac(self) -> float:
        return len(self.leaving_bounds) / self.audited if self.audited else 0.0


def traced_metrics(untraced: dict, traced: dict, gate: Gate) -> dict:
    from tracing import LAYER_METRICS, shares
    values = dict(traced["layers"])
    units = dict(LAYER_METRICS)
    values["trace.run_s"] = traced["run_s"]
    values["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    values["trace.spans"] = traced["spans"]
    values["check.bound_violation_frac"] = gate.bound_violation_frac
    units.update({"trace.run_s": "s", "trace.overhead_s": "s",
                  "trace.spans": "count",
                  "check.bound_violation_frac": "ratio"})
    for name, share in shares(values, traced["run_s"]).items():
        values[name] = share
        units[name] = "ratio"
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def measure(workload: str, args, work: Path) -> tuple[dict, dict]:
    """Run the passes of one workload; return (metrics, record)."""
    cases = workloads.cases_for(workload)
    spawn = Spawner(workload, args.seed, work)
    first, wall = spawn("pass-0")
    passes, walls, setup_only = [first], [wall], []
    gate = Gate(workload, cases, work / "pass-0" / "inputs")
    gate.inspect(first, work / "pass-0", "pass 0")
    if args.trace:
        traced, _ = spawn("pass-1", "--trace")
        passes.append(traced)
        gate.inspect(traced, work / "pass-1", "pass 1 (traced)")
        metrics = traced_metrics(first, traced, gate)
    else:
        while sum(walls) + statistics.median(walls) <= args.seconds:
            k = len(passes)
            shutil.rmtree(work / f"pass-{k - 1}")
            rec, wall = spawn(f"pass-{k}")
            passes.append(rec)
            walls.append(wall)
            gate.inspect(rec, work / f"pass-{k}", f"pass {k}")
        while len(passes) + len(setup_only) < MIN_SETUPS:
            name = f"setup-{len(setup_only)}"
            setup_only.append(spawn(name, "--setup-only")[0])
            shutil.rmtree(work / name)
        metrics = {
            "setup_s": {"value": statistics.median(
                p["setup_s"] for p in passes + setup_only), "unit": "s"},
            "run_ref_s": {"value": statistics.median(
                p["run_ref_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                p["peak_rss_mb"] for p in passes), "unit": "MB"},
            "ok_frac": {"value": 1.0 - gate.failed / gate.attempted,
                        "unit": "ratio"},
        }

    hashes = {json.dumps(p["input_sha256"], sort_keys=True)
              for p in passes + setup_only}
    if len(hashes) != 1:
        gate.failures.append("passes saw different input files")

    record = {
        "workload": workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "environment": environment(),
        "input_sha256": passes[0]["input_sha256"],
        "passes": len(passes),
        "setup_s": [p["setup_s"] for p in passes + setup_only],
        "setup_wall_s": [p["setup_wall_s"] for p in passes + setup_only],
        "run_s": [p["run_s"] for p in passes],
        "run_cpu_s": [p["run_cpu_s"] for p in passes],
        "run_ref_s": [p.get("run_ref_s") for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "attempted": gate.attempted, "failed": gate.failed,
        "failed_frac": gate.failed / gate.attempted,
        "failures": gate.failures,
        "bound_violation_frac": gate.bound_violation_frac,
        "leaving_bounds": gate.leaving_bounds,
        "absent_layers": passes[-1].get("absent", []),
        "cases": gate.detail,
        "metrics": metrics,
    }
    return metrics, record


def run_workload(workload: str, args) -> dict:
    """Measure one workload, write its record, print its lines."""
    work = WORK / f"{workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    metrics, record = measure(workload, args, work)
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    if record["leaving_bounds"]:
        print("blocked runs on random systems that left [0, chi]: "
              + ", ".join(record["leaving_bounds"]))
    if record["absent_layers"]:
        print("absent layers: " + ", ".join(record["absent_layers"]))
    for name, m in metrics.items():
        print(f"{workload:16s} {name:36s} {m['value']:.6g} {m['unit']}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rdmprop" / "cli.py").is_file():
        print(f"error: no rdmprop sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        records = [run_workload(name, args) for name in names]
    except (WorkerError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["failures"]
                       for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
