"""One measured pass of a workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
        --spawned-at T [--trace | --setup-only]

Set-up runs from process start (T, a CLOCK_MONOTONIC stamp taken by the
parent just before it started this process) until rdmprop is imported and
every input scenario file is written; with --setup-only the process stops
there. The pass then calls `rdmprop.cli.main` once per case, back to back,
and writes pass.json in DIR: set-up time, wall and CPU time of each case
and of the pass, the exit codes, peak resident memory and, with --trace,
the per-layer trace summary. CPU time is the process's user plus system
time (time.process_time).

The host's speed is sampled during set-up and during an untraced pass
(speed.py): `setup_s` and `run_ref_s` are their times at the reference
host speed, `setup_wall_s` and `run_s` their wall times. The sampler's own
time is left out of every wall and CPU time recorded.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import PASS_PERIOD_S, SETUP_PERIOD_S, SpeedSampler

ROOT = Path(__file__).resolve().parents[1]


def import_program():
    """Import rdmprop from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rdmprop.cli
    origin = Path(rdmprop.cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"rdmprop imported from {origin}, not from {src}")
    return rdmprop.cli


def run_case(cli, argv: list[str],
             sampler: SpeedSampler) -> tuple[int, float, float, str]:
    """Exit code, wall and CPU seconds and captured stderr of one CLI call.

    An exception that escapes the CLI counts as exit code 1 and its
    traceback is kept, so the failure is reported, not hidden.
    """
    out, err = io.StringIO(), io.StringIO()
    busy = sampler.busy
    start, start_cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    cpu = time.process_time() - start_cpu
    busy = sampler.busy - busy
    return code, wall - busy, cpu - busy, err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    setup = SpeedSampler(SETUP_PERIOD_S)
    setup.start(since=args.spawned_at)
    cli = import_program()
    import workloads

    out = Path(args.out)
    inputs = out / "inputs"
    hashes = workloads.write_inputs(args.workload, args.seed, inputs)
    setup.stop()
    record = {"setup_s": setup.ref_s,
              "setup_wall_s": time.monotonic() - args.spawned_at - setup.busy,
              "input_sha256": hashes}
    if args.setup_only:
        (out / "pass.json").write_text(json.dumps(record, indent=1))
        return 0
    cases = workloads.cases_for(args.workload)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    sampler = SpeedSampler(PASS_PERIOD_S)
    results = []
    start, start_cpu = time.perf_counter(), time.process_time()
    if tracer is None:
        sampler.start()
    for case in cases:
        code, wall, cpu, err = run_case(cli, case.argv(inputs, out), sampler)
        results.append({"name": case.name, "exit_code": code,
                        "wall_s": wall, "cpu_s": cpu, "stderr": err[-2000:]})
    if tracer is None:
        sampler.stop()
        record["run_ref_s"] = sampler.ref_s
        record["speed_samples"] = sampler.samples
    wall = time.perf_counter() - start
    cpu = time.process_time() - start_cpu
    record["run_s"] = wall - sampler.busy
    record["run_cpu_s"] = cpu - sampler.busy
    record["cases"] = results
    if tracer is not None:
        tracer.uninstall()
        from tracing import summary
        record["layers"], record["absent"] = summary(tracer)
        record["spans"] = len(tracer.spans)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    (out / "pass.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
