"""CSV and JSON writers for trajectories, spectra, and channel tables.

Every CSV starts with a `# format:` line naming its layout so downstream
tooling can dispatch without guessing. Floats are written with repr so
round-tripping is lossless.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .propagate import BLOCK_SAMPLES

TRAJECTORY_FORMAT = "trajectory-csv v1"
SPECTRA_FORMAT = "spectra-csv v1"
CHANNELS_FORMAT = "channels-csv v1"
SWEEP_FORMAT = "sweep-csv v1"

OUTPUT_DIR_ENV = "RDMPROP_OUTPUT_DIR"


def resolve_output_dir(explicit=None) -> Path:
    """Pick the output directory: explicit argument, environment, or cwd."""
    if explicit is not None:
        path = Path(explicit)
    elif os.environ.get(OUTPUT_DIR_ENV):
        path = Path(os.environ[OUTPUT_DIR_ENV])
    else:
        path = Path.cwd()
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fmt(x) -> str:
    return repr(float(x))


def write_trajectory_csv(traj, path) -> Path:
    """One row per sample: time, eigenbasis populations, minimum eigenvalue,
    trace, and the hole co-propagation defect when present.

    Rows are formatted and written to the open file ``BLOCK_SAMPLES`` at a
    time, from the trajectory's packed populations and cached reductions.
    """
    path = Path(path)
    d = traj.dim
    header = ["time"] + [f"pop_{k}" for k in range(d)] + ["min_eigenvalue",
                                                          "trace"]
    columns = [traj.times[:, None], traj.populations,
               traj.occupations[:, :1], traj.traces[:, None]]
    if traj.defect is not None:
        header.append("hole_defect")
        columns.append(traj.defect[:, None])
    with path.open("w") as out:
        out.write(f"# format: {TRAJECTORY_FORMAT}\n{','.join(header)}\n")
        for start in range(0, len(traj), BLOCK_SAMPLES):
            rows = np.hstack([c[start:start + BLOCK_SAMPLES] for c in columns])
            out.write("".join(",".join(map(repr, row)) + "\n"
                              for row in rows.tolist()))
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def write_metadata_json(data: dict, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(_jsonable(data), indent=2, sort_keys=True)
                    + "\n")
    return path


def write_spectra_csv(columns, path) -> Path:
    """Bath spectral table from the columns omega, gamma_hat, decay_rate and
    lamb_xi: one row per frequency sample."""
    path = Path(path)
    lines = [f"# format: {SPECTRA_FORMAT}",
             "omega,gamma_hat,decay_rate,lamb_xi"]
    for row in zip(*(np.asarray(c).tolist() for c in columns)):
        lines.append(",".join(map(_fmt, row)))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_channels_csv(spec, path) -> Path:
    """Per-channel table: one row per coupling operator and frequency."""
    path = Path(path)
    lines = [f"# format: {CHANNELS_FORMAT}",
             "coupling,frequency,op_max_norm,diagonal_rate"]
    for ch, rates in zip(spec.channel_sets, spec.diagonal_rates()):
        for m, (w, rate) in enumerate(zip(ch.frequencies, rates)):
            norm = np.max(np.abs(ch.coupling[ch.channel == m]))
            lines.append(",".join([ch.label, _fmt(w), _fmt(norm), _fmt(rate)]))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_sweep_csv(rows, header, path) -> Path:
    path = Path(path)
    lines = [f"# format: {SWEEP_FORMAT}", ",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) if isinstance(x, (str, int))
                              else _fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path
