"""CSV and JSON writers for trajectories, spectra, and channel tables.

Every CSV starts with a `# format:` line naming its layout so downstream
tooling can dispatch without guessing. Floats are written with repr so
round-tripping is lossless. Float tables are formatted ``BLOCK_SAMPLES``
rows at a time by ``format_rows``, which formats each distinct value of a
block once.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
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


def format_rows(*blocks) -> list[str]:
    """CSV text of each 2-D float block: one line per row, every value as
    its repr, so the text equals ``",".join(map(repr, row))`` lines.

    One ``np.unique`` over the bit patterns of all blocks (so -0.0 and 0.0
    stay apart) finds their distinct values; each is formatted once, as a
    ``"v,"`` and a ``"v\\n"`` token, and a block's text is its tokens,
    gathered through the inverse index and joined.
    """
    bits = [np.ascontiguousarray(b, dtype=np.float64).view(np.int64)
            for b in blocks]
    unique, inverse = np.unique(np.concatenate([b.ravel() for b in bits]),
                                return_inverse=True)
    text = list(map(repr, unique.view(np.float64).tolist()))
    tokens = np.array([t + "," for t in text] + [t + "\n" for t in text],
                      dtype=object)
    out, start = [], 0
    for b in bits:
        index = inverse[start:start + b.size].reshape(b.shape)
        start += b.size
        index[:, -1] += len(text)
        out.append("".join(tokens[index.ravel()].tolist()))
    return out


def _write_tables(paths, headers, tables) -> None:
    """Write each table, a list of column arrays (n rows, one or more
    columns each) with one n for all tables, as a CSV under its header
    lines. Rows go out ``BLOCK_SAMPLES`` at a time, and the blocks of all
    tables at one position are formatted together."""
    with ExitStack() as stack:
        outs = [stack.enter_context(Path(p).open("w")) for p in paths]
        for out, header in zip(outs, headers):
            out.write("".join(line + "\n" for line in header))
        for start in range(0, len(tables[0][0]), BLOCK_SAMPLES):
            blocks = [np.hstack([c[start:start + BLOCK_SAMPLES]
                                 for c in table]) for table in tables]
            for out, text in zip(outs, format_rows(*blocks)):
                out.write(text)


def _trajectory_table(traj):
    header = ["time"] + [f"pop_{k}" for k in range(traj.dim)] + [
        "min_eigenvalue", "trace"]
    columns = [traj.times[:, None], traj.populations,
               traj.occupations[:, :1], traj.traces[:, None]]
    if traj.defect is not None:
        header.append("hole_defect")
        columns.append(traj.defect[:, None])
    return [f"# format: {TRAJECTORY_FORMAT}", ",".join(header)], columns


def write_trajectory_csv(traj, path, hole_path=None) -> Path:
    """One row per sample: time, eigenbasis populations, minimum eigenvalue,
    trace, and the hole co-propagation defect when present.

    Rows are formatted and written ``BLOCK_SAMPLES`` at a time, from the
    trajectory's packed populations and cached reductions. With
    ``hole_path``, the co-propagated hole trajectory ``traj.hole`` is
    written there in the same pass, so the values both files hold (the
    times and the defect) are formatted once. Returns ``path``.
    """
    trajs, paths = [traj], [path]
    if hole_path is not None:
        if traj.hole is None:
            raise ValueError("the trajectory has no co-propagated hole")
        trajs.append(traj.hole)
        paths.append(hole_path)
    headers, tables = zip(*map(_trajectory_table, trajs))
    _write_tables(paths, headers, tables)
    return Path(path)


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
    _write_tables([path], [[f"# format: {SPECTRA_FORMAT}",
                            "omega,gamma_hat,decay_rate,lamb_xi"]],
                  [[np.asarray(c, dtype=float)[:, None] for c in columns]])
    return Path(path)


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
