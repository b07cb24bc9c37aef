"""The block formatter of the CSV writers against per-value repr."""

import numpy as np
import pytest

from rdmprop.bath import BathModel, sample_spectra
from rdmprop.output import SPECTRA_FORMAT, format_rows, write_spectra_csv

# signed zeros, a NaN of either sign, infinities, the smallest subnormal,
# both sides of repr's switch to exponents (1e16 and 1e-05), and a value
# whose shortest repr has 17 digits
SPECIAL = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e16,
           9999999999999998.0, 1e-05, 0.0001, 0.1 + 0.2]


def repr_lines(block) -> str:
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in np.asarray(block, dtype=float).tolist())


@pytest.mark.parametrize("block", [
    np.array([SPECIAL, SPECIAL[::-1]]),
    np.array([SPECIAL]),
    np.array(SPECIAL)[:, None],
    np.full((5, 3), 0.1 + 0.2),
], ids=["special", "one-row", "one-column", "all-equal"])
def test_format_rows_equals_repr_join(block):
    assert format_rows(block) == [repr_lines(block)]


def test_format_rows_formats_blocks_of_other_widths_together():
    rng = np.random.default_rng(3)
    a = rng.choice(SPECIAL + [1.5, -2.25], size=(7, 4))
    b = np.hstack([a[:, :1], rng.standard_normal((7, 2)), a[:, -1:]])
    assert format_rows(a, b) == [repr_lines(a), repr_lines(b)]


def test_spectra_csv_equals_per_row_writer(tmp_path):
    omegas = np.concatenate([np.linspace(-0.3, 0.3, 61), [-0.0, 1e-05]])
    columns = sample_spectra(BathModel(lam=0.01, temperature=50.0), omegas)
    path = write_spectra_csv(columns, tmp_path / "spectra.csv")
    lines = [f"# format: {SPECTRA_FORMAT}",
             "omega,gamma_hat,decay_rate,lamb_xi"]
    lines += [",".join(repr(float(x)) for x in row) for row in zip(*columns)]
    assert path.read_text() == "\n".join(lines) + "\n"
