"""Tabular datasets for the standard figures, and CSV/JSON emission.

Datasets are plain rectangular tables: column names plus numeric rows.
Both formats go to a text stream 2**14 rows at a time, so memory does
not grow with the table.  Each value is written with 12 significant
digits, so a parsed emission reproduces the dataset at that precision;
JSON writes the shortest round-trip form of that 12-digit value.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .qseq import conj_hat

_TINY = np.finfo(float).smallest_normal
_BLOCK = 2**14  # rows formatted per write


@dataclass
class Dataset:
    """A rectangular table: column names, rows held as one (n x columns)
    float array, and optional JSON metadata.  rows may also be given as a
    list of row tuples.  A NaN, a width that does not match the columns,
    ragged rows and complex entries raise DomainError."""

    columns: list
    rows: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.columns or not all(
                isinstance(c, str) and c for c in self.columns):
            raise DomainError("column names must be nonempty strings")
        width = len(self.columns)
        try:
            rows = np.asarray(self.rows)
        except ValueError as e:
            raise DomainError(f"rows are ragged: {e}") from None
        if (rows.dtype.kind not in "biuf"
                or rows.size and (rows.ndim != 2 or rows.shape[1] != width)):
            raise DomainError(f"rows must be real with {width} columns, "
                              f"got {rows.dtype} of shape {rows.shape}")
        self.rows = rows.reshape(-1, width).astype(float, copy=False)
        if np.isnan(self.rows).any():
            raise DomainError("NaN entries are not allowed")


def _blocks(dataset: Dataset):
    """Row count and row-major cells per _BLOCK rows; + 0.0 maps -0 to 0."""
    for i in range(0, len(dataset.rows), _BLOCK):
        block = dataset.rows[i:i + _BLOCK] + 0.0
        yield len(block), block.ravel().tolist()


def to_csv(dataset: Dataset, fh) -> None:
    """Write the table as CSV to the text stream fh."""
    row = ",".join(["%.12g"] * len(dataset.columns)) + "\n"
    fh.write(",".join(dataset.columns) + "\n")
    for n, cells in _blocks(dataset):
        fh.write(row * n % tuple(cells))


def to_json(dataset: Dataset, fh) -> None:
    """Write the table as one line of JSON to the text stream fh."""
    row = "[" + ", ".join(["%s"] * len(dataset.columns)) + "]"
    fh.write('{"columns": %s, "rows": [' % json.dumps(list(dataset.columns)))
    sep = ""
    for n, values in _blocks(dataset):
        cells = ("%.12g " * len(values) % tuple(values)).split()
        # At most 12 significant digits already are the digits of the
        # shortest round-trip form of the value; only the style differs.
        v = np.array(cells, dtype=float)
        a = np.abs(v)
        for i in np.flatnonzero((a < 1e12) & (v == np.trunc(v))).tolist():
            cells[i] += ".0"
        # %g goes scientific from 1e12, repr from 1e16; inf is Infinity; a
        # subnormal holds fewer than 12 digits
        restyle = ((a >= 1e12) & (a < 1e16) | np.isinf(a)
                   | (a > 0) & (a < _TINY))
        for i in np.flatnonzero(restyle).tolist():
            cells[i] = json.dumps(v[i].item())
        fh.write(sep + ", ".join([row] * n) % tuple(cells))
        sep = ", "
    meta = ', "meta": ' + json.dumps(dataset.meta) if dataset.meta else ""
    fh.write("]" + meta + "}\n")


def _figure_couplings(fid):
    if fid == 2:
        return [0.5, 1.0, 2.0, 5.0]
    return [-0.4, -1.0 / 3.0, -0.3, -0.04, -0.01, 0.0, 0.01, 0.1, 0.5, 1.0]


def figure_dataset(fid: int) -> Dataset:
    """Data behind the four standard figures.

    1: the conjugate coupling hat(q) over q in [-1.9, 6];
    2: conjugate pairs of unit-scale generalized Gaussians;
    3: normalization constants of conjugate couplings and their ratio;
    4: closed-form transform of the uniform density across couplings.
    """
    # imported here: emitting a table needs neither module
    from . import qdist, qft

    if fid == 1:
        qs = np.arange(-190, 601) / 100.0
        hat = [conj_hat(q) for q in qs.tolist()]
        return Dataset(["q", "hat_q"], np.column_stack([qs, hat]))

    if fid == 2:
        xs = np.arange(-300, 301) / 100.0
        blocks = []
        for q in _figure_couplings(2):
            base = qdist.QGaussian(q, 0.0, 1.0)
            pair = qdist.conjugate_pair(base, qdist.PRESERVE_NORMALIZATION)
            for member in (base, pair):
                pdf = qdist.qgaussian_pdf(member, xs)
                blocks.append(np.column_stack(
                    [np.full(xs.size, member.q), xs, pdf]))
        meta = {
            "sigma_sq": 1.0,
            "couplings": _figure_couplings(2),
            "note": "coupling values and the matched-amplitude conjugate "
                    "convention are library choices",
        }
        return Dataset(["q", "x", "pdf"], np.vstack(blocks), meta)

    if fid == 3:
        qs = np.arange(1, 101) * 0.05
        cq = np.array([qdist.c_q(q) for q in qs.tolist()])
        ch = np.array([qdist.c_q(conj_hat(q)) for q in qs.tolist()])
        return Dataset(["q", "c_q", "c_hat", "ratio"],
                       np.column_stack([qs, cq, ch, ch / cq]))

    if fid == 4:
        ws = np.arange(0, 1001) * 0.05
        blocks = [np.column_stack([np.full(ws.size, q), ws,
                                   qft.qft_uniform_closed(q, ws)])
                  for q in _figure_couplings(4)]
        meta = {
            "couplings": _figure_couplings(4),
            "note": "coupling values are a library choice around the "
                    "critical damping point -1/3",
        }
        return Dataset(["q", "w", "value"], np.vstack(blocks), meta)

    raise DomainError(f"figure id must be 1..4, got {fid}")
