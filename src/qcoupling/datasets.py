"""Tabular datasets for the standard figures, and CSV/JSON emission.

Datasets are plain rectangular tables: column names plus numeric rows.
Values are written with 12 significant digits in both formats, so a
parsed emission reproduces the dataset at that precision.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from . import qdist, qft
from .qseq import conj_hat


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


def _fmt(v) -> str:
    return f"{v + 0.0:.12g}"


def _formatted_columns(dataset: Dataset) -> list:
    """Each column's cells at 12 significant digits, the one formatting
    pass both emitters share; adding 0.0 turns -0 into 0."""
    return [[f"{v:.12g}" for v in (col + 0.0).tolist()]
            for col in dataset.rows.T]


def to_csv(dataset: Dataset) -> str:
    lines = [",".join(dataset.columns)]
    lines.extend(map(",".join, zip(*_formatted_columns(dataset))))
    return "\n".join(lines) + "\n"


def to_json(dataset: Dataset) -> str:
    cols = [list(map(float, col)) for col in _formatted_columns(dataset)]
    obj = {"columns": list(dataset.columns), "rows": list(zip(*cols))}
    if dataset.meta:
        obj["meta"] = dataset.meta
    return json.dumps(obj) + "\n"


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
