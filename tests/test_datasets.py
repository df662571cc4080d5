"""The CSV and JSON emitters against per-value reference emitters.

The references format each cell on its own at 12 significant digits, and
JSON parses each cell back to a float for `json.dumps` to write; the
emitters under test write the table in blocks of `datasets._BLOCK` rows,
format each block in one call and patch the cells whose JSON form differs
in style.  Both must write the same bytes, whatever the block size and
wherever a block boundary falls.
"""

import io
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcoupling import datasets
from qcoupling.datasets import Dataset


def emitted(emit, dataset):
    fh = io.StringIO()
    emit(dataset, fh)
    return fh.getvalue()


def _reference_columns(dataset):
    return [[f"{v:.12g}" for v in (col + 0.0).tolist()]
            for col in dataset.rows.T]


def reference_csv(dataset):
    lines = [",".join(dataset.columns)]
    lines.extend(map(",".join, zip(*_reference_columns(dataset))))
    return "\n".join(lines) + "\n"


def reference_json(dataset):
    cols = [list(map(float, col)) for col in _reference_columns(dataset)]
    obj = {"columns": list(dataset.columns), "rows": list(zip(*cols))}
    if dataset.meta:
        obj["meta"] = dataset.meta
    return json.dumps(obj) + "\n"


def _log_uniform(sign, exponent):
    return sign * 10.0 ** exponent


values = st.one_of(
    # 10**-323.3 rounds to the least subnormal, 10**308.25 is below the
    # largest float
    st.builds(_log_uniform, st.sampled_from([-1.0, 1.0]),
              st.floats(min_value=-323.3, max_value=308.25)),
    st.integers(min_value=-10**17, max_value=10**17).map(float),
    # where %g goes scientific and repr stays positional
    st.integers(min_value=10**12, max_value=10**16).map(float),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 0.1 + 0.2,
                     2.9999999999999, 5e-324, -2.2250738585072014e-308]),
)


@st.composite
def tables(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.tuples(*[values] * width), max_size=50))
    meta = draw(st.sampled_from([{}, {"note": "meta", "q": [0.5, -1.0]}]))
    return Dataset(["a", "b", "c", "d"][:width], rows, meta)


@given(tables())
@example(Dataset(["a"], [(1.0,), (1e12,), (math.inf,), (5e-324,)]))
@example(Dataset(["a", "b"], [], {"note": "empty"}))
@settings(max_examples=300, deadline=None)
def test_emitters_match_the_per_value_reference(dataset):
    # the module's block size, and blocks small enough that the drawn
    # tables span several
    for block in (datasets._BLOCK, 1, 2, 3):
        with mock.patch.object(datasets, "_BLOCK", block):
            assert emitted(datasets.to_csv, dataset) == reference_csv(dataset)
            assert emitted(datasets.to_json, dataset) == reference_json(
                dataset)


_SPECIAL = [-0.0, math.inf, 5e-324, 1e12]


def assert_same(got, want):
    # names the first differing character: pytest's own diff of two
    # megabyte strings takes minutes
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        j = max(i - 40, 0)
        pytest.fail(f"differ at character {i}: "
                    f"{got[j:i + 40]!r} != {want[j:i + 40]!r}")


@pytest.mark.parametrize("meta", [{}, {"note": "meta", "q": [0.5, -1.0]}])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_block_boundaries(offset, meta):
    # each row next to a boundary holds every cell whose JSON form is
    # patched, and the table ends one row short of, at or past a block
    n = datasets._BLOCK + offset
    rng = np.random.default_rng(offset + 1)
    rows = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-20, 20, (n, 4))
    for r in (0, datasets._BLOCK - 2, datasets._BLOCK - 1, datasets._BLOCK,
              n - 1):
        if r < n:
            rows[r] = np.roll(_SPECIAL, r)
    dataset = Dataset(["a", "b", "c", "d"], rows, meta)
    assert_same(emitted(datasets.to_csv, dataset), reference_csv(dataset))
    assert_same(emitted(datasets.to_json, dataset), reference_json(dataset))
