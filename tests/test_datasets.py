"""The CSV and JSON emitters against per-value reference emitters.

The references format each cell on its own at 12 significant digits, and
JSON parses each cell back to a float for `json.dumps` to write; the
emitters under test format every cell in one call and patch the cells
whose JSON form differs in style.  Both must write the same bytes.
"""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcoupling import datasets
from qcoupling.datasets import Dataset


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
    assert datasets.to_csv(dataset) == reference_csv(dataset)
    assert datasets.to_json(dataset) == reference_json(dataset)
