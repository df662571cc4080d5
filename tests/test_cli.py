import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcoupling
from qcoupling import cli, datasets, qdist, qseq, sde
from qcoupling.datasets import Dataset
from qcoupling.errors import DomainError


def emitted(emit, dataset):
    """What datasets.to_csv or to_json writes for dataset, as a string."""
    fh = io.StringIO()
    emit(dataset, fh)
    return fh.getvalue()


def _has_vmhwm():
    try:
        with open("/proc/self/status") as fh:
            return any(line.startswith("VmHWM:") for line in fh)
    except OSError:
        return False


def run_cli(args, capsys):
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_eval_success(self, capsys):
        code, out, _ = run_cli(["eval", "exp_q", "--q", "0.5", "--x", "1.2"],
                               capsys)
        assert code == 0
        assert float(out) == pytest.approx(2.56, abs=1e-12)

    def test_pole_is_domain_error(self, capsys):
        code, out, err = run_cli(["seq", "hat", "--q", "-2"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("PoleError:")

    def test_bad_figure_id_is_usage_error(self, capsys):
        code, _, err = run_cli(["figure", "9"], capsys)
        assert code == 2
        assert "invalid choice" in err

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(["eval", "exp_q", "--q", "1", "--zz", "2"],
                       capsys)[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli(["eval", "exp_q", "--x", "1.0"], capsys)[0] == 2

    def test_binary_needs_y(self, capsys):
        code, _, err = run_cli(["eval", "q_add", "--q", "0.3", "--x", "0.5"],
                               capsys)
        assert code == 2
        assert "--y" in err

    @pytest.mark.filterwarnings("error")
    def test_classical_overflow_prints_inf(self, capsys):
        code, out, _ = run_cli(["eval", "exp_q", "--q", "0", "--x", "1000"],
                               capsys)
        assert code == 0
        assert out.strip() == "inf"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["closed", "numeric"])
    def test_compact_transform_far_frequency_prints_zero(self, capsys, method):
        code, out, err = run_cli(
            ["transform", "gaussian", "--q", "2", "--method", method,
             "--w-min", "1e160", "--w-max", "1e160", "--n", "1"], capsys)
        assert (code, err) == (0, "")
        row = out.splitlines()[1].split(",")
        assert row[0] == "1e+160" and set(row[1:]) == {"0"}

    @pytest.mark.filterwarnings("error")
    def test_sample_beyond_float_range_is_numerics_error(self, capsys):
        code, out, err = run_cli(["dist", "sample", "--q", "-1.999", "--n",
                                  "5", "--seed", "1"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("NumericsError:")

    @pytest.mark.parametrize("args", [
        ["dist", "sample", "--q", "0.5", "--n", "3", "--seed", "-1"],
        ["simulate", "--seed", "-3", "--steps", "100", "--n-paths", "2",
         "--burn-in", "1"],
    ], ids=["dist", "simulate"])
    def test_negative_seed_is_domain_error(self, args):
        proc = subprocess.run(
            [sys.executable, "-m", "qcoupling.cli", *args],
            capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("DomainError: seed")
        assert "Traceback" not in proc.stderr

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, want", [
        (["eval", "q_prod", "--q", "2", "--x", "1e300", "--y", "2"], "1e+300"),
        (["eval", "q_div", "--q", "3", "--x", "1e200", "--y", "1e-200"],
         "1e+200"),
        (["seq", "z", "--q", "1e308", "--n", "5"], "0.4"),
    ], ids=["q_prod", "q_div", "seq_z"])
    def test_values_past_the_float_range(self, capsys, args, want):
        code, out, err = run_cli(args, capsys)
        assert (code, out.strip(), err) == (0, want, "")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, want", [
        # x + y and q x y overflow with opposite signs; the exact sum
        # 2e308 - 1e616 saturates
        (["eval", "q_add", "--q", "-1", "--x", "1e308", "--y", "1e308"], "-inf"),
        # past |q log x| = sqrt(eps) the band leaves its continuation
        (["eval", "q_prod", "--q", "1e-10", "--x", "1", "--y", "1e300"], "1e+300"),
        (["eval", "q_div", "--q", "1e-10", "--x", "1e300", "--y", "1"], "1e+300"),
        # x - y and 1 + q*y overflow together; the quotient is -2e-10
        (["eval", "q_sub", "--q", "1e10", "--x=-1e308", "--y", "1e308"], "-2e-10"),
        (["eval", "q_sub", "--q", "1e10", "--x", "1e308", "--y=-1e308"], "-2e-10"),
        # q*x overflows where q*x*y = -1e10 does not
        (["eval", "q_add", "--q=-1e10", "--x", "1e300", "--y", "1e-300"], "1e+300"),
    ], ids=["q_add", "band_q_prod", "band_q_div", "q_sub", "q_sub_mirror",
            "q_add_product"])
    def test_saturation_and_band_edge_values(self, capsys, args, want):
        code, out, err = run_cli(args, capsys)
        assert (code, out.strip(), err) == (0, want, "")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, error", [
        (["transform", "gaussian", "--q", "-1.5", "--a", "1e300"], "NumericsError"),
        (["transform", "gaussian", "--q", "-1.5", "--a", "1e-300"], "NumericsError"),
        (["transform", "gaussian", "--q", "3", "--a", "1e300"], "NumericsError"),
        (["transform", "gaussian", "--q", "-1.5", "--a", "1e300", "--method",
          "numeric"], "NumericsError"),
        (["transform", "uniform", "--q", "1e5"], "NumericsError"),
        (["transform", "uniform", "--q", "1e5", "--method", "numeric"],
         "NumericsError"),
        (["transform", "uniform", "--q", "-0.9999999999", "--conjugate"],
         "NumericsError"),
        (["eval", "intn_exp_q", "--q", "0.5", "--x", "1", "--n", "3000", "--a",
          "1e-300"], "NumericsError"),
        (["eval", "dn_exp_q", "--q", "-0.5", "--x", "1", "--n", "3000", "--a",
          "1e300"], "NumericsError"),
        (["seq", "z", "--q", "1e3", "--n", "1" + "0" * 400], "DomainError"),
    ], ids=["gaussian_wide", "gaussian_narrow", "gaussian_compact",
            "gaussian_numeric", "uniform", "uniform_numeric", "uniform_conjugate",
            "intn_exp_q", "dn_exp_q", "seq_z"])
    def test_typed_errors_past_the_float_range(self, capsys, args, error):
        # a factor such as a^(2q), 2^q, a^-n or n*q leaves the float range
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"{error}: ")

    def test_tiny_dt_is_domain_error(self, capsys):
        code, out, err = run_cli(["simulate", "--seed", "1", "--dt", "1e-320"],
                                 capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("DomainError: dt * tau")

    def test_subnormalizable_dist_is_error(self, capsys):
        code, _, err = run_cli(["dist", "cq", "--q", "-2.5"], capsys)
        assert code == 1
        assert "DomainError" in err


# magnitudes log-uniform over [1e-320, 1e308], either sign; 0, +-inf and nan
_eval_floats = st.one_of(
    st.sampled_from([0.0, math.inf, -math.inf, math.nan]),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([1.0, -1.0]),
              st.floats(min_value=-320.0, max_value=308.0)))


def _exits_cleanly(argv):
    # the command prints no nan, or fails with a typed error or a usage
    # error, and warns of nothing
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.run(argv)
    assert code in (0, 1, 2)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "nan" not in out.getvalue()


@given(fn=st.sampled_from(sorted(cli._UNARY + cli._BINARY + cli._CALCULUS)),
       q=_eval_floats, x=_eval_floats, y=_eval_floats, a=_eval_floats,
       n=st.integers(min_value=1, max_value=3))
@example(fn="dn_exp_q", q=-8.786577955100798e+133, x=3.0871996106979176e+300,
         y=0.0, a=2.7921561374406465e-278, n=3)
@example(fn="intn_exp_q", q=3.205587220852264e-107, x=2.1658917264676225e-91,
         y=0.0, a=1.3274711523023983e+120, n=3)
@example(fn="dn_exp_q", q=0.25, x=1e300, y=0.0, a=1e300, n=1)
@example(fn="intn_exp_q", q=-0.25, x=-1e300, y=0.0, a=1e300, n=1)
@settings(max_examples=1000, deadline=None)
def test_eval_exits_cleanly_on_any_float(fn, q, x, y, a, n):
    _exits_cleanly(["eval", fn, f"--q={q!r}", f"--x={x!r}", f"--y={y!r}",
                    f"--a={a!r}", f"--n={n}"])


@given(name=st.sampled_from(sorted(cli._SEQ_MAPS) + ["z"]), q=_eval_floats,
       alpha=_eval_floats,
       n=st.one_of(st.integers(-4, 4), st.integers(-10**400, 10**400)))
@example(name="z", q=1e3, alpha=2.0, n=10**400)
@settings(max_examples=200, deadline=None)
def test_seq_exits_cleanly_on_any_float(name, q, alpha, n):
    _exits_cleanly(["seq", name, f"--q={q!r}", f"--alpha={alpha!r}",
                    f"--n={n}"])


@given(what=st.sampled_from(["cq", "pdf"]), q=_eval_floats, x=_eval_floats,
       mu=_eval_floats, sigma_sq=_eval_floats)
@settings(max_examples=200, deadline=None)
def test_dist_exits_cleanly_on_any_float(what, q, x, mu, sigma_sq):
    _exits_cleanly(["dist", what, f"--q={q!r}", f"--x={x!r}", f"--mu={mu!r}",
                    f"--sigma-sq={sigma_sq!r}"])


@given(family=st.sampled_from(["gaussian", "uniform"]),
       conjugate=st.booleans(), q=_eval_floats, a=_eval_floats,
       beta=_eval_floats, w_min=_eval_floats, w_max=_eval_floats,
       n=st.integers(min_value=1, max_value=5))
@example(family="uniform", conjugate=False, q=0.5, a=1.0, beta=1.0,
         w_min=math.inf, w_max=5.0, n=3)
@example(family="uniform", conjugate=False, q=0.5, a=1.0, beta=1.0,
         w_min=-5.0, w_max=math.nan, n=3)
@example(family="uniform", conjugate=False, q=0.5, a=1.0, beta=1.0,
         w_min=-1e308, w_max=1e308, n=3)
@example(family="uniform", conjugate=False, q=1000.0, a=1.0, beta=1.0,
         w_min=0.0, w_max=1e10, n=3)
@example(family="gaussian", conjugate=True, q=0.5, a=1.0, beta=1.0,
         w_min=-1e308, w_max=1e308, n=3)
@settings(max_examples=200, deadline=None)
def test_transform_exits_cleanly_on_any_float(family, conjugate, q, a, beta,
                                              w_min, w_max, n):
    _exits_cleanly(["transform", family, f"--q={q!r}", f"--a={a!r}",
                    f"--beta={beta!r}", f"--w-min={w_min!r}",
                    f"--w-max={w_max!r}", f"--n={n}", "--method=closed",
                    *(["--conjugate"] if conjugate else [])])


def _or_in(low, high):
    # _eval_floats, or a float of the range where the command does work
    return st.one_of(_eval_floats, st.floats(low, high))


@given(q=_or_in(-2.0, 10.0), mu=_eval_floats, sigma_sq=_or_in(1e-3, 1e3),
       n=st.integers(min_value=1, max_value=50),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_dist_sample_exits_cleanly_on_any_float(q, mu, sigma_sq, n, seed):
    _exits_cleanly(["dist", "sample", f"--q={q!r}", f"--mu={mu!r}",
                    f"--sigma-sq={sigma_sq!r}", f"--n={n}", f"--seed={seed}"])


@given(family=st.sampled_from(["gaussian", "uniform"]),
       conjugate=st.booleans(), q=_or_in(-2.0, 3.0), a=_or_in(0.1, 10.0),
       beta=_or_in(0.1, 10.0), w_min=_or_in(-10.0, 10.0),
       w_max=_or_in(-10.0, 10.0), n=st.integers(min_value=1, max_value=3))
@example(family="gaussian", conjugate=False, q=0.0, a=1.0, beta=1e-307,
         w_min=0.0, w_max=0.0, n=1)
@example(family="gaussian", conjugate=False, q=0.1, a=1e-115, beta=1.0,
         w_min=0.0, w_max=0.0, n=1)
@settings(max_examples=200, deadline=None)
def test_numeric_transform_exits_cleanly_on_any_float(family, conjugate, q, a,
                                                      beta, w_min, w_max, n):
    _exits_cleanly(["transform", family, f"--q={q!r}", f"--a={a!r}",
                    f"--beta={beta!r}", f"--w-min={w_min!r}",
                    f"--w-max={w_max!r}", f"--n={n}", "--method=numeric",
                    *(["--conjugate"] if conjugate else [])])


@given(m=_or_in(0.0, 5.0), a=_or_in(0.01, 5.0), tau=_or_in(0.01, 5.0),
       dt=_or_in(1e-3, 0.1), steps=st.integers(min_value=1, max_value=50),
       n_paths=st.integers(min_value=1, max_value=500),
       burn_in=st.one_of(st.none(), st.integers(min_value=0, max_value=50)),
       seed=st.integers(min_value=0, max_value=2**32), fit=st.booleans())
@example(m=0.25, a=0.5, tau=0.75, dt=0.1, steps=50, n_paths=400, burn_in=0,
         seed=1, fit=True)
@settings(max_examples=200, deadline=None)
def test_simulate_exits_cleanly_on_any_float(m, a, tau, dt, steps, n_paths,
                                             burn_in, seed, fit):
    # the example fits 4 samples of each of 400 paths
    _exits_cleanly(["simulate", f"--m={m!r}", f"--a={a!r}", f"--tau={tau!r}",
                    f"--dt={dt!r}", f"--steps={steps}",
                    f"--n-paths={n_paths}", f"--seed={seed}",
                    *([] if burn_in is None else [f"--burn-in={burn_in}"]),
                    *(["--fit"] if fit else [])])


@given(figure=st.integers(min_value=0, max_value=5),
       fmt=st.sampled_from(["csv", "json"]))
@settings(max_examples=20, deadline=None)
def test_figure_exits_cleanly(figure, fmt):
    _exits_cleanly(["figure", str(figure), f"--format={fmt}"])


class TestScalarCommands:
    def test_seq_maps_match_library(self, capsys):
        for name, fn in (("hat", qseq.conj_hat), ("tilde", qseq.conj_tilde),
                         ("additive", qseq.dual_additive),
                         ("multiplicative", qseq.dual_multiplicative),
                         ("translate", qseq.translate)):
            code, out, _ = run_cli(["seq", name, "--q", "0.7"], capsys)
            assert code == 0
            assert float(out) == pytest.approx(fn(0.7), rel=1e-11)

    def test_seq_z_with_alpha(self, capsys):
        code, out, _ = run_cli(
            ["seq", "z", "--q", "0.5", "--n", "2", "--alpha", "2"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(qseq.z_n(0.5, 2), rel=1e-12)

    @pytest.mark.parametrize("args, want", [
        (["dn_exp_q", "--q", "0.25", "--a", "1e300", "--x", "1e300"], "inf"),
        (["intn_exp_q", "--q=-0.25", "--a", "1e300", "--x=-1e300"], "0"),
    ], ids=["dn", "intn"])
    def test_eval_calculus_past_the_float_range(self, capsys, args, want):
        # a*x overflows for a finite x: exp_q's limit, not an error on x
        assert run_cli(["eval", *args], capsys) == (0, want + "\n", "")

    def test_eval_calculus(self, capsys):
        code, out, _ = run_cli(
            ["eval", "dn_exp_q", "--q", "-0.5", "--x", "0.3", "--n", "2",
             "--a", "1.1"], capsys)
        assert code == 0
        from qcoupling.qcore import dn_exp_q
        assert float(out) == pytest.approx(dn_exp_q(-0.5, 1.1, 2, 0.3),
                                           rel=1e-12)

    @pytest.mark.parametrize("sigma_sq, why", [
        ("1e-320", "float range"),
        ("1e308", "float range"),
        ("inf", "must be finite"),
    ])
    def test_dist_pdf_names_sigma_sq(self, capsys, sigma_sq, why):
        # beta = 1/((2+q) sigma_sq) leaves the float range; the message
        # names what was passed
        code, out, err = run_cli(["dist", "pdf", "--q", "0.5", "--sigma-sq",
                                  sigma_sq, "--x", "0"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("DomainError: sigma_sq") and why in err

    def test_dist_pdf(self, capsys):
        code, out, _ = run_cli(["dist", "pdf", "--q", "-1", "--x", "0"],
                               capsys)
        assert code == 0
        assert float(out) == pytest.approx(1.0 / math.pi, rel=1e-10)


class TestEmission:
    def test_csv_shape(self):
        ds = Dataset(["a", "b"], [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)])
        text = emitted(datasets.to_csv, ds)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0] == "a,b"
        assert text.endswith("\n")

    def test_empty_dataset_header_only(self):
        assert emitted(datasets.to_csv, Dataset(["a", "b"], [])) == "a,b\n"

    def test_twelve_significant_digits(self):
        ds = Dataset(["v"], [(math.pi,)])
        assert (emitted(datasets.to_csv, ds).splitlines()[1]
                == "3.14159265359")

    def test_json_round_trip(self):
        rows = [(1.0 / 3.0, 2e-15), (123456.789012345, -7.5)]
        ds = Dataset(["a", "b"], rows)
        parsed = json.loads(emitted(datasets.to_json, ds))
        assert parsed["columns"] == ["a", "b"]
        for got, want in zip(parsed["rows"], rows):
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-11)

    def test_json_meta_included(self):
        ds = Dataset(["a"], [(1.0,)], {"note": "hi"})
        assert json.loads(emitted(datasets.to_json, ds))["meta"] == {
            "note": "hi"}

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            Dataset(["a"], [(float("nan"),)])

    def test_rejects_ragged(self):
        with pytest.raises(DomainError):
            Dataset(["a", "b"], [(1.0,)])
        with pytest.raises(DomainError):
            Dataset(["a", "b"], [(1.0, 2.0), (3.0,)])
        with pytest.raises(DomainError):
            Dataset(["a", "b"], np.zeros(4))

    def test_rejects_complex(self):
        with pytest.raises(DomainError):
            Dataset(["a", "b"], [(1.0, 2.0 + 1e-3j)])
        with pytest.raises(DomainError):
            Dataset(["a"], np.ones((2, 1), dtype=complex))

    def test_golden_bytes(self):
        rows = [(-0.0, 0.0), (1e-300, 1e300), (1.0 / 3.0, 123456789012.5),
                (1e11, -7.5), (1e12, 1.23456789012e13), (5e-324, math.inf)]
        ds = Dataset(["a", "b"], rows)
        assert emitted(datasets.to_csv, ds) == (
            "a,b\n0,0\n1e-300,1e+300\n0.333333333333,123456789012\n"
            "100000000000,-7.5\n1e+12,1.23456789012e+13\n"
            "4.94065645841e-324,inf\n")
        assert emitted(datasets.to_json, ds) == (
            '{"columns": ["a", "b"], "rows": [[0.0, 0.0], [1e-300, 1e+300], '
            '[0.333333333333, 123456789012.0], [100000000000.0, -7.5], '
            '[1000000000000.0, 12345678901200.0], [5e-324, Infinity]]}\n')

    def test_array_and_tuples_emit_the_same_bytes(self):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(
            -20, 20, (40, 3))
        table[3, 1] = -0.0
        tuples = [tuple(row) for row in table.tolist()]
        meta = {"note": "same"}
        for emit in (datasets.to_csv, datasets.to_json):
            assert emitted(emit, Dataset(["a", "b", "c"], table, meta)) == (
                emitted(emit, Dataset(["a", "b", "c"], tuples, meta)))

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "fig1.csv"
        code, out, _ = run_cli(["figure", "1", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").splitlines()[0] == "q,hat_q"

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["figure", "1", "--out", str(tmp_path / "no" / "dir.csv")],
            capsys)
        assert code == 1
        assert err != ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_full_device_is_io_error(self, capsys):
        # several blocks: the error surfaces from a write, not the close
        code, out, err = run_cli(
            ["dist", "sample", "--q", "-0.5", "--n", "100000", "--seed", "1",
             "--out", "/dev/full"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("OSError: [Errno 28]")

    _SAMPLE = ["dist", "sample", "--q", "-0.5", "--n", "100000", "--seed", "1"]

    @pytest.mark.parametrize("argv, head", [
        pytest.param(_SAMPLE + ["--format", "csv"], b"x\n", id="csv"),
        pytest.param(_SAMPLE + ["--format", "json"], b'{"columns"', id="json"),
        pytest.param(["eval", "exp_q", "--q", "0.5", "--x", "1"], b"",
                     id="eval"),
        pytest.param(["seq", "hat", "--q", "1"], b"", id="seq"),
        pytest.param(["dist", "cq", "--q", "0.5"], b"", id="dist-cq"),
        pytest.param(["dist", "pdf", "--q", "0.5", "--x", "0"], b"",
                     id="dist-pdf"),
        pytest.param(["selfcheck"], b"", id="selfcheck"),
    ])
    def test_closed_stdout_exits_quietly(self, argv, head):
        # a table is larger than a pipe holds: the reader takes a few bytes
        # and closes, as `| head -1` does, and the writer meets the close.
        # The other subcommands write into a pipe whose reader is already
        # gone, as `| true` leaves it. stdout is block-buffered, as by
        # default.
        env = _src_env()
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        if not head:
            os.close(read_end)
        with subprocess.Popen(
                [sys.executable, "-m", "qcoupling.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env) as proc:
            os.close(write_end)
            if head:
                with open(read_end, "rb") as reader:
                    first = reader.read(100)
                assert first.startswith(head)
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")

    def test_closed_stdout_keeps_a_failing_exit_code(self, monkeypatch):
        # a selfcheck that fails while its reader is gone still exits 1;
        # its lines meet the closed pipe at the final flush
        from qcoupling import selfcheck

        def failing():
            print("FAIL  01 stub")
            return False

        monkeypatch.setattr(selfcheck, "run_selfcheck", failing)
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            assert cli.run(["selfcheck"]) == 1

    @pytest.mark.skipif(not _has_vmhwm(), reason="needs VmHWM in "
                        "/proc/self/status")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_the_table(self, tmp_path, fmt):
        # a whole-table format pass grew the peak by 78 MB (CSV) and
        # 150 MB (JSON) over a one-draw run; the 10**6 draws are 8 MB
        script = textwrap.dedent("""
            import json, sys
            from qcoupling import cli

            code = cli.run(sys.argv[1:])
            with open("/proc/self/status") as fh:
                kb = [int(line.split()[1]) for line in fh
                      if line.startswith("VmHWM:")]
            print(json.dumps([code, kb[0]]))
        """)
        peaks = []
        for n in (1, 10**6):
            code, kb = _fresh_report(
                script, "dist", "sample", "--q", "-0.5", "--n", str(n),
                "--seed", "1", "--format", fmt, "--out",
                str(tmp_path / f"draws.{fmt}"))
            assert code == 0
            peaks.append(kb / 1024)
        assert peaks[1] - peaks[0] < 40.0


class TestFigureDatasets:
    def test_fig1_fixed_point_row(self, capsys):
        code, out, _ = run_cli(["figure", "1"], capsys)
        assert code == 0
        assert "0,0" in out.splitlines()

    def test_fig1_grid(self):
        ds = datasets.figure_dataset(1)
        qs = [r[0] for r in ds.rows]
        assert qs[0] == pytest.approx(-1.9)
        assert qs[-1] == pytest.approx(6.0)
        assert len(qs) == 791

    def test_fig2_members_are_conjugate_pairs(self):
        ds = datasets.figure_dataset(2)
        qs = sorted(set(r[0] for r in ds.rows))
        for q in (0.5, 1.0, 2.0, 5.0):
            assert any(abs(v - q) < 1e-12 for v in qs)
            assert any(abs(v - qseq.conj_hat(q)) < 1e-12 for v in qs)

    def test_fig3_ratio_consistency(self):
        ds = datasets.figure_dataset(3)
        for q, cq, ch, ratio in ds.rows:
            assert cq == pytest.approx(qdist.c_q(q), rel=1e-12)
            assert ch == pytest.approx(qdist.c_q(qseq.conj_hat(q)), rel=1e-12)
            assert ratio == pytest.approx(ch / cq, rel=1e-12)

    def test_fig4_unit_coupling_row_is_one(self, capsys):
        code, out, _ = run_cli(["figure", "4", "--format", "json"], capsys)
        assert code == 0
        parsed = json.loads(out)
        ones = [r for r in parsed["rows"] if r[0] == 1.0]
        assert len(ones) == 1001
        assert all(r[2] == 1.0 for r in ones)

    def test_no_subnormalizable_couplings(self):
        for fid in (1, 2, 3, 4):
            for row in datasets.figure_dataset(fid).rows:
                assert row[0] > -2.0

    def test_bad_id_raises(self):
        with pytest.raises(DomainError):
            datasets.figure_dataset(5)


class TestTransformCommand:
    def test_closed_matches_library(self, capsys):
        code, out, _ = run_cli(
            ["transform", "uniform", "--q", "-0.5", "--w-min", "0",
             "--w-max", "2", "--n", "3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "w,value"
        from qcoupling.qft import qft_uniform_closed
        for line, w in zip(lines[1:], (0.0, 1.0, 2.0)):
            assert float(line.split(",")[1]) == pytest.approx(
                qft_uniform_closed(-0.5, w), rel=1e-11, abs=1e-12)

    def test_numeric_gaussian_meta(self, capsys):
        code, out, _ = run_cli(
            ["transform", "gaussian", "--q", "-0.5", "--n", "3",
             "--method", "numeric", "--format", "json"], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["meta"]["q_out"] == pytest.approx(-2.0 / 3.0)
        assert parsed["meta"]["est_abs_error"] < 1e-8

    @pytest.mark.parametrize("q", ["1e15", "2e16", "1e300"])
    def test_numeric_compact_near_the_conjugate_pole(self, capsys, q):
        code, out, err = run_cli(["transform", "gaussian", "--q", q,
                                  "--method", "numeric", "--n", "3"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"NumericsError: transform coupling {float(q)!r} ")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ["uniform", "gaussian"])
    @pytest.mark.parametrize("bounds, name", [
        (["--w-min=inf"], "--w-min must be finite"),
        (["--w-max=nan"], "--w-max must be finite"),
        (["--w-min=-1e308", "--w-max=1e308"], "--w-max - --w-min = inf"),
    ], ids=["inf", "nan", "span"])
    def test_frequency_bounds_must_be_finite(self, capsys, family, bounds,
                                             name):
        code, out, err = run_cli(["transform", family, "--q", "0.5", "--n",
                                  "3", *bounds], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"DomainError: {name}")

    def test_conjugate_pole_exit(self, capsys):
        code, _, err = run_cli(
            ["transform", "uniform", "--q", "-1", "--conjugate"], capsys)
        assert code == 1
        assert "PoleError" in err

    def test_conjugate_uniform_excluded_band_exit(self, capsys):
        # conj_tilde(-1.5) = -3 <= -2, as for the Gaussian and numeric routes
        code, out, err = run_cli(
            ["transform", "uniform", "--q", "-1.5", "--conjugate"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("DomainError: ") and "excluded band" in err


class TestSimulateCommand:
    def test_fit_row(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--seed", "3", "--n-paths", "40", "--steps", "5000",
             "--fit", "--format", "json"], capsys)
        assert code == 0
        parsed = json.loads(out)
        row = dict(zip(parsed["columns"], parsed["rows"][0]))
        assert row["q_pred"] == -0.5
        assert row["beta_pred"] == 1.0
        assert abs(row["q_est"] - row["q_pred"]) < 0.2
        assert row["n"] >= 1000

    def test_sample_rows_ordered(self, capsys):
        args = ["simulate", "--seed", "5", "--n-paths", "3", "--steps",
                "2000", "--burn-in", "200"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "path,step,x"
        paths = [float(l.split(",")[0]) for l in lines[1:]]
        steps = [float(l.split(",")[1]) for l in lines[1:]]
        assert paths == sorted(paths)
        first = [s for p, s in zip(paths, steps) if p == 0.0]
        assert first == sorted(first)
        assert first[0] == 200.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sample_rows_match_per_value_rows(self, capsys, fmt):
        code, out, _ = run_cli(
            ["simulate", "--seed", "6", "--n-paths", "3", "--steps", "900",
             "--burn-in", "50", "--format", fmt], capsys)
        assert code == 0
        cfg = sde.SdeConfig(steps=900, n_paths=3, burn_in=50, seed=6)
        xs = sde.simulate(cfg)
        per_path = cfg.samples_per_path
        rows = []
        for i in range(cfg.n_paths):
            for k in range(per_path):
                rows.append((float(i), float(cfg.burn_in + k * cfg.stride),
                             xs[i * per_path + k]))
        meta = {"M": cfg.M, "A": cfg.A, "tau": cfg.tau, "dt": cfg.dt,
                "steps": cfg.steps, "n_paths": cfg.n_paths,
                "burn_in": cfg.burn_in, "seed": cfg.seed}
        emit = datasets.to_csv if fmt == "csv" else datasets.to_json
        assert out == emitted(emit, Dataset(["path", "step", "x"], rows, meta))

    def test_seed_required(self, capsys):
        assert run_cli(["simulate"], capsys)[0] == 2

    def test_instability_exit(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--seed", "1", "--m", "20", "--tau", "1",
             "--dt", "0.05", "--steps", "3000", "--n-paths", "4",
             "--burn-in", "10"], capsys)
        assert code == 1
        assert "InstabilityError" in err


class TestDistSampleCommand:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_match_per_value_rows(self, capsys, fmt):
        code, out, _ = run_cli(
            ["dist", "sample", "--q", "-0.7", "--mu", "0.3", "--n", "400",
             "--seed", "12", "--format", fmt], capsys)
        assert code == 0
        xs = qdist.sample_qgaussian(qdist.QGaussian(-0.7, 0.3, 1.0), 400, 12)
        meta = {"q": -0.7, "mu": 0.3, "sigma_sq": 1.0, "seed": 12}
        emit = datasets.to_csv if fmt == "csv" else datasets.to_json
        assert out == emitted(emit, Dataset(["x"], [(v,) for v in xs], meta))


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["figure", "3"],
        ["dist", "sample", "--q", "-0.5", "--n", "50", "--seed", "9"],
        ["simulate", "--seed", "2", "--n-paths", "4", "--steps", "1500",
         "--burn-in", "100", "--format", "json"],
        ["transform", "gaussian", "--q", "0.5", "--n", "7",
         "--method", "numeric"],
    ])
    def test_identical_output(self, capsys, args):
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second


class TestSelfcheck:
    def test_passes_and_lists_suites(self, capsys):
        code, out, _ = run_cli(["selfcheck"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) >= 8
        assert all(l.startswith("PASS ") for l in lines)
        names = {l.split()[1] for l in lines}
        assert len(names) == len(lines)

    def test_perturbed_constant_fails_normalization(self, capsys,
                                                    monkeypatch):
        orig = qdist.c_q
        monkeypatch.setattr(qdist, "c_q", lambda q: orig(q) * (1.0 + 1e-3))
        code, out, _ = run_cli(["selfcheck"], capsys)
        assert code == 1
        assert any(l.startswith("FAIL normalization")
                   for l in out.splitlines())


def test_readme_cli_block(capsys, monkeypatch, tmp_path):
    # each command of README's CLI block exits 0 and prints what its
    # comment says
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    monkeypatch.chdir(tmp_path)
    said = []
    for line in block.split("\n```", 1)[0].splitlines():
        command, _, comment = line.partition("#")
        prog, *args = shlex.split(command)
        assert prog == "qcoupling"
        code, out, err = run_cli(args, capsys)
        assert code == 0, (line, err)
        if comment.strip():
            assert out.strip() == comment.strip(), line
            said.append(comment.strip())
    assert said == ["2.56", "-0.666666666667", "3.14159265359"]


def _src_env():
    src = os.path.dirname(os.path.dirname(qcoupling.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qcoupling.cli", "eval", "ln_q",
         "--q", "1", "--x", "2.0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(1.0)


# Every subcommand, the routes that integrate or minimise included.
_SCIPY_FREE = [
    ["eval", "exp_q", "--q", "0.5", "--x", "1.2"],
    ["seq", "hat", "--q", "1"],
    ["dist", "cq", "--q", "-1"],
    ["dist", "pdf", "--q", "0.5", "--x", "0.3"],
    ["dist", "sample", "--q", "-0.5", "--n", "20", "--seed", "7"],
    ["transform", "gaussian", "--q", "0.5"],
    ["transform", "gaussian", "--q", "0.5", "--conjugate"],
    ["transform", "gaussian", "--q", "-0.5", "--n", "3", "--method",
     "numeric"],
    ["transform", "gaussian", "--q", "0.5", "--n", "3", "--method",
     "numeric", "--conjugate"],
    ["transform", "uniform", "--q", "0.3", "--n", "3", "--method",
     "numeric"],
    ["simulate", "--seed", "3", "--n-paths", "40", "--steps", "5000",
     "--fit"],
    ["figure", "1"],
    ["figure", "2"],
    ["figure", "3"],
    ["figure", "4"],
    ["selfcheck"],
]


def test_scalar_routes_load_no_scipy():
    # the Python API's classical transform of a heavy tail, run last, is
    # the Fourier-cosine route that no subcommand reaches
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from qcoupling import cli, qft

        def scipy_loaded():
            return sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))

        report = {"after_import": scipy_loaded(), "codes": [],
                  "loaded": []}
        for args in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                report["codes"].append(cli.run(args))
            report["loaded"].append(scipy_loaded())
        qft.qft_numeric(qft.QGaussianShape(-1.0, 0.5, 1.0), 0.0,
                        [0.0, 0.1, 2.0])
        report["after_api"] = scipy_loaded()
        print(json.dumps(report))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(_SCIPY_FREE)],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_import"] == []
    assert report["codes"] == [0] * len(_SCIPY_FREE)
    assert report["loaded"] == [[]] * len(_SCIPY_FREE)
    assert report["after_api"] == []
    commands = {args[0] for args in _SCIPY_FREE}
    assert commands == set(cli._HANDLERS)


# What a cold process of each subcommand loads of the package beyond
# qcoupling and qcoupling.errors, and whether it loads numpy: every loaded
# module is compiled again on each start when bytecode is not cached.
_MODULE_BUDGET = [
    (["eval", "exp_q", "--q", "0.5", "--x", "1.2"], {"qcore", "qseq"}, True),
    (["seq", "hat", "--q", "1"], {"qseq"}, False),
    (["dist", "cq", "--q", "-1"], {"qseq"}, False),
    (["dist", "pdf", "--q", "0.5", "--x", "0.3"],
     {"_chunks", "_quadrature", "qcore", "qdist", "qseq"}, True),
    (["dist", "sample", "--q", "-0.5", "--n", "20", "--seed", "7"],
     {"_chunks", "_quadrature", "datasets", "qcore", "qdist", "qseq"}, True),
    (["transform", "gaussian", "--q", "0.5", "--n", "3"],
     {"_chunks", "_quadrature", "datasets", "qcore", "qdist", "qft", "qseq"},
     True),
    (["simulate", "--seed", "3", "--n-paths", "4", "--steps", "50",
      "--burn-in", "10"],
     {"_chunks", "_quadrature", "datasets", "qcore", "qdist", "qseq", "sde"},
     True),
    (["figure", "3"],
     {"_chunks", "_quadrature", "datasets", "qcore", "qdist", "qft", "qseq"},
     True),
    (["selfcheck"],
     {"_chunks", "_quadrature", "qcore", "qdist", "qft", "qseq", "sde",
      "selfcheck"}, True),
]


def _fresh_report(script, *argv):
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("args, modules, numpy_loaded", _MODULE_BUDGET,
                         ids=[" ".join(a[:2]) for a, _, _ in _MODULE_BUDGET])
def test_subcommand_module_budget(args, modules, numpy_loaded):
    script = textwrap.dedent("""
        import contextlib, io, json, runpy, sys

        sys.argv = ["qcoupling", *json.loads(sys.argv[1])]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_module("qcoupling.cli", run_name="__main__",
                                 alter_sys=True)
            except SystemExit as e:
                code = e.code
        print(json.dumps({
            "code": code, "numpy": "numpy" in sys.modules,
            "modules": sorted(m for m in sys.modules
                              if m.startswith("qcoupling."))}))
    """)
    report = _fresh_report(script, json.dumps(args))
    assert report["code"] == 0
    assert report["numpy"] == numpy_loaded
    assert set(report["modules"]) == {
        f"qcoupling.{m}" for m in modules | {"errors"}}


def test_module_budget_covers_every_subcommand():
    assert {args[0] for args, _, _ in _MODULE_BUDGET} == set(cli._HANDLERS)


def test_package_loads_submodules_on_access():
    script = textwrap.dedent("""
        import json, sys
        import qcoupling

        before = sorted(m for m in sys.modules if m.startswith("qcoupling."))
        resolved = callable(qcoupling.qft.qft_numeric)
        print(json.dumps({"before": before, "resolved": resolved,
                          "all": qcoupling.__all__,
                          "dir": dir(qcoupling)}))
    """)
    report = _fresh_report(script)
    assert report["before"] == ["qcoupling.errors"]
    assert report["resolved"]
    assert set(report["all"]) <= set(report["dir"])
    with pytest.raises(AttributeError, match="no_such_module"):
        qcoupling.no_such_module


def test_scalar_functions_have_one_home():
    assert qdist.c_q is qseq.c_q
