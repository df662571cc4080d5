import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import qcoupling
from qcoupling import cli, datasets, qdist, qseq, sde
from qcoupling.datasets import Dataset
from qcoupling.errors import DomainError


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

    def test_subnormalizable_dist_is_error(self, capsys):
        code, _, err = run_cli(["dist", "cq", "--q", "-2.5"], capsys)
        assert code == 1
        assert "DomainError" in err


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

    def test_eval_calculus(self, capsys):
        code, out, _ = run_cli(
            ["eval", "dn_exp_q", "--q", "-0.5", "--x", "0.3", "--n", "2",
             "--a", "1.1"], capsys)
        assert code == 0
        from qcoupling.qcore import dn_exp_q
        assert float(out) == pytest.approx(dn_exp_q(-0.5, 1.1, 2, 0.3),
                                           rel=1e-12)

    def test_dist_pdf(self, capsys):
        code, out, _ = run_cli(["dist", "pdf", "--q", "-1", "--x", "0"],
                               capsys)
        assert code == 0
        assert float(out) == pytest.approx(1.0 / math.pi, rel=1e-10)


class TestEmission:
    def test_csv_shape(self):
        ds = Dataset(["a", "b"], [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)])
        text = datasets.to_csv(ds)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0] == "a,b"
        assert text.endswith("\n")

    def test_empty_dataset_header_only(self):
        assert datasets.to_csv(Dataset(["a", "b"], [])) == "a,b\n"

    def test_twelve_significant_digits(self):
        ds = Dataset(["v"], [(math.pi,)])
        assert datasets.to_csv(ds).splitlines()[1] == "3.14159265359"

    def test_json_round_trip(self):
        rows = [(1.0 / 3.0, 2e-15), (123456.789012345, -7.5)]
        ds = Dataset(["a", "b"], rows)
        parsed = json.loads(datasets.to_json(ds))
        assert parsed["columns"] == ["a", "b"]
        for got, want in zip(parsed["rows"], rows):
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-11)

    def test_json_meta_included(self):
        ds = Dataset(["a"], [(1.0,)], {"note": "hi"})
        assert json.loads(datasets.to_json(ds))["meta"] == {"note": "hi"}

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
                (1e11, -7.5)]
        ds = Dataset(["a", "b"], rows)
        assert datasets.to_csv(ds) == (
            "a,b\n0,0\n1e-300,1e+300\n0.333333333333,123456789012\n"
            "100000000000,-7.5\n")
        assert datasets.to_json(ds) == (
            '{"columns": ["a", "b"], "rows": [[0.0, 0.0], [1e-300, 1e+300], '
            '[0.333333333333, 123456789012.0], [100000000000.0, -7.5]]}\n')

    def test_array_and_tuples_emit_the_same_bytes(self):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(
            -20, 20, (40, 3))
        table[3, 1] = -0.0
        tuples = [tuple(row) for row in table.tolist()]
        meta = {"note": "same"}
        for emit in (datasets.to_csv, datasets.to_json):
            assert emit(Dataset(["a", "b", "c"], table, meta)) == emit(
                Dataset(["a", "b", "c"], tuples, meta))

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

    def test_conjugate_pole_exit(self, capsys):
        code, _, err = run_cli(
            ["transform", "uniform", "--q", "-1", "--conjugate"], capsys)
        assert code == 1
        assert "PoleError" in err


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
        assert out == emit(Dataset(["path", "step", "x"], rows, meta))

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
        assert out == emit(Dataset(["x"], [(v,) for v in xs], meta))


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
