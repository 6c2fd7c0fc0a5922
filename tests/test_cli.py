"""CLI contract tests: subcommands, exit codes, formats, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from singular_weyl import cli, config, verify
from singular_weyl.cli import parse_complex


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("SINGULAR_WEYL_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "singular_weyl", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0+0.5i", 0.5j),
            ("-0.25", -0.25),
            ("1.5i", 1.5j),
            ("-2i", -2j),
            ("3", 3.0),
            ("1+1i", 1 + 1j),
            ("schrodinger", 0.5j),
            ("heat", -0.25),
        ],
    )
    def test_forms(self, text, expected):
        assert parse_complex(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_complex("zz+1i")


class TestAdmissibleCommand:
    def test_pairs_for_lambda(self):
        out = run_cli("admissible", "--n", "3", "--lambda", "75")
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data["pairs"] == [[5, 2], [3, 9], [1, 36]]

    def test_lambda_max_listing(self):
        out = run_cli("admissible", "--n", "4", "--lambda-max", "10", "--format", "text")
        assert out.returncode == 0
        assert out.stdout.split() == ["4", "6", "8", "10"]

    def test_inadmissible_notes_and_exits_zero(self):
        out = run_cli("admissible", "--n", "2", "--lambda", "3")
        assert out.returncode == 0
        assert json.loads(out.stdout)["admissible"] is False

    def test_csv_format(self):
        out = run_cli("admissible", "--n", "3", "--lambda", "75", "--format", "csv")
        assert out.stdout.splitlines()[0] == "l,k"

    def test_inadmissible_csv_is_header_only(self):
        out = run_cli("admissible", "--n", "2", "--lambda", "3", "--format", "csv")
        assert out.returncode == 0
        assert out.stdout == "l,k\n"

    def test_output_file_matches_stdout(self, tmp_path):
        path = tmp_path / "pairs.json"
        args = ("admissible", "--n", "3", "--lambda", "75")
        assert run_cli(*args, "-o", str(path)).returncode == 0
        assert path.read_bytes() == run_cli(*args).stdout.encode()


class TestKtypesCommand:
    def test_serialization(self):
        out = run_cli("ktypes", "--n", "3", "--q", "1", "--lambda", "5", "--m-max", "8")
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data
        for item in data:
            assert item["n"] == 3
            assert (item["m"] - 2 * item["k"] - 1) % 4 == 0

    def test_invalid_lambda_exit_2(self):
        out = run_cli("ktypes", "--n", "3", "--q", "1", "--lambda", "4")
        assert out.returncode == 2


class TestStructureCommand:
    def test_case2_chain(self):
        out = run_cli("structure", "--n", "3", "--q", "3")
        data = json.loads(out.stdout)
        assert data["case"] == 2
        assert data["chain"] == ["0", "H0+", "H0", "H0+H+", "H"]

    def test_case4_chain(self):
        out = run_cli("structure", "--n", "2", "--q", "2")
        data = json.loads(out.stdout)
        assert data["case"] == 4
        assert len(data["chain"]) == 7

    def test_decomposition_flags(self):
        out = run_cli("structure", "--n", "3", "--q", "0", "--lambda", "75")
        data = json.loads(out.stdout)
        assert len(data["decomposition"]) == 3
        assert all(d["irreducible"] for d in data["decomposition"])

    def test_invalid_lambda_exit_2(self):
        out = run_cli("structure", "--n", "3", "--q", "0", "--lambda", "4")
        assert out.returncode == 2


class TestVerifyCommand:
    def test_small_verify_passes(self, tmp_path):
        report_path = tmp_path / "report.json"
        out = run_cli(
            "verify", "--n", "2", "--q", "0", "--preset", "schrodinger",
            "--lambda-max", "8", "--m-max", "6", "-o", str(report_path),
        )
        assert out.returncode == 0, out.stderr
        report = json.loads(report_path.read_text())
        assert report["ok"]
        status = {c["check"]: c["status"] for c in report["checks"]}
        assert status["operators/pde-kernel"] == "PASS"
        assert status.get("operators/printed-coefficient-diff") == "WARN"

    def test_n1_verify_passes(self):
        out = run_cli(
            "verify", "--n", "1", "--q", "1", "--lambda-max", "10", "--m-max", "8"
        )
        assert out.returncode == 0, out.stderr

    def test_zero_s_exit_2(self):
        out = run_cli("verify", "--n", "3", "--q", "0", "--s", "0")
        assert out.returncode == 2
        assert "s must be nonzero" in out.stderr

    def test_nonfinite_s_exit_2(self):
        out = run_cli("verify", "--n", "2", "--s", "nan")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "s must be finite" in out.stderr

    def test_env_seed_override(self, tmp_path):
        report_path = tmp_path / "report.json"
        out = run_cli(
            "verify", "--n", "2", "--q", "0", "--lambda-max", "4", "--m-max", "4",
            "--seed", "1", "-o", str(report_path),
            env_extra={"SINGULAR_WEYL_SEED": "777"},
        )
        assert out.returncode == 0
        assert json.loads(report_path.read_text())["params"]["seed"] == 777

    def test_tolerance_override_can_force_failure(self, monkeypatch, capsys):
        # no CLI option loosens or tightens a bound; the record is patched in-process
        monkeypatch.delenv("SINGULAR_WEYL_SEED", raising=False)
        tight = dataclasses.replace(config.DEFAULT_TOLERANCES, pde_residual=1e-30)
        monkeypatch.setattr(verify, "DEFAULT_TOLERANCES", tight)
        rc = cli.main(["verify", "--n", "2", "--q", "0", "--lambda-max", "4", "--m-max", "4"])
        assert rc == 1
        assert "pde-kernel" in capsys.readouterr().err


class TestPlotDataCommand:
    def test_levels_csv(self, tmp_path):
        path = tmp_path / "levels.csv"
        out = run_cli(
            "plot-data", "--figure", "levels", "--n", "3",
            "--lambda-max", "20", "-o", str(path),
        )
        assert out.returncode == 0
        assert path.read_text().startswith("lambda,l,k")

    def test_lattice_figure_matches_known_chains(self):
        out = run_cli(
            "plot-data", "--figure", "lattice", "--n", "3", "--q", "0",
            "--lambda", "75", "--m-min", "0", "--m-max", "20",
        )
        data = json.loads(out.stdout)
        pairs = {(node["l"], node["k"]) for node in data["nodes"]}
        assert pairs == {(5, 2), (3, 9), (1, 36)}

    def test_heisenberg_dot(self):
        out = run_cli(
            "plot-data", "--figure", "heisenberg", "--n", "3", "--q", "0",
            "--lambda-max", "10", "--format", "dot",
        )
        assert out.returncode == 0
        assert out.stdout.startswith("digraph")
        assert "E+" in out.stdout

    def test_heisenberg_includes_n2_zero_family(self):
        # the (l, k, n) = (0, 0, 2) layer uses the degenerate coefficient
        out = run_cli(
            "plot-data", "--figure", "heisenberg", "--n", "2", "--q", "0",
            "--lambda-max", "6",
        )
        assert out.returncode == 0, out.stderr
        data = json.loads(out.stdout)
        assert any(n["l"] == 0 and n["k"] == 0 for n in data["nodes"])


class TestOptionsOnlyWhereRead:
    @pytest.mark.parametrize(
        "args",
        [
            ("ktypes", "--n", "3", "--seed", "1"),
            ("verify", "--n", "2", "--format", "csv"),
            ("admissible", "--n", "3", "--lambda", "75", "--s", "0+0.5i"),
            ("admissible", "--n", "3", "--lambda", "75", "--format", "dot"),
            ("structure", "--n", "3", "--q", "3", "--format", "csv"),
            ("plot-data", "--figure", "lattice", "--n", "3", "--format", "text"),
            ("verify", "--n", "2", "--tol-pde-residual", "1e-30"),
            # levels reads --n, --lambda-max and -o only, so even a default value exits 2
            *[
                ("plot-data", "--figure", "levels", "--n", "3", *option)
                for option in [
                    ("--format", "json"), ("--format", "dot"), ("--q", "0"),
                    ("--s", "0+0.5i"), ("--preset", "heat"), ("--lambda", "3"),
                    ("--m-min", "0"), ("--m-max", "20"),
                ]
            ],
        ],
    )
    def test_unread_option_or_format_exit_2(self, args):
        out = run_cli(*args)
        assert out.returncode == 2
        assert out.stdout == ""


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenReports:
    """``verify`` stdout against reports written by an earlier version.

    A change that keeps every residual keeps these bytes.  The residuals are
    floating-point results, so the last bits can differ on another CPU,
    numpy build or BLAS; on such a host regenerate the files from a trusted
    commit before comparing.
    """

    @pytest.mark.parametrize(
        "name,args",
        [
            ("verify_n2_q0_schrodinger.json", ("--n", "2", "--q", "0", "--preset", "schrodinger")),
            ("verify_n3_q2_heat.json", ("--n", "3", "--q", "2", "--preset", "heat")),
        ],
    )
    def test_stdout_matches_golden(self, name, args):
        out = run_cli("verify", *args, "--lambda-max", "6", "--m-max", "4", "--seed", "99")
        assert out.returncode == 0, out.stderr
        assert out.stdout.encode() == (GOLDEN / name).read_bytes()


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        args = (
            "verify", "--n", "2", "--q", "0", "--lambda-max", "6",
            "--m-max", "4", "--seed", "99",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout

    def test_byte_identical_plot_data(self):
        args = ("plot-data", "--figure", "lattice", "--n", "3", "--q", "0",
                "--lambda", "75", "--m-max", "20")
        assert run_cli(*args).stdout == run_cli(*args).stdout
