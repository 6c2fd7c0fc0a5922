"""CLI contract tests: subcommands, exit codes, formats, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from singular_weyl import cli, config, structure, verify
from singular_weyl.cli import parse_complex


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
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
            ("i", 1j),
            ("-i", -1j),
            ("1e-3-2e-3i", 0.001 - 0.002j),
            ("0.5j", 0.5j),
        ],
    )
    def test_forms(self, text, expected):
        assert parse_complex(text) == expected

    def test_pure_imaginary_has_positive_zero_real_part(self):
        # a "-0.0" real part would change the "s" bytes of every report
        assert math.copysign(1, parse_complex("-2i").real) == 1

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

    @pytest.mark.parametrize(
        "args",
        [
            ("--n", "0", "--lambda-max", "0"),
            ("--n", "-2", "--lambda-max", "0", "--format", "text"),
            ("--n", "0", "--lambda-max", "5"),
        ],
    )
    def test_nonpositive_dimension_exit_2(self, args):
        out = run_cli("admissible", *args)
        assert out.returncode == 2
        assert out.stdout == ""
        assert "dimension n must be >= 1" in out.stderr

    def test_n1_pair_has_k_in_range(self):
        # lambda = 10 = T(5): the pair (2, 1) with 2l+k = 5
        out = run_cli("admissible", "--n", "1", "--lambda", "10", "--format", "text")
        assert out.returncode == 0
        assert out.stdout == "(2, 1)\n"

    def test_n2_pairs_have_k_at_least_0(self):
        # 12 = 2l(l+k) also at (3, -1) and (6, -5), both out of range
        out = run_cli("admissible", "--n", "2", "--lambda", "12", "--format", "text")
        assert out.returncode == 0
        assert out.stdout == "(2, 1)\n(1, 5)\n"

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

    def test_lambda_builds_only_its_ktypes(self, monkeypatch, capsys):
        # the weight strings of the pairs of lambda = 75, not the lattice up to 75
        built = []
        original = structure.make_ktype

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(structure, "make_ktype", counting)
        argv = ["ktypes", "--n", "3", "--q", "1", "--lambda", "75", "--m-max", "12"]
        assert cli.main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == len(built) == 18
        assert {item["lambda"][0] for item in data} == {75}

    def test_invalid_lambda_exit_2(self):
        out = run_cli("ktypes", "--n", "3", "--q", "1", "--lambda", "4")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.splitlines() == [
            "invalid parameters: lambda = 4 is not admissible for n = 3"
        ]


@pytest.mark.parametrize("command", ["ktypes", "verify"])
def test_negative_m_max_exit_2(command):
    out = run_cli(command, "--n", "3", "--m-max", "-2", "--lambda-max", "6")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.splitlines() == ["invalid parameters: m_max must be >= 0"]


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

    def test_s_starting_with_minus_in_equals_form(self):
        out = run_cli("structure", "--n", "3", "--q", "3", "--s=-1i")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["case"] == 2

    def test_decomposition_flags(self):
        out = run_cli("structure", "--n", "3", "--q", "0", "--lambda", "75")
        data = json.loads(out.stdout)
        assert len(data["decomposition"]) == 3
        assert all(d["irreducible"] for d in data["decomposition"])

    def test_n2_decomposition_has_one_layer(self):
        out = run_cli("structure", "--n", "2", "--q", "2", "--lambda", "4", "--format", "json")
        assert out.returncode == 0
        (layer,) = json.loads(out.stdout)["decomposition"]
        assert (layer["l"], layer["k"]) == (1, 1)
        assert "experimental" not in layer

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

    def test_dimension_above_20_verifies(self):
        # the group-flow K-type sits at lambda = n, above 20 here
        out = run_cli("verify", "--n", "21", "--lambda-max", "4", "--m-max", "2")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["ok"] is True

    def test_zero_s_exit_2(self):
        out = run_cli("verify", "--n", "3", "--q", "0", "--s", "0")
        assert out.returncode == 2
        assert "s must be nonzero" in out.stderr

    @pytest.mark.parametrize("s", ["", " "])
    def test_empty_s_exit_2(self, s):
        # an empty --s is a value that does not parse, not a missing one
        out = run_cli("verify", "--n", "1", "--s", s, "--lambda-max", "4", "--m-max", "2")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "cannot parse complex value" in out.stderr

    def test_nonfinite_s_exit_2(self):
        out = run_cli("verify", "--n", "2", "--s", "nan")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "s must be finite" in out.stderr

    @pytest.mark.parametrize("s", ["0+200i", "1e200"])
    def test_series_error_exit_2(self, s):
        out = run_cli(
            "verify", "--n", "2", "--s", s, "--lambda-max", "4", "--m-max", "2", "--seed", "1"
        )
        assert out.returncode == 2
        assert out.stdout == ""
        # one line: no traceback and no numpy overflow warnings above it
        (line,) = out.stderr.splitlines()
        assert line.startswith("invalid parameters: 1F1 series")

    def test_s_starting_with_minus_in_equals_form(self):
        # the documented spelling of an s whose text starts with "-"
        out = run_cli(
            "verify", "--n", "2", "--q", "0", "--s=-0.25+0.3i", "--lambda-max", "4",
            "--m-max", "2", "--seed", "1",
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["params"]["s"] == [-0.25, 0.3]

    def test_seed_comes_from_the_command_line_only(self, tmp_path):
        report_path = tmp_path / "report.json"
        out = run_cli(
            "verify", "--n", "2", "--q", "0", "--lambda-max", "4", "--m-max", "4",
            "--seed", "1", "-o", str(report_path),
            env_extra={"SINGULAR_WEYL_SEED": "777"},
        )
        assert out.returncode == 0
        assert json.loads(report_path.read_text())["params"]["seed"] == 1

    def test_tolerance_override_can_force_failure(self, monkeypatch, capsys):
        # no CLI option loosens or tightens a bound; the record is patched in-process
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

    def test_heisenberg_honours_lambda(self):
        # the lambda = 75 pairs plus the l = 0 family, not the default lambda <= 30 lattice
        out = run_cli(
            "plot-data", "--figure", "heisenberg", "--n", "3", "--q", "0", "--lambda", "75",
        )
        assert out.returncode == 0, out.stderr
        nodes = json.loads(out.stdout)["nodes"]
        assert {(v["l"], v["k"]) for v in nodes if v["l"] > 0} == {(5, 2), (3, 9), (1, 36)}
        assert {v["lambda"][0] for v in nodes} == {0, 75}

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
            # --lambda names one eigenvalue, so a --lambda-max beside it goes unread
            ("plot-data", "--figure", "lattice", "--n", "3", "--lambda", "75", "--lambda-max", "10"),
            ("admissible", "--n", "3", "--lambda", "5", "--lambda-max", "2"),
            ("ktypes", "--n", "3", "--lambda", "5", "--lambda-max", "2", "--m-max", "2"),
            # --s gives s itself, so a --preset beside it goes unread
            *[
                (*command, "--s", "0.3", "--preset", "heat")
                for command in [
                    ("ktypes", "--n", "3", "--lambda-max", "6", "--m-max", "2"),
                    ("verify", "--n", "1", "--q", "1", "--lambda-max", "4", "--m-max", "2"),
                    ("structure", "--n", "3", "--q", "3"),
                    ("plot-data", "--figure", "lattice", "--n", "3", "--lambda-max", "6"),
                    ("plot-data", "--figure", "heisenberg", "--n", "3", "--lambda-max", "6"),
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

    # each row carries its own size and seed; the last two are the
    # configurations and seeds of the benchmark's `verify` workload
    @pytest.mark.parametrize(
        "name,args",
        [
            ("verify_n2_q0_schrodinger.json", (
                "--n", "2", "--q", "0", "--preset", "schrodinger",
                "--lambda-max", "6", "--m-max", "4", "--seed", "99",
            )),
            ("verify_n3_q2_heat.json", (
                "--n", "3", "--q", "2", "--preset", "heat",
                "--lambda-max", "6", "--m-max", "4", "--seed", "99",
            )),
            ("verify_n3_q0_schrodinger_lam12.json", (
                "--n", "3", "--q", "0", "--preset", "schrodinger",
                "--lambda-max", "12", "--m-max", "6", "--seed", "1483321111",
            )),
            ("verify_n4_q2_heat_lam12.json", (
                "--n", "4", "--q", "2", "--preset", "heat",
                "--lambda-max", "12", "--m-max", "6", "--seed", "616788990",
            )),
        ],
    )
    def test_stdout_matches_golden(self, name, args):
        out = run_cli("verify", *args)
        assert out.returncode == 0, out.stderr
        assert out.stdout.encode() == (GOLDEN / name).read_bytes()


class TestGoldenIndexOutputs:
    """The E edges, the weight walk and the lambda = 0 family against files
    written by an earlier version.  Every value in them is exact rational
    arithmetic, so they do not depend on the host."""

    @pytest.mark.parametrize(
        "name,args",
        [
            ("heisenberg_n3_q0_lam12.dot", (
                "plot-data", "--figure", "heisenberg", "--n", "3", "--q", "0",
                "--lambda-max", "12", "--m-min", "-6", "--m-max", "6", "--format", "dot",
            )),
            # n = 2: pairs with k >= 0 only
            ("lattice_n2_q0_lam12.dot", (
                "plot-data", "--figure", "lattice", "--n", "2", "--q", "0",
                "--lambda-max", "12", "--m-min", "-8", "--m-max", "8", "--format", "dot",
            )),
            # the README example
            ("ktypes_n3_q1_lam5.json", (
                "ktypes", "--n", "3", "--q", "1", "--lambda", "5", "--m-max", "8",
            )),
        ],
    )
    def test_stdout_matches_golden(self, name, args):
        out = run_cli(*args)
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
