import pytest

from singular_weyl import ParameterSet, contiguous_residual_scaled
from singular_weyl.verify import (
    run_verification,
    sweep_contiguous,
    sweep_harmonicity,
    sweep_heisenberg,
    sweep_periodicity,
)


def test_report_schema_and_warn():
    params = ParameterSet(n=2, q=0, s=0.5j)
    report = run_verification(params, lam_max=6, m_max=4, seed=2024)
    assert report["ok"]
    assert {"params", "checks", "summary", "ok"} <= set(report)
    statuses = {c["check"]: c["status"] for c in report["checks"]}
    assert statuses["operators/printed-coefficient-diff"] == "WARN"
    assert report["summary"]["FAIL"] == 0
    assert report["summary"]["WARN"] >= 1
    for check in report["checks"]:
        assert {"check", "status", "max_residual", "tolerance"} <= set(check)


def test_deterministic_for_fixed_seed():
    params = ParameterSet(n=2, q=1, s=-0.25)
    first = run_verification(params, lam_max=4, m_max=4, seed=5)
    second = run_verification(params, lam_max=4, m_max=4, seed=5)
    assert first == second


def test_sweeps_standalone():
    assert all(c["status"] == "PASS" for c in sweep_contiguous(samples=30))
    assert all(c["status"] == "PASS" for c in sweep_harmonicity(3, 3))
    params = ParameterSet(n=1, q=1, s=0.5j)
    assert all(c["status"] == "PASS" for c in sweep_periodicity(params, lam_max=6, m_max=6))


def test_contiguous_reports_worst_point():
    checks = {c["check"]: c for c in sweep_contiguous(1000, 277865585)}
    uno = checks["contiguous/Uno"]
    assert uno["worst_point"] == [
        [pytest.approx(13.221, abs=1e-3), pytest.approx(11.730, abs=1e-3)],
        [pytest.approx(3.6407, abs=1e-4), pytest.approx(-7.2141, abs=1e-4)],
        [pytest.approx(1.8384, abs=1e-4), pytest.approx(7.0289, abs=1e-4)],
    ]
    # one scalar call at each reported point reproduces the reported
    # residual; the batch-wide stopping rule may move the last bits (U4 here)
    for name, check in checks.items():
        a, b, z = (complex(*p) for p in check["worst_point"])
        res, scale = contiguous_residual_scaled(name.split("/")[1], a, b, z)
        assert abs(res) / scale == pytest.approx(check["max_residual"], rel=1e-12)
        if name == "contiguous/Uno":
            assert abs(res) / scale == check["max_residual"]


@pytest.mark.xfail(strict=True, reason="series cancellation: the largest term is 2.1e5 and "
                   "the sum 1.3e-4, so extended precision keeps about ten digits")
def test_contiguous_certificate_holds_on_a_hard_seed():
    checks = sweep_contiguous(1000, 277865585)
    assert all(c["status"] == "PASS" for c in checks), checks


def test_heisenberg_sweep_reports_lowering_diff():
    params = ParameterSet(n=3, q=3, s=0.5j)
    checks = sweep_heisenberg(params, lam_max=10, m_max=6, points=30)
    by_name = {c["check"]: c for c in checks}
    assert by_name["operators/heisenberg-lsq"]["status"] == "PASS"
    assert by_name["operators/heisenberg-shipped-match"]["status"] == "PASS"
    assert by_name["operators/printed-coefficient-diff"]["status"] == "WARN"
    assert by_name["operators/printed-coefficient-diff"]["count"] > 0
