"""Self-tests of the benchmark (not collected by the repository's test run).

    python3 -m pytest -q perfbench/selftest.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_runs_clean(workload, trace):
    res = run.run_workload(workload, seconds=1, trace=trace, tiny=True)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = {"wall_s", "setup_s", "cpu_s", "peak_rss_mb"}
    if trace:
        names = {*tracer.SPANS, *tracer.COUNTS, *tracer.FAILURES,
                 "eigen.ns_per_n3", "eigen.max_newton", "eigen.near_double",
                 "trace.coverage", "trace.overhead", "calib.raw_wall_s",
                 "calib.slowdown"}
    assert set(res["metrics"]) == names
    assert all(np.isfinite(m["value"]) for m in res["metrics"].values())


def test_tracer_restores_every_binding(tmp_path):
    import hopsign.cli
    import hopsign.spectra
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("hopsign")}
    before_cls = dict(vars(hopsign.spectra.SpectrumCloud))
    original_solver = hopsign.spectra.eigvals_stack
    tr = tracer.Tracer().install()
    try:
        assert hopsign.spectra.eigvals_stack is not original_solver
        rc = hopsign.cli.main(["pi-union", "--nmax", "3", "--alpha-count",
                               "4", "--out-csv", str(tmp_path / "p.csv")])
    finally:
        tr.uninstall()
    assert rc == 0
    assert tr.self_times()["eigen.solve_s"] > 0
    assert tr.counts["spectra.points"] > 0
    assert hopsign.spectra.eigvals_stack is original_solver
    for name, attrs in before.items():
        now = vars(sys.modules[name])
        assert all(now[k] is v for k, v in attrs.items() if k in now), name
    assert dict(vars(hopsign.spectra.SpectrumCloud)) == before_cls


@pytest.mark.parametrize("n", [3, 7, 20])
@pytest.mark.parametrize("alpha", [1.0, 1j, np.exp(0.7j), None])
def test_transfer_det_matches_dense_determinant(n, alpha):
    rng = np.random.default_rng(n)
    c = 0.5 * rng.choice([-1.0, 1.0], n)
    a = np.diag(np.ones(n - 1), 1) + np.diag(c[:-1], -1)
    if alpha is not None:
        a = a.astype(complex)
        a[0, n - 1], a[n - 1, 0] = alpha * c[-1], 1.0 / alpha
    lam = rng.normal(size=5) + 1j * rng.normal(size=5)
    want = [np.linalg.det(z * np.eye(n) - a) for z in lam]
    f, _ = check.transfer_det(lam, np.tile(c, (5, 1)),
                              None if alpha is None else np.full(5, alpha))
    assert np.allclose(f, want, rtol=1e-12, atol=1e-12)


def test_check_flags_a_perturbed_eigenvalue(tmp_path):
    from hopsign.spectra import pi_union, random_finite_sample
    for i, cloud in enumerate([pi_union(5, 0.5, 8),
                               random_finite_sample(30, sigma=0.9, seed=2)]):
        path = tmp_path / f"c{i}.csv"
        cloud.write_csv(path, command="test")
        parsed = check.read_cloud(path)
        clean = check.check_cloud(parsed)
        assert clean["bad_points"] == clean["bad_sections"] == 0
        assert clean["points"] == len(cloud)
        parsed["lam"][len(cloud) // 2] += 1e-6
        bad = check.check_cloud(parsed)
        assert bad["bad_points"] == 1 and bad["bad_sections"] == 1


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    import shutil
    import subprocess
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "union",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_peak_rss_excludes_the_parent():
    ballast = np.ones(200 * 10**6 // 8)     # ~200 MB resident in this process
    res = run.run_workload("union", seconds=1, trace=0, tiny=True)
    del ballast
    assert res["metrics"]["peak_rss_mb"]["value"] < 150


def test_normalise_divides_each_command_by_its_neighbouring_probes():
    report = {"probes": [1.0, 3.0, 2.0],
              "commands": [{"wall_s": 4.0, "cpu_s": 2.0},
                           {"wall_s": 5.0, "cpu_s": 5.0}]}
    run.Run._normalise(report, setup=0.5)
    assert report["wall_s"] == pytest.approx(4.0 / 2.0 + 5.0 / 2.5)
    assert report["cpu_s"] == pytest.approx(2.0 / 2.0 + 5.0 / 2.5)
    assert report["setup_s"] == pytest.approx(0.5)
    assert report["raw_wall_s"] == pytest.approx(9.0)
    assert report["slowdown"] == pytest.approx(2.0)


def test_speed_probe_is_independent_of_hopsign():
    import calib
    assert "hopsign" not in calib.__dict__
    assert 0.05 < calib.slowdown(0.02) < 20
