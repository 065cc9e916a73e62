import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hopsign import spectra
from hopsign.cli import _derived_path, main


def test_derived_path():
    assert _derived_path("out.csv", "open") == "out.open.csv"
    assert _derived_path("noext", "plus") == "noext.plus"
    assert _derived_path("a.b.csv", "x") == "a.b.x.csv"


def test_verify_passes_and_reports_json(capsys):
    rc = main(["verify"])
    out = capsys.readouterr()
    assert rc == 0
    rows = json.loads(out.out)
    assert len(rows) == 8
    assert all(r["status"] == "pass" for r in rows)
    assert {"check", "status", "max_error", "runtime_ms"} <= set(rows[0])
    assert "pass" in out.err  # human table goes to stderr


def test_pi_union_outputs(tmp_path, capsys):
    csv = str(tmp_path / "pi.csv")
    svg = str(tmp_path / "pi.svg")
    argv = ["pi-union", "--nmax", "3", "--alpha-count", "32",
            "--out-csv", csv, "--out-svg", svg]
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert "points inside the central hole:" in out
    assert "min distance to the closed hole:" in out
    first = (tmp_path / "pi.csv").read_bytes()
    ET.parse(svg)
    text = (tmp_path / "pi.csv").read_text()
    assert text.startswith("# hopsign ")
    assert "# command: hopsign pi-union --nmax 3" in text
    # second run with identical arguments reproduces the bytes
    rc = main(argv)
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "pi.csv").read_bytes() == first


def test_sample_requires_seed():
    with pytest.raises(SystemExit):
        main(["sample", "--count", "2"])


def test_sample_runs_small(tmp_path, capsys):
    csv = str(tmp_path / "s.csv")
    rc = main(["sample", "--count", "3", "--nmax", "6", "--seed", "2",
               "--out-csv", csv])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3 draws" in out
    assert "# seed = 2" in (tmp_path / "s.csv").read_text()


def test_finite_writes_both_sections(tmp_path, capsys):
    csv = str(tmp_path / "f.csv")
    rc = main(["finite", "--nmax", "12", "--sigma", "0.9025", "--seed", "4",
               "--out-csv", csv])
    out = capsys.readouterr().out
    assert rc == 0
    assert "shared sign draw" in out
    open_text = (tmp_path / "f.open.csv").read_text()
    per_text = (tmp_path / "f.periodic.csv").read_text()
    # both files carry the same sign pattern comment
    word_line = [l for l in open_text.splitlines() if l.startswith("# word")]
    assert word_line and word_line[0] in per_text


def test_curve_reports_deviation_and_tags_branches(tmp_path, capsys):
    svg = str(tmp_path / "c.svg")
    rc = main(["curve", "--nmax", "1", "--alpha-count", "64",
               "--branch", "both", "--out-svg", svg])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("max deviation") == 2
    ET.parse(tmp_path / "c.plus.svg")
    ET.parse(tmp_path / "c.minus.svg")


def test_curve_closed_form_only(tmp_path, capsys):
    csv = str(tmp_path / "curve.csv")
    rc = main(["curve", "--nmax", "0", "--branch", "+",
               "--mode", "closed-form", "--out-csv", csv])
    capsys.readouterr()
    assert rc == 0
    assert "# mode = closed-form" in (tmp_path / "curve.csv").read_text()


def test_invalid_configuration_exits_2(capsys):
    rc = main(["pi-union", "--nmax", "20", "--alpha-count", "4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "invalid configuration" in err


def test_bad_sigma_exits_2(capsys):
    rc = main(["pi-union", "--nmax", "1", "--alpha-count", "4",
               "--sigma", "1.5"])
    assert rc == 2
    capsys.readouterr()


def test_io_failure_exits_1(tmp_path, capsys):
    rc = main(["pi-union", "--nmax", "1", "--alpha-count", "4",
               "--out-csv", str(tmp_path / "no_dir" / "x.csv")])
    assert rc == 1
    capsys.readouterr()


def _no_solve(*args, **kwargs):
    raise AssertionError("bad input must be rejected before any solve")


@pytest.mark.parametrize("argv", [
    ["sample", "--seed", "1", "--sigma", "-1"],
    ["sample", "--seed", "1", "--sigma", "nan"],
    ["sample", "--seed", "1", "--sigma", "1.5"],
    ["sample", "--seed", "1", "--count", "0"],
    ["sample", "--seed=-1"],
    ["finite", "--seed", "1", "--sigma", "2"],
    ["finite", "--seed", "1", "--sigma", "nan"],
])
def test_bad_sampler_input_exits_2_before_solving(argv, monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eigvals", _no_solve)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: invalid configuration" in err
    assert "Traceback" not in err


def test_solver_failure_exits_3(monkeypatch, capsys):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    rc = main(["pi-union", "--nmax", "3", "--alpha-count", "4"])
    err = capsys.readouterr().err
    assert rc == 3
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "did not converge" in lines[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_bad_verify_tolerance_exits_2(tol, monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eigvals", _no_solve)
    with pytest.raises(SystemExit) as exc:
        main(["verify", f"--tol={tol}"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


def test_bad_overlay_exits_2_before_writing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eigvals", _no_solve)
    csv = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main(["pi-union", "--nmax", "3", "--alpha-count", "8",
              "--out-csv", str(csv), "--out-svg", str(tmp_path / "o.svg"),
              "--overlay", "bogus"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--overlay" in err and "Traceback" not in err
    assert not csv.exists()


def test_pi_union_too_big_for_memory_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eigvals", _no_solve)
    monkeypatch.setattr(spectra, "_available_memory", lambda: 1024)
    csv = tmp_path / "o.csv"
    rc = main(["pi-union", "--nmax", "3", "--alpha-count", "8",
               "--out-csv", str(csv)])
    err = capsys.readouterr().err
    assert rc == 2
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "available" in err and "Traceback" not in err
    assert not csv.exists()
