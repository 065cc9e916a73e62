import io
import json
import os
import resource
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hopsign
from hopsign import spectra, transfer
from hopsign.cli import _derived_path, main
from hopsign.eigen import SolverFailure
from hopsign.seqcore import SignWord
from hopsign.spectra import (bloch_spectrum, pi_union, random_finite_sample,
                             random_periodic_sample, square_spectrum_check,
                             symmetry_check)
from hopsign.transfer import RegionParams, region_tests_many


def test_derived_path():
    assert _derived_path("out.csv", "open") == "out.open.csv"
    assert _derived_path("noext", "plus") == "noext.plus"
    assert _derived_path("a.b.csv", "x") == "a.b.x.csv"
    assert _derived_path("./f", "open") == "./f.open"
    assert _derived_path("runs/v1.2/f", "open") == "runs/v1.2/f.open"


def test_cli_import_loads_no_scipy_or_network_stack():
    # every command pays for the CLI's imports: scipy, mpmath and sympy are
    # only test references, and xml.sax pulls in urllib.request,
    # http.client, ssl and email
    src = os.path.dirname(os.path.dirname(hopsign.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import hopsign.cli, sys; print(sorted(m for m in sys.modules if "
            "m.split('.')[0] == 'scipy' or m.startswith(('xml.sax', "
            "'urllib.request', 'mpmath', 'sympy'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_csv_bodies_do_not_depend_on_blas_threads(tmp_path):
    """The periodised CSVs of sample (odd N 75, 77, 81 and 87 among its
    draws) and finite come out the same at 1 and 2 OpenBLAS threads: the
    eigensolve pins OpenBLAS to one thread.  On a 1-core host both runs use
    one thread, and the test passes trivially."""
    src = os.path.dirname(os.path.dirname(hopsign.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads}
        for argv in (["sample", "--count", "40", "--nmax", "100"],
                     ["finite", "--nmax", "500"]):
            subprocess.run([sys.executable, "-m", "hopsign", *argv, "--seed",
                            "1", "--out-csv", str(out / f"{argv[0]}.csv")],
                           capture_output=True, check=True, env=env)
        bodies.append([[line for line in (out / name).read_text().splitlines()
                        if not line.startswith("#")]
                       for name in ("sample.csv", "finite.periodic.csv",
                                    "finite.open.csv")])
    assert bodies[0] == bodies[1]


def test_verify_passes_and_reports_json(capsys):
    rc = main(["verify"])
    out = capsys.readouterr()
    assert rc == 0
    rows = json.loads(out.out)
    assert [r["check"] for r in rows] == [
        "tables", "identities", "p_table", "recurrence_bound",
        "square_spectrum", "symmetry", "decay", "curves"]
    assert all(r["status"] == "pass" for r in rows)
    exact = ("tables", "identities", "p_table", "recurrence_bound", "decay")
    assert [r["max_error"] for r in rows if r["check"] in exact] == [0.0] * 5
    assert {"check", "status", "max_error", "runtime_ms"} <= set(rows[0])
    assert "pass" in out.err  # human table goes to stderr


@pytest.mark.parametrize("sigma", [0.5, 0.9025, 1.0])
def test_pi_union_hole_count_is_region_tests_in_h(sigma, capsys):
    # cmd_pi_union counts max(f_plus, f_minus) < 0, the in_H set
    assert main(["pi-union", "--sigma", str(sigma), "--nmax", "6",
                 "--alpha-count", "16"]) == 0
    out = capsys.readouterr().out
    n_in = int(out.split("points inside the central hole: ")[1].split()[0])
    cloud = pi_union(6, sigma, 16)
    assert n_in == region_tests_many(cloud.points,
                                     RegionParams(sigma))["in_H"].sum()


@pytest.mark.parametrize("sigma", [0.5, 0.9025, 1.0])
def test_pi_union_hole_pass_in_chunks_prints_the_whole_pass(sigma, capsys,
                                                            monkeypatch):
    # the 1,824-point cloud is one chunk by default; at seven points a
    # chunk the count and the clearance are those of the whole cloud
    argv = ["pi-union", "--sigma", str(sigma), "--nmax", "6",
            "--alpha-count", "16"]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(transfer, "HOLE_CHUNK", 7)
    assert main(argv) == 0
    assert capsys.readouterr().out == whole


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


def test_csv_header_escapes_newlines_in_arguments(tmp_path, capsys):
    # a newline, carriage return or backslash in an argument stays on the
    # "# command:" line, so the header stays comments and the rows load
    csv = tmp_path / "a\nb\\c\rd.csv"
    assert main(["pi-union", "--nmax", "2", "--alpha-count", "4",
                 "--out-csv", str(csv)]) == 0
    capsys.readouterr()
    lines = csv.read_bytes().decode().split("\n")
    head = [line for line in lines if line.startswith("#")]
    rows = [line for line in lines[len(head):] if line]
    assert lines[:len(head)] == head and len(rows) == 48
    quoted = str(csv).replace("\\", "\\\\").replace("\n", "\\n")
    assert head[1] == ("# command: hopsign pi-union --nmax 2 --alpha-count 4 "
                       "--out-csv '" + quoted.replace("\r", "\\r") + "'")
    data = np.loadtxt(csv, delimiter=",", comments="#", ndmin=2)
    assert data.shape == (48, 6)


def test_outputs_named_by_bytes_that_are_not_utf8(tmp_path, capsys):
    # such a name reaches argv as a lone surrogate; both headers show the
    # byte as \xff, and the SVG is written as the UTF-8 its prolog declares
    csv, svg = (str(tmp_path / os.fsdecode(b"\xff" + ext))
                for ext in (b".csv", b".svg"))
    assert main(["pi-union", "--nmax", "2", "--alpha-count", "4",
                 "--out-csv", csv, "--out-svg", svg]) == 0
    capsys.readouterr()
    shown = os.fsencode(csv).decode("utf-8", "backslashreplace")
    head = open(csv, "rb").read().decode().split("\n")[1]
    assert head.startswith("# command: ") and shown in head
    desc = ET.parse(svg).getroot().find("{http://www.w3.org/2000/svg}desc")
    assert "\\xff.csv" in desc.text and "\\xff.svg" in desc.text


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nmax, sigma, bound", [("1", "0.999999999", 1e-6),
                                                ("0", "0.9999999", 1e-8)])
def test_curve_near_sigma_one_stays_finite(nmax, sigma, bound, tmp_path,
                                           capsys):
    # a radius from the double-angle denominator 1 + s^2 - 2 s cos 2 theta
    # gives inf deviations and inf/nan path data at n 1 here, and 1e-2
    # deviations at n 0
    svg = str(tmp_path / "c.svg")
    assert main(["curve", "--nmax", nmax, "--sigma", sigma, "--alpha-count",
                 "16", "--out-svg", svg]) == 0
    devs = [float(line.rsplit(": ", 1)[1])
            for line in capsys.readouterr().out.splitlines()
            if "max deviation" in line]
    assert len(devs) == 2 and all(0.0 <= d <= bound for d in devs)
    for tag in ("plus", "minus"):
        text = (tmp_path / f"c.{tag}.svg").read_text()
        assert "inf" not in text and "nan" not in text


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
    ["pi-union", "--nmax", "2", "--alpha-count", "-3"],
    ["curve", "--nmax", "0", "--alpha-count", "-2"],
])
def test_bad_sampler_input_exits_2_before_solving(argv, monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eigvals", _no_solve)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: invalid configuration" in err
    assert "Traceback" not in err
    if "--alpha-count" in argv:
        assert "need at least one grid point" in err


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


def test_curve_solve_stack_is_checked_against_memory(monkeypatch, capsys):
    # the orbit solve of the period-64 sections needs more than the
    # per-point cloud estimate: it is checked once its section count is known
    argv = ["curve", "--nmax", "5", "--branch", "+", "--alpha-count", "16"]
    asked = []
    real_require = spectra._require_memory

    def spy(nbytes, what):
        asked.append((nbytes, what))
        real_require(nbytes, what)

    monkeypatch.setattr(spectra, "_require_memory", spy)
    monkeypatch.setattr(spectra, "_available_memory", lambda: None)
    assert main(argv) == 0
    (points, _), (stack, what) = asked
    assert stack > points and what.endswith("sections of size 64")
    monkeypatch.setattr(spectra, "_available_memory", lambda: stack)
    assert main(argv) == 0  # runs at exactly the bound
    capsys.readouterr()
    monkeypatch.setattr(spectra, "_available_memory", lambda: stack - 1)
    monkeypatch.setattr(np.linalg, "eigvals", _no_solve)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid configur")
    assert what in err and "available" in err


def test_refused_allocation_exits_2(monkeypatch, capsys):
    # an address-space limit (ulimit -v) can refuse a stack that the
    # MemAvailable estimate let through
    def refuse(*args):
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    monkeypatch.setattr(spectra, "_band", refuse)
    rc = main(["curve", "--nmax", "2", "--branch", "+", "--alpha-count", "8"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid configuration: Unable to allocate 1.00 GiB for an array"]


def test_pi_union_takes_the_period_1_forms_on_lam(monkeypatch, capsys):
    # the hole count and clearance evaluate the constant words' forms on lam
    # itself: through transfer_product they cost about 30x the time and an
    # (M, 2, 2) complex stack per word on the union cloud
    def no_product(*args):
        raise AssertionError("transfer_product on the pi-union path")

    monkeypatch.setattr(transfer, "transfer_product", no_product)
    assert main(["pi-union", "--nmax", "4", "--alpha-count", "8"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["pi-union", "--nmax", "1", "--alpha-count", "1000000000000"],
    ["curve", "--nmax", "0", "--alpha-count", "1000000000000",
     "--mode", "bloch"],
])
def test_huge_alpha_count_exits_2_before_allocating(argv, monkeypatch,
                                                    capsys):
    # 10^12 twists are refused by the memory estimate before the twist grid
    # (16 bytes a twist) is built
    monkeypatch.setattr(np.linalg, "eigvals", _no_solve)
    monkeypatch.setattr(spectra, "_available_memory", lambda: 2 ** 33)
    monkeypatch.setattr(spectra, "unit_grid", _no_solve)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid configur")
    assert "available" in err and "Traceback" not in err


def test_finite_too_big_for_memory_exits_2(monkeypatch, capsys):
    # a 10^6 x 10^6 complex section takes 14.6 TiB: refused before the draw,
    # so no section is built
    def no_section(*args):
        raise AssertionError("a section was built")

    monkeypatch.setattr(spectra, "_band", no_section)
    monkeypatch.setattr(spectra, "_available_memory", lambda: 2 ** 33)
    rc = main(["finite", "--nmax", "1000000", "--seed", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid configur")
    assert "sections of size 1000000" in err and "available" in err


def _proc_files(cgroup_max="max", v1_limit=None):
    """/proc and cgroup files of a host with 8 GB available, a process of
    600,000 KiB VmSize and a cgroup 700 MiB into its limit: cgroup v2 with
    memory.max cgroup_max, or given v1_limit, a cgroup v1 memory controller
    with that memory.limit_in_bytes (and no v2 memory files)."""
    used = str(700 * 2 ** 20) + "\n"
    files = {"/proc/meminfo": "MemTotal: 16000000 kB\nMemAvailable: 8000000 kB\n",
             "/proc/self/status": "Name:\tpython\nVmSize:\t  600000 kB\n"}
    if v1_limit is None:
        return files | {"/proc/self/cgroup": "0::/box\n",
                        "/sys/fs/cgroup/box/memory.max": cgroup_max + "\n",
                        "/sys/fs/cgroup/box/memory.current": used}
    v1 = "/sys/fs/cgroup/memory/box/memory."
    return files | {"/proc/self/cgroup": "4:memory:/box\n1:cpu:/\n0::/\n",
                    v1 + "limit_in_bytes": v1_limit + "\n",
                    v1 + "usage_in_bytes": used}


@pytest.mark.parametrize("files, soft, free", [
    (_proc_files(), resource.RLIM_INFINITY, 8000000 * 1024),
    (_proc_files(), 900000 * 1024, 300000 * 1024),
    (_proc_files(), 500000 * 1024, 0),
    (_proc_files(str(2 ** 30)), resource.RLIM_INFINITY, 324 * 2 ** 20),
    (_proc_files(str(2 ** 30)), 900000 * 1024, 300000 * 1024),
    ({}, resource.RLIM_INFINITY, None),
    # cgroup v1 writes "no limit" as 2^63 less a 4 KiB page
    (_proc_files(v1_limit="9223372036854771712"), resource.RLIM_INFINITY,
     8000000 * 1024),
    (_proc_files(v1_limit=str(2 ** 30)), resource.RLIM_INFINITY,
     324 * 2 ** 20),
    (_proc_files(v1_limit=str(2 ** 30)), 900000 * 1024, 300000 * 1024),
])
def test_available_memory_takes_the_least_limit(files, soft, free,
                                                monkeypatch):
    monkeypatch.setattr(spectra, "_read", lambda path: files.get(path, ""))
    monkeypatch.setattr(resource, "getrlimit",
                        lambda which: (soft, resource.RLIM_INFINITY))
    assert spectra._available_memory() == free


def test_address_space_limit_exits_2_before_allocating(monkeypatch, capsys):
    # under ulimit -v 900000 the MemAvailable estimate alone let this
    # command through to numpy's allocation of a 1 GiB stack
    def no_solve(*args):
        raise AssertionError("a stack was built")

    files = _proc_files()
    monkeypatch.setattr(spectra, "_read", lambda path: files.get(path, ""))
    monkeypatch.setattr(resource, "getrlimit",
                        lambda which: (900000 * 1024, resource.RLIM_INFINITY))
    monkeypatch.setattr(spectra, "_periodic_spectra", no_solve)
    monkeypatch.setattr(np.linalg, "eigvals", _no_solve)
    rc = main(["curve", "--nmax", "8", "--branch", "+"])
    err = capsys.readouterr().err
    assert rc == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid configur")
    assert "available" in err


CURVE = ["curve", "--nmax", "3", "--branch", "+", "--alpha-count", "512"]


def test_failure_in_a_split_block_exits_3(four_cores, fail_off_the_main_thread,
                                         capsys):
    # the 257 sections of size 8 are solved in 4 blocks; the last 3 fail
    rc = main(CURVE)
    err = capsys.readouterr().err
    assert rc == 3
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "did not converge" in lines[0]


def test_threads_that_cannot_start_change_no_byte(four_cores, tmp_path,
                                                  monkeypatch, capsys):
    # under a pid or address-space limit the caller solves every block
    def no_thread(self):
        raise RuntimeError("can't start new thread")

    csv = tmp_path / "c.csv"
    assert main(CURVE + ["--out-csv", str(csv)]) == 0
    split = csv.read_bytes(), capsys.readouterr().out
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert main(CURVE + ["--out-csv", str(csv)]) == 0
    out = capsys.readouterr()
    assert (csv.read_bytes(), out.out) == split
    assert "Traceback" not in out.err


def test_inclusion_violation_raises_solver_failure_and_exits_3(monkeypatch,
                                                                capsys):
    # one eigenvalue moved by 5 leaves the annulus; every periodised solve
    # checks its output, so each entry point raises SolverFailure
    cloud = pi_union(2, 0.5, 8)
    real_solver = spectra.eigvals_stack

    def moved(stack):
        w = real_solver(stack)
        w[0, 0] += 5
        return w

    monkeypatch.setattr(spectra, "eigvals_stack", moved)
    for call in (lambda: pi_union(3, 0.5, 4),
                 lambda: bloch_spectrum(SignWord((1, -1, -1), 0.5), 8),
                 lambda: random_periodic_sample(5, (3, 8), seed=1),
                 lambda: random_finite_sample(8, seed=1),
                 lambda: square_spectrum_check(SignWord((1, -1), 0.25), 8),
                 lambda: symmetry_check(cloud)):
        with pytest.raises(SolverFailure, match="inclusion bounds"):
            call()
    rc = main(["pi-union", "--nmax", "3", "--alpha-count", "4"])
    err = capsys.readouterr().err
    assert rc == 3
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "inclusion bounds" in lines[0] and "Traceback" not in err


# ---------------------------------------------------------------- fuzz

VALUES = ["nan", "inf", "-1", "0", "1", "3", "1e400", "", "x"]


def _option(valid, cap=None):
    # half the draws from the values valid for the option, half from
    # VALUES, leaving out integers above cap
    other = st.sampled_from([v for v in VALUES if cap is None
                             or not v.lstrip("-").isdigit() or int(v) <= cap])
    return st.one_of(st.sampled_from(valid), other) if valid else other


def _size(*valid):
    return _option(list(valid), cap=int(valid[-1]))


OUTPUTS = {"--out-csv": st.sampled_from(["{out}/o.csv", "{out}/no/o.csv", ""]),
           "--out-svg": st.sampled_from(["{out}/o.svg", "{out}/no/o.svg", ""]),
           "--overlay": st.sampled_from(["hole", "annulus,diamond", "bogus",
                                         ""])}
SAMPLER = {"--sigma": _option(["1"]), "--p-sigma": _option([]),
           "--seed": _option(["0", "1", "3"]), **OUTPUTS}
# subcommand -> (options always given, options that may be left out); the
# size options with large defaults are always given, at most at their caps:
# pi-union nmax 5 and alpha-count 16, sample count 20, finite nmax 40,
# curve nmax 2
GRAMMAR = {
    "pi-union": ({"--nmax": _size("1", "3", "5"),
                  "--alpha-count": _size("1", "3", "16")},
                 {"--sigma": _option(["1"]), **OUTPUTS}),
    "sample": ({"--count": _size("1", "3", "20")},
               {"--nmax": _option(["3"]), **SAMPLER}),
    "finite": ({"--nmax": _size("3", "40")}, SAMPLER),
    "curve": ({"--nmax": _size("0", "1", "2")},
              {"--branch": _option(["+", "-", "both"]),
               "--sigma": _option(["1"]), "--alpha-count": _option(["1", "3"]),
               "--mode": _option(["closed-form", "bloch", "both"]),
               **OUTPUTS}),
    "verify": ({}, {"--tol": _option(["1", "3"])}),
}


def _argv(command):
    given_opts, maybe_opts = GRAMMAR[command]
    return st.fixed_dictionaries(given_opts, optional=maybe_opts).map(
        lambda opts: [command] + [x for kv in opts.items() for x in kv])


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.sampled_from(sorted(GRAMMAR)).flatmap(_argv))
def test_cli_fuzz_exits_cleanly(argv, tmp_path):
    # any argv from the grammar ends in a documented exit code, never in a
    # traceback
    argv = [a.replace("{out}", str(tmp_path)) for a in argv]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2, 3), (argv, rc)
    assert "Traceback" not in err.getvalue()
