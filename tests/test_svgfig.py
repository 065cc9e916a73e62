import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsign.spectra import SpectrumCloud, pi_union
from hopsign.svgfig import SvgFigure, add_overlays, cloud_figure, fixed2


def test_write_produces_parseable_svg(tmp_path):
    fig = SvgFigure(size=300, xmax=2.0)
    fig.add_axes()
    fig.add_points(np.array([0.5 + 0.5j, -1.0 + 0j]))
    fig.add_polyline(np.array([0j, 1.0 + 0j, 1j]), dashed=True, closed=True)
    path = tmp_path / "fig.svg"
    fig.write(path, command="demo --count 3 <x&y>")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    text = path.read_text()
    # command line is recorded in a desc element ("--" breaks XML comments)
    assert "<desc>command: demo --count 3 &lt;x&amp;y&gt;</desc>" in text
    assert 'stroke-dasharray="7 5"' in text


def test_point_thinning_is_deterministic():
    pts = np.arange(100, dtype=complex) / 100
    a = SvgFigure()
    a.add_points(pts, limit=10)
    b = SvgFigure()
    b.add_points(pts, limit=10)
    assert a.body == b.body
    assert len(a.body) == 1  # thinned well below the path batch size


def test_add_points_empty_ok(tmp_path):
    fig = SvgFigure()
    fig.add_points(np.zeros(0, dtype=complex))
    fig.write(tmp_path / "empty.svg")
    ET.parse(tmp_path / "empty.svg")


def test_coordinate_mapping_orientation():
    fig = SvgFigure(size=100, xmax=1.0, margin=0)
    x, y = fig._xy(0j)
    assert (x, y) == (50.0, 50.0)
    x, y = fig._xy(1j)  # +imag goes up, so smaller SVG y
    assert y < 50.0


def test_overlay_names_validated():
    fig = SvgFigure()
    with pytest.raises(ValueError):
        add_overlays(fig, "annulus,nonsense", 0.5)
    add_overlays(fig, "annulus,diamond,hole,ellipses", 0.5)
    assert len(fig.body) >= 5


def test_overlays_degenerate_at_sigma_one():
    fig = SvgFigure()
    add_overlays(fig, ["annulus", "ellipses", "hole"], 1.0)
    # inner circle has radius 0 and the curves only exist below sigma 1
    assert len(fig.body) == 1


def test_cloud_figure_scales_to_data(tmp_path):
    c = SpectrumCloud(0.5)
    c.add([1.2 + 0.3j], 0, 0, 4)
    fig = cloud_figure(c, overlays="annulus")
    assert fig.xmax == pytest.approx(1.08 * 1.5)
    fig.write(tmp_path / "cloud.svg")
    ET.parse(tmp_path / "cloud.svg")


def test_path_strings_golden():
    # scale 1 and no margin, so x = re + 1 and y = 1 - im; exact binary
    # ties (1.125, 0.375, 0.875) round half to even, 1.005 and 2.675 sit
    # just below their ties, -0.001 prints as -0.00; the 10,001 points
    # span two path blocks
    fig = SvgFigure(size=2, xmax=1.0, margin=0)
    pts = np.zeros(10001, dtype=complex)
    pts[:5] = [0.125 + 1.375j, -1.375 - 0.005j, 0.005 + 2.5j, -3 - 4j,
               -1.001 + 1.675j]
    pts[9999] = 0.125 + 0.125j
    pts[10000] = -0.625 + 0.875j
    fig.add_points(pts, limit=None)
    fig.add_polyline(np.array([0.125 + 1.375j, -1.375 - 0.005j, 1.675]),
                     closed=True)
    dots = ' stroke="#1f3a93" stroke-width="1.5" stroke-linecap="round" ' \
           'fill="none"/>'
    assert fig.body == [
        '<path d="M1.12 -0.38v0M-0.38 1.00v0M1.00 -1.50v0M-2.00 5.00v0'
        'M-0.00 -0.68v0' + "M1.00 1.00v0" * 9994 + 'M1.12 0.88v0"' + dots,
        '<path d="M0.38 0.12v0"' + dots,
        '<path d="M1.12 -0.38L-0.38 1.00L2.67 1.00Z" stroke="#444444" '
        'stroke-width="1.0" fill="none"/>',
    ]
    # integer parts of 1 to 4 digits in one block; 99.9951 and 9.996 carry
    # into a new digit
    fig.body = []
    fig.add_points(np.array([-0.5 + 0.999j, 11.5 - 98.9951j, 122.4 + 0.5j,
                             -3 + 1j, 8.996 - 1233.5j]))
    assert fig.body == [
        '<path d="M0.50 0.00v0M12.50 100.00v0M123.40 0.50v0M-2.00 0.00v0'
        'M10.00 1234.50v0"' + dots]


def test_path_data_matches_per_float_format():
    fig = SvgFigure()
    pts = pi_union(6, 0.5, 32).points

    def per_float(first, rest):  # the path formatter fixed2 replaced
        xy = np.column_stack(fig._xy(pts)).ravel().tolist()
        return (first + rest * (len(pts) - 1)) % tuple(xy)

    assert fig._path_data(pts, "M", "M", "v0") == per_float("M%.2f %.2fv0",
                                                            "M%.2f %.2fv0")
    assert fig._path_data(pts, "M", "L") == per_float("M%.2f %.2f",
                                                      "L%.2f %.2f")


def fixed2_texts(values):
    return [bytes(row[row != 0]).decode() for row in fixed2(values)]


def test_fixed2_ties_carries_signs_and_specials():
    k = np.arange(-100000, 100000)
    for values in (k / 100 + 0.005, k / 8,
                   [9.995, 99.995, 999.995, 9.999, 99.9951, -9.995, 0.995],
                   [0.0, -0.0, -0.001, -0.004999, -0.005, -1e-300, -5e-324],
                   [np.nan, -np.nan, np.inf, -np.inf, 1e7, -1e7 + 0.005,
                    9999999.995, -1e300, 1e22, 2.0 ** 63],
                   [1.5, -22.25, 333.125, 4444.75, -55555.5, 666666.25,
                    7777777.125]):
        values = np.array(values, dtype=float)
        assert fixed2_texts(values) == ["%.2f" % v for v in values.tolist()]
    assert fixed2(np.zeros(0)).shape[0] == 0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=40))
def test_fixed2_matches_percent_format(values):
    assert fixed2_texts(values) == ["%.2f" % v for v in values]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(parts=st.lists(st.tuples(st.integers(0, 6), st.floats(1.0, 9.999999),
                                st.sampled_from([-1.0, 1.0])),
                      min_size=7, max_size=40))
def test_fixed2_mixed_integer_widths(parts):
    values = [s * m * 10.0 ** e for e, m, s in parts]  # 1 to 7 digit parts
    assert fixed2_texts(values) == ["%.2f" % v for v in values]
