import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hopsign.spectra import SpectrumCloud
from hopsign.svgfig import SvgFigure, add_overlays, cloud_figure


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
