"""Minimal SVG scatter figures with overlay guide curves.

Points are drawn as short round-capped strokes batched into path elements,
which keeps files tractable for clouds of a few hundred thousand points.
Path coordinates are the correctly rounded "%.2f" text of each value, built
by integer arithmetic on arrays, with Python's "%.2f" only near a tie.
Guide overlays mirror the usual figure conventions: the two ellipse
boundaries, the annulus circles, the dashed diamond, and the hole boundary
with a thicker stroke.
"""

from html import escape

import numpy as np

from . import one_line
from .transfer import RegionParams, hole_boundary_radius, rho_curve

POINT_LIMIT = 200000


def fixed2(values, lead=0):
    """The "%.2f" text of each value of a float array as the rows of a
    (len, lead + width) uint8 array, zero bytes padding: `lead` columns, a
    "-" where the sign bit is set (-0.001 prints -0.00), then the digits of
    q = rint(100 |x|) right-aligned.  Below 1e7, q fits an int32 and the
    float 100 |x| is within 1.2e-7 of the exact product, so q is right unless
    it lies within 1e-6 of a tie (1.125, 1.005); such values, the non-finite
    ones and those of 1e7 or more take Python's "%.2f"."""
    v = np.asarray(values, dtype=float).ravel()
    fast = np.abs(v) < 1e7
    r = np.abs(np.where(fast, v, 0.0)) * 100
    slow = np.flatnonzero(~fast | (np.abs(r - np.floor(r) - 0.5) <= 1e-6))
    texts = [b"%.2f" % x for x in v[slow].tolist()]
    q = np.rint(r).astype(np.int32)
    nd = len(str(q.max(initial=0) // 100))
    width = max([nd + 4] + [len(t) for t in texts])
    buf = np.zeros((len(v), lead + width), np.uint8)
    buf[:, lead] = np.signbit(v) * ord("-")
    buf[:, -3] = ord(".")
    for k, col in enumerate([-1, -2] + list(range(-4, -4 - nd, -1))):
        t = q // 10
        digit = q - 10 * t + ord("0")  # leading zeros of the integer part
        buf[:, col] = digit if k < 3 else digit * (q > 0)  # stay blank
        q = t
    buf[slow, lead:] = 0
    for i, t in zip(slow, texts):
        buf[i, -len(t):] = np.frombuffer(t, np.uint8)
    return buf


class SvgFigure:
    def __init__(self, size=900, xmax=2.0, margin=45):
        self.size = size
        self.xmax = float(xmax)
        self.margin = margin
        self.scale = (size - 2 * margin) / (2 * self.xmax)
        self.body = []

    def _xy(self, z):
        x = self.margin + (z.real + self.xmax) * self.scale
        y = self.margin + (self.xmax - z.imag) * self.scale
        return x, y

    def _path_data(self, pts, first, rest, end=""):
        """Path data for a complex array: each point's SVG x and y as
        "%.2f" text, after the command letter `first` for the first point
        and `rest` for each later one, and followed by `end`."""
        if not len(pts):
            return ""
        # rows x0, y0, x1, ..., each led by m + 1 columns: end + rest before
        # an x (first before x0, zero-padded) and " " before a y
        m = len(end)
        buf = fixed2(np.column_stack(self._xy(pts)), m + 1)
        buf[:, m] = ord(" ")
        buf[2::2, :m + 1] = np.frombuffer((end + rest).encode(), np.uint8)
        buf[0, m] = ord(first)
        return buf.tobytes().translate(None, b"\0").decode() + end

    def add_points(self, pts, color="#1f3a93", width=1.5, limit=POINT_LIMIT):
        """Scatter a complex array; deterministic stride thinning beyond
        `limit` (full data belongs in the CSV, not the figure)."""
        pts = np.asarray(pts, dtype=complex).ravel()
        if limit and len(pts) > limit:
            stride = int(np.ceil(len(pts) / limit))
            pts = pts[::stride]
        for k in range(0, len(pts), 10000):
            d = self._path_data(pts[k:k + 10000], "M", "M", "v0")
            self.body.append(
                f'<path d="{d}" stroke="{color}" '
                f'stroke-width="{width}" stroke-linecap="round" fill="none"/>')

    def add_polyline(self, pts, color="#444444", width=1.0, dashed=False,
                     closed=False):
        pts = np.asarray(pts, dtype=complex).ravel()
        d = self._path_data(pts, "M", "L")
        if closed:
            d += "Z"
        dash = ' stroke-dasharray="7 5"' if dashed else ""
        self.body.append(
            f'<path d="{d}" stroke="{color}" '
            f'stroke-width="{width}"{dash} fill="none"/>')

    def add_axes(self):
        g = "#cccccc"
        x0, y0 = self._xy(-self.xmax + 0j)
        x1, y1 = self._xy(self.xmax + 0j)
        self.body.append(f'<line x1="{x0:.1f}" y1="{(y0 + y1) / 2:.1f}" '
                         f'x2="{x1:.1f}" y2="{(y0 + y1) / 2:.1f}" stroke="{g}"/>')
        self.body.append(f'<line x1="{(x0 + x1) / 2:.1f}" y1="{self.margin}" '
                         f'x2="{(x0 + x1) / 2:.1f}" y2="{self.size - self.margin}" '
                         f'stroke="{g}"/>')
        for t in np.arange(-np.floor(self.xmax), np.floor(self.xmax) + 0.5):
            x, y = self._xy(t - 1j * self.xmax)
            self.body.append(f'<text x="{x:.1f}" y="{self.size - self.margin + 16}" '
                             f'font-size="11" text-anchor="middle" fill="#666">'
                             f'{t:g}</text>')
            x, y = self._xy(-self.xmax + 1j * t)
            self.body.append(f'<text x="{self.margin - 6}" y="{y + 4:.1f}" '
                             f'font-size="11" text-anchor="end" fill="#666">'
                             f'{t:g}</text>')

    def write(self, path, command=None):
        """Write the figure in UTF-8, as its prolog declares; the command
        line is escaped to text that encodes before the file is opened."""
        # a desc element, not an XML comment: command lines contain "--",
        # which is forbidden inside comments
        desc = command and escape(one_line(command), False)
        with open(path, "w", encoding="utf-8") as f:
            f.write('<?xml version="1.0" encoding="UTF-8"?>\n')
            f.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                    f'width="{self.size}" height="{self.size}" '
                    f'viewBox="0 0 {self.size} {self.size}">\n')
            if desc:
                f.write(f"<desc>command: {desc}</desc>\n")
            f.write(f'<rect width="{self.size}" height="{self.size}" '
                    f'fill="white"/>\n')
            f.write(f'<rect x="{self.margin}" y="{self.margin}" '
                    f'width="{self.size - 2 * self.margin}" '
                    f'height="{self.size - 2 * self.margin}" fill="none" '
                    f'stroke="#888"/>\n')
            for el in self.body:
                f.write(el + "\n")
            f.write("</svg>\n")


def _polar(theta, r):
    return r * np.exp(1j * theta)


def overlay_names(names):
    """The set of guide-curve names in a comma-separated string or an
    iterable; ValueError unless each is annulus, diamond, hole or ellipses."""
    if isinstance(names, str):
        names = [s for s in names.split(",") if s]
    names = set(names)
    unknown = names - {"annulus", "diamond", "hole", "ellipses"}
    if unknown:
        raise ValueError(f"unknown overlays: {sorted(unknown)}")
    return names


def add_overlays(fig, names, sigma):
    """Draw the requested guide curves (see overlay_names)."""
    names = overlay_names(names)
    params = RegionParams(sigma)
    th = np.linspace(0, 2 * np.pi, 721)
    if "annulus" in names:
        for r in (params.annulus_inner, params.annulus_outer):
            if r > 0:
                fig.add_polyline(_polar(th, r), color="#777777", width=1.0)
    if "diamond" in names:
        d = params.diamond_bound
        fig.add_polyline(np.array([d, 1j * d, -d, -1j * d]),
                         color="#aa5500", width=1.0, dashed=True, closed=True)
    if sigma < 1.0 and "ellipses" in names:
        fig.add_polyline(_polar(th, rho_curve(0, "+", th, sigma)),
                         color="#2e7d32", width=1.0)
        fig.add_polyline(_polar(th, rho_curve(0, "-", th, sigma)),
                         color="#2e7d32", width=1.0)
    if sigma < 1.0 and "hole" in names:
        fig.add_polyline(_polar(th, hole_boundary_radius(th, sigma)),
                         color="#c62828", width=2.5)


def cloud_figure(cloud, overlays=(), xmax=None):
    """Standard figure for a spectrum cloud."""
    pts = cloud.points
    if xmax is None:
        reach = 1.0 + cloud.sigma
        for v in (pts.real, pts.imag) if len(pts) else ():  # no |v| array
            reach = max(reach, -float(v.min()), float(v.max()))
        xmax = 1.08 * reach
    fig = SvgFigure(xmax=xmax)
    fig.add_axes()
    if overlays:
        add_overlays(fig, overlays, cloud.sigma)
    fig.add_points(pts)
    return fig
