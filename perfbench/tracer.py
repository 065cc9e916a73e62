"""Span recorder that wraps hopsign's public callables from outside.

Each entry of SPANS names a per-layer metric and the callables whose calls
count towards it.  A callable is patched in every hopsign module that binds
it, because `from .x import f` copies the binding into the importing module;
"Class.method" is patched on its class.  A span records (name, start, end,
parent); a metric's value is the self time of its spans, that is the span
durations minus the parts their child spans cover.
"""

import functools
import os
import sys
import time

import numpy as np

SPANS = {
    "cli.self_s": [("hopsign.cli", "main")],
    "eigen.solve_s": [("hopsign.eigen", "eigvals_stack")],
    "spectra.self_s": [("hopsign.spectra", n) for n in (
        "pi_union", "bloch_spectrum", "random_periodic_sample",
        "random_finite_sample", "square_spectrum_check", "symmetry_check",
        "ue_bound_check")],
    "spectra.enumerate_s": [("hopsign.spectra", "enumerate_words")],
    "spectra.stack_build_s": [("hopsign.spectra", n) for n in (
        "_periodic_stack", "_m_ring_stack", "build_finite", "build_periodic")],
    "spectra.inclusion_s": [("hopsign.spectra", "_assert_inclusion")],
    "spectra.cloud_add_s": [("hopsign.spectra", "SpectrumCloud.add")],
    "spectra.sort_s": [("hopsign.spectra", "SpectrumCloud.sort")],
    "spectra.csv_write_s": [("hopsign.spectra", "SpectrumCloud.write_csv")],
    "transfer.region_tests_s": [("hopsign.transfer", "region_tests_many")],
    "transfer.hole_clearance_s": [("hopsign.transfer", "hole_clearance")],
    "transfer.decay_check_s": [("hopsign.transfer", "decay_check")],
    "transfer.rho_curve_s": [("hopsign.transfer", "rho_curve")],
    "polyalg.uv_polys_s": [("hopsign.polyalg", "uv_polys")],
    "polyalg.p_table_s": [("hopsign.polyalg", "p_table")],
    "polyalg.identities_s": [("hopsign.polyalg", "verify_identities")],
    "seqcore.c_tilde_s": [("hopsign.seqcore", "c_tilde_array"),
                          ("hopsign.seqcore", "c_tilde")],
    "seqcore.word_maps_s": [("hopsign.seqcore", n) for n in (
        "c_iterate_word", "gamma_plus_word", "m_word")],
    "metrics.assign_s": [("hopsign.metrics", "matching_distance")],
    "metrics.nn_s": [("hopsign.metrics", "nn_distances")],
    "metrics.segment_s": [("hopsign.metrics", "segment_distances")],
    "svgfig.figure_s": [("hopsign.svgfig", n) for n in (
        "cloud_figure", "SvgFigure.add_points", "SvgFigure.add_polyline",
        "SvgFigure.add_axes")],
    "svgfig.write_s": [("hopsign.svgfig", "SvgFigure.write")],
}

# count metric -> (span metric it is taken at, amount per successful call)
COUNTS = {
    "eigen.stacks": ("eigen.solve_s", lambda args: 1),
    "eigen.matrices": ("eigen.solve_s", lambda args: len(args[0])),
    "eigen.n3_sum": ("eigen.solve_s",
                     lambda args: len(args[0]) * np.shape(args[0])[1] ** 3),
    "spectra.cloud_add_calls": ("spectra.cloud_add_s", lambda args: 1),
    "spectra.points": ("spectra.cloud_add_s", lambda args: np.size(args[1])),
    "spectra.csv_bytes": ("spectra.csv_write_s",
                          lambda args: os.path.getsize(args[1])),
    "transfer.decay_calls": ("transfer.decay_check_s", lambda args: 1),
    "svgfig.svg_bytes": ("svgfig.write_s",
                         lambda args: os.path.getsize(args[1])),
}

# count metric -> (span metric, module, exception class name) counted when
# a call of that span raises the exception
FAILURES = {"eigen.failures": ("eigen.solve_s", "hopsign.eigen",
                               "SolverFailure")}


class Tracer:
    """Installs span wrappers on hopsign (which must be imported) and
    restores every patched binding on uninstall."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = {name: 0 for name in (*COUNTS, *FAILURES)}
        self.patched = []        # (owner, attribute, original)
        self._stack = []

    def _wrap(self, name, fn):
        counts = [(metric, amount) for metric, (span, amount)
                  in COUNTS.items() if span == name]
        failures = [(metric, getattr(sys.modules[mod], cls))
                    for metric, (span, mod, cls) in FAILURES.items()
                    if span == name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                for metric, exc_type in failures:
                    if isinstance(exc, exc_type):
                        self.counts[metric] += 1
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            for metric, amount in counts:
                self.counts[metric] += amount(args)
            return result
        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "hopsign" or k.startswith("hopsign.")]
        for name, targets in SPANS.items():
            for mod, attr in targets:
                owner = sys.modules[mod]
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                    self._patch(owner, attr, name)
                    continue
                original = getattr(owner, attr)
                for m in modules:
                    if vars(m).get(attr) is original:
                        self._patch(m, attr, name)
        return self

    def _patch(self, owner, attr, name):
        original = vars(owner)[attr]
        self.patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per-metric self time in seconds, for every SPANS metric."""
        out = dict.fromkeys(SPANS, 0.0)
        if not self.spans:
            return out
        names = [s[0] for s in self.spans]
        t = np.array([(s[1], s[2], s[3]) for s in self.spans])
        dur = t[:, 1] - t[:, 0]
        parent = t[:, 2].astype(int)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        for name, own in zip(names, dur - child):
            out[name] += float(own)
        return out
