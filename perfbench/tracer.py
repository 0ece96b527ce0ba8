"""In-memory spans around the public functions of fsqubit's modules.

The tracer replaces module (or class) attributes with timing wrappers, so
every call made through that attribute, including calls a module makes to
its own globals, records one span: name, start, end, parent span and the
operation id that groups all spans of one CLI command or one simulate call.
Per-trial helpers are aggregated into a count and a total time instead of
one span per call. Nothing is written until the owner asks for the spans.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# CLOCK_MONOTONIC on Linux, so child and parent times share one axis
clock = time.perf_counter


def _arg(bound, *names):
    for name in names:
        if name in bound.arguments:
            return bound.arguments[name]
    return None


def _sim_attrs(sig, args, kwargs, _result):
    bound = sig.bind(*args, **kwargs)
    grid = _arg(bound, "t_grid_s", "t_r_grid_s")
    trials = int(_arg(bound, "trials"))
    return {"trials": trials, "trial_points": trials * len(grid)}


def _field_at_attrs(_sig, args, _kwargs, _result):
    # numpy is imported here, not at the top: the traced CLI child times
    # the import of fsqubit (numpy and scipy included) after loading this
    import numpy as np
    xyz = (np.asarray(a) for a in args[1:4])
    return {"points": int(np.broadcast(*xyz).size)}


def _contrast_attrs(_sig, _args, _kwargs, result):
    return {"windows": len(result)}


# (layer, owner path, attribute, span name, attrs hook). The owner path is
# "<module>" or "<module>.<Class>" under the fsqubit package.
SPANNED = [
    ("cli", "cli", "check_config", "cli.check_config", None),
    ("cli", "cli", "main", "cli.main", None),
    ("atomstark", "atomstark", "load_table", "atomstark.load_table", None),
    ("atomstark", "atomstark", "find_magic_angle", "atomstark.magic_angle",
     None),
    ("atomstark", "atomstark", "find_magic_wavelength",
     "atomstark.magic_wavelength", None),
    ("focalfield", "focalfield", "build_field", "focalfield.build_field",
     None),
    ("focalfield", "focalfield", "calibrate_filling_factor",
     "focalfield.calibrate", None),
    ("focalfield", "focalfield", "measure_waist", "focalfield.measure_waist",
     None),
    ("focalfield", "focalfield.TweezerField", "field_at",
     "focalfield.field_at", _field_at_attrs),
    ("focalfield", "focalfield", "lightshift_map", "focalfield.lightshift_map",
     None),
    ("focalfield", "focalfield", "write_map_csv", "focalfield.write_map",
     None),
    ("trapmodel", "trapmodel", "characterize_trap", "trapmodel.characterize",
     None),
    ("dynamics", "dynamics", "simulate_ramsey", "dynamics.simulate",
     _sim_attrs),
    ("dynamics", "dynamics", "simulate_echo", "dynamics.simulate", _sim_attrs),
    ("dynamics", "dynamics", "write_trace_csv", "dynamics.write_trace", None),
    ("analysis", "analysis", "extract_contrast", "analysis.extract_contrast",
     _contrast_attrs),
    ("analysis", "analysis", "fit_t2_envelope", "analysis.fit_envelope", None),
]

# Per-call counters with a total time and no span: the differential shift
# inside the magic-angle roots, and the per-trial trapmodel samplers that
# dynamics imported into its own namespace.
AGGREGATED = [
    ("atomstark", "atomstark", "differential_light_shift", "atomstark.shift"),
] + [("trapmodel", "dynamics", name, "trapmodel.sample")
     for name in ("sample_fock_thermal", "sample_position_classical",
                  "fock_sample", "classical_sample", "detuning_for_sample")]


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op, attrs].

    A window marks one set-up or one timed pass; per-layer metrics are
    per-window sums averaged over the windows of each kind.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.totals: dict[str, list] = {}  # name -> [calls, seconds]
        self.windows: list[dict] = []
        self.missing: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, clock(), None, parent, self.op, attrs]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = clock()
            self._stack.pop()

    @contextmanager
    def window(self, kind):
        before = {k: tuple(v) for k, v in self.totals.items()}
        win = {"kind": kind, "t0": clock(), "i0": len(self.spans),
               "extra": {}}
        try:
            yield win
        finally:
            win["t1"] = clock()
            win["i1"] = len(self.spans)
            win["totals"] = {
                k: [v[0] - before.get(k, (0, 0.0))[0],
                    v[1] - before.get(k, (0, 0.0))[1]]
                for k, v in self.totals.items()}
            self.windows.append(win)

    def merge(self, exported, op):
        """Append the spans and totals a child process exported."""
        base = len(self.spans)
        for name, t0, t1, parent, _op, attrs in exported["spans"]:
            self.spans.append([name, t0, t1,
                               None if parent is None else parent + base,
                               op, attrs])
        for name, (calls, secs) in exported["totals"].items():
            total = self.totals.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += secs
        for name in exported["missing"]:
            if name not in self.missing:
                self.missing.append(name)

    @staticmethod
    def _owner(package, path):
        obj = package
        for part in path.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj

    def _swap(self, package, path, attr, label, make):
        owner = self._owner(package, path)
        orig = getattr(owner, attr, None) if owner is not None else None
        if not callable(orig):
            if label not in self.missing:
                self.missing.append(label)
            return
        setattr(owner, attr, make(orig))
        self._restore.append((owner, attr, orig))

    def install(self, package):
        """Wrap every listed function of ``package`` (the fsqubit module);
        a listed function that no longer exists is reported as missing."""
        for layer, path, attr, name, hook in SPANNED:
            self._swap(package, path, attr, f"{layer}: {path}.{attr}",
                       lambda orig, n=name, h=hook: self._spanned(orig, n, h))
        for layer, path, attr, name in AGGREGATED:
            self._swap(package, path, attr, f"{layer}: {path}.{attr}",
                       lambda orig, n=name: self._aggregated(orig, n))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _spanned(self, orig, name, hook):
        sig = inspect.signature(orig) if hook is _sim_attrs else None

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = orig(*args, **kwargs)
            if hook is not None:
                rec[5] = hook(sig, args, kwargs, result)
            return result
        wrapper.__wrapped__ = orig
        return wrapper

    def _aggregated(self, orig, name):
        total = self.totals.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                total[0] += 1
                total[1] += clock() - t0
        wrapper.__wrapped__ = orig
        return wrapper

    def export(self):
        return {"spans": self.spans, "totals": self.totals,
                "missing": self.missing}


def _window_sums(spans, win) -> dict[str, float]:
    s: dict[str, float] = defaultdict(float)
    for name, t0, t1, parent, _op, attrs in spans[win["i0"]:win["i1"]]:
        d = t1 - t0
        s[name + ".s"] += d
        s[name + ".n"] += 1
        for key, val in (attrs or {}).items():
            s[f"{name}.{key}"] += val
        if parent is None:
            s["covered_s"] += d
            continue
        pname = spans[parent][0]
        if pname == "cli.main":
            s["cli.main.child_s"] += d
        elif pname == "focalfield.build_field" and \
                name != "focalfield.field_at":
            s["focalfield.build_field.other_child_s"] += d
    for name, (calls, secs) in win["totals"].items():
        s[name + ".n"] += calls
        s[name + ".s"] += secs
    for key, val in win["extra"].items():
        s[key] += val
    s["window_s"] += win["t1"] - win["t0"]
    return s


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one timed pass: each window's
    sums, averaged over the windows of its kind, then added up."""
    kinds = Counter(w["kind"] for w in tracer.windows)
    by_kind: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for win in tracer.windows:
        for key, val in _window_sums(tracer.spans, win).items():
            by_kind[win["kind"]][key] += val
    s: dict[str, float] = defaultdict(float)
    for kind, sums in by_kind.items():
        for key, val in sums.items():
            s[key] += val / kinds[kind]
    m = {
        "cli.import_s": s["cli.import.s"],
        "cli.check_config_s": s["cli.check_config.s"],
        "cli.interpreter_s": s["cli.interpreter.s"],
        "cli.main_s": s["cli.main.s"],
        "cli.self_s": s["cli.main.s"] - s["cli.main.child_s"],
        "cli.bytes_written": s["cli.bytes_written"],
        "cli.commands": s["cli.main.n"],
        "atomstark.load_table_s": s["atomstark.load_table.s"],
        "atomstark.magic_angle_s": s["atomstark.magic_angle.s"],
        "atomstark.magic_wavelength_s": s["atomstark.magic_wavelength.s"],
        "atomstark.shift_evals": s["atomstark.shift.n"],
        "focalfield.build_field_s": s["focalfield.build_field.s"],
        "focalfield.calibrate_s": s["focalfield.calibrate.s"],
        "focalfield.measure_waist_calls": s["focalfield.measure_waist.n"],
        "focalfield.normalize_s": (
            s["focalfield.build_field.s"]
            - s["focalfield.build_field.other_child_s"]),
        "focalfield.field_at_calls": s["focalfield.field_at.n"],
        "focalfield.field_at_points": s["focalfield.field_at.points"],
        "focalfield.field_at_s": s["focalfield.field_at.s"],
        "focalfield.points_per_s": _ratio(s["focalfield.field_at.points"],
                                          s["focalfield.field_at.s"]),
        "focalfield.lightshift_map_s": s["focalfield.lightshift_map.s"],
        "focalfield.write_map_s": s["focalfield.write_map.s"],
        "trapmodel.characterize_s": s["trapmodel.characterize.s"],
        "trapmodel.characterize_calls": s["trapmodel.characterize.n"],
        "trapmodel.sample_calls": s["trapmodel.sample.n"],
        "trapmodel.sample_s": s["trapmodel.sample.s"],
        "dynamics.simulate_s": s["dynamics.simulate.s"],
        "dynamics.trials": s["dynamics.simulate.trials"],
        "dynamics.trial_points": s["dynamics.simulate.trial_points"],
        "dynamics.us_per_trial": 1e6 * _ratio(s["dynamics.simulate.s"],
                                              s["dynamics.simulate.trials"]),
        "dynamics.ns_per_trial_point": 1e9 * _ratio(
            s["dynamics.simulate.s"], s["dynamics.simulate.trial_points"]),
        "dynamics.write_trace_s": s["dynamics.write_trace.s"],
        "analysis.extract_contrast_s": s["analysis.extract_contrast.s"],
        "analysis.window_fits": s["analysis.extract_contrast.windows"],
        "analysis.fit_envelope_s": s["analysis.fit_envelope.s"],
        "analysis.fit_envelope_calls": s["analysis.fit_envelope.n"],
    }
    m["trace.coverage"] = _ratio(
        sum(sums["covered_s"] for sums in by_kind.values()),
        sum(sums["window_s"] for sums in by_kind.values()))
    return m
