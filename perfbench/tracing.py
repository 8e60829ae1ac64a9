"""Traced runs: spans around the program's public functions.

Each public name is wrapped where it is looked up, in every operstokes
module that holds it, so a call from one module into another is caught
(sl2 calling its imported exactla.commutator, immersion calling its
imported stokes_data, a method call on EntireBasis).  A span records name,
start, end and the span that caused it, plus a few attributes read off the
call (working precision, term count, system size).  Spans stay in memory
and are written out once, when the run ends.
"""

import contextlib
import importlib
import json
import math
import statistics
import sys
import time

import checks

# (module, attribute) of every wrapped name; "Cls.method" patches the class
TARGETS = [
    ("stokes", "stokes_data"),
    ("stokes", "formal_solution"),
    ("stokes", "sector_coefficients"),
    ("stokes", "EntireBasis.__init__"),
    ("stokes", "EntireBasis.state_matrix"),
    ("immersion", "jacobian"),
    ("isomono", "solvability"),
    ("isomono", "joint_system"),
    ("exactla", "exact_nullspace"),
    ("exactla", "exact_solve"),
    ("exactla", "exact_rank"),
    ("exactla", "commutator"),
    ("sl2", "principal_sl2"),
    ("sl2", "build_weight_basis"),
    ("sl2", "compute_structure_tables"),
    ("sl2", "verify_sign_property"),
]

MODULES = ("stokes", "immersion", "isomono", "exactla", "sl2")


def _span_name(module, attr):
    if attr == "EntireBasis.__init__":
        return "stokes.EntireBasis"
    return f"{module}.{attr.split('.')[-1]}"


def _stokes_data_attrs(args, kwargs, result):
    op = args[0]
    plan = kwargs.get("plan", args[2] if len(args) > 2 else None)
    view = checks.stokes_view(op, result)
    return {"fresh": plan is None, "bits": result.plan.bits,
            "closure": checks.closure_defect(view)}


ATTRS = {
    "stokes.stokes_data": _stokes_data_attrs,
    "stokes.EntireBasis": lambda args, kwargs, result: {
        "terms": args[0].nterms},
    "isomono.joint_system": lambda args, kwargs, result: {
        "entries": len(result) * len(result[0])},
    "immersion.jacobian": lambda args, kwargs, result: {
        "holomorphy": result.holomorphy},
}


class Tracer:
    """Span recorder.  Wrapped names record only while `on` is set, so the
    benchmark's own checks, which call back into the program, add no
    spans."""

    def __init__(self):
        self.spans = []        # [id, parent, name, start, end, round, attrs]
        self.stack = []
        self.round = 0
        self.on = False
        self._patched = []

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        rec = [sid, parent, name, time.perf_counter(), None, self.round, {}]
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs is not None:
                rec[6] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every target in every loaded operstokes module."""
        mods = [m for key, m in sys.modules.items()
                if key == "operstokes" or key.startswith("operstokes.")]
        for module, attr in TARGETS:
            home = importlib.import_module(f"operstokes.{module}")
            name = _span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self.wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end",
                                  "round", "attrs"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics of one round

PER_LAYER = [
    ("stokes.stokes_data.s", "s"),
    ("stokes.plan.s", "s"),
    ("stokes.formal_solution.calls", "count"),
    ("stokes.formal_solution.s", "s"),
    ("stokes.EntireBasis.builds", "count"),
    ("stokes.EntireBasis.s", "s"),
    ("stokes.EntireBasis.terms", "count"),
    ("stokes.state_matrix.calls", "count"),
    ("stokes.state_matrix.s", "s"),
    ("stokes.sector_coefficients.s", "s"),
    ("stokes.bits_max", "bits"),
    ("stokes.mp_runs", "count"),
    ("stokes.closure_digits", "digits"),
    ("immersion.jacobian.s", "s"),
    ("immersion.stencil_runs", "count"),
    ("immersion.replay.s", "s"),
    ("immersion.holomorphy_digits", "digits"),
    ("isomono.solvability.s", "s"),
    ("isomono.joint_system.s", "s"),
    ("isomono.joint_system.entries", "count"),
    ("exactla.exact_nullspace.calls", "count"),
    ("exactla.exact_nullspace.s", "s"),
    ("exactla.exact_solve.calls", "count"),
    ("exactla.exact_solve.s", "s"),
    ("exactla.exact_rank.calls", "count"),
    ("exactla.exact_rank.s", "s"),
    ("exactla.commutator.calls", "count"),
    ("exactla.commutator.s", "s"),
    ("sl2.build_weight_basis.s", "s"),
    ("sl2.compute_structure_tables.s", "s"),
    ("sl2.n12.s", "s"),
] + [(f"{m}.self_s", "s") for m in MODULES]


def _digits(x, floor):
    return -math.log10(max(x, floor))


def round_metrics(spans, scale):
    """Per-layer numbers of one round's spans.  Times are in reference
    seconds: scaled by the round's measured speed factor (see speed.py).
    A layer the round never called reads 0."""
    dur = {s[0]: s[4] - s[3] for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    named = {}
    for s in spans:
        named.setdefault(s[2], []).append(s)

    def total(name):
        return float(sum(dur[s[0]] for s in named.get(name, [])))

    def calls(name):
        return len(named.get(name, []))

    runs = named.get("stokes.stokes_data", [])
    fresh = [s for s in runs if s[6].get("fresh")]
    replays = [dur[s[0]] for s in runs if not s[6].get("fresh", True)]
    plan_s = 0.0
    for s in fresh:
        builds = [c for c in children.get(s[0], [])
                  if c[2] == "stokes.EntireBasis"]
        if builds:
            plan_s += builds[-1][3] - s[3]
    bits = [s[6]["bits"] for s in runs if "bits" in s[6]]
    closures = [s[6]["closure"] for s in runs if "closure" in s[6]]
    jacs = [s[6]["holomorphy"] for s in named.get("immersion.jacobian", [])
            if "holomorphy" in s[6]]
    self_s = dict.fromkeys(MODULES, 0.0)
    for s in spans:
        module = s[2].split(".")[0]
        if module in self_s:
            self_s[module] += dur[s[0]] - sum(
                dur[c[0]] for c in children.get(s[0], []))

    out = {
        "stokes.stokes_data.s": total("stokes.stokes_data"),
        "stokes.plan.s": plan_s,
        "stokes.formal_solution.calls": calls("stokes.formal_solution"),
        "stokes.formal_solution.s": total("stokes.formal_solution"),
        "stokes.EntireBasis.builds": calls("stokes.EntireBasis"),
        "stokes.EntireBasis.s": total("stokes.EntireBasis"),
        "stokes.EntireBasis.terms": sum(
            s[6].get("terms", 0) for s in named.get("stokes.EntireBasis", [])),
        "stokes.state_matrix.calls": calls("stokes.state_matrix"),
        "stokes.state_matrix.s": total("stokes.state_matrix"),
        "stokes.sector_coefficients.s": total("stokes.sector_coefficients"),
        "stokes.bits_max": max(bits, default=0),
        "stokes.mp_runs": sum(1 for b in bits if b > 53),
        "stokes.closure_digits": (statistics.fmean(
            _digits(c, 1e-300) for c in closures) if closures else 0.0),
        "immersion.jacobian.s": total("immersion.jacobian"),
        "immersion.stencil_runs": len(replays),
        "immersion.replay.s": statistics.median(replays) if replays else 0.0,
        "immersion.holomorphy_digits": (statistics.fmean(
            _digits(h, 1e-300) for h in jacs) if jacs else 0.0),
        "isomono.solvability.s": total("isomono.solvability"),
        "isomono.joint_system.s": total("isomono.joint_system"),
        "isomono.joint_system.entries": sum(
            s[6].get("entries", 0)
            for s in named.get("isomono.joint_system", [])),
        "sl2.build_weight_basis.s": total("sl2.build_weight_basis"),
        "sl2.compute_structure_tables.s": total("sl2.compute_structure_tables"),
        "sl2.n12.s": total("op.tables_n12"),
    }
    for fn in ("exact_nullspace", "exact_solve", "exact_rank", "commutator"):
        out[f"exactla.{fn}.calls"] = calls(f"exactla.{fn}")
        out[f"exactla.{fn}.s"] = total(f"exactla.{fn}")
    for m in MODULES:
        out[f"{m}.self_s"] = self_s[m]
    for name, unit in PER_LAYER:
        if unit == "s":
            out[name] *= scale
    return out
