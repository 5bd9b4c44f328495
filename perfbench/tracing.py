"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent) and counters; `uninstall()`
puts the originals back.  Module-level functions are replaced wherever a
ymalpha module holds them under a name, so calls through
`from .quat import bracket` are traced as well.  Spans stay in memory and are
summarised (and written out) when the run ends.

A span's self time is its duration minus the part of it covered by its
child spans; per-layer times below are sums of self times, so they add up
to no more than the wall time of the traced operations.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from ymalpha import coulomb, energy, fields, flow, profile, quat, sphere, variational

_ENERGY_EVALS = ("ym_energy", "ym_alpha", "ym_alpha_lambda",
                 "lp_curvature_norm", "lp_difference_norm")
_PROFILE_EVALS = ("pullback_energy", "G_of_sigma", "G_prime", "gap",
                  "dE_dloglambda_basic", "dE_dloglambda_general",
                  "profile_point", "verify_gap_bounds", "chi_sobolev_norms")
_VARIATIONAL = ("frame_potential", "frame_curvature", "cov_oneform",
                "cov_twotensor", "dstar_F", "dstar_oneform", "exterior_d",
                "gradient_ym_alpha_lambda", "jacobi_apply",
                "polarization_residuals", "commutator_bound_check")
_CURVATURE_CLASSES = ("ConnectionModel", "FlatConnection", "Adhm",
                      "RadialProfile", "GaugeTransformed", "Pulledback")


def _targets():
    """(owner, attribute, span name) of every traced callable; owners are
    modules or classes.  numpy's leggauss is counted in the sphere layer,
    whose grids (and profile's _gl) call it."""
    t = [(np.polynomial.legendre, "leggauss", "sphere.leggauss"),
         (sphere.RadialGrid, "__init__", "sphere.RadialGrid"),
         (quat, "bracket", "quat.bracket"),
         (energy, "topological_charge", "energy.topological_charge"),
         (flow, "run_flow", "flow.run_flow"),
         (flow, "flow_step", "flow.flow_step"),
         (coulomb, "coulomb_project", "coulomb.coulomb_project"),
         (coulomb.BasicChart, "__init__", "coulomb.BasicChart"),
         (coulomb.BasicChart, "solve", "coulomb.solve"),
         (coulomb.BasicChart, "laplace", "coulomb.matvec"),
         (coulomb, "_z_value", "coulomb.z_probe")]
    t += [(energy, f, "energy." + f) for f in _ENERGY_EVALS]
    t += [(profile, f, "profile." + f) for f in _PROFILE_EVALS]
    t += [(variational, f, "variational." + f) for f in _VARIATIONAL]
    t += [(getattr(fields, c), "curvature", "fields.%s.curvature" % c)
          for c in _CURVATURE_CLASSES]
    return t


def _n_points(args, kwargs):
    zeta = kwargs.get("zeta", args[1] if len(args) > 1 else None)
    shape = np.shape(zeta)
    return int(np.prod(shape[:-1])) if shape else 0


def _hooks():
    """Counters read from a traced call's arguments and result."""
    def step(counts, args, kwargs, out, parent):
        counts["flow.rejected_steps"] += out[3]

    def project(counts, args, kwargs, out, parent):
        counts["coulomb.outer_iters"] += len(out.residuals)
        counts["coulomb.cg_iters"] += sum(out.cg_iters)

    def curvature(counts, args, kwargs, out, parent):
        # a pullback or gauge transform evaluating its base connection
        # evaluates no new points
        if not parent.startswith("fields."):
            counts["fields.curvature_points"] += _n_points(args, kwargs)

    hooks = {"flow.flow_step": step, "coulomb.coulomb_project": project}
    hooks.update({"fields.%s.curvature" % c: curvature
                  for c in _CURVATURE_CLASSES})
    return hooks


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []         # (owner, attribute, original)

    def span(self, name, fn, hook=None):
        """Wrap fn so that each call records a span named `name`."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = [name, 0.0, 0.0, parent]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, out,
                     spans[parent][0] if parent >= 0 else "")
            return out
        return traced

    def install(self):
        hooks = _hooks()
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "ymalpha" or k.startswith("ymalpha."))]
        for owner, attr, name in _targets():
            orig = owner.__dict__[attr]
            wrapped = self.span(name, orig, hooks.get(name))
            holders = [owner] if isinstance(owner, type) else \
                [owner] + [m for m in modules if m is not owner]
            for h in holders:
                for key, val in list(vars(h).items()):
                    if val is orig:
                        self._saved.append((h, key, orig))
                        setattr(h, key, wrapped)

    def uninstall(self):
        while self._saved:
            h, key, orig = self._saved.pop()
            setattr(h, key, orig)

    def write(self, path, t0):
        """Write the spans as CSV: id, name, start, end, parent; times are
        seconds from t0."""
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i, (name, s, e, p) in enumerate(self.spans):
                fh.write("%d,%s,%.9f,%.9f,%d\n" % (i, name, s - t0, e - t0, p))


def self_times(spans):
    """Self time of each span: its duration minus the union of its
    children's intervals clipped to it.  spans: (name, start, end, parent)."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(i)
    out = []
    for i, (_, s, e, _) in enumerate(spans):
        covered, cur_s, cur_e = 0.0, None, None
        for j in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            cs, ce = max(spans[j][1], s), min(spans[j][2], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


# per-layer time metrics: the span names whose self time they sum
TIME_METRICS = {
    "sphere.leggauss_s": lambda n: n == "sphere.leggauss",
    "energy.eval_s": lambda n: n.startswith("energy.") and n != "energy.topological_charge",
    "energy.charge_s": lambda n: n == "energy.topological_charge",
    "profile.eval_s": lambda n: n.startswith("profile."),
    "variational.eval_s": lambda n: n.startswith("variational."),
    "flow.step_s": lambda n: n == "flow.flow_step",
    "flow.run_self_s": lambda n: n == "flow.run_flow",
    "fields.curvature_s": lambda n: n.startswith("fields."),
    "quat.bracket_s": lambda n: n == "quat.bracket",
    "coulomb.matvec_s": lambda n: n == "coulomb.matvec",
    "coulomb.solve_s": lambda n: n == "coulomb.solve",
    "coulomb.project_s": lambda n: n == "coulomb.coulomb_project",
    "coulomb.z_probe_s": lambda n: n == "coulomb.z_probe",
}

# per-layer call counts: (span-name test, count only entries into the layer)
CALL_METRICS = {
    "sphere.radial_grids": (lambda n: n == "sphere.RadialGrid", False),
    "sphere.leggauss_calls": (lambda n: n == "sphere.leggauss", False),
    "energy.evals": (TIME_METRICS["energy.eval_s"], True),
    "energy.charge_evals": (TIME_METRICS["energy.charge_s"], False),
    "profile.evals": (TIME_METRICS["profile.eval_s"], True),
    "variational.evals": (TIME_METRICS["variational.eval_s"], True),
    "flow.steps": (TIME_METRICS["flow.step_s"], False),
    "coulomb.projections": (TIME_METRICS["coulomb.project_s"], False),
    "coulomb.matvecs": (TIME_METRICS["coulomb.matvec_s"], False),
    "coulomb.z_probes": (TIME_METRICS["coulomb.z_probe_s"], False),
    "quat.bracket_calls": (TIME_METRICS["quat.bracket_s"], False),
}

HOOK_METRICS = ("flow.rejected_steps", "fields.curvature_points",
                "coulomb.outer_iters", "coulomb.cg_iters")

# reported by the traced run besides the per-operation layer metrics
RUN_METRICS = ("coulomb.chart_build_s", "trace.op_wall_s",
               "trace.layer_self_s", "trace.ops_per_s", "trace.overhead_pct")

METRIC_NAMES = tuple(sorted(set(TIME_METRICS) | set(CALL_METRICS)
                            | set(HOOK_METRICS) | set(RUN_METRICS)))


def _layer(name):
    return name.split(".")[0]


def layer_metrics(spans, selfs, counts, n_ops, first):
    """Per-operation layer metrics from spans[first:], the spans of `n_ops`
    traced operations, their self times `selfs` (indexed like spans), and
    the hook counters taken while they ran.

    Returns ({metric: (value, unit)}, summed self time of those spans);
    times are self seconds per operation, counts are per operation."""
    ops = range(first, len(spans))
    out = {}
    for metric, test in TIME_METRICS.items():
        out[metric] = (sum(selfs[i] for i in ops if test(spans[i][0]))
                       / n_ops, "s/op")
    for metric, (test, entries) in CALL_METRICS.items():
        k = 0
        for i in ops:
            name, parent = spans[i][0], spans[i][3]
            if test(name) and not (entries and parent >= 0 and
                                   _layer(spans[parent][0]) == _layer(name)):
                k += 1
        out[metric] = (k / n_ops, "count/op")
    for metric in HOOK_METRICS:
        out[metric] = (counts.get(metric, 0) / n_ops, "count/op")
    return out, sum(selfs[i] for i in ops)


def inclusive_times(spans):
    """Total duration per span name, children included."""
    out = defaultdict(float)
    for name, s, e, _ in spans:
        out[name] += e - s
    return dict(out)
