"""Command-line interface.

Subcommands: verify (run the named check suite against a config file),
energy, charge, profile, flow, gaugefix.  Configuration is a flat key=value
file; any key can be overridden on the command line with -o key=value.
All randomness derives from one 64-bit seed through independent
counter-based streams, so reports are byte-identical across runs.

Exit codes: 0 all checks passed / command succeeded; 1 a check failed or
crashed; 2 invalid configuration or arguments.
"""

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from . import coulomb, energy, fields, flow, profile, sphere, verify

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
SEED_LIMIT = 2 ** 128          # Philox keys lie in [0, 2^128)
ALPHA = (1.0, 2.0)
LAMBDA = (1.0, 1.0e4)
# --adhm values where charge is accurate (within 1e-11 of 1); energy takes
# the same bounds
ADHM_SCALE = (1.0e-2, 1.0e2)
ADHM_XI = 1.0e2
ADHM_RULE = "|XI| <= %g and SCALE in [%g, %g]" % (ADHM_XI, *ADHM_SCALE)
# size caps (2 cores, numpy 2.4): leggauss(2n) at n = 1024, the doubling
# grid, takes about 1 s and 94 MB, paid once per size per process (sphere
# holds each rule); building the 31^4 gauge chart 1.3 s and 550 MB
QUAD_MAX = 1024
LATTICE_MAX = 31
GRID_MAX = 10000
# verify counts: a lower-bound draw takes about 2 ms and a flow seed about
# 2.5 s, so either maximum is a run of about four minutes
DRAWS_MAX = 100000
FLOW_SEEDS_MAX = 100


class UsageError(Exception):
    pass


def _arg_type(kind, ok, rule):
    """argparse type: a value of `kind` for which ok(value) holds; `rule`
    states the range, in the error and in the flag's help."""
    def parse(text):
        try:
            v = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid %s value: %r"
                                             % (kind.__name__, text))
        if not ok(v):
            raise argparse.ArgumentTypeError("%r out of range: must be %s"
                                             % (text, rule))
        return v
    parse.rule = rule
    return parse


def _between(kind, lo, hi):
    return _arg_type(kind, lambda v: lo <= v <= hi, "in [%g, %g]" % (lo, hi))


_alpha = _between(float, *ALPHA)
_lambda = _between(float, *LAMBDA)
_quad_size = _between(int, 1, QUAD_MAX)
_lattice_size = _between(int, 2, LATTICE_MAX)
_grid_count = _between(int, 1, GRID_MAX)
_positive_int = _arg_type(int, lambda v: v >= 1, ">= 1")
_seed = _arg_type(int, lambda v: 0 <= v < SEED_LIMIT, "in [0, 2^128)")
_finite = _arg_type(float, math.isfinite, "finite")
_positive = _arg_type(float, lambda v: 0.0 < v < math.inf,
                      "positive and finite")


def _lambda_grid(text):
    """A:B:N -> N geometrically spaced dilation parameters from A to B."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("must be A:B:N, got %r" % text)
    a, b, n = _lambda(parts[0]), _lambda(parts[1]), _grid_count(parts[2])
    if a > b:
        raise argparse.ArgumentTypeError("must have A <= B, got %r" % text)
    return np.geomspace(a, b, n)


# each verify config key's validator: the seed, every count and every size
# have their own range, every tolerance is positive and finite
CONFIG_TYPES = dict(seed=_seed, lower_bound_draws=_between(int, 1, DRAWS_MAX),
                    flow_seeds=_between(int, 1, FLOW_SEEDS_MAX),
                    radial_n=_quad_size, moduli_n=_lattice_size,
                    coulomb_n=_lattice_size, z_n=_lattice_size)
CONFIG_TYPES.update((k, _positive) for k, v in verify.DEFAULTS.items()
                    if type(v) is float)


def _config_rules():
    """The config value rules for --help, keys of one rule together."""
    keys = {}
    for k, kind in CONFIG_TYPES.items():
        if kind is not _positive:
            keys.setdefault(kind.rule, []).append(k)
    return "; ".join(["%s %s" % (", ".join(ks), rule)
                      for rule, ks in keys.items()]
                     + ["every tolerance " + _positive.rule])


def _set_config(cfg, text, where):
    """Store key=value in cfg, the value converted by its key's validator."""
    if "=" not in text:
        raise UsageError("%s: expected key=value, got %r" % (where, text))
    k, v = (s.strip() for s in text.split("=", 1))
    if k not in CONFIG_TYPES:
        raise UsageError("%s: unknown config key %r" % (where, k))
    try:
        cfg[k] = CONFIG_TYPES[k](v)
    except argparse.ArgumentTypeError as err:
        raise UsageError("%s: config value %s: %s" % (where, k, err))


def read_config(path):
    """Flat key=value UTF-8 file; '#' starts a comment; blank lines ignored."""
    cfg = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    _set_config(cfg, line, "%s:%d" % (path, ln))
    except OSError as err:
        raise UsageError("cannot read config file %s: %s"
                         % (path, err.strerror))
    except UnicodeDecodeError as err:
        raise UsageError("cannot read config file %s: not UTF-8 (%s)"
                         % (path, err.reason))
    return cfg


def apply_overrides(cfg, overrides):
    for item in overrides or []:
        _set_config(cfg, item, "-o %s" % item)
    return cfg


def _adhm_model(adhm):
    """The instanton of --adhm XI SCALE (centre XI on the first axis), or the
    basic connection when the option is absent."""
    if adhm is None:
        return fields.basic_connection()
    x0, scale = adhm
    if not (ADHM_SCALE[0] <= scale <= ADHM_SCALE[1] and abs(x0) <= ADHM_XI):
        raise UsageError("--adhm %g %g out of range: must have %s"
                         % (x0, scale, ADHM_RULE))
    xi = np.zeros(4)
    xi[0] = x0
    return fields.Adhm(xi if x0 != 0 else None, scale)


def _open_output(path):
    """Open an --output or --report destination for writing before any work
    is done (stdout when no path is given); an unwritable path is a usage
    error."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="")
    except OSError as err:
        raise UsageError("cannot write %s: %s" % (path, err.strerror))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args):
    cfg = read_config(args.config) if args.config else {}
    apply_overrides(cfg, args.override)
    with _open_output(args.report) as out:
        report = verify.run_suite(cfg, log=lambda s: print(s, file=sys.stderr))
        out.write(report.to_json() + "\n")
    n_ok = sum(c.passed for c in report.checks)
    print("%d/%d checks passed" % (n_ok, len(report.checks)), file=sys.stderr)
    return EXIT_OK if report.all_pass else EXIT_FAIL


def cmd_energy(args):
    """The centred instanton of scale s at twist lambda is the basic one
    dilated by x = s lambda, evaluated on the dilation profile (by the
    lambda <-> 1/lambda symmetry when x < 1)."""
    model = _adhm_model(args.adhm)
    if not model.is_radial:
        raise UsageError("energy has no quadrature route for an off-centre "
                         "instanton; use --adhm 0 SCALE")
    x = model.lam * args.lam
    v, res = profile.pullback_energy(args.alpha, max(x, 1.0 / x), n=args.n,
                                     with_residual=True)
    rep = energy.EnergyReport(v, args.alpha, args.lam, res,
                              "hyperbolic%d" % (2 * args.n))
    print(rep.to_json())
    return EXIT_OK


def cmd_charge(args):
    q = energy.topological_charge(_adhm_model(args.adhm), n=args.n)
    print(json.dumps({"charge": q}, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_profile(args):
    with _open_output(args.output) as out:
        rows = [profile.profile_point(args.alpha, float(lam), n=args.n)
                for lam in args.lambda_grid]
        w = csv.writer(out)
        w.writerow(["alpha", "lambda", "tau", "sigma", "G", "Gprime",
                    "gap", "dE_dloglog", "residual"])
        for p in rows:
            w.writerow(["%.17g" % x for x in
                        (p.alpha, p.lam, p.tau, p.sigma, p.G, p.Gprime,
                         p.gap, p.dE_dloglambda, p.residual)])
    return EXIT_OK


def cmd_flow(args):
    with _open_output(args.output) as out:
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        cfg = flow.FlowConfig(alpha=args.alpha, lam=args.lam,
                              max_steps=args.max_steps)
        try:
            # the line search rejects steps whose energy overflows, and so
            # every step from a seed that a huge --perturb overflowed
            with np.errstate(over="ignore", invalid="ignore"):
                prof = flow.random_flow_seed(rng, amp=args.perturb)
                res = flow.run_flow(prof, cfg)
        except flow.FlowError as err:
            print("flow failed: %s" % err, file=sys.stderr)
            return EXIT_FAIL
        res.write_trajectory(out)
    print(json.dumps({"converged": res.converged, "reason": res.reason,
                      "steps": res.steps, "energy": res.energy,
                      "grad_norm": res.grad_norm}, indent=1, sort_keys=True),
          file=sys.stderr)
    return EXIT_OK if res.converged else EXIT_FAIL


def cmd_gaugefix(args):
    with _open_output(args.output) as out:
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        # a huge --perturb overflows the seed to inf: the support gate
        # rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            c = flow.random_flow_seed(rng, amp=args.perturb,
                                      s_range=(0.1, 5.0))
        lat = sphere.Lattice4D(3.0, args.n)
        try:
            res = coulomb.coulomb_project(c, tol=args.tol, lattice=lat)
        except coulomb.CoulombError as err:
            print("gauge projection failed: %s" % err, file=sys.stderr)
            return EXIT_FAIL
        except ValueError as err:     # the support gate: no decay in the chart
            raise UsageError("--perturb %g: %s" % (args.perturb, err))
        res.write_log(out)
    print(json.dumps({"converged": res.converged,
                      "residual": res.residuals[-1],
                      "outer_iterations": len(res.residuals),
                      "distance_to_basic": coulomb.distance_to_basic(res)},
                     indent=1, sort_keys=True), file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="ymalpha",
        description="alpha-energy toolkit for SU(2) connections on the "
                    "4-sphere: energies, dilation profiles, gradient flow, "
                    "gauge projection, and a named verification suite.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("verify", help="run the verification suite")
    q.add_argument("--config", help="flat key=value configuration file")
    q.add_argument("-o", "--override", action="append", metavar="KEY=VALUE",
                   help="override a config value: " + _config_rules())
    q.add_argument("--report", help="write the JSON report here "
                                    "(default: stdout)")
    q.set_defaults(func=cmd_verify)

    alpha = dict(type=_alpha, required=True,
                 help="exponent of the alpha-energy, " + _alpha.rule)
    lam = dict(dest="lam", type=_lambda, default=1.0,
               help="dilation twist parameter, " + _lambda.rule)
    adhm = dict(nargs=2, type=_finite, metavar=("XI", "SCALE"),
                help="instanton centre (first coordinate) and scale, "
                     + ADHM_RULE)
    quad_n = dict(type=_quad_size, default=96,
                  help="quadrature size, " + _quad_size.rule)
    perturb = dict(type=_finite, default=0.05,
                   help="perturbation amplitude, " + _finite.rule)
    seed = dict(type=_seed, default=0, help="random seed, " + _seed.rule)

    q = sub.add_parser("energy", help="alpha-energy of an instanton")
    q.add_argument("--alpha", **alpha)
    q.add_argument("--lam", "--lambda", **lam)
    q.add_argument("--adhm", **adhm)
    q.add_argument("--n", **quad_n)
    q.set_defaults(func=cmd_energy)

    q = sub.add_parser("charge", help="topological charge")
    q.add_argument("--adhm", **adhm)
    q.add_argument("--n", **quad_n)
    q.set_defaults(func=cmd_charge)

    q = sub.add_parser("profile", help="dilation profile table (CSV)")
    q.add_argument("--alpha", **alpha)
    q.add_argument("--lambda-grid", type=_lambda_grid, required=True,
                   metavar="A:B:N",
                   help="N geometrically spaced dilation parameters from A "
                        "to B; A <= B, both %s; N %s"
                        % (_lambda.rule, _grid_count.rule))
    q.add_argument("--n", **quad_n)
    q.add_argument("--output", help="CSV path (default: stdout)")
    q.set_defaults(func=cmd_profile)

    q = sub.add_parser("flow", help="gradient flow from a seeded perturbation")
    q.add_argument("--alpha", **alpha)
    q.add_argument("--lam", "--lambda", **lam)
    q.add_argument("--perturb", **perturb)
    q.add_argument("--seed", **seed)
    q.add_argument("--max-steps", type=_positive_int, default=20000,
                   help="step limit, " + _positive_int.rule)
    q.add_argument("--output", help="trajectory CSV path (default: stdout)")
    q.set_defaults(func=cmd_flow)

    q = sub.add_parser("gaugefix", help="project a seeded perturbation to "
                                        "the gauge slice")
    q.add_argument("--perturb", **perturb)
    q.add_argument("--seed", **seed)
    q.add_argument("--tol", type=_positive, default=1e-8,
                   help="residual tolerance, " + _positive.rule)
    q.add_argument("--n", type=_lattice_size, default=15,
                   help="lattice points per axis, " + _lattice_size.rule)
    q.add_argument("--output", help="iteration log CSV path (default: stdout)")
    q.set_defaults(func=cmd_gaugefix)
    for q in sub.choices.values():
        q.set_defaults(parser=q)      # a post-parse error shows its usage
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as err:       # reported as the subcommand's parser would
        args.parser.print_usage(sys.stderr)
        print("%s: error: %s" % (args.parser.prog, err), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
