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
LATTICE_KEYS = ("moduli_n", "coulomb_n", "z_n")   # points per lattice axis
# --adhm values where charge is accurate (within 1e-11 of 1); energy takes
# the same bounds
ADHM_SCALE = (1.0e-2, 1.0e2)
ADHM_XI = 1.0e2


class UsageError(Exception):
    pass


def _parse_value(text):
    try:
        v = int(text)
    except ValueError:
        try:
            v = float(text)
        except ValueError:
            return text
    return v


def read_config(path):
    """Flat key=value file; '#' starts a comment; blank lines ignored."""
    cfg = {}
    try:
        with open(path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError("%s:%d: expected key=value, got %r"
                                     % (path, ln, raw.strip()))
                k, v = line.split("=", 1)
                cfg[k.strip()] = _parse_value(v.strip())
    except OSError as err:
        raise UsageError("cannot read config file: %s" % err)
    return cfg


def apply_overrides(cfg, overrides):
    for item in overrides or []:
        if "=" not in item:
            raise UsageError("override must be key=value, got %r" % item)
        k, v = item.split("=", 1)
        cfg[k.strip()] = _parse_value(v.strip())
    return cfg


def _check_range(name, value, lo, hi):
    if not (lo <= value <= hi):
        raise UsageError("parameter out of range: %s = %g (allowed [%g, %g])"
                         % (name, value, lo, hi))


def _arg_type(kind, ok, rule):
    """argparse type: a value of `kind` for which ok(value) holds."""
    def parse(text):
        try:
            v = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid %s value: %r"
                                             % (kind.__name__, text))
        if not ok(v):
            raise argparse.ArgumentTypeError("must be %s, got %r" % (rule, text))
        return v
    return parse


_positive_int = _arg_type(int, lambda v: v >= 1, ">= 1")
_lattice_size = _arg_type(int, lambda v: v >= 2, ">= 2")
_seed = _arg_type(int, lambda v: 0 <= v < SEED_LIMIT, "in [0, 2^128)")
_finite = _arg_type(float, math.isfinite, "finite")
_positive = _arg_type(float, lambda v: 0.0 < v < math.inf,
                      "positive and finite")


def _parse_grid(text):
    """a:b:n -> n geometrically spaced values from a to b."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("grid must be start:stop:count, got %r" % text)
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError("grid must be start:stop:count of numbers, got %r"
                         % text)
    if not (n >= 1 and 0 < a <= b < math.inf):
        raise UsageError("grid must satisfy 0 < start <= stop < inf, "
                         "count >= 1")
    return np.geomspace(a, b, n)


def _check_config(cfg):
    """Each value must have the type of its verify.DEFAULTS entry (an int
    passes for a float); the seed must lie in [0, 2^128), every lattice size
    be >= 2 and every other count and tolerance > 0."""
    unknown = set(cfg) - set(verify.DEFAULTS)
    if unknown:
        raise UsageError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    for key in sorted(cfg):
        v, want = cfg[key], type(verify.DEFAULTS[key])
        if not (type(v) is want or (want is float and type(v) is int)):
            raise UsageError("config value %s = %r must be of type %s"
                             % (key, v, want.__name__))
        if key == "seed" and not 0 <= v < SEED_LIMIT:
            raise UsageError("config value seed = %d must lie in [0, 2^128)"
                             % v)
        if key in LATTICE_KEYS and v < 2:
            raise UsageError("config value %s = %d must be >= 2" % (key, v))
        if key != "seed" and not v > 0:
            raise UsageError("config value %s = %r must be > 0" % (key, v))


def _adhm_model(adhm):
    """The instanton of --adhm XI SCALE (centre XI on the first axis), or the
    basic connection when the option is absent."""
    if adhm is None:
        return fields.basic_connection()
    x0, scale = adhm
    _check_range("--adhm SCALE", scale, *ADHM_SCALE)
    _check_range("--adhm |XI|", abs(x0), 0.0, ADHM_XI)
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
    _check_config(cfg)
    with _open_output(args.report) as out:
        report = verify.run_suite(cfg, log=lambda s: print(s, flush=True))
        out.write(report.to_json() + "\n")
    n_ok = sum(c.passed for c in report.checks)
    print("%d/%d checks passed" % (n_ok, len(report.checks)))
    return EXIT_OK if report.all_pass else EXIT_FAIL


def cmd_energy(args):
    """The centred instanton of scale s at twist lambda is the basic one
    dilated by x = s lambda, evaluated on the dilation profile (by the
    lambda <-> 1/lambda symmetry when x < 1)."""
    _check_range("alpha", args.alpha, 1.0, 2.0)
    _check_range("lambda", args.lam, 1.0, 1.0e4)
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
    _check_range("alpha", args.alpha, 1.0, 2.0)
    lams = _parse_grid(args.lambda_grid)
    _check_range("lambda", float(lams[0]), 1.0, 1.0e4)
    _check_range("lambda", float(lams[-1]), 1.0, 1.0e4)
    with _open_output(args.output) as out:
        rows = [profile.profile_point(args.alpha, float(lam), n=args.n)
                for lam in lams]
        w = csv.writer(out)
        w.writerow(["alpha", "lambda", "tau", "sigma", "G", "Gprime",
                    "gap", "dE_dloglog", "residual"])
        for p in rows:
            w.writerow(["%.17g" % x for x in
                        (p.alpha, p.lam, p.tau, p.sigma, p.G, p.Gprime,
                         p.gap, p.dE_dloglambda, p.residual)])
    return EXIT_OK


def cmd_flow(args):
    _check_range("alpha", args.alpha, 1.0, 2.0)
    _check_range("lambda", args.lam, 1.0, 1.0e4)
    with _open_output(args.output) as out:
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        prof = flow.random_flow_seed(rng, amp=args.perturb)
        cfg = flow.FlowConfig(alpha=args.alpha, lam=args.lam,
                              max_steps=args.max_steps)
        try:
            # the line search rejects steps whose energy overflows
            with np.errstate(over="ignore", invalid="ignore"):
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
        c = flow.random_flow_seed(rng, amp=args.perturb, s_range=(0.1, 5.0))
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
                   help="override a config value")
    q.add_argument("--report", help="write the JSON report here "
                                    "(default: stdout)")
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("energy", help="alpha-energy of an instanton")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0,
                   help="dilation twist parameter")
    q.add_argument("--adhm", nargs=2, type=_finite, metavar=("XI", "SCALE"),
                   help="instanton center (first coordinate) and scale")
    q.add_argument("--n", type=_positive_int, default=96,
                   help="quadrature size")
    q.set_defaults(func=cmd_energy)

    q = sub.add_parser("charge", help="topological charge")
    q.add_argument("--adhm", nargs=2, type=_finite, metavar=("XI", "SCALE"))
    q.add_argument("--n", type=_positive_int, default=96)
    q.set_defaults(func=cmd_charge)

    q = sub.add_parser("profile", help="dilation profile table (CSV)")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--lambda-grid", required=True, metavar="A:B:N",
                   help="geometric grid of dilation parameters")
    q.add_argument("--n", type=_positive_int, default=96)
    q.add_argument("--output", help="CSV path (default: stdout)")
    q.set_defaults(func=cmd_profile)

    q = sub.add_parser("flow", help="gradient flow from a seeded perturbation")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0)
    q.add_argument("--perturb", type=_finite, default=0.05,
                   help="perturbation amplitude")
    q.add_argument("--seed", type=_seed, default=0)
    q.add_argument("--max-steps", type=_positive_int, default=20000)
    q.add_argument("--output", help="trajectory CSV path (default: stdout)")
    q.set_defaults(func=cmd_flow)

    q = sub.add_parser("gaugefix", help="project a seeded perturbation to "
                                        "the gauge slice")
    q.add_argument("--perturb", type=_finite, default=0.05)
    q.add_argument("--seed", type=_seed, default=0)
    q.add_argument("--tol", type=_positive, default=1e-8)
    q.add_argument("--n", type=_lattice_size, default=15,
                   help="lattice points per axis")
    q.add_argument("--output", help="iteration log CSV path (default: stdout)")
    q.set_defaults(func=cmd_gaugefix)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as err:
        print("error: %s" % err, file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
