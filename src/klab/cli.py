"""Command-line front door.

One subcommand per verifier/calculator; all sampled runs take an explicit
seed and re-running with the same config produces byte-identical output.
Exit codes: 0 success, 2 when a range/constraint hypothesis was violated
(reported, not crashed), 1 on errors or bad usage.

A flat key-value config file with one ``[subcommand]`` section per command
may supply defaults; explicit flags override it.  KLAB_CACHE_DIR enables the
binary table cache.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import bilinear as bl
from . import divisor as dv
from . import root_sums as rs
from .errors import (ConstraintViolated, HypothesisViolated, KlabError,
                     UsageError)
from .fields import build_extension, make_prime_field
from .kloosterman import (INTRO, cache_path, conjugation_symmetry_check,
                          cross_check, kloosterman_table, load_table,
                          save_table)
from .reporting import envelope, write_csv, write_json
from .sum_product import (ScanSpec, SumProductContext, full_average_moment,
                          noncorrelation_moment, ratio_scan,
                          sample_generic_tuples, scan_bad_tuples,
                          second_moment_r_lambda)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2


def _field(q: int, d: int):
    base = make_prime_field(q)
    return base if d == 1 else build_extension(base, d)


def _context(k: int, q: int, d: int, c: int, convention: str = INTRO):
    f = _field(q, d)
    cache_dir = os.environ.get("KLAB_CACHE_DIR")
    table = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        path = cache_path(cache_dir, k, f, convention)
        if os.path.exists(path):
            table = load_table(path, field=f, k=k, convention=convention)
    if table is None:
        table = kloosterman_table(k, f, convention)
        if cache_dir:
            save_table(table, cache_path(cache_dir, k, f, convention))
    return SumProductContext(table, c=c)


def parse_config(path: str) -> dict:
    """Flat key-value file with [section] headers."""
    sections: dict = {}
    current = None
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith("[") and line.endswith("]"):
                    current = line[1:-1].strip()
                    sections.setdefault(current, {})
                elif "=" in line and current is not None:
                    key, val = line.split("=", 1)
                    sections[current][key.strip()] = val.strip()
                else:
                    raise UsageError(f"bad config line: {raw!r}")
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}") from e
    return sections


def _emit(args, payload: dict, csv_part=None) -> None:
    data = envelope(_config_echo(args), payload)
    if args.out:
        if args.format == "csv" and csv_part is not None:
            write_csv(args.out, *csv_part)
        else:
            write_json(args.out, data)
    else:
        from .reporting import csv_text, json_text
        if args.format == "csv" and csv_part is not None:
            sys.stdout.write(csv_text(*csv_part))
        else:
            sys.stdout.write(json_text(data))


def _config_echo(args) -> dict:
    # the output destination is not part of the result-determining config
    skip = {"func", "out", "given"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


# ----------------------------------------------------------------- commands

def cmd_kl_table(args):
    f = _field(args.q, args.d)
    t = kloosterman_table(args.k, f, args.convention)
    cache_dir = args.cache or os.environ.get("KLAB_CACHE_DIR")
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        save_table(t, cache_path(cache_dir, args.k, f, args.convention))
    payload = {
        "k": args.k, "q": args.q, "d": args.d, "convention": args.convention,
        "modulus": list(f.modulus),
        "deligne_margin": t.deligne_margin(),
        "complete_sum_residual": t.complete_sum_residual(),
        "conjugation_deviation": conjugation_symmetry_check(t),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_kl_check(args):
    f = _field(args.q, args.d)
    t = kloosterman_table(args.k, f)
    payload = {
        "cross_check_max": cross_check(args.k, f),
        "deligne_margin": t.deligne_margin(),
        "conjugation_deviation": conjugation_symmetry_check(t),
        "complete_sum_residual": t.complete_sum_residual(),
        "tolerance_budget": f.size * 1e-15,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_sumprod_scan(args):
    ctx = _context(args.k, args.q, 1, args.c)
    if args.ratios:
        reports = ratio_scan(ctx, n_samples=args.samples, seed=args.seed,
                             replicates=args.replicates)
        payload = {name: {"max_ratio": r.max_ratio, "mean_ratio": r.mean_ratio,
                          "normalization_exponent": r.normalization_exponent,
                          "sample": r.sample}
                   for name, r in reports.items()}
        _emit(args, {"ratios": payload})
        return EXIT_OK
    thresholds = None
    if args.threshold is not None:
        thresholds = {"r_linear": args.threshold, "corr": args.threshold}
    res = scan_bad_tuples(ctx, thresholds=thresholds,
                          spec=ScanSpec(n_samples=args.samples, seed=args.seed))
    header = ["q", "k", "c", "b1", "b2", "b3", "b4", "lambda_set",
              "statistic", "value", "normalized_ratio"]
    lam = "|".join(str(x) for x in res.spec.lambdas)
    rows = []
    for row in res.rows:
        rows.append((args.q, args.k, args.c, *row.b, lam, "r_linear",
                     row.ratio_r_linear * args.q, row.ratio_r_linear))
        rows.append((args.q, args.k, args.c, *row.b, lam, "corr",
                     row.ratio_corr * args.q**1.5, row.ratio_corr))
    payload = {
        "seed": args.seed, "samples": len(res.rows),
        "exhaustive": res.exhaustive,
        "thresholds": res.thresholds,
        "flagged_fraction": res.flagged_fraction,
        "expected_fraction": res.expected_fraction,
        "max_r_linear": max(r.ratio_r_linear for r in res.rows),
        "max_corr": max(r.ratio_corr for r in res.rows),
    }
    _emit(args, payload, csv_part=(header, rows))
    return EXIT_OK


def cmd_moments(args):
    ctx = _context(args.k, args.q, args.d, args.c)
    f = ctx.field
    rng = np.random.default_rng(args.seed)
    tuples = sample_generic_tuples(f, args.k, args.samples, rng)
    Q = f.size
    devs = [abs(second_moment_r_lambda(ctx, tuple(int(x) for x in b)) - Q) / math.sqrt(Q)
            for b in tuples]
    fam = full_average_moment(ctx)
    payload = {
        "q": args.q, "d": args.d, "k": args.k, "seed": args.seed,
        "second_moment_dev_max": max(devs),
        "second_moment_dev_mean": sum(devs) / len(devs),
        "full_average_moment": fam,
        "full_average_dev": abs(fam - Q) / math.sqrt(Q),
    }
    if args.k % 2 == 1:
        ncs = [abs(noncorrelation_moment(ctx, tuple(int(x) for x in b))) / math.sqrt(Q)
               for b in tuples]
        payload["noncorrelation_ratio_max"] = max(ncs)
    _emit(args, payload)
    return EXIT_OK


def cmd_bilinear_sweep(args):
    ctx = _context(args.k, args.q, 1, args.c)
    sizes = tuple((m, n) for m in args.M for n in args.N)
    rows = bl.saving_sweep(ctx, bl.SweepSpec(sizes=sizes, seed=args.seed,
                                             offset=args.offset))
    header = ["q", "k", "c", "M", "N", "offset", "ensemble", "seed",
              "measured", "trivial", "pv", "thm11", "thm12", "gamma"]
    csv_rows = [(r.q, r.k, r.c, r.M, r.N, r.offset, r.ensemble, r.seed,
                 r.measured, r.trivial, r.pv, r.thm11, r.thm12, r.gamma)
                for r in rows]
    per_ens: dict = {}
    for r in rows:
        cur = per_ens.setdefault(r.ensemble, {"max_gamma": -math.inf,
                                              "max_measured": 0.0})
        cur["max_gamma"] = max(cur["max_gamma"], r.gamma)
        cur["max_measured"] = max(cur["max_measured"], r.measured)
    flagged = sorted({f for r in rows for f in r.flags})
    payload = {"seed": args.seed, "sizes": [list(s) for s in sizes],
               "per_ensemble": per_ens, "hypothesis_flags": flagged}
    _emit(args, payload, csv_part=(header, csv_rows))
    return EXIT_HYPOTHESIS if flagged else EXIT_OK


def cmd_opnorm(args):
    ctx = _context(args.k, args.q, 1, args.c)
    sigma = bl.operator_norm(ctx, args.M, args.N, args.offset)
    payload = {"sigma_max": sigma,
               "frobenius_cap": args.k * math.sqrt(args.M * args.N),
               "extremal_vs_trivial": sigma / math.sqrt(args.M * args.N)}
    if args.M * args.N <= 4096:
        payload["dense_svd"] = bl.operator_norm_dense(ctx, args.M, args.N, args.offset)
    _emit(args, payload)
    return EXIT_OK


def cmd_shift_check(args):
    ctx = _context(args.k, args.q, 1, args.c)
    rng = np.random.default_rng(args.seed)
    devs = []
    try:
        for _ in range(args.samples):
            alpha = np.exp(2j * math.pi * rng.random(args.M))
            devs.append(bl.shift_identity_check(ctx, alpha, args.offset,
                                                args.N, args.A, args.B))
    except ConstraintViolated as e:
        _emit(args, {"error": str(e), "failed": list(e.failed)})
        return EXIT_HYPOTHESIS
    payload = {"max_deviation": max(devs), "samples": args.samples,
               "seed": args.seed, "A": args.A, "B": args.B}
    _emit(args, payload)
    return EXIT_OK


def cmd_sk(args):
    if args.scan_smallest:
        qs = {k: rs.smallest_conforming_q(k, q_limit=args.q_limit)
              for k in range(2, args.k + 1)}
        _emit(args, {"smallest_conforming_q": {str(k): v for k, v in qs.items()}})
        return EXIT_OK
    if args.q is None:
        raise UsageError("sk requires --q (or --scan-smallest)")
    host = rs.host_field(args.k, args.q, args.d)
    _emit(args, rs.sk_to_dict(rs.compute_sk(args.k, host)))
    return EXIT_OK


def cmd_progression(args):
    coeffs = dv.tau_table(max(args.x, args.nmax))
    reports = dv.discrepancy_all(coeffs, args.x, args.q)
    residual, budget = dv.hyperbola_residual(coeffs, args.x, args.q, reports)
    if args.a is not None:
        reports = [r for r in reports if r.a == args.a]
    header = ["x", "q", "a", "raw", "main", "E", "normalized"]
    rows = [(r.x, r.q, r.a, r.raw, r.main, r.E, r.normalized) for r in reports]
    payload = {
        "x": args.x, "q": args.q,
        "max_abs_E": max(abs(r.E) for r in reports),
        "max_normalized": max(abs(r.normalized) for r in reports),
        "hyperbola_residual": residual,
        "hyperbola_budget": budget,
    }
    _emit(args, payload, csv_part=(header, rows))
    return EXIT_OK


def cmd_exponent_lp(args):
    if args.search:
        ignored = sorted({"delta", "eta", "kappa"} & args.given)
        if ignored:
            raise UsageError("--search computes delta* at --search-kappa; it takes no "
                             + ", ".join(f"--{dest}" for dest in ignored))
        res = dv.delta_star_search(kappa=args.search_kappa, slack=args.slack)
        _emit(args, res)
        return EXIT_OK
    cfg = dv.ExponentConfig(delta=args.delta, eta=args.eta, kappa=args.kappa,
                            slack=args.slack)
    v = dv.exponent_case_analysis(cfg)
    payload = {"passed": v.passed, "delta": float(v.delta), "kappa": v.kappa,
               "slack": v.slack, "worst_exponent": float(v.worst),
               "witnesses": [list(w) for w in v.witnesses]}
    _emit(args, payload)
    return EXIT_OK


def cmd_report(args):
    """Small default battery across the modules, one combined JSON."""
    q, k = args.q, args.k
    f = make_prime_field(q)
    t = kloosterman_table(k, f)
    ctx = SumProductContext(t, c=1)
    rng = np.random.default_rng(args.seed)
    tuples = sample_generic_tuples(f, k, 16, rng)
    sm = [abs(second_moment_r_lambda(ctx, tuple(int(x) for x in b)) - q) / math.sqrt(q)
          for b in tuples]
    sweep = bl.saving_sweep(ctx, bl.SweepSpec(sizes=((8, 8),), seed=args.seed))
    payload = {
        "kloosterman": {"deligne_margin": t.deligne_margin(),
                        "complete_sum_residual": t.complete_sum_residual()},
        "second_moment_dev_max": max(sm),
        "bilinear_gamma_max": max(r.gamma for r in sweep),
        "sk": rs.sk_to_dict(rs.compute_sk(2, f)),
        "exponent_lp": dv.delta_star_search(),
    }
    _emit(args, payload)
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="klab", description=__doc__)
    p.add_argument("--config", help="flat key-value config file with [sections]")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seeded=False):
        sp.add_argument("--out", help="output path (stdout when omitted)")
        sp.add_argument("--format", choices=("csv", "json"), default="json")
        if seeded:
            sp.add_argument("--seed", type=int, required=True)

    sp = sub.add_parser("kl-table", help="build a table, emit health metrics")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--convention", choices=("intro", "sheaf"), default="intro")
    sp.add_argument("--cache", help="directory for the binary table cache")
    common(sp)
    sp.set_defaults(func=cmd_kl_table)

    sp = sub.add_parser("kl-check", help="naive vs convolution cross-check")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_kl_check)

    sp = sub.add_parser("sumprod-scan", help="tuple scans and ratio statistics")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--c", type=int, default=1)
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--threshold", type=float)
    sp.add_argument("--ratios", action="store_true",
                    help="normalized cancellation ratios instead of flags")
    sp.add_argument("--replicates", type=int, default=1)
    common(sp, seeded=True)
    sp.set_defaults(func=cmd_sumprod_scan)

    sp = sub.add_parser("moments", help="second-moment statistics")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--c", type=int, default=1)
    sp.add_argument("--samples", type=int, default=50)
    common(sp, seeded=True)
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("bilinear-sweep", help="ensemble sweep with bound brackets")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--c", type=int, default=1)
    sp.add_argument("--M", type=int, nargs="+", required=True)
    sp.add_argument("--N", type=int, nargs="+", required=True)
    sp.add_argument("--offset", type=int, default=1)
    common(sp, seeded=True)
    sp.set_defaults(func=cmd_bilinear_sweep)

    sp = sub.add_parser("opnorm", help="largest singular value of the kernel matrix")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--c", type=int, default=1)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--offset", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_opnorm)

    sp = sub.add_parser("shift-check", help="exact shift-by-ab re-indexing check")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--c", type=int, default=1)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--A", type=int, required=True)
    sp.add_argument("--B", type=int, required=True)
    sp.add_argument("--offset", type=int, default=1)
    sp.add_argument("--samples", type=int, default=10)
    common(sp, seeded=True)
    sp.set_defaults(func=cmd_shift_check)

    sp = sub.add_parser("sk", help="root-of-unity sum multiset and stabilizer")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--scan-smallest", action="store_true")
    sp.add_argument("--q-limit", type=int, default=300)
    common(sp)
    sp.set_defaults(func=cmd_sk)

    sp = sub.add_parser("progression", help="divisor-convolution discrepancies")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--a", type=int)
    sp.add_argument("--nmax", type=int, default=0)
    common(sp)
    sp.set_defaults(func=cmd_progression)

    sp = sub.add_parser("exponent-lp", help="distribution-exponent case analysis")
    sp.add_argument("--delta", type=float)
    sp.add_argument("--eta", type=float)
    sp.add_argument("--kappa", type=float, default=1e-3)
    sp.add_argument("--slack", type=float, default=0.0)
    sp.add_argument("--search", action="store_true")
    sp.add_argument("--search-kappa", type=float, default=0.0)
    common(sp)
    sp.set_defaults(func=cmd_exponent_lp)

    sp = sub.add_parser("report", help="small default battery, combined JSON")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--q", type=int, default=53)
    common(sp, seeded=True)
    sp.set_defaults(func=cmd_report)

    return p


def _explicit_options(parser, argv) -> set:
    """Destinations of the options given on the command line: a second parse
    in which no option has a default (``parser`` keeps none afterwards)."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for p in [parser, *(sp for a in subs for sp in a.choices.values())]:
        for action in p._actions:
            action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _apply_config(parser, args, argv):
    """Fill options from the config file; ``args.given`` records the
    destinations set by a flag or by the config."""
    args.given = _explicit_options(parser, argv)
    if not args.config:
        return args
    sections = parse_config(args.config)
    overrides = sections.get(args.command, {})
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in subs.choices[args.command]._actions}
    for key, val in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None or not hasattr(args, action.dest):
            raise UsageError(f"unknown config key {key!r} for {args.command}")
        if action.dest not in args.given:
            setattr(args, action.dest, _coerce(key, val, action))
            args.given.add(action.dest)
    return args


def _coerce(key: str, val: str, action):
    """A config value converted as its flag's own argparse action would."""
    if isinstance(action, argparse._StoreTrueAction):
        if val.lower() not in ("1", "true", "yes", "0", "false", "no"):
            raise UsageError(f"config key {key!r}: {val!r} is not a boolean")
        return val.lower() in ("1", "true", "yes")
    conv = action.type or str
    try:
        out = [conv(v) for v in val.split()] if action.nargs == "+" else conv(val)
    except ValueError as e:
        raise UsageError(f"config key {key!r}: bad value {val!r} ({e})") from e
    if action.choices is not None and out not in action.choices:
        raise UsageError(f"config key {key!r}: {val!r} not one of {action.choices}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code else EXIT_OK
    try:
        args = _apply_config(parser, args, argv)
        return args.func(args)
    except (HypothesisViolated, ConstraintViolated) as e:
        sys.stderr.write(f"hypothesis violated: {e}\n")
        return EXIT_HYPOTHESIS
    except (UsageError,) as e:
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_ERROR
    except (KlabError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
