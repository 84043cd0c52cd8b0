"""Command-line front door.

One subcommand per verifier/calculator; all sampled runs take an explicit
seed and re-running with the same config produces byte-identical output.
Every JSON artifact embeds the package version and an echo of the config.
Exit codes: 0 success, 2 when a range/constraint hypothesis was violated
(reported, not crashed), 1 on errors or bad usage.

A flat key-value config file with one ``[subcommand]`` section per command
may supply defaults; explicit flags override it.  KLAB_CACHE_DIR enables the
binary table cache.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from . import bilinear as bl
from . import divisor as dv
from . import root_sums as rs
from .errors import ConstraintViolated, IoError, KlabError, UsageError
from .fields import finite_field
from .kloosterman import (INTRO, cache_path, conjugation_budget,
                          conjugation_symmetry_check, cross_check,
                          kloosterman_table, load_table, save_table)
from .reporting import write_csv, write_json
from .sum_product import (DEFAULT_SAMPLES, FULL_SCAN_MAX_Q, SCAN_LAMBDAS, ScanSpec,
                          SumProductContext, full_average_moment, noncorrelation_moment,
                          ratio_scan, sample_generic_tuples, scan_bad_tuples,
                          second_moment_r_lambda)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2


def _cache_file(cache_dir: str, k: int, f, convention: str) -> str:
    """The table's path in ``cache_dir``, which is created when missing."""
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create cache directory {cache_dir}: {e}") from e
    return cache_path(cache_dir, k, f, convention)


def _context(k: int, q: int, d: int, c: int):
    f = finite_field(q, d)
    cache_dir = os.environ.get("KLAB_CACHE_DIR")
    table = None
    if cache_dir:
        path = _cache_file(cache_dir, k, f, INTRO)
        if os.path.exists(path):
            table = load_table(path, field=f, k=k, convention=INTRO)
    if table is None:
        table = kloosterman_table(k, f)
        if cache_dir:
            save_table(table, path)
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


def _emit(args, payload: dict, csv_columns=None) -> None:
    """The CSV of ``csv_columns()`` under --format csv (refused without it), else JSON."""
    if args.format == "json":
        write_json(args.out, {"version": __version__, "config": _config_echo(args), **payload})
    elif csv_columns is None:
        raise UsageError(f"{args.command} has no CSV form here; drop --format csv")
    else:
        write_csv(args.out, csv_columns())


def _refuse(args, reason: str, *dests) -> None:
    """UsageError naming each of ``dests`` set by a flag or by the config."""
    given = [f"--{dest.replace('_', '-')}" for dest in dests if dest in args.given]
    if given:
        raise UsageError(f"{reason}; it takes no " + ", ".join(given))


def _config_echo(args) -> dict:
    # the output destination is not part of the result-determining config
    skip = {"out", "given"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


# ----------------------------------------------------------------- commands

def cmd_kl_table(args):
    f = finite_field(args.q, args.d)
    t = kloosterman_table(args.k, f, args.convention)
    cache_dir = args.cache or os.environ.get("KLAB_CACHE_DIR")
    if cache_dir:
        save_table(t, _cache_file(cache_dir, args.k, f, args.convention))
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
    f = finite_field(args.q, args.d)
    t = kloosterman_table(args.k, f)
    payload = {
        "cross_check_max": cross_check(t),
        "deligne_margin": t.deligne_margin(),
        "conjugation_deviation": conjugation_symmetry_check(t),
        "complete_sum_residual": t.complete_sum_residual(),
        "tolerance_budget": conjugation_budget(t),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_sumprod_scan(args):
    if args.ratios:
        _refuse(args, "--ratios measures fixed statistics", "threshold")
    else:
        _refuse(args, "without --ratios the scan runs once", "replicates")
        if args.q <= FULL_SCAN_MAX_Q:
            _refuse(args, f"a scan at q <= {FULL_SCAN_MAX_Q} takes every tuple", "samples")
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
    payload = {
        "seed": args.seed, "samples": len(res.tuples),
        "exhaustive": res.exhaustive,
        "thresholds": res.thresholds,
        "flagged_fraction": res.flagged_fraction,
        "expected_fraction": res.expected_fraction,
        "max_r_linear": float(res.ratio_r_linear.max()),
        "max_corr": float(res.ratio_corr.max()),
    }
    _emit(args, payload, lambda: _scan_columns(args, res))
    return EXIT_OK


def _scan_columns(args, res) -> dict:
    """The scan's CSV columns: per tuple a row for r_linear, then one for corr."""
    ratio = np.column_stack([res.ratio_r_linear, res.ratio_corr]).ravel()
    b = np.repeat(res.tuples, 2, axis=0)
    return {"q": args.q, "k": args.k, "c": args.c,
            **{f"b{i + 1}": b[:, i] for i in range(4)},
            "lambda_set": "|".join(str(x) for x in SCAN_LAMBDAS),
            "statistic": ["r_linear", "corr"] * len(res.tuples),
            "value": ratio * np.tile([args.q, args.q**1.5], len(res.tuples)),
            "normalized_ratio": ratio}


def _moment_devs(ctx, tuples) -> list:
    """|second moment - Q| / sqrt(Q) at each sampled tuple, Q = q^d."""
    Q = ctx.field.size
    return [abs(second_moment_r_lambda(ctx, tuple(int(x) for x in b)) - Q) / math.sqrt(Q)
            for b in tuples]


def cmd_moments(args):
    ctx = _context(args.k, args.q, args.d, args.c)
    f = ctx.field
    rng = np.random.default_rng(args.seed)
    tuples = sample_generic_tuples(f, args.k, args.samples, rng)
    Q = f.size
    devs = _moment_devs(ctx, tuples)
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
    cols, flagged = bl.saving_sweep(ctx, sizes, seed=args.seed, offset=args.offset)
    ens = cols["ensemble"]
    per_ens = {e: {f"max_{name}": max(v for n, v in zip(ens, cols[name]) if n == e)
                   for name in ("gamma", "measured")} for e in bl.ENSEMBLES}
    payload = {"seed": args.seed, "sizes": [list(s) for s in sizes],
               "per_ensemble": per_ens, "hypothesis_flags": flagged}
    _emit(args, payload, lambda: {
        "q": args.q, "k": args.k, "c": args.c, "M": cols["M"], "N": cols["N"],
        "offset": args.offset, "ensemble": cols["ensemble"], "seed": args.seed,
        **{name: cols[name] for name in ("measured", "trivial", "pv", "thm11", "thm12",
                                         "gamma")}})
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
        _refuse(args, "--scan-smallest tries every q up to --q-limit", "q", "d")
        if args.q_limit < 3:
            raise UsageError(f"--q-limit {args.q_limit} is below 3, the smallest odd "
                             "prime: the scan would try no q")
        qs = rs.smallest_conforming_qs(args.k, args.q_limit)
        _emit(args, {"smallest_conforming_q": {str(k): v for k, v in qs.items()}})
        return EXIT_OK
    _refuse(args, "without --scan-smallest sk computes one q", "q_limit")
    if args.q is None:
        raise UsageError("sk requires --q (or --scan-smallest)")
    host = rs.host_field(args.k, args.q, args.d)
    _emit(args, rs.sk_to_dict(rs.compute_sk(args.k, host)))
    return EXIT_OK


def cmd_progression(args):
    if args.a is not None and not 1 <= args.a < args.q:
        raise UsageError(f"--a {args.a} is outside the classes 1 <= a < q = {args.q}")
    coeffs = dv.tau_table(args.x)
    sums = dv.discrepancy_all(coeffs, args.x, args.q)
    residual, budget = dv.hyperbola_residual(coeffs, args.x, args.q, sums["raw"])
    sel = slice(None) if args.a is None else slice(args.a - 1, args.a)  # entry a - 1 is class a
    cols = {"raw": sums["raw"][sel], "main": sums["main"], "E": sums["E"][sel],
            "normalized": sums["normalized"][sel]}
    payload = {"x": args.x, "q": args.q, "max_abs_E": float(np.abs(cols["E"]).max()),
               "max_normalized": float(np.abs(cols["normalized"]).max()),
               "hyperbola_residual": residual, "hyperbola_budget": budget}
    _emit(args, payload, lambda: {"x": args.x, "q": args.q,
                                  "a": np.arange(1, args.q)[sel], **cols})
    return EXIT_OK


def cmd_exponent_lp(args):
    if args.search:
        _refuse(args, "--search computes delta* at --search-kappa", "delta", "eta", "kappa")
        res = dv.delta_star_search(kappa=args.search_kappa, slack=args.slack)
        _emit(args, res)
        return EXIT_OK
    _refuse(args, "the case analysis runs at --kappa", "search_kappa")
    cfg = dv.ExponentConfig(delta=args.delta, eta=args.eta, kappa=args.kappa,
                            slack=args.slack)
    v = dv.exponent_case_analysis(cfg)
    payload = {"passed": v.passed, "delta": float(v.delta), "kappa": args.kappa,
               "slack": args.slack, "worst_exponent": float(v.worst),
               "witnesses": [list(w) for w in v.witnesses]}
    _emit(args, payload)
    return EXIT_OK


def cmd_report(args):
    """Small default battery across the modules, one combined JSON."""
    q, k = args.q, args.k
    f = finite_field(q, 1)
    t = kloosterman_table(k, f)
    ctx = SumProductContext(t, c=1)
    rng = np.random.default_rng(args.seed)
    tuples = sample_generic_tuples(f, k, 16, rng)
    sweep, _ = bl.saving_sweep(ctx, ((8, 8),), seed=args.seed)
    payload = {
        "kloosterman": {"deligne_margin": t.deligne_margin(),
                        "complete_sum_residual": t.complete_sum_residual()},
        "second_moment_dev_max": max(_moment_devs(ctx, tuples)),
        "bilinear_gamma_max": max(sweep["gamma"]),
        "sk": rs.sk_to_dict(rs.compute_sk(2, f)),
        "exponent_lp": dv.delta_star_search(),
    }
    _emit(args, payload)
    return EXIT_OK


# ------------------------------------------------------------------ parser

def positive_int(text: str) -> int:
    """The type of every size flag (and of its config key): an int >= 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is below 1")
    return value


def finite_float(text: str) -> float:
    """The type of every float flag (and of its config key): a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


# An option's kind is a converter, a tuple of choices, ``bool`` for a switch
# or ``[converter]`` for one or more values; REQUIRED stands for the default
# of an option that has none.
REQUIRED = object()
KQ = {"k": (int, REQUIRED), "q": (int, REQUIRED)}
MN = {"M": (positive_int, REQUIRED), "N": (positive_int, REQUIRED)}
EMIT = {"out": (str, None), "format": (("csv", "json"), "json")}
SEED = {"seed": (int, REQUIRED)}
OPTION_HELP = {"out": "output path (stdout when omitted)",
               "ratios": "normalized cancellation ratios instead of flags",
               "cache": "directory for the binary table cache"}

# command -> (function, help line, option -> (kind, default) in usage order)
COMMANDS = {
    "kl-table": (cmd_kl_table, "build a table, emit health metrics", {
        **KQ, "d": (int, 1), "convention": (("intro", "sheaf"), "intro"),
        "cache": (str, None), **EMIT}),
    "kl-check": (cmd_kl_check, "naive vs convolution cross-check", {
        **KQ, "d": (int, 1), **EMIT}),
    "sumprod-scan": (cmd_sumprod_scan, "tuple scans and ratio statistics", {
        **KQ, "c": (int, 1), "samples": (positive_int, DEFAULT_SAMPLES),
        "threshold": (finite_float, None), "ratios": (bool, False),
        "replicates": (positive_int, 1), **EMIT, **SEED}),
    "moments": (cmd_moments, "second-moment statistics", {
        **KQ, "d": (int, 1), "c": (int, 1), "samples": (positive_int, 50), **EMIT, **SEED}),
    "bilinear-sweep": (cmd_bilinear_sweep, "ensemble sweep with bound brackets", {
        **KQ, "c": (int, 1), "M": ([positive_int], REQUIRED),
        "N": ([positive_int], REQUIRED), "offset": (int, 1), **EMIT, **SEED}),
    "opnorm": (cmd_opnorm, "largest singular value of the kernel matrix", {
        **KQ, "c": (int, 1), **MN, "offset": (int, 1), **EMIT}),
    "shift-check": (cmd_shift_check, "exact shift-by-ab re-indexing check", {
        **KQ, "c": (int, 1), **MN, "A": (positive_int, REQUIRED),
        "B": (positive_int, REQUIRED), "offset": (int, 1), "samples": (positive_int, 10),
        **EMIT, **SEED}),
    "sk": (cmd_sk, "root-of-unity sum multiset and stabilizer", {
        "k": (int, REQUIRED), "q": (int, None), "d": (int, None),
        "scan_smallest": (bool, False), "q_limit": (int, 300), **EMIT}),
    "progression": (cmd_progression, "divisor-convolution discrepancies", {
        "x": (positive_int, REQUIRED), "q": (int, REQUIRED), "a": (int, None), **EMIT}),
    "exponent-lp": (cmd_exponent_lp, "distribution-exponent case analysis", {
        "delta": (finite_float, None), "eta": (finite_float, None),
        "kappa": (finite_float, 1e-3), "slack": (finite_float, 0.0), "search": (bool, False),
        "search_kappa": (finite_float, 0.0), **EMIT}),
    "report": (cmd_report, "small default battery, combined JSON", {
        "k": (int, 2), "q": (int, 53), **EMIT, **SEED}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``COMMANDS``, built on first use.  No subcommand option
    has a default, so a parse holds exactly the options given as flags."""
    p = argparse.ArgumentParser(prog="klab", description=__doc__)
    p.add_argument("--config", help="flat key-value config file with [sections]")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_func, help_line, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_line, argument_default=argparse.SUPPRESS)
        for dest, (kind, default) in options.items():
            if kind is bool:
                spec = {"action": "store_true"}
            elif isinstance(kind, tuple):
                spec = {"choices": kind}
            elif isinstance(kind, list):
                spec = {"type": kind[0], "nargs": "+"}
            else:
                spec = {"type": kind}
            sp.add_argument("--" + dest.replace("_", "-"), required=default is REQUIRED,
                            help=OPTION_HELP.get(dest), **spec)
    return p


def _complete(args) -> None:
    """Fill the options no flag gave, from the config file and then from the
    defaults; ``args.given`` records the options a flag or the config set."""
    args.given = set(vars(args))
    options = COMMANDS[args.command][2]
    overrides = parse_config(args.config).get(args.command, {}) if args.config else {}
    for key, val in overrides.items():
        dest = key.replace("-", "_")
        if dest not in options:
            raise UsageError(f"unknown config key {key!r} for {args.command}")
        value = _coerce(key, val, options[dest][0])  # checked even when a flag wins
        if dest not in args.given:
            setattr(args, dest, value)
            args.given.add(dest)
    for dest, (_kind, default) in options.items():
        if dest not in args.given:
            setattr(args, dest, default)


def _coerce(key: str, val: str, kind):
    """A config value converted as its flag's value would be."""
    if kind is bool:
        if val.lower() not in ("1", "true", "yes", "0", "false", "no"):
            raise UsageError(f"config key {key!r}: {val!r} is not a boolean")
        return val.lower() in ("1", "true", "yes")
    if isinstance(kind, tuple):
        if val not in kind:
            raise UsageError(f"config key {key!r}: {val!r} not one of {kind}")
        return val
    try:
        return [kind[0](v) for v in val.split()] if isinstance(kind, list) else kind(val)
    except ValueError as e:
        raise UsageError(f"config key {key!r}: bad value {val!r} ({e})") from e


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code else EXIT_OK
    try:
        _complete(args)
        return COMMANDS[args.command][0](args)
    except UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_ERROR
    except (KlabError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_ERROR
    except MemoryError as e:  # an allocation no cap foresaw: one line, no traceback
        sys.stderr.write("error: out of memory" + (f": {e}\n" if str(e) else "\n"))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
