"""Span tracing for the traced benchmark run, recorded from outside the program.

``install()`` wraps public functions of the ``klab`` modules, both where
they are defined and at every import site (``klab.cli.kloosterman_table`` is
the same object as ``klab.kloosterman.kloosterman_table``), so no file of the
program changes.  Each call records a span (name, start, end, parent, phase,
counts) in memory; ``Tracer.dump`` writes them out when the run ends and
``layer_metrics`` derives busy time, self time and counts per layer.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
import tracemalloc


class Tracer:
    def __init__(self):
        self.spans = []      # dicts: id, name, start, end, parent, phase, attrs
        self._stack = []
        self.phase = ("setup", 0)
        self._installed = []

    def begin(self, name):
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                "end": None, "parent": self._stack[-1]["id"] if self._stack else None,
                "phase": list(self.phase), "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def inside(self, prefix):
        return any(s["name"].startswith(prefix) for s in self._stack)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    # ------------------------------------------------------------ wrapping
    def wrap(self, fn, name, count=None):
        """A wrapper recording a span per call; ``count(args, kwargs, result)``
        returns a dict of counts added to the span."""
        tracer = self
        sum_product = name.startswith("sum_product.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # tracemalloc slows every allocation, so it runs only in the first
            # set-up and the first round (the others give the median times),
            # and only inside the outermost sum_product span
            measure = (sum_product and tracer.phase[1] == 0
                       and not tracer.inside("sum_product."))
            span = tracer.begin(name)
            if measure:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    span["attrs"]["peak_alloc"] = peak - base
                tracer.end(span)
            if count is not None:
                span["attrs"].update(count(args, kwargs, result))
            return result

        return wrapper

    def install(self, targets):
        """Replace each target function in every loaded klab module."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "klab" or n.startswith("klab.")]
        for owner, attr, name, count in targets:
            orig = getattr(owner, attr)
            wrapped = self.wrap(orig, name, count)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, orig))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig and mod is not owner:
                        setattr(mod, key, wrapped)
                        self._installed.append((mod, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()


# ---------------------------------------------------------------- targets

def _arg(args, kwargs, i, key, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(key, default)


def _file_bytes(i, key):
    def count(args, kwargs, _result):
        path = _arg(args, kwargs, i, key)
        return {"bytes": os.path.getsize(path)}
    return count


def targets(klab):
    """(owner, attribute, span name, count function) for every traced call."""
    fl, kl, sp = klab.fields, klab.kloosterman, klab.sum_product
    bl, dv, rs, rp = klab.bilinear, klab.divisor, klab.root_sums, klab.reporting

    def one(*_):
        return {"calls": 1}

    def naive_terms(args, kwargs, _r):
        k, field = args[0], args[1]
        return {"terms": (field.size - 1) ** k}

    def naive_one_terms(args, kwargs, _r):
        k, field = args[0], args[2]
        return {"terms": (field.size - 1) ** (k - 1)}

    def ratio_cells(args, kwargs, _r):
        ctx = args[0]
        n = _arg(args, kwargs, 1, "n_samples", 500)
        reps = _arg(args, kwargs, 3, "replicates", 1)
        return {"cells": n * reps * ctx.field.size ** 2}

    def scan_cells(args, kwargs, r):
        return {"cells": len(r.rows) * args[0].field.size ** 2}

    def grid_cells(args, kwargs, _r):
        return {"cells": args[0].field.size ** 2}

    def tau_coeffs(args, kwargs, _r):
        return {"coeffs": args[0]}

    return [
        (fl.PrimeField, "__init__", "fields.build", one),
        (fl.ExtField, "__init__", "fields.build", one),
        (fl.ExtField, "add_table", "fields.dense_tables", None),
        (fl.ExtField, "mul_table", "fields.dense_tables", None),
        (kl, "kloosterman_table", "kloosterman.table", one),
        (kl, "naive_table", "kloosterman.naive", naive_terms),
        (kl, "kloosterman_naive", "kloosterman.naive", naive_one_terms),
        (kl, "save_table", "kloosterman.cache_save", _file_bytes(1, "path")),
        (kl, "load_table", "kloosterman.cache_load", _file_bytes(0, "path")),
        (sp, "ratio_scan", "sum_product.ratio_scan", ratio_cells),
        (sp, "scan_bad_tuples", "sum_product.scan_bad_tuples", scan_cells),
        (sp, "second_moment_r_lambda", "sum_product.second_moment", grid_cells),
        (sp, "second_moment_r_lambda_naive", "sum_product.second_moment", grid_cells),
        (sp, "sample_generic_tuples", "sum_product.sample_generic", None),
        (bl, "saving_sweep", "bilinear.sweep", None),
        (bl, "operator_norm", "bilinear.opnorm", None),
        (bl, "operator_norm_dense", "bilinear.opnorm", None),
        (bl, "shift_identity_check", "bilinear.shift_check", None),
        (dv, "tau_table", "divisor.tau_table", tau_coeffs),
        (dv, "hecke_violations", "divisor.hecke", None),
        (dv, "discrepancy_all", "divisor.discrepancy", None),
        (dv, "centering_residual_exact", "divisor.centering", None),
        (dv, "exponent_case_analysis", "divisor.case_analysis", one),
        (dv, "delta_star_search", "divisor.delta_star_search", None),
        (rs, "compute_sk", "root_sums.sk", None),
        (rs, "stabilizer_group", "root_sums.sk", None),
        (rp, "write_json", "reporting.emit", _file_bytes(0, "path")),
        (rp, "write_csv", "reporting.emit", _file_bytes(0, "path")),
    ]


# ---------------------------------------------------------------- metrics

CLI_COMMANDS = ("report", "exponent-lp", "progression", "kl-table", "kl-check",
                "sumprod-scan", "moments", "bilinear-sweep", "opnorm",
                "shift-check")

# busy-time metrics and the span name each sums
_TIMES = {
    "fields.build_s": "fields.build",
    "fields.dense_tables_s": "fields.dense_tables",
    "kloosterman.table_s": "kloosterman.table",
    "kloosterman.naive_s": "kloosterman.naive",
    "kloosterman.cache_save_s": "kloosterman.cache_save",
    "kloosterman.cache_load_s": "kloosterman.cache_load",
    "sum_product.ratio_scan_s": "sum_product.ratio_scan",
    "sum_product.scan_bad_tuples_s": "sum_product.scan_bad_tuples",
    "sum_product.second_moment_s": "sum_product.second_moment",
    "sum_product.sample_generic_s": "sum_product.sample_generic",
    "bilinear.sweep_s": "bilinear.sweep",
    "bilinear.opnorm_s": "bilinear.opnorm",
    "bilinear.shift_check_s": "bilinear.shift_check",
    "divisor.tau_table_s": "divisor.tau_table",
    "divisor.hecke_s": "divisor.hecke",
    "divisor.discrepancy_s": "divisor.discrepancy",
    "divisor.centering_s": "divisor.centering",
    "divisor.case_analysis_s": "divisor.case_analysis",
    "divisor.delta_star_search_s": "divisor.delta_star_search",
    "root_sums.sk_s": "root_sums.sk",
    "reporting.emit_s": "reporting.emit",
    **{f"cli.{c.replace('-', '_')}_s": f"cli.{c}" for c in CLI_COMMANDS},
}

PER_LAYER_UNITS = {
    **{m: "s" for m in _TIMES},
    "fields.builds": "count",
    "kloosterman.tables": "count",
    "kloosterman.naive_terms_per_s": "1/s",
    "kloosterman.cache_bytes": "bytes",
    "sum_product.grid_cells": "count",
    "sum_product.grid_cells_per_s": "1/s",
    "sum_product.peak_alloc_mb": "MiB",
    "divisor.tau_coeffs_per_s": "1/s",
    "divisor.case_analyses": "count",
    "cli.self_s": "s",
    "reporting.artifact_bytes": "bytes",
}


def _phase_sums(spans):
    """Per phase instance: outermost busy time and summed counts per span
    name, cli self time, and the peak tracemalloc figure."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    phases = {}
    for s in spans:
        acc = phases.setdefault(tuple(s["phase"]), {"time": {}, "count": {}, "cli_self": 0.0,
                                      "peak": 0})
        dur = s["end"] - s["start"]
        p, nested = s["parent"], False
        while p is not None:  # a recursive call is covered by its outer span
            if by_id[p]["name"] == s["name"]:
                nested = True
                break
            p = by_id[p]["parent"]
        if not nested:
            acc["time"][s["name"]] = acc["time"].get(s["name"], 0.0) + dur
        for attr, v in s["attrs"].items():
            if attr == "peak_alloc":
                acc["peak"] = max(acc["peak"], v)
            else:
                name = f"{s['name']}:{attr}"
                acc["count"][name] = acc["count"].get(name, 0) + v
        if s["name"].startswith("cli."):
            acc["cli_self"] += dur - sum(c["end"] - c["start"]
                                         for c in children.get(s["id"], ()))
    return phases


def layer_metrics(spans):
    """Per-layer figures for one setup plus one round.

    Each quantity is summed within a phase instance, its median is taken over
    the instances of each phase kind (setup repeats, timed rounds), and the
    kinds are added.  The check phase is left out, as it is from the
    end-to-end figures.
    """
    phases = _phase_sums(spans)
    kinds = {}
    for (kind, _i), acc in phases.items():
        kinds.setdefault(kind, []).append(acc)
    time_of, count_of, cli_self, peak = {}, {}, 0.0, 0
    for kind in ("setup", "round"):
        accs = kinds.get(kind, [])
        if not accs:
            continue
        names = {n for a in accs for n in a["time"]}
        for n in names:
            time_of[n] = time_of.get(n, 0.0) + statistics.median(
                a["time"].get(n, 0.0) for a in accs)
        keys = {n for a in accs for n in a["count"]}
        for n in keys:
            count_of[n] = count_of.get(n, 0) + statistics.median(
                a["count"].get(n, 0) for a in accs)
        cli_self += statistics.median(a["cli_self"] for a in accs)
        peak = max([peak] + [a["peak"] for a in accs])

    def rate(num, secs):
        return num / secs if secs > 0 else 0.0

    t = {m: time_of.get(n, 0.0) for m, n in _TIMES.items()}
    grid_s = (t["sum_product.ratio_scan_s"] + t["sum_product.scan_bad_tuples_s"]
              + t["sum_product.second_moment_s"])
    cells = sum(v for k, v in count_of.items() if k.endswith(":cells"))
    values = {
        **t,
        "fields.builds": count_of.get("fields.build:calls", 0),
        "kloosterman.tables": count_of.get("kloosterman.table:calls", 0),
        "kloosterman.naive_terms_per_s": rate(count_of.get("kloosterman.naive:terms", 0),
                                              t["kloosterman.naive_s"]),
        "kloosterman.cache_bytes": (count_of.get("kloosterman.cache_save:bytes", 0)
                                    + count_of.get("kloosterman.cache_load:bytes", 0)),
        "sum_product.grid_cells": cells,
        "sum_product.grid_cells_per_s": rate(cells, grid_s),
        "sum_product.peak_alloc_mb": peak / 2**20,
        "divisor.tau_coeffs_per_s": rate(count_of.get("divisor.tau_table:coeffs", 0),
                                         t["divisor.tau_table_s"]),
        "divisor.case_analyses": count_of.get("divisor.case_analysis:calls", 0),
        "cli.self_s": cli_self,
        "reporting.artifact_bytes": count_of.get("reporting.emit:bytes", 0),
    }
    return {m: {"value": values[m], "unit": PER_LAYER_UNITS[m]}
            for m in PER_LAYER_UNITS}
