"""The streaming CSV emitter against ``csv.writer``, the independent route,
and its refusal of separators before the artifact opens."""

import csv
import io
import math

import numpy as np
import pytest

import klab.reporting as rp
from klab import bilinear as bl
from klab.cli import main
from klab.divisor import discrepancy_all, tau_table
from klab.errors import IoError
from klab.fields import finite_field
from klab.kloosterman import kloosterman_table
from klab.sum_product import ScanSpec, SumProductContext, scan_bad_tuples


def _context(k, q):
    return SumProductContext(kloosterman_table(k, finite_field(q, 1)), c=1)


def _writer_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("block", [1, 4, 1 << 14])
def test_numpy_columns_match_csv_writer(monkeypatch, block):
    monkeypatch.setattr(rp, "_CSV_BLOCK", block)
    f = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1 / 3, 1e16, -2.5])
    i = np.array([0, -1, 2**62, -2**63, 7, 8, 9, 10], dtype=np.int64)
    cols = {"i": i, "f": f, "tag": "a|b", "n": np.int64(3), "g": np.float64(0.1),
            "s": ["x", "y"] * 4, "m": f[::-1].tolist()}
    rows = [(a, b, "a|b", 3, 0.1, s, m) for a, b, s, m in
            zip(i.tolist(), f.tolist(), ["x", "y"] * 4, f[::-1].tolist())]
    want = _writer_text(list(cols), rows)
    assert "".join(rp.csv_lines(cols)) == want


def test_empty_columns_give_the_header():
    assert "".join(rp.csv_lines({"a": [], "b": 5})) == _writer_text(["a", "b"], [])


@pytest.mark.parametrize("sep", [",", '"', "\r", "\n"])
@pytest.mark.parametrize("where", ["constant", "list", "array", "late", "header"])
def test_separator_refused_before_the_file_opens(tmp_path, sep, where):
    n = 3 * (1 << 14)  # the bad value sits in the last block of the "late" column
    cols = {"v": np.arange(n), "tag": "ok"}
    if where == "constant":
        cols["tag"] = f"a{sep}b"
    elif where == "list":
        cols["s"] = [f"a{sep}b"] + ["ok"] * (n - 1)
    elif where == "array":
        cols["s"] = np.array(["ok"] * (n - 1) + [f"a{sep}b"])
    elif where == "late":
        cols["s"] = ["ok"] * (n - 1) + [f"a{sep}b"]
    else:
        cols[f"a{sep}b"] = 1
    out = tmp_path / "rows.csv"
    with pytest.raises(IoError, match="separator"):
        rp.write_csv(out, cols)
    assert not out.exists()


def _cli_text(tmp_path, argv) -> str:
    out = tmp_path / "artifact.csv"
    assert main([*argv, "--format", "csv", "--out", str(out)]) in (0, 2)
    with open(out, newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("a", [None, 5])
def test_progression_bytes_match_csv_writer(tmp_path, a):
    x, q = 2000, 53
    s = discrepancy_all(tau_table(x), x, q)
    rows = [(x, q, c, s["raw"][c - 1].item(), s["main"], s["E"][c - 1].item(),
             s["normalized"][c - 1].item()) for c in range(1, q) if a in (None, c)]
    want = _writer_text(["x", "q", "a", "raw", "main", "E", "normalized"], rows)
    argv = ["progression", "--x", str(x), "--q", str(q)]
    assert _cli_text(tmp_path, argv + ([] if a is None else ["--a", str(a)])) == want


@pytest.mark.parametrize("k, q, samples", [(2, 11, None), (3, 11, None), (3, 53, 64)])
def test_sumprod_scan_bytes_match_csv_writer(tmp_path, k, q, samples):
    spec = ScanSpec(seed=1) if samples is None else ScanSpec(n_samples=samples, seed=1)
    res = scan_bad_tuples(_context(k, q), spec=spec)
    rows = []
    for row in res.rows:
        rows.append((q, k, 1, *row.b, "0|1", "r_linear",
                     row.ratio_r_linear * q, row.ratio_r_linear))
        rows.append((q, k, 1, *row.b, "0|1", "corr",
                     row.ratio_corr * q**1.5, row.ratio_corr))
    header = ["q", "k", "c", "b1", "b2", "b3", "b4", "lambda_set", "statistic",
              "value", "normalized_ratio"]
    argv = ["sumprod-scan", "--k", str(k), "--q", str(q), "--seed", "1"]
    argv += [] if samples is None else ["--samples", str(samples)]
    assert _cli_text(tmp_path, argv) == _writer_text(header, rows)


def test_bilinear_sweep_bytes_match_csv_writer(tmp_path):
    sizes = ((40, 45), (45, 45))
    cols, _ = bl.saving_sweep(_context(2, 2003), sizes, seed=1)
    header = ["q", "k", "c", "M", "N", "offset", "ensemble", "seed", "measured",
              "trivial", "pv", "thm11", "thm12", "gamma"]
    consts = {"q": 2003, "k": 2, "c": 1, "offset": 1, "seed": 1}
    rows = [[consts[name] if name in consts else cols[name][i] for name in header]
            for i in range(len(cols["M"]))]
    argv = ["bilinear-sweep", "--k", "2", "--q", "2003", "--M", "40", "45", "--N", "45",
            "--seed", "1"]
    assert _cli_text(tmp_path, argv) == _writer_text(header, rows)
