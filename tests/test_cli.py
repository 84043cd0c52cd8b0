import json
import math
import os
import pathlib
import shlex

import pytest

from klab.cli import COMMANDS, build_parser, main, parse_config
from klab.sum_product import SumProductContext


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sk_command_matches_enumeration(capsys):
    code, out = run(capsys, "sk", "--k", "2", "--q", "7")
    assert code == 0
    data = json.loads(out)
    assert data["entries"] == [[2, 1], [4, 4]]  # {4:4, 16 mod 7 = 2:1}
    assert data["stabilizer"] == [1]
    assert data["version"]
    assert data["config"]["k"] == 2


def test_exponent_lp_search(capsys):
    code, out = run(capsys, "exponent-lp", "--search")
    assert code == 0
    data = json.loads(out)
    assert abs(data["delta_star"] - 1 / 26) < 1e-3
    assert abs(data["eta_star"] - 1 / 102) < 1e-3


def test_exponent_lp_verdicts(capsys):
    code, out = run(capsys, "exponent-lp", "--delta", "0.03")
    assert code == 0 and json.loads(out)["passed"] is True
    code, out = run(capsys, "exponent-lp", "--delta", "0.05")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is False and data["witnesses"]


def test_unknown_flag_exits_one(capsys):
    assert main(["sk", "--nope"]) == 1
    assert main(["not-a-command"]) == 1


def test_workers_flag_is_gone(capsys):
    assert main(["opnorm", "--k", "2", "--q", "101", "--M", "6", "--N", "6",
                 "--workers", "8"]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_progression_rejects_composite_modulus(capsys):
    assert main(["progression", "--x", "500", "--q", "15"]) == 1
    err = capsys.readouterr().err
    assert "not prime" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sumprod-scan", "--k", "2", "--q", "53", "--samples", "0", "--seed", "1"],
    ["opnorm", "--k", "2", "--q", "53", "--M", "0", "--N", "3"],
    ["opnorm", "--k", "2", "--q", "53", "--M", "3", "--N", "0"],
    ["bilinear-sweep", "--k", "2", "--q", "53", "--M", "5", "--N", "0", "--seed", "1"],
    ["shift-check", "--k", "2", "--q", "53", "--M", "3", "--N", "3", "--A", "0",
     "--B", "1", "--seed", "1"],
    ["shift-check", "--k", "2", "--q", "53", "--M", "0", "--N", "3", "--A", "1",
     "--B", "1", "--seed", "1"],
    ["progression", "--x", "0", "--q", "53"],
    ["sumprod-scan", "--k", "2", "--q", "53", "--samples", "5", "--seed", "1",
     "--ratios", "--replicates", "0"],
])
def test_size_flags_below_one_exit_1(tmp_path, capsys, argv):
    out = tmp_path / "artifact"
    assert main([*argv, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["opnorm", "--k", "2", "--q", "101", "--M", "5", "--N", "150"],
    ["opnorm", "--k", "2", "--q", "101", "--M", "5", "--N", "5", "--offset", "0"],
    ["opnorm", "--k", "2", "--q", "101", "--M", "5", "--N", "5", "--offset", "-3"],
    ["bilinear-sweep", "--k", "2", "--q", "101", "--M", "5", "--N", "150", "--seed", "1"],
])
def test_n_interval_outside_the_units_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "artifact"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "does not fit in [1, 100]" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["kl-table", "--k", "400", "--q", "53"],
    ["kl-table", "--k", "358", "--q", "53"],
    ["kl-check", "--k", "400", "--q", "53"],
    ["sumprod-scan", "--k", "400", "--q", "53", "--seed", "1", "--samples", "5"],
    ["report", "--k", "400", "--seed", "1"],
    ["moments", "--k", "400", "--q", "53", "--seed", "1"],
    ["opnorm", "--k", "400", "--q", "53", "--M", "3", "--N", "3"],
    ["bilinear-sweep", "--k", "400", "--q", "53", "--M", "3", "--N", "3",
     "--seed", "1"],
    ["shift-check", "--k", "400", "--q", "53", "--M", "3", "--N", "3", "--A", "1",
     "--B", "1", "--seed", "1"],
])
def test_k_beyond_the_float_range_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "artifact"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "float range" in err and "Traceback" not in err
    assert not out.exists()


def test_kl_check_small(capsys):
    code, out = run(capsys, "kl-check", "--k", "2", "--q", "11")
    assert code == 0
    data = json.loads(out)
    assert data["cross_check_max"] < 1e-10
    assert data["deligne_margin"] <= 1e-9


@pytest.mark.parametrize("k", [6, 12])
def test_kl_check_budget_holds_for_genuine_tables(capsys, k):
    code, out = run(capsys, "kl-check", "--k", str(k), "--q", "3")
    assert code == 0
    data = json.loads(out)
    assert data["conjugation_deviation"] <= data["tolerance_budget"]
    assert data["tolerance_budget"] == k * 3 * 1e-15


def test_kl_check_runs_a_cheap_recursion_beyond_the_old_tuple_cap(capsys):
    # (q - 1)^(k-1) = 10^8 tuples, but the recursion takes 4 * 10^4 cells
    code, out = run(capsys, "kl-check", "--k", "5", "--q", "101")
    assert code == 0
    assert json.loads(out)["cross_check_max"] < 1e-10


def test_kl_check_refuses_a_costly_recursion_before_it(capsys, monkeypatch):
    # q - 1 tuples pass the cap, but the recursion would take 10^10 cells
    import klab.kloosterman as kl

    def no_naive_work(*_args):
        raise AssertionError("the naive route started before its refusal")

    monkeypatch.setattr(kl, "_unit_inverses", no_naive_work)
    assert main(["kl-check", "--k", "2", "--q", "100003"]) == 1
    err = capsys.readouterr().err
    assert "naive evaluation needs" in err and "Traceback" not in err


def test_kl_check_builds_its_table_once(capsys, monkeypatch):
    import klab.cli
    import klab.kloosterman as kl
    calls = []
    build = kl.kloosterman_table

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(kl, "kloosterman_table", counted)
    monkeypatch.setattr(klab.cli, "kloosterman_table", counted)
    code, _out = run(capsys, "kl-check", "--k", "3", "--q", "13")
    assert code == 0
    assert len(calls) == 1


def test_shift_check_constraint_violation(capsys):
    code, out = run(capsys, "shift-check", "--k", "2", "--q", "101", "--M", "5",
                    "--N", "20", "--A", "2", "--B", "51", "--seed", "1")
    assert code == 2
    assert "failed" in json.loads(out)


def test_shift_check_ok(capsys):
    code, out = run(capsys, "shift-check", "--k", "2", "--q", "101", "--M", "5",
                    "--N", "20", "--A", "2", "--B", "3", "--offset", "40",
                    "--samples", "5", "--seed", "1")
    assert code == 0
    assert json.loads(out)["max_deviation"] < 1e-9


def test_deterministic_output_bytes(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["sumprod-scan", "--k", "2", "--q", "37", "--samples", "32",
                 "--seed", "9", "--ratios", "--out", p1]) == 0
    assert main(["sumprod-scan", "--k", "2", "--q", "37", "--samples", "32",
                 "--seed", "9", "--ratios", "--out", p2]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_csv_emission(tmp_path):
    p = str(tmp_path / "rows.csv")
    code = main(["progression", "--x", "500", "--q", "11", "--format", "csv",
                 "--out", p])
    assert code == 0
    lines = open(p).read().splitlines()
    assert lines[0] == "x,q,a,raw,main,E,normalized"
    assert len(lines) == 11  # header + 10 invertible classes


def test_bilinear_sweep_hypothesis_exit(tmp_path, capsys):
    # MN = 2 <= q^{1/4}: the general bound's lower range fails
    code, out = run(capsys, "bilinear-sweep", "--k", "2", "--q", "101",
                    "--M", "2", "--N", "1", "--seed", "1")
    assert code == 2
    data = json.loads(out)
    assert data["hypothesis_flags"]


def test_opnorm_command(capsys):
    code, out = run(capsys, "opnorm", "--k", "2", "--q", "101", "--M", "6",
                    "--N", "6")
    assert code == 0
    data = json.loads(out)
    assert abs(data["sigma_max"] - data["dense_svd"]) < 1e-7


def test_moments_command(capsys):
    code, out = run(capsys, "moments", "--k", "3", "--q", "23", "--samples",
                    "6", "--seed", "4")
    assert code == 0
    data = json.loads(out)
    assert data["second_moment_dev_max"] < 30
    assert "noncorrelation_ratio_max" in data


@pytest.mark.parametrize("argv", [
    ["moments", "--k", "2", "--q", "5", "--samples", "1", "--seed", "1"],
    ["moments", "--k", "3", "--q", "3", "--samples", "1", "--seed", "1"],
    ["sumprod-scan", "--ratios", "--k", "2", "--q", "5", "--samples", "4", "--seed", "1"],
    ["sumprod-scan", "--ratios", "--k", "4", "--q", "5", "--samples", "4", "--seed", "1"],
])
def test_no_generic_tuple_exits_1(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "no generic shift tuple" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["sumprod-scan", "--ratios", "--k", "2", "--q", "4099", "--samples", "1",
      "--seed", "1"],
     "grid too large"),
    (["sumprod-scan", "--k", "2", "--q", "4099", "--samples", "1",
      "--seed", "1"], "grid too large"),
    (["moments", "--k", "2", "--q", "53", "--d", "2", "--samples", "1",
      "--seed", "1"], "2048"),
])
def test_grid_caps_exit_1_before_any_grid_table(capsys, monkeypatch, argv, message):
    def refuse(self):
        raise AssertionError("a Q x Q table was built")

    monkeypatch.setattr(SumProductContext, "pair_table", property(refuse))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_kl_table_cache_roundtrip(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "cache")
    code, _ = run(capsys, "kl-table", "--k", "2", "--q", "13", "--cache", cache)
    assert code == 0
    assert os.listdir(cache) == ["kl_k2_q13_d1_intro.kltb"]
    # the cache is picked up through the environment
    monkeypatch.setenv("KLAB_CACHE_DIR", cache)
    code, out = run(capsys, "moments", "--k", "2", "--q", "13", "--samples",
                    "4", "--seed", "1")
    assert code == 0


def test_truncated_cache_exits_one(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    assert main(["kl-table", "--k", "2", "--q", "13", "--cache", str(cache)]) == 0
    path = cache / "kl_k2_q13_d1_intro.kltb"
    with open(path, "r+b") as fh:
        fh.truncate(fh.seek(0, 2) - 32)
    capsys.readouterr()
    monkeypatch.setenv("KLAB_CACHE_DIR", str(cache))
    assert main(["moments", "--k", "2", "--q", "13", "--samples", "4",
                 "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert "payload" in err and "Traceback" not in err


def test_sumprod_scan_flag_route(tmp_path, capsys):
    p = str(tmp_path / "scan.csv")
    code = main(["sumprod-scan", "--k", "2", "--q", "19", "--seed", "3",
                 "--format", "csv", "--out", p])
    assert code == 0
    lines = open(p).read().splitlines()
    assert lines[0].startswith("q,k,c,b1,b2,b3,b4,lambda_set,statistic")
    assert len(lines) == 1 + 2 * 19**4  # exhaustive below the full-scan cap


def test_sumprod_scan_json_builds_no_csv(tmp_path, monkeypatch):
    import klab.cli as cli
    import klab.reporting as rp

    def refuse(*_args, **_kwargs):
        raise AssertionError("CSV work in JSON mode")
    for module, name in ((cli, "_scan_columns"), (cli, "write_csv"), (rp, "csv_lines")):
        monkeypatch.setattr(module, name, refuse)
    argv = ["sumprod-scan", "--k", "2", "--q", "11", "--seed", "3"]
    assert main([*argv, "--out", str(tmp_path / "scan.json")]) == 0
    assert json.loads((tmp_path / "scan.json").read_text())["exhaustive"] is True
    with pytest.raises(AssertionError, match="CSV work"):  # the patched names are the route
        main([*argv, "--format", "csv"])


def test_sk_scan_smallest(capsys):
    code, out = run(capsys, "sk", "--k", "3", "--scan-smallest", "--q-limit", "40")
    assert code == 0
    data = json.loads(out)
    assert data["smallest_conforming_q"]["2"] == 5
    assert data["smallest_conforming_q"]["3"] == 5


def test_report_command(capsys):
    code, out = run(capsys, "report", "--q", "23", "--k", "2", "--seed", "11")
    assert code == 0
    data = json.loads(out)
    assert data["kloosterman"]["deligne_margin"] <= 1e-9
    assert abs(data["exponent_lp"]["delta_star"] - 1 / 26) < 1e-3
    assert data["sk"]["stabilizer"] == [1]


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "klab.cfg"
    cfg.write_text("[sk]\nk = 2\nq = 7\n")
    code, out = run(capsys, "--config", str(cfg), "sk", "--k", "2")
    assert code == 0
    assert json.loads(out)["q"] == 7
    parsed = parse_config(str(cfg))
    assert parsed == {"sk": {"k": "2", "q": "7"}}


def test_config_default_for_flag_with_default(tmp_path, capsys):
    cfg = tmp_path / "klab.cfg"
    cfg.write_text("[exponent-lp]\nkappa = 0.5\n")
    code, out = run(capsys, "--config", str(cfg), "exponent-lp", "--delta", "0.03")
    assert code == 0
    assert json.loads(out)["config"]["kappa"] == 0.5


def test_config_explicit_flag_wins_at_default_value(tmp_path, capsys):
    cfg = tmp_path / "klab.cfg"
    cfg.write_text("[exponent-lp]\nkappa = 0.5\n")
    code, out = run(capsys, "--config", str(cfg), "exponent-lp", "--delta", "0.03",
                    "--kappa", "0.001")
    assert code == 0
    assert json.loads(out)["config"]["kappa"] == 0.001


@pytest.mark.parametrize("section, argv", [
    ("[exponent-lp]\nkappa = abc\n", ["exponent-lp", "--delta", "0.03"]),
    ("[moments]\nsamples = 2.5\n", ["moments", "--k", "2", "--q", "13", "--seed", "1"]),
    ("[moments]\nsamples = 0\n", ["moments", "--k", "2", "--q", "13", "--seed", "1"]),
])
def test_config_value_typed_by_flag(tmp_path, capsys, section, argv):
    cfg = tmp_path / "klab.cfg"
    cfg.write_text(section)
    assert main(["--config", str(cfg), *argv]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


@pytest.mark.parametrize("section, key, argv", [
    ("[sk]\nk = two\n", "k", ["sk", "--k", "2", "--q", "7"]),
    ("[bilinear-sweep]\nM = 40 forty\n", "M",
     ["bilinear-sweep", "--k", "2", "--q", "101", "--M", "40", "--N", "45", "--seed", "1"]),
])
def test_config_value_checked_when_a_flag_wins(tmp_path, capsys, section, key, argv):
    # --k and --M are required, so only the flag can set them; the key is
    # still a bad value of its option
    cfg = tmp_path / "klab.cfg"
    cfg.write_text(section)
    out = tmp_path / "artifact"
    assert main(["--config", str(cfg), *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: config key {key!r}: bad value")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--delta", "--eta", "--kappa"])
def test_exponent_lp_search_rejects_ignored_flag(capsys, flag):
    assert main(["exponent-lp", "--search", flag, "0.03"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[sk]\nbogus = 1\n")
    assert main(["--config", str(cfg), "sk", "--k", "2", "--q", "7"]) == 1


def test_exponent_lp_search_rejects_config_kappa(tmp_path, capsys):
    cfg = tmp_path / "klab.cfg"
    cfg.write_text("[exponent-lp]\nkappa = 0.5\n")
    assert main(["--config", str(cfg), "exponent-lp", "--search"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--kappa" in err and "Traceback" not in err
    cfg.write_text("[exponent-lp]\nsearch-kappa = 0.001\n")
    code, out = run(capsys, "--config", str(cfg), "exponent-lp", "--search")
    assert code == 0 and json.loads(out)["kappa"] == 0.001


@pytest.mark.parametrize("argv", [["--delta", "-0.5"],
                                  ["--delta", "-0.03", "--slack", "0.02"]])
def test_exponent_lp_empty_band_exits_1(capsys, argv):
    assert main(["exponent-lp", *argv]) == 1
    err = capsys.readouterr().err
    assert "empty band" in err and "Traceback" not in err


def test_progression_reports_hyperbola_residual(capsys):
    code, out = run(capsys, "progression", "--x", "1000", "--q", "53", "--a", "5")
    assert code == 0
    data = json.loads(out)
    assert "centering_residual_exact" not in data
    assert 0 <= data["hyperbola_residual"] <= data["hyperbola_budget"] < 1e-9


@pytest.mark.parametrize("k, q", [(12, 53), (60, 101)])
def test_kl_table_complete_sum_residual_in_table_units(capsys, k, q):
    code, out = run(capsys, "kl-table", "--k", str(k), "--q", str(q))
    assert code == 0
    assert json.loads(out)["complete_sum_residual"] < 1e-12


@pytest.mark.parametrize("config, argv, option", [
    (None, ["sumprod-scan", "--k", "2", "--q", "37", "--samples", "4", "--seed", "1",
            "--ratios", "--threshold", "0.5"], "--threshold"),
    (None, ["sumprod-scan", "--k", "2", "--q", "11", "--seed", "1",
            "--replicates", "3"], "--replicates"),
    ("[sumprod-scan]\nreplicates = 3\n",
     ["sumprod-scan", "--k", "2", "--q", "11", "--seed", "1"], "--replicates"),
    (None, ["sumprod-scan", "--k", "2", "--q", "37", "--samples", "4", "--seed", "1",
            "--ratios", "--format", "csv"], "--format csv"),
    (None, ["kl-check", "--k", "2", "--q", "11", "--format", "csv"], "--format csv"),
    (None, ["sk", "--k", "2", "--q", "7", "--format", "csv"], "--format csv"),
    (None, ["exponent-lp", "--search", "--format", "csv"], "--format csv"),
    (None, ["sumprod-scan", "--k", "2", "--q", "11", "--samples", "50", "--seed", "1"],
     "--samples"),
    ("[sumprod-scan]\nsamples = 50\n",
     ["sumprod-scan", "--k", "2", "--q", "11", "--seed", "1"], "--samples"),
    (None, ["sk", "--k", "2", "--q", "7", "--q-limit", "60"], "--q-limit"),
    (None, ["sk", "--k", "3", "--scan-smallest", "--q", "7"], "--q"),
    (None, ["sk", "--k", "3", "--scan-smallest", "--d", "2"], "--d"),
    ("[sk]\nq-limit = 60\n", ["sk", "--k", "2", "--q", "7"], "--q-limit"),
    (None, ["exponent-lp", "--delta", "0.03", "--search-kappa", "0.01"],
     "--search-kappa"),
    ("[progression]\nnmax = 5\n", ["progression", "--x", "100", "--q", "7"], "nmax"),
], ids=["ratios-threshold", "replicates-flag", "replicates-config", "ratios-csv",
        "kl-check-csv", "sk-csv", "exponent-lp-csv", "exhaustive-samples-flag",
        "exhaustive-samples-config", "sk-q-limit", "sk-scan-q", "sk-scan-d",
        "sk-q-limit-config", "exponent-lp-search-kappa", "progression-nmax-config"])
def test_ignored_options_exit_1(tmp_path, capsys, config, argv, option):
    out = tmp_path / "artifact"
    pre = []
    if config is not None:
        cfg = tmp_path / "klab.cfg"
        cfg.write_text(config)
        pre = ["--config", str(cfg)]
    assert main([*pre, *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and option in err and "Traceback" not in err
    assert not out.exists()


def test_csv_text_writes_floats_as_repr():
    from klab.reporting import csv_lines
    vals = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1 / 3]
    assert "".join(csv_lines({"v": vals})).splitlines()[1:] == [repr(v) for v in vals]


def test_sumprod_scan_csv_matches_rows(tmp_path):
    from klab.fields import make_prime_field
    from klab.kloosterman import kloosterman_table
    from klab.sum_product import ScanSpec, scan_bad_tuples
    p = tmp_path / "scan.csv"
    assert main(["sumprod-scan", "--k", "3", "--q", "53", "--samples", "64",
                 "--seed", "1", "--format", "csv", "--out", str(p)]) == 0
    ctx = SumProductContext(kloosterman_table(3, make_prime_field(53)), c=1)
    res = scan_bad_tuples(ctx, spec=ScanSpec(n_samples=64, seed=1))
    lines = ["q,k,c,b1,b2,b3,b4,lambda_set,statistic,value,normalized_ratio"]
    for row in res.rows:
        head = ",".join(str(x) for x in (53, 3, 1, *row.b, "0|1"))
        lines.append(f"{head},r_linear,{row.ratio_r_linear * 53!r},{row.ratio_r_linear!r}")
        lines.append(f"{head},corr,{row.ratio_corr * 53**1.5!r},{row.ratio_corr!r}")
    assert p.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv, messages", [
    *([["sk", "--k", k, *route], ["error: k must be >= 2"]]
      for k in ("-2", "0", "1") for route in (["--q", "7"], ["--scan-smallest"])),
    *([["progression", "--x", "100", "--q", "7", "--a", a],
       ["usage error: --a", "1 <= a < q"]] for a in ("7", "0", "-1")),
], ids=[*(f"sk-k{k}{route}" for k in (-2, 0, 1) for route in ("", "-scan")),
        *(f"progression-a{a}" for a in (7, 0, -1))])
def test_values_out_of_range_exit_1(tmp_path, capsys, argv, messages):
    out = tmp_path / "artifact"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(m in err for m in messages) and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("q_limit", ["2", "0", "-5"])
def test_scan_smallest_q_limit_below_3_exits_1(tmp_path, capsys, q_limit):
    # no q < 3 is an odd prime, so the scan would try none and emit the
    # artifact of a search that found nothing
    out = tmp_path / "artifact"
    argv = ["sk", "--k", "3", "--scan-smallest", "--q-limit", q_limit]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error: --q-limit" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("route", ["environment", "flag"])
def test_uncreatable_cache_dir_exits_1(tmp_path, capsys, monkeypatch, route):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = tmp_path / "artifact"
    if route == "environment":
        monkeypatch.setenv("KLAB_CACHE_DIR", str(blocker / "cache"))
        argv = ["moments", "--k", "2", "--q", "13", "--samples", "4", "--seed", "1"]
    else:
        argv = ["kl-table", "--k", "2", "--q", "13", "--cache", str(blocker)]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create cache directory") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_has_help(capsys, command):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: klab {command} ")


def test_readme_examples_parse_and_name_every_command():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("klab ")]
    named = {build_parser().parse_args(argv).command for argv in examples}
    assert named == set(COMMANDS)


def test_parser_is_built_once(capsys):
    build_parser.cache_clear()
    assert main(["exponent-lp", "--delta", "0.03"]) == 0
    assert main(["sk", "--k", "2", "--q", "7"]) == 0
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ["exponent-lp", "--delta", "inf"],
    ["exponent-lp", "--delta", "nan"],
    ["exponent-lp", "--eta", "inf"],
    ["exponent-lp", "--delta", "0.03", "--kappa", "inf"],
    ["exponent-lp", "--delta", "0.03", "--slack", "inf"],
    ["exponent-lp", "--delta", "0.03", "--slack", "nan"],
    ["exponent-lp", "--search", "--search-kappa", "inf"],
    ["exponent-lp", "--search", "--slack", "inf"],
    ["sumprod-scan", "--k", "2", "--q", "7", "--seed", "1", "--threshold", "nan"],
    ["sumprod-scan", "--k", "2", "--q", "7", "--seed", "1", "--threshold", "inf"],
])
def test_non_finite_float_options_exit_1(tmp_path, capsys, argv):
    out = tmp_path / "artifact"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "invalid finite_float value" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("exponent-lp", "kappa", "inf"), ("exponent-lp", "slack", "nan"),
    ("sumprod-scan", "threshold", "nan"), ("sumprod-scan", "threshold", "-inf")])
def test_non_finite_float_config_keys_exit_1(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "klab.cfg"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    argv = {"exponent-lp": ["exponent-lp", "--delta", "0.03"],
            "sumprod-scan": ["sumprod-scan", "--k", "2", "--q", "7", "--seed", "1"]}[section]
    out = tmp_path / "artifact"
    assert main(["--config", str(cfg), *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: config key {key!r}") and "not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--eta", "-0.5"], "error: eta = -0.5 is the pole"),
    (["--search", "--slack", "-2"], "error: empty band at slack = -2.0"),
])
def test_exponent_lp_refusals_are_typed(tmp_path, capsys, argv, message):
    out = tmp_path / "artifact"
    assert main(["exponent-lp", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert not out.exists()
