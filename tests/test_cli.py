import json
import os

import pytest

from klab.cli import main, parse_config
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

    monkeypatch.setattr(SumProductContext, "row_table", property(refuse))
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
    code = main(["sumprod-scan", "--k", "2", "--q", "19", "--samples", "50",
                 "--seed", "3", "--format", "csv", "--out", p])
    assert code == 0
    lines = open(p).read().splitlines()
    assert lines[0].startswith("q,k,c,b1,b2,b3,b4,lambda_set,statistic")
    assert len(lines) == 1 + 2 * 19**4  # exhaustive below the full-scan cap


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
])
def test_config_value_typed_by_flag(tmp_path, capsys, section, argv):
    cfg = tmp_path / "klab.cfg"
    cfg.write_text(section)
    assert main(["--config", str(cfg), *argv]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


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
