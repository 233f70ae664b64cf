import argparse
import json
import math

import pytest

from diamondqi.cli import _MAX_GRID_POINTS, _grid, main
from diamondqi.invariants import run_selftest


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_map_center(capsys):
    code, out, _ = run_cli(capsys, "map", "--alpha", "1", "--from", "diamond",
                           "--to", "rindler", "--point", "0,0")
    assert code == 0
    rec = json.loads(out)
    assert rec["output"]["point"] == [0.0, 1.0]
    assert rec["region"] == "D" and rec["wedge"] == "R"
    assert rec["conformal_factor"] == 4.0


def test_map_eta_xi_round(capsys):
    code, out, _ = run_cli(capsys, "map", "--alpha", "2", "--lambda", "1", "--from", "eta-xi",
                           "--to", "diamond", "--point", "0.3,-0.2", "--epsilon", "1")
    assert code == 0
    rec = json.loads(out)
    t, x = rec["output"]["point"]
    code, out, _ = run_cli(capsys, "map", "--alpha", "2", "--lambda", "1", "--from", "diamond",
                           "--to", "eta-xi", "--point", f"{t},{x}")
    back = json.loads(out)["output"]["point"]
    assert abs(back[0] - 0.3) < 1e-12 and abs(back[1] + 0.2) < 1e-12


def test_map_singular_point_is_numeric_failure(capsys):
    code, _, err = run_cli(capsys, "map", "--alpha", "1", "--from", "diamond",
                           "--to", "rindler", "--point", "0,1")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "SingularPoint"


def test_map_region_battery_via_cli(capsys):
    code, out, _ = run_cli(capsys, "map", "--alpha", "1", "--from", "diamond",
                           "--to", "rindler", "--point", "0,2")
    rec = json.loads(out)
    assert (rec["region"], rec["wedge"]) == ("DBar", "L")


def test_modes_subcommand(capsys):
    code, out, _ = run_cli(capsys, "modes", "--alpha", "1", "--family", "diamond-int",
                           "--omega", "1.5", "--point", "0,0")
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["value"]["re"] - 1.0 / math.sqrt(4 * math.pi * 1.5)) < 1e-15
    assert rec["value"]["im"] == 0.0


def test_bogoliubov_both_deviation(capsys):
    code, out, _ = run_cli(capsys, "bogoliubov", "--omega-hat", "1", "--k-hat", "1",
                           "--kind", "alpha", "--method", "both")
    assert code == 0
    rec = json.loads(out)
    assert rec["deviation"] < 1e-6


def test_bogoliubov_ext_closed_is_numeric_failure(capsys):
    code, _, err = run_cli(capsys, "bogoliubov", "--omega-hat", "1", "--k-hat", "1",
                           "--kind", "alpha", "--method", "closed", "--region", "ext")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "UnsupportedRegion"


def test_state_blocks_json(capsys):
    code, out, _ = run_cli(capsys, "state", "--r", "0.5", "--nmax", "8")
    assert code == 0
    rec = json.loads(out)
    assert rec["n_max"] == 8 and len(rec["blocks"]) == 8
    assert abs(rec["blocks"][0]["weight"] - 1.0 / (2 * math.cosh(0.5) ** 2)) < 1e-15


def test_state_dense_csv(capsys, tmp_path):
    out_file = tmp_path / "dense.csv"
    code, _, _ = run_cli(capsys, "state", "--r", "0", "--dump", "dense", "--out", str(out_file))
    assert code == 0
    rows = out_file.read_text().strip().split("\n")
    assert len(rows) == 6  # 2 * (n_max + 1) with n_max = 2 at r = 0
    first = [float(v) for v in rows[0].split(",")]
    assert first[0] == 0.5


def test_state_from_omega_hat(capsys):
    code, out, _ = run_cli(capsys, "state", "--alpha", "1", "--omega-hat",
                           str((2 / math.pi) * math.log(2)), "--nmax", "12")
    rec = json.loads(out)
    assert abs(rec["r"] - math.atanh(0.5)) < 1e-12


def test_state_truncation_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, "state", "--r", "4", "--tol", "1e-12")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "TruncationTooSmall"


def test_entanglement_csv_schema_and_determinism(capsys):
    args = ("entanglement", "--r-grid", "0:1:0.25")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # byte-identical
    lines = out1.strip().split("\n")
    assert lines[0] == "r,neg_log,negativity,s_a,s_d,s_ad,mutual_info,n_max_used,tail_bound"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_entanglement_json_format(capsys):
    code, out, _ = run_cli(capsys, "entanglement", "--r-grid", "0:0.5:0.5", "--format", "json")
    rows = json.loads(out)
    assert len(rows) == 2 and rows[0]["mutual_info"] == 2.0


def test_entanglement_lifetime_grid(capsys):
    code, out, _ = run_cli(capsys, "entanglement", "--lifetime-grid", "1:3:1", "--omega", "1.0")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    rs = [float(row.split(",")[0]) for row in rows]
    assert all(b < a for a, b in zip(rs, rs[1:]))  # longer life, smaller r


def test_entanglement_alpha_mode_half_lifetime(capsys):
    _, out_full, _ = run_cli(capsys, "entanglement", "--lifetime-grid", "2:2:1", "--omega", "1.0")
    _, out_half, _ = run_cli(capsys, "entanglement", "--lifetime-grid", "1:1:1", "--omega", "1.0",
                             "--alpha-mode", "half-lifetime")
    assert out_full == out_half


def test_entanglement_fixed_nmax(capsys):
    code, out, _ = run_cli(capsys, "entanglement", "--r-grid", "0.5:1:0.5", "--nmax", "64")
    assert code == 0
    for row in out.strip().split("\n")[1:]:
        assert row.split(",")[7] == "64"


def test_entanglement_fixed_nmax_honours_tol(capsys):
    # 200 blocks drop 27-59 % of the state on r in [3, 3.4]
    code, out, err = run_cli(capsys, "entanglement", "--r-grid", "3.0:3.4:0.2", "--nmax", "200")
    assert code == 1
    assert out.strip() == "r,neg_log,negativity,s_a,s_d,s_ad,mutual_info,n_max_used,tail_bound"
    failure = json.loads(err)["error"]
    assert failure["type"] == "SweepPointFailures"
    assert sorted(failure["points"]) == ["0", "1", "2"]
    assert all(msg.startswith("TruncationTooSmall") for msg in failure["points"].values())
    code, _, _ = run_cli(capsys, "entanglement", "--r-grid", "3.0:3.4:0.2", "--nmax", "200",
                         "--tol", "1")
    assert code == 0


def test_entanglement_usage_error(capsys):
    code, _, err = run_cli(capsys, "entanglement", "--r-grid", "0:1:0.5",
                           "--lifetime-grid", "1:2:1")
    assert code == 1
    assert "error" in err


def test_figures_outputs(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "figures", "--out-dir", str(tmp_path))
    assert code == 0
    fig3 = (tmp_path / "fig3.csv").read_text().strip().split("\n")
    fig4 = (tmp_path / "fig4.csv").read_text().strip().split("\n")
    assert fig3[0] == "r,neg_log" and fig4[0] == "r,mutual_info"
    assert len(fig3) == 102 and len(fig4) == 102
    assert fig3[1] == "0,1" and fig4[1] == "0,2"
    n5 = float(fig3[-1].split(",")[1])
    i5 = float(fig4[-1].split(",")[1])
    assert n5 < 0.01 and 1.0 < i5 < 1.05


def test_figures_deterministic(capsys, tmp_path):
    run_cli(capsys, "figures", "--out-dir", str(tmp_path / "a"))
    run_cli(capsys, "figures", "--out-dir", str(tmp_path / "b"))
    assert (tmp_path / "a" / "fig3.csv").read_bytes() == (tmp_path / "b" / "fig3.csv").read_bytes()
    assert (tmp_path / "a" / "fig4.csv").read_bytes() == (tmp_path / "b" / "fig4.csv").read_bytes()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["map", "--alpha", "1", "--from", "nowhere", "--to", "rindler", "--point", "0,0"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["map", "--alpha", "1", "--from", "diamond", "--to", "rindler", "--point", "nan,0"],
    ["entanglement", "--r-grid", "0:inf:1"],
    ["selftest", "--perturb", "typo"],
])
def test_bad_values_are_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_grid_size_cap():
    assert len(_grid(f"0:{_MAX_GRID_POINTS - 1}:1")) == _MAX_GRID_POINTS
    with pytest.raises(argparse.ArgumentTypeError):
        _grid(f"0:{_MAX_GRID_POINTS}:1")


def test_selftest_negative_control(capsys):
    failures = run_selftest(perturb="bogoliubov-closed")
    out = capsys.readouterr().out
    assert failures == 1
    assert "FAIL bogoliubov-closed-vs-quadrature" in out
    failures = run_selftest(perturb="ppt-closed")
    out = capsys.readouterr().out
    assert failures == 1
    assert "FAIL ppt-closed-vs-oracle" in out
    with pytest.raises(ValueError):
        run_selftest(perturb="typo")
