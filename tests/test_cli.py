import argparse
import io
import json
import math

import pytest

from diamondqi.cli import _MAX_GRID_POINTS, _grid, _nmax, _report_row, main
from diamondqi.entanglement import report_for
from diamondqi.invariants import run_selftest
from diamondqi.states import TRUNCATION_CAP, FockTruncation


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


# the exact stdout of map in each region, one boundary point included; the
# values are plain arithmetic, so the bytes depend on neither libm nor NumPy
MAP_STDOUT = {
    "0.3,0.2": '{"input": {"frame": "diamond", "point": [0.3, 0.2]}, "output": {"frame": "rindler", '
               '"point": [1.0909090909090906, 1.9090909090909087]}, "region": "D", "wedge": "R", '
               '"conformal_factor": 7.272727272727272}\n',
    "0,2": '{"input": {"frame": "diamond", "point": [0.0, 2.0]}, "output": {"frame": "rindler", '
           '"point": [0.0, -3.0]}, "region": "DBar", "wedge": "L", "conformal_factor": 4.0}\n',
    "0.5,-1.2": '{"input": {"frame": "diamond", "point": [0.5, -1.2]}, "output": {"frame": "rindler", '
                '"point": [0.21786492374727665, -0.04139433551198255]}, "region": "DBarBar-F", '
                '"wedge": "F", "conformal_factor": 0.8714596949891067}\n',
    "0.5,1.2": '{"input": {"frame": "diamond", "point": [0.5, 1.2]}, "output": {"frame": "rindler", '
               '"point": [-4.761904761904762, 0.9047619047619044]}, "region": "DBarBar-P", '
               '"wedge": "P", "conformal_factor": -19.047619047619047}\n',
    "0.5,-0.5": '{"input": {"frame": "diamond", "point": [0.5, -0.5]}, "output": {"frame": "rindler", '
                '"point": [0.5, 0.5]}, "region": "Boundary", "wedge": null, "conformal_factor": 2.0}\n',
}


@pytest.mark.parametrize("point", sorted(MAP_STDOUT))
def test_map_stdout_is_pinned(capsys, point):
    code, out, err = run_cli(capsys, "map", "--alpha", "1", "--from", "diamond", "--to", "rindler",
                             f"--point={point}")
    assert (code, out, err) == (0, MAP_STDOUT[point], "")


def test_modes_subcommand(capsys):
    code, out, _ = run_cli(capsys, "modes", "--alpha", "1", "--family", "diamond-int",
                           "--omega", "1.5", "--point", "0,0")
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["value"]["re"] - 1.0 / math.sqrt(4 * math.pi * 1.5)) < 1e-15
    assert rec["value"]["im"] == 0.0


@pytest.mark.parametrize("argv", [
    ["modes", "--alpha", "1", "--family", "unruh-int", "--omega", "5e-309", "--point", "0.1,0.2"],
    ["modes", "--alpha", "1", "--family", "unruh-ext", "--omega", "5e-324", "--point", "0.1,0.2"],
    ["state", "--alpha", "1", "--omega-hat", "5e-309"],
])
def test_an_overflowing_squeezing_is_a_domain_cap(capsys, argv):
    # modes printed a NaN value and exited 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DomainCap" and "the squeezing r overflows" in error["message"]


def test_bogoliubov_both_deviation(capsys):
    code, out, _ = run_cli(capsys, "bogoliubov", "--omega-hat", "1", "--k-hat", "1",
                           "--kind", "alpha", "--method", "both")
    assert code == 0
    rec = json.loads(out)
    assert rec["deviation"] < 1e-6


@pytest.mark.parametrize("args,error", [
    # sinh(pi omega_hat/2) overflowed into an OverflowError traceback
    (["--kind", "beta", "--omega-hat", "500", "--k-hat", "1", "--method", "closed"], "DomainCap"),
    # beta cancels on the legs: |beta| ~ e^{-pi omega_hat/2} against legs
    # of modulus ~e^{-pi omega_hat/4}, so rounding alone misses rel_tol
    (["--kind", "beta", "--omega-hat", "50", "--k-hat", "1", "--method", "quadrature"], "NonConvergence"),
    # alpha on the real line: the first pass nearly fills the node budget
    (["--kind", "alpha", "--omega-hat", "1", "--k-hat", "1e5", "--method", "quadrature"], "NonConvergence"),
    (["--kind", "beta", "--omega-hat", "500", "--k-hat", "1", "--method", "quadrature"], "NonConvergence"),
])
def test_bogoliubov_out_of_reach_is_numeric_failure(capsys, args, error):
    code, out, err = run_cli(capsys, "bogoliubov", *args)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == error


def test_bogoliubov_beta_quadrature_at_large_k(capsys):
    # the real-line route exhausted its node budget here; on the legs the
    # e^{-ky} decay takes a few hundred points.  The reference is 30-digit
    # hyp1f1
    code, out, _ = run_cli(capsys, "bogoliubov", "--kind", "beta", "--omega-hat", "1", "--k-hat", "1e5",
                           "--method", "quadrature")
    assert code == 0
    want = -1.0673660541564261e-05
    assert abs(json.loads(out)["quadrature"]["re"] - want) < 1e-10 * abs(want)


def test_bogoliubov_ext_closed_is_numeric_failure(capsys):
    code, _, err = run_cli(capsys, "bogoliubov", "--omega-hat", "1", "--k-hat", "1",
                           "--kind", "alpha", "--method", "closed", "--region", "ext")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "UnsupportedRegion"


def test_state_blocks_keys_and_representation(capsys):
    code, out, _ = run_cli(capsys, "state", "--r", "0.5", "--nmax", "2", "--tol", "1")
    assert code == 0
    assert '\n  "representation": "rho_AD",\n' in out
    keys = list(json.loads(out))
    assert keys == ["r", "omega_hat", "n_max", "tail_bound", "representation", "trace", "blocks"]


def test_state_blocks_json(capsys):
    code, out, _ = run_cli(capsys, "state", "--r", "0.5", "--nmax", "8", "--tol", "1")
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
                           str((2 / math.pi) * math.log(2)), "--nmax", "12", "--tol", "1")
    rec = json.loads(out)
    assert abs(rec["r"] - math.atanh(0.5)) < 1e-12


def test_state_truncation_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, "state", "--r", "4", "--tol", "1e-12")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "TruncationTooSmall"


def test_state_fixed_nmax_honours_tol(capsys):
    # 5 blocks drop 97.5 % of the trace at r = 3
    code, _, err = run_cli(capsys, "state", "--r", "3", "--nmax", "5", "--tol", "1e-10")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "TruncationTooSmall"
    code, out, _ = run_cli(capsys, "state", "--r", "3", "--nmax", "5", "--tol", "1")
    assert code == 0 and json.loads(out)["n_max"] == 5


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


def test_entanglement_fixed_nmax_rows_are_truncated_reports(capsys):
    code, out, _ = run_cli(capsys, "entanglement", "--r-grid", "0:2:0.25", "--nmax", "40", "--tol", "1")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 9
    for i, row in enumerate(rows):
        r = 0.25 * i
        assert row == _report_row(report_for(r, FockTruncation.fixed(40, r, 1.0)))


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
    # each of these exited 0 or failed with a raw exception before
    ["entanglement", "--r-grid", "0:1:0.5", "--nmax", "20", "--tol", "nan"],
    ["state", "--r", "0.5", "--tol", "nan"],
    ["map", "--alpha", "inf", "--from", "diamond", "--to", "rindler", "--point", "0,0"],
    ["bogoliubov", "--omega-hat", "1", "--k-hat", "1", "--kind", "alpha", "--method", "quadrature",
     "--rel-tol", "inf"],
    # these exited 1, as numeric failures
    ["entanglement", "--r-grid", "0:1:0.5", "--nmax", "abc"],
    ["entanglement", "--r-grid", "0:1:0.5", "--nmax", "0"],
    ["entanglement", "--r-grid", "0:1:0.5", "--nmax", "-3"],
    ["state", "--r", "0.5", "--nmax", "0"],
    # p_hi took the log of a negative number: a bare ValueError, exit 1
    ["bogoliubov", "--omega-hat", "0.01", "--k-hat", "2", "--kind", "beta", "--method", "quadrature",
     "--rel-tol", "1e3"],
    # a tol <= 0 failed in math.log: a bare ValueError, exit 1
    ["state", "--r", "0.5", "--tol", "0"],
    ["entanglement", "--r-grid", "0:1:0.5", "--tol", "-1"],
    # the option types that import their owner when the option is given
    ["modes", "--alpha", "1", "--family", "diamond", "--omega", "1", "--point", "0,0"],
    ["selftest", "--perturb", "ppt"],
    # a non-positive physical input exited 1 with a ValueError record
    ["map", "--alpha", "0", "--from", "diamond", "--to", "rindler", "--point", "0,0"],
    ["map", "--alpha", "1", "--lambda", "-2", "--from", "diamond", "--to", "rindler", "--point", "0,0"],
    ["modes", "--alpha", "1", "--family", "diamond-int", "--omega", "0", "--point", "0,0"],
    ["bogoliubov", "--omega-hat", "-1", "--k-hat", "1", "--kind", "alpha"],
    ["bogoliubov", "--omega-hat", "1", "--k-hat", "0", "--kind", "alpha"],
    ["state", "--alpha", "1", "--omega-hat", "0"],
    ["entanglement", "--lifetime-grid", "1:2:1", "--omega", "-1"],
    ["state", "--r", "-1"],
    # printed 23 FAIL lines, one ValueError each, and exited 1
    ["selftest", "--seed", "-1"],
])
def test_bad_values_are_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_grid_size_cap():
    assert len(_grid(f"0:{_MAX_GRID_POINTS - 1}:1")) == _MAX_GRID_POINTS
    with pytest.raises(argparse.ArgumentTypeError):
        _grid(f"0:{_MAX_GRID_POINTS}:1")


def test_nmax_type_takes_auto_or_a_block_count_up_to_the_cap():
    assert _nmax("auto") is None
    assert _nmax("1") == 1 and _nmax(str(TRUNCATION_CAP)) == TRUNCATION_CAP
    for text in ("0", str(TRUNCATION_CAP + 1), "1.5", "1e3", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            _nmax(text)


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


def test_selftest_refuses_a_negative_seed_before_any_check():
    out = io.StringIO()
    with pytest.raises(ValueError, match="nonnegative integer"):
        run_selftest(seed=-1, stream=out)
    assert out.getvalue() == ""
