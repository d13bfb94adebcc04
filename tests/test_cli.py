"""Command line interface: exit codes, output formats, config handling."""

import json
import re
import struct

import pytest

from heislat import empirical
from heislat.arithmetic import CACHE_MAGIC, build_r2q_prefix, load_tables
from heislat.cli import run
from heislat.moments import variance_series


def test_count_basic(capsys):
    assert run(["count", "--q", "3", "--x", "1"]) == 0
    assert capsys.readouterr().out.strip() == "15"


def test_count_rational(capsys):
    assert run(["count", "--q", "3", "--x", "3/2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.isdigit() and int(out) > 15


def test_count_json_out(tmp_path, capsys):
    out = tmp_path / "count.json"
    assert run(["count", "--q", "3", "--x", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 15


def test_count_conflicting_args_exit_2(capsys):
    assert run(["count", "--q", "3", "--x", "1", "--x2", "1"]) == 2


@pytest.mark.parametrize("flag", ["--x", "--x2"])
def test_count_negative_dilation_exit_2(flag, capsys):
    assert run(["count", "--q", "3", flag, "-1"]) == 2
    assert capsys.readouterr().out == ""


def test_count_missing_x_exit_2(capsys):
    assert run(["count", "--q", "3"]) == 2


def test_unknown_flag_exit_2(capsys):
    assert run(["count", "--q", "3", "--x", "1", "--bogus"]) == 2


def test_unknown_command_exit_2(capsys):
    assert run(["frobnicate"]) == 2


def test_error_command(capsys):
    assert run(["error", "--q", "3", "--x", "3/2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "normalized_error" in payload and "volume" in payload


def test_error_at_zero_exit_2(capsys):
    # the count at x = 0 is 1, but dividing by x^(2q-1) is not defined
    assert run(["error", "--q", "3", "--x", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("argument error:")


def test_moments_first_vanishes(capsys):
    assert run(["moments", "--q", "3", "--m", "1", "--l", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["value"]) < 1e-10


def test_moments_closed2_rejects_other_l(capsys):
    assert run(["moments", "--q", "3", "--m", "1", "--l", "3", "--method", "closed2"]) == 2


def test_moments_ergodic_over_budget_exit_3(capsys):
    assert run(["moments", "--q", "3", "--m", "1", "--l", "5", "--method", "ergodic"]) == 3
    assert "budget error" in capsys.readouterr().err


def test_empirical_more_samples_than_grid_points_exit_3(capsys):
    assert run(["empirical", "--q", "3", "--X", "1", "--samples", "4003"]) == 3
    assert "budget error" in capsys.readouterr().err


def test_moments_box_without_coarse_box_exit_2(capsys):
    assert run(["moments", "--q", "3", "--m", "1", "--l", "2", "--method", "closed2", "--D", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "box (3, 40)" in captured.err


@pytest.mark.parametrize("flag", ["--D", "--K"])
def test_moments_zero_box_exit_2(flag, capsys):
    # a given 0 reaches the route, which has no coarser box to compare with;
    # every route checks its box before it builds any table
    for method in ("analytic", "ergodic", "closed2"):
        assert run(["moments", "--q", "3", "--m", "1", "--l", "2", "--method", method, flag, "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("argument error: box (")
        assert "for its error estimate" in captured.err


@pytest.mark.parametrize("command", [["phi", "--m", "1", "--t", "0.5"], ["phi-sum", "--M", "5", "--x", "1.5"]])
@pytest.mark.parametrize("flag", ["--D", "--K"])
def test_phi_zero_box_exit_2(command, flag, capsys):
    assert run([command[0], "--q", "3", *command[1:], flag, "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "argument error: need d_max >= 1 and k_max >= 1\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["phi", "--q", "3", "--m", "1", "--t", "inf"], 2),
        (["phi-sum", "--q", "3", "--M", "5", "--x", "nan"], 2),
        (["voronoi-gap", "--q", "3", "--X", "4", "--H", "inf"], 2),
        (["voronoi-gap", "--q", "3", "--X", "4", "--H", "nan"], 2),
        (["voronoi-gap", "--q", "3", "--X", "4", "--H", "-5"], 2),
        (["voronoi-gap", "--q", "3", "--X", "4", "--H", "-1e2"], 2),
        (["density", "--q", "3", "--A", "-1"], 2),
        (["density", "--q", "3", "--A", "inf"], 2),
        (["density", "--q", "3", "--A", "nan"], 2),
        (["density", "--q", "3", "--step", "0"], 2),
        (["density", "--q", "3", "--step", "-0.01"], 2),
        (["density", "--q", "3", "--xmin", "5", "--xmax", "-5"], 2),
        (["density", "--q", "3", "--xmin", "-1e-9", "--xmax", "-2e-9"], 2),
        (["density-moment", "--q", "3", "--j", "2", "--Mmax", "0"], 2),
        (["error", "--q", "3", "--x", "1e400"], 3),
        (["count", "--q", "3", "--x", "1e400"], 3),
        (["verify", "--criteria", "1", "99"], 2),
        (["verify", "--criteria", "0"], 2),
    ],
    ids=lambda v: " ".join(v[:1] + v[3:]) if isinstance(v, list) else None,
)
def test_bad_input_exit_code(argv, code, capsys):
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("argument error:" if code == 2 else "budget error:")
    if "--H" in argv:
        assert "H =" in captured.err


@pytest.mark.parametrize("t", ["-1e-3", "-2.5E+1", "-.5"])
def test_negative_value_in_any_notation_is_a_value(t, capsys):
    assert run(["phi", "--q", "3", "--m", "1", "--D", "8", "--K", "8", "--t", t]) == 0
    by_flag = capsys.readouterr().out
    assert run(["phi", "--q", "3", "--m", "1", "--D", "8", "--K", "8", f"--t={t}"]) == 0
    assert capsys.readouterr().out == by_flag and by_flag.splitlines()[1].startswith(repr(float(t)))


def test_moments_routes_agree(capsys):
    assert run(["moments", "--q", "3", "--m", "2", "--l", "2", "--method", "closed2"]) == 0
    closed = json.loads(capsys.readouterr().out)
    assert run(["moments", "--q", "3", "--m", "2", "--l", "2", "--method", "analytic"]) == 0
    analytic = json.loads(capsys.readouterr().out)
    combined = closed["error_estimate"] + analytic["error_estimate"]
    assert abs(analytic["value"] - closed["value"]) <= combined


def test_density_moment_json_provenance(capsys):
    assert run(["density-moment", "--q", "3", "--j", "4", "--Mmax", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "cumulant"
    trunc = payload["truncation"]
    assert trunc["m_max"] == 20 and trunc["j"] == 4
    assert trunc["d_max"] == 16 and trunc["k_max"] == 16
    assert payload["value"] > 0 and payload["error_estimate"] > 0


def test_density_json_abs_moments(capsys):
    assert run(["density", "--q", "3", "--M", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["abs_moments"]) == ["0.5", "1", "1.5", "2"]
    assert payload["abs_moments"]["2"] == pytest.approx(payload["moments"][2], rel=1e-12)


def test_density_json_names_its_box(capsys):
    assert run(["density", "--q", "3", "--M", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload)[:5] == ["schema", "M", "d_mod", "k_max", "A"]
    assert (payload["M"], payload["d_mod"], payload["k_max"]) == (20, 8, 64)
    # the variance the Gaussian closure restores, next to the tail variance
    assert list(payload).index("variance") == list(payload).index("tail_variance") + 1
    mv = variance_series(3)
    assert payload["variance"] == {"value": mv.value, "error": mv.error, "n_limit": 200_000, "d_max": 15}


def test_voronoi_gap_json_provenance(capsys):
    assert run(["voronoi-gap", "--q", "3", "--X", "6", "--samples", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["X"] == 6 and payload["H"] == 18.0 and payload["samples"] == 12
    assert payload["den"] == empirical.GRID_DEN and payload["terms"] > 0
    assert 0 <= payload["gap"] < 10.0


def test_verify_prints_seconds_per_criterion(capsys):
    assert run(["verify", "--criteria", "1", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[:2] for line in lines] == [["PASS", "1"], ["PASS", "3"]]
    assert all(re.search(r"  \(\d+\.\d s\)$", line) for line in lines)


@pytest.mark.parametrize("value, code", [("99", 2), ("1", 0)])
def test_verify_criterion_from_config(tmp_path, capsys, value, code):
    cfg = tmp_path / "conf"
    cfg.write_text(f"criteria = {value}\n")
    assert run(["--config", str(cfg), "verify"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and captured.err.startswith("argument error: no criterion 99")
    else:
        assert [line.split()[:2] for line in captured.out.splitlines()] == [["PASS", "1"]]


def test_phi_csv(capsys):
    assert run(["phi", "--q", "3", "--m", "2", "--t", "0.0", "1.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,phi"
    assert len(lines) == 3


def test_phi_sum_csv(capsys):
    assert run(["phi-sum", "--q", "3", "--M", "5", "--x", "1.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,phi_sum"


def test_cache_roundtrip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert run(["count", "--q", "3", "--x", "2", "--cache", cache]) == 0
    first = capsys.readouterr().out.strip()
    # second run loads the saved tables
    assert run(["count", "--q", "3", "--x", "2", "--cache", cache]) == 0
    assert capsys.readouterr().out.strip() == first
    assert list((tmp_path / "cache").glob("shells_*.bin"))


@pytest.mark.parametrize("damage", ["magic-only", "short-body", "other-q", "flipped-entry"])
def test_cache_rebuilds_bad_file(tmp_path, capsys, damage):
    assert run(["count", "--q", "3", "--x", "2"]) == 0
    expect = capsys.readouterr().out.strip()
    cache = tmp_path / "cache"
    argv = ["count", "--q", "3", "--x", "2", "--cache", str(cache)]
    assert run(argv) == 0
    capsys.readouterr()
    (path,) = cache.glob("shells_*.bin")
    good = path.read_bytes()
    if damage == "magic-only":
        path.write_bytes(CACHE_MAGIC)
    elif damage == "short-body":
        path.write_bytes(good[:-8])
    elif damage == "flipped-entry":
        # the low bit of the last prefix sum: a well-formed file with a wrong count
        path.write_bytes(good[:-8] + bytes([good[-8] ^ 1]) + good[-7:])
    else:
        path.write_bytes(CACHE_MAGIC + struct.pack("<q", 4) + good[len(CACHE_MAGIC) + 8 :])
    assert run(argv) == 0
    assert capsys.readouterr().out.strip() == expect
    tables = load_tables(path)
    assert (tables.q, tables.limit) == (3, 4)
    assert not list(cache.glob("*.tmp"))


def test_config_fills_defaults(tmp_path, capsys):
    cfg = tmp_path / "conf"
    cfg.write_text("x = 1\n# comment\n")
    assert run(["--config", str(cfg), "count", "--q", "3"]) == 0
    assert capsys.readouterr().out.strip() == "15"


def test_command_line_beats_config(tmp_path, capsys):
    cfg = tmp_path / "conf"
    cfg.write_text("x = 1\n")
    assert run(["--config", str(cfg), "count", "--q", "3", "--x", "99/100"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_empirical_json_stats(capsys):
    assert run(["empirical", "--q", "3", "--X", "20", "--samples", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"n", "mean", "second", "third", "min", "max"} <= payload.keys()
    assert payload["n"] == 50 and "component_sum_gaps" not in payload


def test_empirical_gaps_and_samples_csv(tmp_path, capsys):
    out = tmp_path / "samples.csv"
    argv = ["empirical", "--q", "3", "--X", "20", "--samples", "50", "--M", "3"]
    assert run([*argv, "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["component_sum_gaps"]) == {"0", "3"}
    lines = out.read_text().splitlines()
    assert lines[0] == "x,err" and len(lines) == 51


def test_empirical_gaps_count_the_window_once(monkeypatch, capsys):
    # with --samples <= 1500 the gaps read the reported window, so it is counted once
    calls = []
    real = empirical.count_points_fast
    monkeypatch.setattr(empirical, "count_points_fast", lambda *a: calls.append(a) or real(*a))
    assert run(["empirical", "--q", "3", "--X", "30", "--samples", "400", "--M", "3"]) == 0
    assert len(calls) == 400
    series = empirical.sample_errors(3, build_r2q_prefix(3, 60**2), 30, 400)
    gaps = empirical.component_sum_l2_gap(series, [3])
    want = {"schema": 1, "q": 3, "X": 30, **series.stats(), "component_sum_gaps": {str(k): v for k, v in gaps.items()}}
    assert json.loads(capsys.readouterr().out) == want


def test_density_csv_out_keeps_json_on_stdout(tmp_path, capsys):
    out = tmp_path / "density.csv"
    assert run(["density", "--q", "3", "--M", "20", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["M"] == 20
    assert out.read_text().splitlines()[0] == "x,P"


def test_count_x2_matches_x(capsys):
    assert run(["count", "--q", "3", "--x", "1"]) == 0
    by_x = capsys.readouterr().out
    assert run(["count", "--q", "3", "--x2", "1"]) == 0
    assert capsys.readouterr().out == by_x


def test_error_json_out(tmp_path, capsys):
    out = tmp_path / "error.json"
    assert run(["error", "--q", "3", "--x", "3/2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["x"] == "3/2" and "normalized_error" in payload


def test_config_gives_multi_value_options_every_value(tmp_path, capsys):
    cfg = tmp_path / "conf"
    cfg.write_text("criteria = 1 3\n")
    assert run(["--config", str(cfg), "verify"]) == 0
    assert [line.split()[:2] for line in capsys.readouterr().out.splitlines()] == [["PASS", "1"], ["PASS", "3"]]


def test_config_sets_options_with_defaults(tmp_path, capsys):
    cfg = tmp_path / "conf"
    cfg.write_text("D = 4\nK = 4\n")
    assert run(["phi", "--q", "3", "--m", "1", "--t", "0.3", "--D", "4", "--K", "4"]) == 0
    by_flags = capsys.readouterr().out
    assert run(["--config", str(cfg), "phi", "--q", "3", "--m", "1", "--t", "0.3"]) == 0
    assert capsys.readouterr().out == by_flags


def test_config_ignores_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "conf"
    cfg.write_text("bogus = 7\nrun = 1\ncommand = phi\nx = 1\n")
    assert run(["--config", str(cfg), "count", "--q", "3"]) == 0
    assert capsys.readouterr().out.strip() == "15"


def test_density_moment_json_out(tmp_path, capsys):
    out = tmp_path / "moment.json"
    assert run(["density-moment", "--q", "3", "--j", "2", "--Mmax", "20", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["method"] == "cumulant" and payload["truncation"]["j"] == 2


def test_missing_config_exit_2(tmp_path, capsys):
    assert run(["--config", str(tmp_path / "missing"), "count", "--q", "3", "--x", "1"]) == 2
    assert capsys.readouterr().err.startswith("argument error:")


def test_unwritable_out_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "count.json"
    assert run(["count", "--q", "3", "--x", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("argument error:")


def test_config_method_outside_choices_exit_2(tmp_path, capsys):
    cfg = tmp_path / "conf"
    cfg.write_text("method = bogus\n")
    assert run(["--config", str(cfg), "moments", "--q", "3", "--m", "2", "--l", "2"]) == 2
    assert "unknown method" in capsys.readouterr().err
