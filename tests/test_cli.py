"""Command line interface: exit codes, output formats, config handling."""

import json
import re
import struct

import pytest

from heislat.arithmetic import CACHE_MAGIC, load_tables
from heislat.cli import run


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


def test_moments_first_vanishes(capsys):
    assert run(["moments", "--q", "3", "--m", "1", "--l", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["value"]) < 1e-10


def test_moments_closed2_rejects_other_l(capsys):
    assert run(["moments", "--q", "3", "--m", "1", "--l", "3", "--method", "closed2"]) == 2


def test_moments_ergodic_over_budget_exit_3(capsys):
    assert run(["moments", "--q", "3", "--m", "1", "--l", "5", "--method", "ergodic"]) == 3
    assert "budget error" in capsys.readouterr().err


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


def test_voronoi_gap_json_provenance(capsys):
    assert run(["voronoi-gap", "--q", "3", "--X", "6", "--samples", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["X"] == 6 and payload["H"] == 18.0 and payload["samples"] == 12
    assert payload["den"] > 1 and payload["terms"] > 0
    assert 0 <= payload["gap"] < 10.0


def test_verify_prints_seconds_per_criterion(capsys):
    assert run(["verify", "--criteria", "1", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[:2] for line in lines] == [["PASS", "1"], ["PASS", "3"]]
    assert all(re.search(r"  \(\d+\.\d s\)$", line) for line in lines)


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


@pytest.mark.parametrize("damage", ["magic-only", "short-body", "other-q"])
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
