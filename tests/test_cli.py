"""Tests for the command-line interface."""

import dataclasses
import json
import math

import pytest

from diskgeom.cli import format_complex, main, parse_complex
from diskgeom.verify import CHECKS, run_all

from conftest import endpoint_error

POINT_KEYS = {"k", "s", "t", "u", "v", "m", "k_c", "s_c", "t_c", "u_c",
              "v_c", "p", "q", "p_c", "q_c",
              "a_star", "b_star", "a_end", "b_end", "H"}


# ---------------------------------------------------------------------------
# complex literal grammar


def test_parse_real():
    assert parse_complex("0.5") == 0.5 + 0j
    assert parse_complex("-2") == -2 + 0j


def test_parse_cartesian():
    assert parse_complex("0.3+0.4i") == 0.3 + 0.4j
    assert parse_complex("1-2i") == 1 - 2j
    assert parse_complex("0+i") == 1j
    assert parse_complex(".5") == 0.5 + 0j
    assert parse_complex("+.5") == 0.5 + 0j
    assert parse_complex("-.3+.2i") == -0.3 + 0.2j


def test_parse_polar():
    z = parse_complex("0.7@1.0")
    assert abs(z) == pytest.approx(0.7)
    assert math.atan2(z.imag, z.real) == pytest.approx(1.0)
    assert parse_complex("0.7@.5") == parse_complex("0.7@0.5")
    assert parse_complex(".7@-.5") == parse_complex("0.7@-0.5")


def test_parse_rejects_garbage(capsys):
    for bad in ("", "abc", "1+2j", "0.5@", "@1", "0.5+.i", "0.5-e3i", "1@1e400"):
        with pytest.raises(ValueError, match="^cannot parse complex literal"):
            parse_complex(bad)
        assert main(["points", "--a", bad, "--b", "0.3"]) == 2
        assert capsys.readouterr().err == \
            f"error: ValueError: cannot parse complex literal {bad!r}\n"


def test_format_round_trips():
    for z in (0.5 + 0j, -0.123456789012345 + 0.987654321j, 2 - 3j):
        assert parse_complex(format_complex(z)) == z


# ---------------------------------------------------------------------------
# points subcommand


def test_points_json_schema(capsys):
    code = main(["points", "--a", "0.5", "--b", "0.6@1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["points"]) == POINT_KEYS
    assert doc["collinearity_residual_h_family"] <= 1e-9
    assert doc["collinearity_residual_pq"] <= 1e-9
    # coordinates serialize as [re, im] float pairs
    x, y = doc["points"]["u_c"]
    assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-9)


def test_points_invalid_literal_exits_2(capsys):
    assert main(["points", "--a", "banana", "--b", "0.5"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-0.4+0.1i", "-0.4-0.1i", "-0.4@1"])
@pytest.mark.parametrize("option", ["--a", "--b"])
def test_points_takes_a_value_that_starts_with_a_minus_after_a_space(capsys, option, value):
    other = "--b" if option == "--a" else "--a"
    assert main(["points", other, "0.5", f"{option}={value}"]) == 0
    bound = capsys.readouterr().out
    assert main(["points", other, "0.5", option, value]) == 0
    assert capsys.readouterr().out == bound


def test_points_value_after_a_space_that_does_not_parse_exits_2(capsys):
    assert main(["points", "--a", "0.5", "--b", "-0.4+x"]) == 2
    assert capsys.readouterr().err == \
        "error: ValueError: cannot parse complex literal '-0.4+x'\n"


def test_points_degenerate_configuration_exits_2(capsys):
    # collinear with the origin is a validation error, not a crash
    assert main(["points", "--a", "0.5", "--b", "-0.25"]) == 2


@pytest.mark.parametrize("b", ["0.3+0.2i", "0.19599454085957066+0.9806049866978375i"])
def test_points_near_boundary_prints_accurate_endpoints(b, capsys):
    # |a| is within rounding of 1, where the endpoints' old closed form
    # refused the pair with NearBoundary
    a = "0.155022086178662-0.987911004492214i"
    assert main(["points", "--a", a, "--b", b]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    a, b = parse_complex(a), parse_complex(b)
    assert endpoint_error(complex(*points["a_end"]), a, b) <= 1e-15
    assert endpoint_error(complex(*points["b_end"]), b, a) <= 1e-15


# ---------------------------------------------------------------------------
# verify subcommand


def test_verify_single_theorem(capsys):
    code = main(["verify", "--theorem", "lens_lemma", "--samples", "25",
                 "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS lens_lemma")


def test_verify_unknown_theorem_exits_2(capsys):
    assert main(["verify", "--theorem", "bogus", "--samples", "5"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "all", "--samples", "0"],
    ["conjecture", "--samples", "0"],
    ["verify", "--theorem", "eleven_points", "--samples", "5", "--tol", "nan"],
    ["verify", "--theorem", "eleven_points", "--samples", "5", "--tol", "-1"],
])
def test_out_of_range_samples_or_tolerance_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --") and captured.err.count("\n") == 1


def test_verify_impossible_tolerance_exits_1(capsys):
    code = main(["verify", "--theorem", "eleven_points", "--samples", "20",
                 "--seed", "3", "--tol", "1e-30"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_env_tolerance_override(capsys, monkeypatch):
    # DISKGEOM_TOL no longer overrides anything: --tol is the one override
    argv = ["verify", "--theorem", "eleven_points", "--samples", "20", "--seed", "3"]
    monkeypatch.setenv("DISKGEOM_TOL", "1e-30")
    assert main(argv) == 0
    assert main([*argv, "--tol", "1e-30"]) == 1


def test_verify_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--theorem", "lens_lemma", "--samples", "10",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert reports[0]["theorem_id"] == "lens_lemma"
    assert reports[0]["passed"] is True


def test_verify_all_prints_and_writes_every_check_in_registry_order(tmp_path, capsys):
    out = tmp_path / "all.json"
    code = main(["verify", "--theorem", "all", "--samples", "12", "--seed", "8",
                 "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    reports = json.loads(out.read_text())
    assert code == 0
    assert [r["theorem_id"] for r in reports] == list(CHECKS)
    assert [line.split(":")[0] for line in lines] == [f"PASS {tid}" for tid in CHECKS]
    expected = run_all(12, 8)
    for report, line, want in zip(reports, lines, expected):
        assert report | {"wall_time_s": 0} == want.to_dict() | {"wall_time_s": 0}
        assert line.endswith(f"({want.evaluated}/12 samples)")


def test_report_files_are_the_asdict_json_byte_for_byte(tmp_path, monkeypatch, capsys):
    from diskgeom import verify
    seen = []
    run = verify.run_all
    monkeypatch.setattr(verify, "run_all", lambda *a: seen.extend(run(*a)) or seen)
    out = tmp_path / "all.json"
    main(["verify", "--theorem", "all", "--samples", "12", "--seed", "8",
          "--out", str(out)])
    assert out.read_text() == json.dumps([dataclasses.asdict(r) for r in seen], indent=2)
    capsys.readouterr()
    out = tmp_path / "conjecture.json"
    main(["conjecture", "--samples", "1", "--seed", "2", "--out", str(out)])
    assert out.read_text() + "\n" == capsys.readouterr().out


# ---------------------------------------------------------------------------
# conjecture subcommand


def test_conjecture_report(capsys):
    code = main(["conjecture", "--samples", "20", "--seed", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theorem_id"] == "conjecture"
    assert doc["possible_counterexample"] is False
    assert doc["evaluated"] >= 18


def test_conjecture_single_sample_echoes_configuration(capsys):
    code = main(["conjecture", "--samples", "1", "--seed", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["sample"]) == {"a", "b", "c", "d", "h", "g", "j", "k", "l"}


# ---------------------------------------------------------------------------
# figure subcommand


def test_figure_json(capsys):
    code = main(["figure", "--id", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["figure"] == 1
    k = complex(*doc["points"]["k"])
    assert abs(k - complex(-1.396, -1.145)) <= 2e-3 * 2


def test_figure_svg(tmp_path):
    out = tmp_path / "fig.svg"
    code = main(["figure", "--id", "3", "--format", "svg", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert "p_c" in text


def test_figure_unknown_id_exits_2(capsys):
    assert main(["figure", "--id", "4"]) == 2
    assert "unknown figure id" in capsys.readouterr().err


@pytest.mark.parametrize("fig_id", [1, 2, 3, 5, 6])
def test_all_figures_render(fig_id, capsys):
    assert main(["figure", "--id", str(fig_id), "--format", "svg"]) == 0
    assert capsys.readouterr().out.startswith("<svg")
