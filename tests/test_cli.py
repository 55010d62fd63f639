"""Tests for the command-line interface."""

import json
import math

import pytest

from diskgeom.cli import format_complex, main, parse_complex

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


def test_parse_polar():
    z = parse_complex("0.7@1.0")
    assert abs(z) == pytest.approx(0.7)
    assert math.atan2(z.imag, z.real) == pytest.approx(1.0)


def test_parse_rejects_garbage():
    for bad in ("", "abc", "1+2j", "0.5@", "@1"):
        with pytest.raises(ValueError):
            parse_complex(bad)


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
def test_points_near_boundary_exits_2(b, capsys):
    # |a| is within rounding of 1: a typed refusal, not a traceback
    assert main(["points", "--a", "0.155022086178662-0.987911004492214i",
                 "--b", b]) == 2
    assert "NearBoundary" in capsys.readouterr().err


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
