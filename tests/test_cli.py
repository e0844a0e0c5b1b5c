import json

import pytest

from coalition_lp import asymptotics, lp
from coalition_lp.asymptotics import curve_from_csv, convergence_from_csv
from coalition_lp.cli import main, parse_grid

TINY = '{"m": 3, "votes": [{"ranking": [0,1,2], "count": 4}, {"ranking": [1,0,2], "count": 3}, {"ranking": [2,1,0], "count": 1}]}'
UNREACHABLE = (
    '{"m": 3, "votes": ['
    '{"ranking": [0,1,2], "count": 3}, {"ranking": [0,2,1], "count": 1}, '
    '{"ranking": [1,0,2], "count": 1}, {"ranking": [1,2,0], "count": 3}, '
    '{"ranking": [2,1,0], "count": 2}]}'
)


def test_parse_grid():
    assert parse_grid("0:2.5:0.05") == [round(0.05 * i, 10) for i in range(51)]
    assert parse_grid("1:1:0.5") == [1.0]
    with pytest.raises(ValueError):
        parse_grid("0:1")
    with pytest.raises(ValueError):
        parse_grid("0:1:-0.1")
    with pytest.raises(ValueError):
        parse_grid("2:1:0.1")


def test_polytope_command(capsys):
    assert main(["polytope", "--rule", "borda", "--m", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [1.5, 1.5] in data["vertices"]
    dot = data["sigma_scaled_dots"][0]
    assert dot[0] == pytest.approx(0.559017, abs=1e-5)
    assert data["rays"] == []


def test_polytope_exact_fractions(capsys):
    assert main(["polytope", "--rule", "borda", "--m", "4", "--exact"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert ["3/2", "3/2"] in data["vertices"]
    assert data["optimal_dots"] == [["3/2", "3/2"]]


def test_polytope_ray(capsys):
    assert main(["polytope", "--rule", "antiplurality", "--m", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rays"] == [[0.0, 1.0]]


def test_gw_command_round_trip(tmp_path):
    out = tmp_path / "curve.csv"
    args = ["gw", "--rule", "borda", "--m", "3", "--grid", "0.5:1.5:0.5",
            "--samples", "50000", "--seed", "7", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    meta, curve = curve_from_csv(out.read_text())
    assert meta["rule"] == "borda" and curve.samples == 50_000
    assert curve.g_hat[1] == pytest.approx(0.660, abs=0.02)
    assert main(args) == 0
    assert out.read_bytes() == first


def test_gw_threads_do_not_change_output(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["gw", "--rule", "plurality", "--m", "3", "--grid", "0.5:1:0.25",
            "--samples", "300000", "--seed", "3"]
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(base + ["--threads", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compare_command(capsys):
    assert main(["compare", "--rule-a", "plurality", "--rule-b", "borda", "--m", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "dominated_by"
    assert data["method"] == "analytic-coefficient"
    assert data["coefficient_b"] == pytest.approx(1.0)


def test_exact_command(tmp_path, capsys):
    prof = tmp_path / "tiny.json"
    prof.write_text(TINY)
    assert main(["exact", "--profile", str(prof), "--rule", "plurality"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mcs"] == 1
    assert data["target"] == 1
    assert {"ranking": [2, 1, 0], "count": 1} in data["witness"]["recruits"]


def test_exact_unreachable(tmp_path, capsys):
    prof = tmp_path / "stuck.json"
    prof.write_text(UNREACHABLE)
    assert main(["exact", "--profile", str(prof), "--rule", "antiplurality"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mcs"] == "unreachable"
    assert data["witness"] is None
    assert "inf" not in prof.read_text()


def test_converge_command(tmp_path):
    out = tmp_path / "ks.csv"
    assert main(["converge", "--rule", "borda", "--m", "3", "--n-list", "100,1000",
                 "--trials", "4000", "--limit-samples", "50000",
                 "--grid", "0:2:0.1", "--out", str(out)]) == 0
    meta, pts = convergence_from_csv(out.read_text())
    assert meta["m"] == 3
    assert [p.n for p in pts] == [100, 1000]
    assert pts[1].ks <= pts[0].ks + 0.05


def test_qvalue_command(capsys):
    assert main(["qvalue", "--rule", "borda", "--m", "4", "--margins", "3,1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["q"] == 6.0
    assert data["scoreboard_valid"] is True
    assert data["optimal_vertices"] == [[1.5, 1.5]]
    assert main(["qvalue", "--rule", "antiplurality", "--m", "3",
                 "--margins", "2,1/2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["q"] == "unreachable"
    assert data["optimal_vertices"] == []


def test_validation_exit_codes(tmp_path, capsys):
    assert main(["polytope", "--rule", "condorcet", "--m", "3"]) == 2
    assert main(["exact", "--profile", str(tmp_path / "nope.json"),
                 "--rule", "borda"]) == 2
    assert main(["gw", "--rule", "borda", "--m", "3", "--grid", "bad"]) == 2
    assert main(["gw", "--rule", "borda", "--m", "3", "--samples", "100"]) == 2
    assert main(["qvalue", "--rule", "borda", "--m", "3", "--margins", "1"]) == 2
    assert main(["compare", "--rule-a", "weights:1,0.7,0", "--rule-b", "weights:1,0.6,0",
                 "--m", "3", "--grid", "0:0.5:0.1", "--samples", "20000"]) == 2
    capsys.readouterr()


def test_numerical_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise lp.NumericalFailure("synthetic pivot failure")

    monkeypatch.setattr(asymptotics, "gw_curve", boom)
    assert main(["gw", "--rule", "borda", "--m", "3", "--samples", "20000"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err


def test_malformed_profile_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["exact", "--profile", str(bad), "--rule", "borda"]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text('{"votes": []}')
    assert main(["exact", "--profile", str(schema), "--rule", "borda"]) == 2


@pytest.mark.parametrize("argv", [
    ["polytope", "--rule", "weights:0,1,2", "--m", "3"],
    ["polytope", "--rule", "weights:1,1,1", "--m", "3"],
    ["polytope", "--rule", "weights:1,0", "--m", "2"],
    ["polytope", "--rule", "weights:1,nan,0", "--m", "3"],
    ["exact", "--profile", "{m9}", "--rule", "borda"],
    ["gw", "--rule", "borda", "--m", "3", "--grid", "0:inf:0.1"],
    ["gw", "--rule", "borda", "--m", "3", "--grid", "0:1:1e-9"],
    ["converge", "--rule", "borda", "--m", "3", "--n-list", "100", "--trials", "0"],
])
def test_invalid_input_is_one_line_exit_2(argv, tmp_path, capsys):
    m9 = tmp_path / "m9.json"
    m9.write_text('{"m": 9, "votes": []}')
    assert main([str(m9) if a == "{m9}" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
