import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


BAD_PROFILES = {
    "{m9}": '{"m": 9, "votes": []}',
    "{count-fraction}": '{"m": 3, "votes": [{"ranking": [0,1,2], "count": 1.5}]}',
    "{count-bool}": '{"m": 3, "votes": [{"ranking": [0,1,2], "count": true}]}',
    "{count-string}": '{"m": 3, "votes": [{"ranking": [0,1,2], "count": "3"}]}',
    "{ranking-int}": '{"m": 3, "votes": [{"ranking": 5, "count": 1}]}',
    "{votes-int}": '{"m": 3, "votes": 7}',
    "{good}": '{"m": 3, "votes": [{"ranking": [0,1,2], "count": 2}, {"ranking": [1,0,2], "count": 1}]}',  # valid; its case has a bad --seed
}


@pytest.mark.parametrize("argv", [
    ["polytope", "--rule", "weights:0,1,2", "--m", "3"],
    ["polytope", "--rule", "weights:1,1,1", "--m", "3"],
    ["polytope", "--rule", "weights:1,0", "--m", "2"],
    ["polytope", "--rule", "weights:1,nan,0", "--m", "3"],
    ["exact", "--profile", "{m9}", "--rule", "borda"],
    ["gw", "--rule", "borda", "--m", "3", "--grid", "0:inf:0.1"],
    ["gw", "--rule", "borda", "--m", "3", "--grid", "0:1:1e-9"],
    ["converge", "--rule", "borda", "--m", "3", "--n-list", "100", "--trials", "0"],
    ["exact", "--profile", "{count-fraction}", "--rule", "borda"],
    ["exact", "--profile", "{count-bool}", "--rule", "borda"],
    ["exact", "--profile", "{count-string}", "--rule", "borda"],
    ["exact", "--profile", "{ranking-int}", "--rule", "borda"],
    ["exact", "--profile", "{votes-int}", "--rule", "borda"],
    ["qvalue", "--rule", "borda", "--m", "3", "--margins", "1,1/0"],
    ["polytope", "--rule", "weights:1,1/0,0", "--m", "3"],
    ["qvalue", "--rule", "borda", "--m", "3", "--margins", "1e400,1"],
    ["qvalue", "--rule", "borda", "--m", "3", "--margins", "1e308,1e308"],
    ["gw", "--rule", "borda", "--m", "3", "--samples", "20000", "--threads", "0"],
    ["compare", "--rule-a", "borda", "--rule-b", "plurality", "--m", "3", "--threads", "-1"],
    ["gw", "--rule", "borda", "--m", "3", "--samples", "20000", "COALITION_LP_THREADS=abc"],
    ["gw", "--rule", "borda", "--m", "3", "--samples", "20000", "COALITION_LP_THREADS=0"],
    ["gw", "--rule", "borda", "--m", "3", "--samples", "20000", "--seed", "-1"],
    ["polytope", "--rule", "borda", "--m", "3", "--seed", "-1"],
    ["qvalue", "--rule", "borda", "--m", "3", "--margins", "1,2", "--seed", "-1"],
    ["exact", "--profile", "{good}", "--rule", "borda", "--seed", "-1"],
    ["polytope", "--rule", "weights:1,inf,0", "--m", "3"],
    ["polytope", "--rule", "weights:1,x,0", "--m", "3"],
])
def test_invalid_input_is_one_line_exit_2(argv, tmp_path, capsys, monkeypatch):
    files = {}
    for key, text in BAD_PROFILES.items():
        files[key] = tmp_path / (key.strip("{}") + ".json")
        files[key].write_text(text)
    env = [a for a in argv if a.startswith("COALITION_LP_THREADS=")]
    for a in env:
        monkeypatch.setenv("COALITION_LP_THREADS", a.split("=", 1)[1])
    flags = [a for a in argv if a.startswith("--")] + [a.split("=")[0] for a in env]
    argv = [a for a in argv if a not in env]
    assert main([str(files[a]) if a in files else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    for name in ("--seed", "--threads", "COALITION_LP_THREADS"):
        assert name in captured.err or name not in flags
    for part in ("inf", "nan", "x"):
        if f"weights:1,{part},0" in argv:
            assert captured.err == f"error: weight {part!r} is not a number\n"


# Argument pieces for the fuzz test.  Each strategy draws a well-formed value
# about half the time, so the fuzz reaches the computations as well as the
# validation.
FAMILIES = ("borda", "plurality", "antiplurality", "approval:2", "approval:x", "condorcet")
GOOD_WEIGHTS = ("1", "3/4", "2/3", "1/2", "0.3", "1e-3", "0")  # decreasing
NUMBERS = GOOD_WEIGHTS + ("2", "-1", "nan", "inf", "1/0", "x", "")
GOOD_GRIDS = ("0:2.5:0.05", "0:1:0.25", "1:1:0.5")
BAD_GRIDS = ("0:1", "2:1:0.1", "0:1:0", "0:inf:1", "a:b:c", "0:1:1e-9")
GOOD_N_LISTS = ("10,20", "5", "3,7,20")
BAD_N_LISTS = ("0", "-1,4", "", "a")
ms = st.sampled_from(["3", "3", "4", "4", "5", "9", "2", "x"])
seeds = st.integers(0, 3).map(str)
threads = st.sampled_from(["1", "2"])
json_junk = st.sampled_from([-1, 1.5, True, "3", None, 7])
rankings = st.permutations(range(3)).map(list)
good_votes = st.fixed_dictionaries({"ranking": rankings, "count": st.integers(0, 5)})
bad_votes = st.fixed_dictionaries({
    "ranking": st.one_of(rankings, st.sampled_from([5, [0, 1], [0, 1, 1], ["a", 1, 2]])),
    "count": st.one_of(st.integers(0, 5), json_junk),
})
profiles = st.fixed_dictionaries({
    "m": st.one_of(st.just(3), json_junk),
    "votes": st.one_of(st.lists(good_votes, min_size=1, max_size=4),
                       st.lists(bad_votes, max_size=3), json_junk),
}).map(json.dumps)


def either(good, bad):
    return st.one_of(st.sampled_from(good), st.sampled_from(bad))


@st.composite
def rules(draw, m):
    """A rule string for --m m: a family, m decreasing weights, or arbitrary weights."""
    kind = draw(st.sampled_from(["family", "family", "weights", "weights", "junk"]))
    if kind == "family":
        return draw(st.sampled_from(FAMILIES))
    pool = GOOD_WEIGHTS if kind == "weights" else NUMBERS
    size = int(m) if kind == "weights" and m.isdigit() else draw(st.integers(1, 4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    return "weights:" + ",".join(pool[i] for i in sorted(picks))


@st.composite
def argvs(draw):
    """(argv, profile JSON or None) for one command of the CLI."""
    command = draw(st.sampled_from(["polytope", "qvalue", "exact", "gw", "compare", "converge"]))
    seed = ["--seed", draw(seeds)]
    if command == "exact":
        strict = draw(st.sampled_from([[], ["--strict-win"]]))
        argv = ["exact", "--profile", "{profile}", "--rule", draw(rules("3"))] + strict + seed
        return argv, draw(profiles)
    m = draw(ms)
    if command == "compare":
        argv = ["compare", "--rule-a", draw(rules(m)), "--rule-b", draw(rules(m)), "--m", m,
                "--samples", "10000", "--threads", draw(threads)]
        grid = draw(st.sampled_from([None, *GOOD_GRIDS, *BAD_GRIDS]))
        return argv + (["--grid", grid] if grid else []) + seed, None
    argv = [command, "--rule", draw(rules(m)), "--m", m] + seed
    if command == "polytope":
        argv += draw(st.sampled_from([[], ["--exact"]]))
    elif command == "qvalue":
        size = draw(st.sampled_from([2, 2, 1, 3]))
        argv += ["--margins", ",".join(draw(st.lists(st.sampled_from(NUMBERS), min_size=size,
                                                     max_size=size)))]
    elif command == "gw":
        argv += ["--grid", draw(either(GOOD_GRIDS, BAD_GRIDS)), "--samples", "10000",
                 "--threads", draw(threads)]
    else:
        argv += ["--n-list", draw(either(GOOD_N_LISTS, BAD_N_LISTS)),
                 "--trials", str(draw(st.integers(-1, 200))),
                 "--grid", draw(either(GOOD_GRIDS, BAD_GRIDS)), "--limit-samples", "10000",
                 "--threads", draw(threads)]
    return argv, None


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=argvs())
def test_cli_never_raises(case, tmp_path, capsys):
    argv, profile = case
    if profile is not None:
        path = tmp_path / "profile.json"
        path.write_text(profile)
        argv = [str(path) if a == "{profile}" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a malformed flag value
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, profile, err)
    assert "Traceback" not in err, (argv, profile, err)
