import hashlib
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coalition_lp
from coalition_lp import asymptotics, lp
from coalition_lp.asymptotics import curve_from_csv, convergence_from_csv
from coalition_lp.cli import main, parse_grid
from coalition_lp.election import sample_ic

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


def test_converge_at_m8_stays_small(tmp_path):
    """m = 8 draws 40,320 type counts a profile; 200 profiles at once traced ~123 MB."""
    out = tmp_path / "conv.csv"
    tracemalloc.start()
    try:
        assert main(["converge", "--rule", "borda", "--m", "8", "--n-list", "80", "--trials", "200",
                     "--limit-samples", "10000", "--threads", "2", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, peak
    meta, (point,) = convergence_from_csv(out.read_text())
    assert meta["m"] == 8 and point.n == 80 and 0 < point.trials_used <= 200


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


# Runs main on each argv of a JSON list, then prints which of numpy and scipy are loaded.
LOADED_AFTER = """
import json, sys
from coalition_lp.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted({name.split(".")[0] for name in sys.modules} & {"numpy", "scipy"})))
"""


def _loaded_after(argvs):
    src = str(Path(coalition_lp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", LOADED_AFTER, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_load_only_what_they_run(tmp_path):
    prof = tmp_path / "tiny.json"
    prof.write_text(TINY)
    exact_paths = [["exact", "--profile", str(prof), "--rule", "plurality"],
                   ["polytope", "--rule", "borda", "--m", "6"],
                   ["qvalue", "--rule", "borda", "--m", "4", "--margins", "3,1"]]
    assert _loaded_after(exact_paths) == []
    sampling = [["gw", "--rule", "borda", "--m", "3", "--samples", "20000"],
                ["compare", "--rule-a", "weights:1,0.7,0", "--rule-b", "antiplurality",
                 "--m", "3", "--samples", "20000"],
                ["converge", "--rule", "borda", "--m", "3", "--n-list", "50", "--trials", "200",
                 "--limit-samples", "20000"]]
    assert _loaded_after(sampling) == ["numpy"]


def test_public_names_are_served_from_their_modules():
    from coalition_lp import gw_curve

    assert gw_curve is asymptotics.gw_curve and coalition_lp.gap_cdf is asymptotics.gap_cdf
    names = coalition_lp.__all__
    assert len(names) == len(set(names)) == 58
    for name in names:
        home = importlib.import_module(f"coalition_lp.{coalition_lp._HOME[name]}")
        assert getattr(coalition_lp, name) is getattr(home, name)
    star = {}
    exec("from coalition_lp import *", star)
    assert star.keys() - {"__builtins__"} == set(names)
    assert coalition_lp.reduction is importlib.import_module("coalition_lp.reduction")
    with pytest.raises(AttributeError):
        coalition_lp.no_such_name


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
    ["converge", "--rule", "borda", "--m", "3", "--n-list", "99999999999999999999"],
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


# --------------------------------------------------------------------- #
# Pinned CLI output
# --------------------------------------------------------------------- #

PIN_MARGINS = ("3,1", "0,0", "1,-1", "5,1/3", "2,-1/2", "1,1", "4,-4", "0.1,0.05")


def _pin_rules(m):
    """Borda, plurality, anti-plurality, 2-approval and two weight rules, one with decimals."""
    halves = "weights:" + ",".join(("1", *("1/2",) * (m - 2), "0"))
    decimals = "weights:" + ",".join(("1", *(f"0.{9 - i}" for i in range(m - 2)), "0"))
    return ("borda", "plurality", "antiplurality", "approval:2", halves, decimals)


def _pin_argvs(tmp_path):
    """{group: [argv, ...]}: polytope and qvalue per m = 3..8, exact on seed-9 m = 4 profiles.

    Each m's qvalue margins add (m-1, 1), on the upper edge b_deficit = a_margin/(m-1).
    """
    groups = {}
    for m in range(3, 9):
        margins = (*PIN_MARGINS, f"{m - 1},1")
        polytope = groups.setdefault(f"polytope m={m}", [])
        qvalue = groups.setdefault(f"qvalue m={m}", [])
        for rule in _pin_rules(m):
            args = ["--rule", rule, "--m", str(m)]
            polytope += [["polytope", *args], ["polytope", *args, "--exact"]]
            qvalue += [["qvalue", *args, "--margins", pair] for pair in margins]
    exact = groups.setdefault("exact m=4", [])
    for n, i in ((50, 0), (50, 1), (200, 0)):
        path = tmp_path / f"ic-{n}-{i}.json"
        path.write_text(sample_ic(n, 4, (9, n, i)).to_json())
        for rule in ("borda", "plurality", "antiplurality", "weights:1,1/2,1/4,0"):
            exact += [["exact", "--profile", str(path), "--rule", rule, *flag]
                      for flag in ([], ["--strict-win"])]
    return groups


# Recorded while verify_plan, scoreboard_valid, optimal_vertex_set and closed_form_q still
# had float branches; the CLI reads every number with Fraction, so none of its output moved.
PINNED_CLI_OUTPUT = {
    "polytope m=3": (12, "b984ce9580daf32bac69ee87b91adedee7d866f670d85a7064a68a74a3fd19b6"),
    "qvalue m=3": (54, "c513f355527f651df181d99d6514ff97c898d0a99caaecf591d99e9cf9d9a8f0"),
    "polytope m=4": (12, "4b51492da0de272a5ab60be35f50df35f97c7eee0a08cdf5aa718b15ecf75ff7"),
    "qvalue m=4": (54, "51dac0d7d2b5e9971a556edf12b46d0bd2574938c1aafea062bd21ff0105aa4f"),
    "polytope m=5": (12, "e2a26e49520bb0a989aa1f8a8813dfd8eb4240c107e91101b506d11569bfe8ed"),
    "qvalue m=5": (54, "60f598298d051f85a72cf71cd4186fe4c248d972e1d1fda05ee79c7519649c4e"),
    "polytope m=6": (12, "6cb2ff9b4c72662f676702263fd4c5faf676b585041f5231281bb8a36b08fa83"),
    "qvalue m=6": (54, "435fd285e305b89ec7f7fa9f4a43689c8e76c5a430e403249929043b337bd459"),
    "polytope m=7": (12, "aaf3d04e65eaae0e613588affd67d7e4ed6085a879529319791058651138c2ce"),
    "qvalue m=7": (54, "533b23f64bad09e3d22c67a2b63098e25157b58c9fc26ba4156cd2ff5dd99a79"),
    "polytope m=8": (12, "6db6cc28e8d373ac296e6e470323e9083bbe879e2227470c6c439a1ef66f495c"),
    "qvalue m=8": (54, "1f53a982c9e03d4d3f3d8946459c73505276f031d7d96fcefaccaedd7180260f"),
    "exact m=4": (24, "bb3a6ca5c6792061d890c6347296dd80a69158c87d0c617361d3d3df49708db8"),
}


def test_cli_output_is_pinned(tmp_path, capsys):
    """sha256 of argv (profile paths by file name), exit code, stdout and stderr, per group."""
    got = {}
    for group, argvs in _pin_argvs(tmp_path).items():
        digest = hashlib.sha256()
        for argv in argvs:
            code = main(argv)
            captured = capsys.readouterr()
            shown = [a.replace(str(tmp_path), "<tmp>") for a in argv]
            digest.update(repr((shown, code, captured.out, captured.err)).encode())
        got[group] = (len(argvs), digest.hexdigest())
    assert got == PINNED_CLI_OUTPUT
