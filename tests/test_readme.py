"""README's Library example runs, and gives what its comments say."""

from fractions import Fraction
from pathlib import Path

from coalition_lp.asymptotics import Verdict
from coalition_lp.exact import ManipulationInstance, verify_integral_plan

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example():
    text = README.read_text().split("\n## Library\n", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs_as_commented():
    ns = {}
    exec(compile(_library_example(), str(README), "exec"), ns)
    out = ns["out"]  # exact integer answer with witness
    assert type(out.value) is int
    inst = ManipulationInstance.from_profile(ns["profile"], ns["rule"], out.target)
    assert verify_integral_plan(inst, out.plan) == []
    assert type(ns["value"]) is Fraction  # two-variable dual, exact Fraction
    assert ns["value2"] == ns["value"] and len(ns["z"]) == ns["rule"].m - 1
    assert ns["curve"].grid == (0.5, 1.0, 2.0)
    report = ns["report"]  # verdict: dominated_by, analytic route
    assert report.verdict is Verdict.DOMINATED_BY and report.method.startswith("analytic")
