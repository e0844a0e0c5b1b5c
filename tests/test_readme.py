"""README's Library example runs as its comments say, and every code name it gives exists."""

import ast
import re
from fractions import Fraction
from pathlib import Path

from coalition_lp.asymptotics import Verdict
from coalition_lp.exact import ManipulationInstance, verify_integral_plan

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


# README names these, but no code defines them: environment variables and a CLI output value
NOT_DEFINED_IN_CODE = {"COALITION_LP_THREADS", "OPENBLAS_CORETYPE", "dominated_by"}


def test_readme_code_names_exist():
    """Every backticked snake_case name in README is defined in src/ or tests/.

    A definition is a def, a class or an assignment; dunders are exempt.
    """
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    names = {s for s in spans if "_" in s and re.fullmatch(r"[A-Za-z_]\w*", s)}
    defined = set()
    for path in sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("tests/**/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    missing = {n for n in names - defined - NOT_DEFINED_IN_CODE if not n.startswith("__")}
    assert not missing, sorted(missing)
