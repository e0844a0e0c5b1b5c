"""The three benchmark workloads: their inputs, their jobs and the checks on them.

A job is one closed-loop call into coalition_lp.  Every call goes through a
module attribute looked up at call time (``pkg.exact.mcs_outcome``), so the
tracer's wrappers see it.  Each job carries a check that needs no recorded
output (witness re-verification, primal against dual, thread-count
determinism, an analytic curve) and a key: a plain-data form of its output
that is compared with the recorded outputs in ``golden.json`` and with the
same job's output in its first run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 9  # the ROADMAP corpus seed

TIE = "tie"


@dataclass(eq=False)  # hashed by identity: a repeated Job is the same input
class Job:
    id: str
    call: Callable[[], object]
    check: Callable[[object, dict], list]  # (output, this pass's outputs by id) -> issues
    key: Callable[[object], object]
    inputs: dict | None = None


@dataclass
class Workload:
    name: str
    set_jobs: Callable[[int], list]  # input set number -> its jobs (set 0 warms up)
    threads: tuple
    cli_check: Callable[[str, dict], list]  # (scratch dir, pass-0 outputs by job id) -> issues
    notes: dict


def _fresh(set_jobs):
    """Build input set 0 now, as part of set-up; later sets are built between passes."""
    first = set_jobs(0)
    return lambda k: first if k == 0 else set_jobs(k)


def _num(value):
    """JSON form of an exact or float bound."""
    if value == math.inf:
        return "inf"
    if isinstance(value, float):
        return repr(value)
    return str(Fraction(value))


def _compare_golden(job_id, key, golden):
    if golden is None or job_id not in golden:
        return []
    want = golden[job_id]
    if want is None:  # the recorded run failed here; nothing to compare against
        return []
    return [] if key == want else [f"{job_id}: got {key}, recorded {want}"]


# --------------------------------------------------------------------- #
# exact-ic4: mcs_outcome on m = 4 impartial-culture profiles
# --------------------------------------------------------------------- #

EXACT_RULES = ("plurality", "borda", "approval:2", "antiplurality", "weights:1,1,1/2,0")
EXACT_N_TIMED = (50, 200)
EXACT_N_FULL = (50, 200, 1000)
EXACT_PROFILES = 8


def _relabel(pkg, profile, perm):
    counts = {tuple(perm[c] for c in ranking): k for ranking, k in profile.items()}
    return pkg.election.Profile.from_counts(profile.m, counts)


def exact_ic4(pkg, seed, golden, *, full=False, smoke=False):
    """ROADMAP corpus sample_ic(n, 4, (9, n, i)) under five rules.

    The timed job list keeps n in {50, 200}: at n = 1000 four of the 120
    default-seed jobs exhaust the node budget after about 30 s each, so they run
    only with --full, which draws the profiles from the given seed.  In input
    set k each profile's candidates are relabelled by the k-th of the 24
    permutations after a start drawn from (seed, profile), so the sets of a
    run go through each profile's labellings in turn instead of drawing some
    twice; set 0 of the default seed keeps the labels.  Relabelling moves the
    LP pivots and the search path (a pass's wall by up to 1.9x) but cannot
    move the mcs value, so every set is checked against the recorded values,
    and the target too where the labels are kept.
    """
    el = pkg.election
    if full:
        sizes, profiles, corpus_seed = EXACT_N_FULL, EXACT_PROFILES, seed
    else:
        sizes = EXACT_N_TIMED[:1] if smoke else EXACT_N_TIMED
        profiles = 2 if smoke else EXACT_PROFILES
        corpus_seed = DEFAULT_SEED
    perms = el.all_rankings(4)
    recorded = golden.get("exact-ic4") if corpus_seed == DEFAULT_SEED else None
    rules = {text: el.parse_rule(text, 4) for text in EXACT_RULES}
    base = [(n, i, el.sample_ic(n, 4, (corpus_seed, n, i)))
            for n in sizes for i in range(profiles)]

    def set_jobs(k):
        jobs = []
        for n, i, profile in base:
            perm = perms[0]
            if not full and (k or seed != DEFAULT_SEED):
                first_perm = random.Random(f"{seed}-{n}-{i}").randrange(len(perms))
                perm = perms[(first_perm + k) % len(perms)]
                profile = _relabel(pkg, profile, perm)
            for text, rule in rules.items():
                jobs.append(_exact_job(pkg, f"n{n}-i{i}-{text}", profile, rule, text,
                                       recorded, perm == perms[0]))
        return jobs

    def cli_check(scratch, outputs):
        job = next(j for j in first if outputs.get(j.id) not in (None, TIE))
        profile_path = os.path.join(scratch, "cli-profile.json")
        out_path = os.path.join(scratch, "cli-exact.json")
        with open(profile_path, "w") as fh:
            fh.write(job.inputs["profile"].to_json())
        code = pkg.cli.main(["exact", "--profile", profile_path, "--rule", job.inputs["rule"],
                             "--out", out_path])
        if code != 0:
            return [f"cli exact exited {code}"]
        with open(out_path) as fh:
            got = json.load(fh)
        want = job.key(outputs[job.id])
        if got["mcs"] != want["mcs"] or got["target"] != want["target"]:
            return [f"cli exact gave {got['mcs']}/{got['target']} on {job.id}, library {want}"]
        return []

    set_jobs = _fresh(set_jobs)
    first = set_jobs(0)
    return Workload("exact-ic4", set_jobs, (1,), cli_check,
                    {"corpus_seed": corpus_seed, "sizes": list(sizes), "profiles": profiles})


def _exact_job(pkg, job_id, profile, rule, rule_text, recorded, check_target):
    el, ex = pkg.election, pkg.exact

    def call():
        try:
            return pkg.exact.mcs_outcome(profile, rule)
        except ex.NotStrictWinner:
            return TIE

    def key(out):
        if out == TIE:
            return {"mcs": TIE, "target": None}
        mcs = "unreachable" if out.value == math.inf else int(out.value)
        return {"mcs": mcs, "target": out.target}

    def check(out, _outputs):
        issues = []
        if out == TIE:
            if el.top_two(el.scoreboard(profile, rule))[2]:
                issues.append(f"{job_id}: reported a tie on a strict scoreboard")
        elif out.value != math.inf:
            inst = ex.ManipulationInstance.from_profile(profile, rule, out.target)
            bad = ex.verify_integral_plan(inst, out.plan, tol=0)
            if bad or out.plan.size != out.value:
                issues.append(f"{job_id}: witness fails: {bad or 'size'}")
        want = (recorded or {}).get(job_id)
        got = key(out)
        if want is not None and (got["mcs"] != want["mcs"]
                                 or (check_target and got["target"] != want["target"])):
            issues.append(f"{job_id}: got {got}, recorded {want}")
        return issues

    return Job(job_id, call, check, key, {"profile": profile, "rule": rule_text})


# --------------------------------------------------------------------- #
# lp-bounds: the relaxation chain at m = 5 and 6
# --------------------------------------------------------------------- #

LP_N = 1000
LP_PROFILES = {5: 4, 6: 1}  # per input set
LP_RULES = ("plurality", "borda", "approval:2", "antiplurality")
LP_FLOAT_RULES = {5: (1.0, 0.7, 0.4, 0.15, 0.0), 6: (1.0, 0.8, 0.55, 0.3, 0.1, 0.0)}
FLOAT_RTOL = 1e-7


@dataclass
class Bounds:
    q3: object
    q_program2: object
    q_dual: object
    q_stratified: object
    z: object
    plan: object
    margins: object
    dots: tuple
    inst: object


def lp_bounds(pkg, seed, golden, *, full=False, smoke=False):
    """IC profiles sample_ic(1000, m, (seed, m, i)) at m = 5, 6, where exact search refuses.

    Input set k takes the next LP_PROFILES[m] indices i, so the sets of a
    run hold distinct profiles: one m = 6 profile costs 0.45-0.8 s, and a
    run then rests on some twenty of them instead of one.
    """
    el = pkg.election
    recorded = golden.get("lp-bounds") if seed == DEFAULT_SEED else None
    sizes = {5: 1} if smoke else LP_PROFILES
    rules = {}
    for m in sizes:
        rules[m] = {text: el.parse_rule(text, m) for text in LP_RULES}
        float_weights = LP_FLOAT_RULES[m]
        float_text = "weights:" + ",".join(f"{w:g}" for w in float_weights)
        rules[m][float_text] = el.normalize(float_weights)

    def set_jobs(k):
        jobs = []
        for m, count in sizes.items():
            for i in range(k * count, (k + 1) * count):
                profile = el.sample_ic(LP_N, m, (seed, m, i))
                for text, rule in rules[m].items():
                    jobs.append(_lp_job(pkg, f"m{m}-i{i}-{text}", profile, rule, recorded))
        return jobs

    def cli_check(scratch, outputs):
        job_id, out = next((i, o) for i, o in outputs.items()
                           if "borda" in i and o != TIE and o.q_dual != math.inf)
        out_path = os.path.join(scratch, "cli-qvalue.json")
        margins = f"{out.margins.a_margin},{out.margins.b_deficit}"
        code = pkg.cli.main(["qvalue", "--rule", "borda", "--m", str(out.inst.m),
                             "--margins", margins, "--out", out_path])
        if code != 0:
            return [f"cli qvalue exited {code}"]
        with open(out_path) as fh:
            got = json.load(fh)["q"]
        if abs(got - float(out.q_dual)) > 1e-9 * (1 + abs(float(out.q_dual))):
            return [f"cli qvalue gave {got} on {job_id}, library {out.q_dual}"]
        return []

    return Workload("lp-bounds", _fresh(set_jobs), (1,), cli_check,
                    {"n": LP_N, "profiles_per_set": sizes})


def _lp_job(pkg, job_id, profile, rule, recorded):
    el, ex, red = pkg.election, pkg.exact, pkg.reduction
    exact = rule.is_rational

    def call():
        board = pkg.election.scoreboard(profile, rule)
        try:
            inst = ex.ManipulationInstance.from_profile(profile, rule)
        except ex.NotStrictWinner:
            return TIE
        q3 = pkg.exact.q3(inst)
        qp2 = pkg.exact.q_program2_from_instance(inst)
        margins = red.MarginPair.from_scoreboard(board)
        poly = pkg.reduction.mw_polytope(rule)
        dots = pkg.reduction.cone_optimal_vertices(poly)
        qd = pkg.reduction.q_dual(margins, poly)
        qs, z = pkg.reduction.q_stratified(margins, rule)
        plan = pkg.reduction.witness_from_z(inst, z) if z is not None else None
        return Bounds(q3, qp2, qd, qs, z, plan, margins, dots, inst)

    def key(out):
        if out == TIE:
            return TIE
        return [_num(out.q3), _num(out.q_program2), _num(out.q_dual), _num(out.q_stratified)]

    def same(x, y):
        if x == math.inf or y == math.inf:
            return x == y
        if exact:
            return x == y
        return abs(x - y) <= FLOAT_RTOL * (1 + abs(x))

    def check(out, _outputs):
        if out == TIE:
            strict = el.top_two(el.scoreboard(profile, rule))[2]
            return [f"{job_id}: reported a tie on a strict scoreboard"] if strict else []
        issues = []
        if not (same(out.q_dual, out.q_program2) and same(out.q_dual, out.q_stratified)):
            issues.append(f"{job_id}: q_dual {out.q_dual}, q_program2 {out.q_program2}, "
                          f"q_stratified {out.q_stratified} differ")
        if out.q3 > out.q_program2 and not same(out.q3, out.q_program2):
            issues.append(f"{job_id}: q3 {out.q3} above q_program2 {out.q_program2}")
        if out.q_dual != math.inf:
            a, b = out.margins.a_margin, out.margins.b_deficit
            best = max(v[0] * a + v[1] * b for v in out.dots)
            if not same(best, out.q_dual):
                issues.append(f"{job_id}: cone-optimal vertices give {best}, q_dual {out.q_dual}")
        if out.z is not None:
            bad = ex.verify_stratified_plan(out.inst, out.plan, z=out.z,
                                            tol=0 if exact else 1e-7)
            if bad or not same(out.plan.size, out.q_stratified):
                issues.append(f"{job_id}: stratified witness fails: {bad or 'size'}")
        return issues + _compare_golden(job_id, key(out), recorded)

    return Job(job_id, call, check, key)


# --------------------------------------------------------------------- #
# mc-curves: the limit-law Monte Carlo
# --------------------------------------------------------------------- #

MC_RULES = (
    ("borda", 3), ("plurality", 4), ("weights:1,1,1/2,0", 4), ("antiplurality", 4),
    ("weights:1,5/6,1/3,1/4,0", 5), ("borda", 8),
)
MC_SAMPLES = 1 << 19  # two chunks, so threads=2 runs both at once
MC_SMOKE_SAMPLES = (1 << 18) + 20_000
PLATEAU_SAMPLES = 1 << 20
DOMINANCE = ("borda", "weights:1,1,1/2,0", 4)
# One thread and 400k draws put this job (~0.3 s) between the gw jobs at threads=1
# (0.14-0.2 s) and the convergence job (0.65 s).  At 200k it sat in the gap between
# the threads=2 and threads=1 gw jobs, where job_p50_ms falls, and moved it by 20%.
DOMINANCE_SAMPLES = 400_000
CONVERGE = ("borda", 5, (100, 1000), 20_000)
CONVERGE_LIMIT_SAMPLES = 1 << 19
CDF_SLACK_SE = 3.0  # extra worst-case standard errors allowed beyond the Wilson half-width


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def mc_curves(pkg, seed, golden, *, full=False, smoke=False):
    """gw_curve at threads 1 and 2 on six rules, plus plateau, dominance and convergence.

    Input set k draws from seeds (seed, k, ...); every pass takes a fresh set.
    """
    el, asy = pkg.election, pkg.asymptotics
    # the smoke slice draws fewer samples than were recorded
    recorded = golden.get("mc-curves") if seed == DEFAULT_SEED and not smoke else None
    samples = MC_SMOKE_SAMPLES if smoke else MC_SAMPLES
    grid = asy.DEFAULT_GRID
    models = [(text, m, pkg.asymptotics.limit_model(el.parse_rule(text, m)))
              for text, m in MC_RULES]

    def set_jobs(k):
        known = recorded if k == 0 else None  # outputs were recorded for set 0 only
        jobs = []
        for j, (text, m, model) in enumerate(models):
            for threads in (1, 2):
                jobs.append(_gw_job(pkg, f"gw-{text}-m{m}-t{threads}", model, text, m, grid,
                                    samples, (seed, k, j), threads, known))
        jobs.append(_plateau_job(pkg, (seed, k), samples, known, smoke))
        jobs.append(_dominance_job(pkg, (seed, k), known, smoke))
        jobs.append(_converge_job(pkg, (seed, k), known, smoke))
        return jobs

    def cli_check(scratch, outputs):
        text, m = MC_RULES[0]
        out_path = os.path.join(scratch, "cli-gw.csv")
        code = pkg.cli.main(["gw", "--rule", text, "--m", str(m), "--samples", str(samples),
                             "--seed", str(seed), "--threads", "2", "--out", out_path])
        if code != 0:
            return [f"cli gw exited {code}"]
        with open(out_path) as fh:
            got = fh.read()
        model = asy.limit_model(el.parse_rule(text, m))
        curve = asy.gw_curve(model, pkg.cli.parse_grid("0:2.5:0.05"), samples, seed, threads=1)
        want = asy.curve_to_csv(curve, text, m, seed)
        return [] if got == want else ["cli gw CSV differs from the library's"]

    return Workload("mc-curves", _fresh(set_jobs), (1, 2), cli_check,
                    {"samples": samples})


def _gw_job(pkg, job_id, model, text, m, grid, samples, seed, threads, recorded):
    asy = pkg.asymptotics

    def call():
        curve = pkg.asymptotics.gw_curve(model, grid, samples, seed, threads=threads)
        return asy.curve_to_csv(curve, text, m, seed)

    def check(out, outputs):
        issues = []
        if threads == 2:
            twin = outputs.get(job_id[:-1] + "1")
            if twin is not None and twin != out:
                issues.append(f"{job_id}: CSV differs from threads=1")
        elif model.c_w is not None:
            _meta, curve = asy.curve_from_csv(out)
            exact_g = asy.gap_cdf([v / model.c_w for v in curve.grid], m)
            slack = CDF_SLACK_SE * 0.5 / math.sqrt(samples) + 1e-6
            issues += [
                f"{job_id}: g({v}) = {g} but gap_cdf gives {e:.6f}"
                for v, g, h, e in zip(curve.grid, curve.g_hat, curve.ci_half_width, exact_g)
                if abs(g - e) > h + slack
            ]
        return issues + _compare_golden(job_id, _sha(out), recorded)

    return Job(job_id, call, check, _sha)


def _plateau_job(pkg, seed, samples, recorded, smoke):
    asy = pkg.asymptotics
    count = samples if smoke else PLATEAU_SAMPLES

    def call():
        return pkg.asymptotics.plateau_probability(4, count, seed=seed + (101,), threads=1)

    def key(out):
        return [repr(out[0]), repr(out[1])]

    def check(out, outputs):
        # plateau_probability estimates 1 - (manipulable share under anti-plurality).
        p, half = out
        csv = outputs.get("gw-antiplurality-m4-t1")
        issues = []
        if csv is not None:
            meta, curve = asy.curve_from_csv(csv)
            half_ap = asy.Z95 * 0.5 / math.sqrt(curve.samples)  # the widest 95% half-width
            slack = CDF_SLACK_SE * 0.5 * (1 / math.sqrt(count) + 1 / math.sqrt(curve.samples))
            if abs(p + meta["plateau"] - 1) > half + half_ap + slack + 1e-6:
                issues.append(f"plateau {p} does not complement the curve's {meta['plateau']}")
        return issues + _compare_golden("plateau-m4", key(out), recorded)

    return Job("plateau-m4", call, check, key)


def _dominance_job(pkg, seed, recorded, smoke):
    el = pkg.election
    text_a, text_b, m = DOMINANCE
    rule_a, rule_b = el.parse_rule(text_a, m), el.parse_rule(text_b, m)
    samples = 20_000 if smoke else DOMINANCE_SAMPLES

    def call():
        return pkg.asymptotics.dominates(rule_a, rule_b, samples=samples, seed=seed, threads=1)

    def key(out):
        return [out.verdict.value, out.method, out.notes]

    def check(out, _outputs):
        issues = []
        if out.method != "monte-carlo":
            issues.append(f"dominance took the {out.method} route, not Monte Carlo")
        return issues + _compare_golden("dominates-m4", key(out), recorded)

    return Job("dominates-m4", call, check, key)


def _converge_job(pkg, seed, recorded, smoke):
    el, asy = pkg.election, pkg.asymptotics
    text, m, n_list, trials = CONVERGE
    rule = el.parse_rule(text, m)
    limit_samples = MC_SMOKE_SAMPLES if smoke else CONVERGE_LIMIT_SAMPLES
    trials = 2_000 if smoke else trials

    def call():
        points = pkg.asymptotics.convergence_experiment(
            rule, n_list, trials, seed=seed, limit_samples=limit_samples, threads=2)
        return asy.convergence_to_csv(points, text, m, seed, trials)

    def check(out, _outputs):
        _meta, points = asy.convergence_from_csv(out)
        issues = [
            f"convergence at n={p.n}: ks {p.ks}, used {p.trials_used}, "
            f"unreachable {p.unreachable_fraction}"
            for p in points
            if not (0 <= p.ks <= 1 and 0 < p.trials_used <= trials and p.unreachable_fraction == 0)
        ]
        return issues + _compare_golden("converge-borda-m5", _sha(out), recorded)

    return Job("converge-borda-m5", call, check, _sha)


WORKLOADS = {"exact-ic4": exact_ic4, "lp-bounds": lp_bounds, "mc-curves": mc_curves}
