"""Running one benchmark job and checking its output.

A job is either a CLI call, ``ribce.cli.main(argv)`` with stdout captured,
or a library call with no CLI subcommand (the symmetric gap test), whose
result the benchmark prints as JSON the way the CLI would.  Either way the
job yields the exact bytes of its report, which the checks below parse and
the digest check hashes.
"""

import contextlib
import hashlib
import io
import json
import os
import time
from fractions import Fraction


def _json_bytes(report) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def _gap_test(path):
    from ribce.io import load_game
    from ribce.rational import rational_to_json
    from ribce.welfare import binary_symmetric_gap_test

    gap, diag = binary_symmetric_gap_test(load_game(path))
    return {
        "gap_strict": gap,
        "relaxed_value": rational_to_json(diag["relaxed_value"]),
        "per_action": {
            str(a): {key: rational_to_json(val) for key, val in entry.items()}
            for a, entry in diag["per_action"].items()
        },
    }


def run(job, work_dir):
    """Execute one job; returns (exit code, stdout bytes, wall s, cpu s).

    Exceptions are not caught here: the caller counts them as failures."""
    from ribce import cli

    buf = io.StringIO()
    if job["argv"] is not None:
        argv = [os.path.join(work_dir, a) if a.endswith(".json") else a for a in job["argv"]]
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return code, buf.getvalue().encode(), wall, cpu
    path = os.path.join(work_dir, job["call"]["game"])
    wall0, cpu0 = time.perf_counter(), time.process_time()
    report = _gap_test(path)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return 0, _json_bytes(report), wall, cpu


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Invariants.  Each check returns a list of problems; empty means correct.
# Expected values are computed here from the job's parameters with
# ``fractions.Fraction``, independently of the package.


def _f(value) -> Fraction:
    return Fraction(value) if isinstance(value, int) else Fraction(str(value))


def _params(check):
    k, x = _f(check["k"]), _f(check["x"])
    prior = [_f(q) for q in check["prior"]]
    return check["n"], k, x, check["thresholds"], prior


def wlower_closed_form(check) -> Fraction:
    """-n*x*k/(1+x): the worst case under acquired information."""
    n, k, x, _, _ = _params(check)
    return -n * x * k / (1 + x)


def gap_closed_form(check) -> bool:
    """The regime-change cutoff inequality
    F(t*)(t* - E[theta | theta <= t*]) < kappa(3 - 3 kappa + t* - E[theta]),
    t* the smallest threshold whose CDF reaches kappa = k/(1+x)."""
    n, k, x, thresholds, prior = _params(check)
    kappa = k / (1 + x)
    cdf = Fraction(0)
    for t, q in zip(thresholds, prior):
        cdf += q
        if cdf >= kappa:
            t_star, cdf_star = t, cdf
            break
    mean = sum(q * t for t, q in zip(thresholds, prior))
    mean_below = sum(q * t for t, q in zip(thresholds, prior) if t <= t_star)
    return cdf_star * t_star - mean_below < kappa * (3 - 3 * kappa + t_star - mean)


def _regime(job, report, results, work_dir):
    check = job["check"]
    problems = []
    w_lower = wlower_closed_form(check)
    ri = _f(report["worst_case"]["rational_inattention"])
    ex = _f(report["worst_case"]["exogenous_information"])
    if _f(report["w_lower_closed_form"]) != w_lower:
        problems.append("reported closed form differs from -n*x*k/(1+x)")
    if ri != w_lower:
        problems.append("count-space worst case differs from the closed form")
    if ri > ex:
        problems.append("rational-inattention worst case exceeds the exogenous one")
    if report["gap"] != gap_closed_form(check):
        problems.append("reported gap differs from the cutoff inequality")
    if report["gap"] != (ri < ex):
        problems.append("gap verdict disagrees with the two worst cases")
    if job["kind"] == "regime_full":
        full = report["full_game"]
        if _f(full["rational_inattention"]) != ri:
            problems.append("full-game rational-inattention worst case differs from count space")
        if _f(full["exogenous_information"]) != ex:
            problems.append("full-game exogenous worst case differs from count space")
    return problems


def _gap_regime(job, report, results, work_dir):
    if report["gap_strict"] != gap_closed_form(job["check"]):
        return ["gap test verdict differs from the cutoff inequality"]
    return []


def _worst_cases(block):
    return (
        _f(block["worst_case"]["rational_inattention"]),
        _f(block["worst_case"]["exogenous_information"]),
    )


def _welfare(job, report, results, work_dir):
    ri, ex = _worst_cases(report)
    problems = []
    if ri > ex:
        problems.append("rational-inattention worst case exceeds the exogenous one")
    gap_job = job["check"].get("gap_of")
    if gap_job is not None and results[gap_job]["gap_strict"] != (ri < ex):
        problems.append("gap test verdict disagrees with the two worst cases")
    return problems


def _analyze(job, report, results, work_dir):
    problems = []
    ri, ex = _worst_cases(report["welfare"])
    if ri > ex:
        problems.append("rational-inattention worst case exceeds the exogenous one")
    if report["outcome_check"]["is_bce"] is not True:
        problems.append("generated BCE reported as not obedient")
    return problems


def _check_outcome(job, report, results, work_dir):
    problems = []
    if report["is_bce"] is not True:
        problems.append("generated BCE reported as not obedient")
    if report["is_sbce"] != (report["is_bce"] and report["is_separated"]):
        problems.append("is_sbce is not is_bce and is_separated")
    for player, vals in report.get("value_intervals", {}).items():
        if _f(vals["lower"]) > _f(vals["upper"]):
            problems.append(f"value interval of {player} is empty")
    return problems


def _perturb(job, report, results, work_dir):
    problems = []
    epsilon = _f(job["check"]["epsilon"])
    if report["outcome_is_sbce_in_perturbed_game"] is not True:
        problems.append("outcome is not an sBCE of the perturbed game")
    if _f(report["max_utility_change"]) > epsilon:
        problems.append("reported perturbation exceeds epsilon")
    with open(os.path.join(work_dir, job["check"]["game"]), encoding="utf-8") as fh:
        original = json.load(fh)["utilities"]
    perturbed = report["perturbed_game"]["utilities"]
    dist = max(
        abs(_f(perturbed[i][cell]) - _f(u)) for i, table in original.items() for cell, u in table.items()
    )
    if dist > epsilon or dist != _f(report["max_utility_change"]):
        problems.append("perturbed utilities are not within the reported distance")
    return problems


def _canonical(job, report, results, work_dir):
    return [] if report["round_trip_exact"] is True else ["canonical round trip is not exact"]


def _verdict(job, report, results, work_dir):
    expected = job["check"].get("verdict")
    if expected is not None and report["verdict"] != expected:
        return [f"verdict {report['verdict']!r}, expected {expected!r}"]
    return []


CHECKS = {
    "regime_full": _regime,
    "regime_count": _regime,
    "gap_regime": _gap_regime,
    "gap_random": lambda *args: [],  # checked by the welfare job after it
    "welfare": _welfare,
    "analyze": _analyze,
    "check_outcome": _check_outcome,
    "perturb": _perturb,
    "canonical": _canonical,
    "vce": _verdict,
    "density_exact": _verdict,
    "vce_exact": _verdict,
}


def check(job, report, results, work_dir):
    """Problems with one job's parsed report; ``results`` maps earlier job
    ids of the same pass to their reports."""
    return CHECKS[job["kind"]](job, report, results, work_dir)
