"""The solver's answers, pinned.

``golden/lp_answers.json`` holds ``(status, basis, dropped_rows, value,
point)`` for the regime game at n=6, x=1/10 (in count space at full width,
every count 0..n per state, the uninformed-welfare program and the gross
program on its own rows, then the full game's two worst cases, as
``welfare_report`` solves them), for the LPs behind the investment game's
two worst cases, and for 60 seeded random LPs under both pivot rules.  The
simplex is deterministic, and its tableau may only change how rows are
scaled, never which pivot it takes, so any difference here is a bug.
Regenerate (only after an intended change of pivot choices) with
``PYTHONPATH=src python tests/test_lp_golden.py``.
"""

import json
import pathlib
import random

from ribce import lp as _lp
from ribce.rational import Rat
from ribce.regime import RegimeParams, build_regime_game
from ribce.welfare import welfare_report, worst_case_exogenous, worst_case_rational_inattention

from count_reference import gross_count_program, regime_reference, uninformed_program
from sample_games import investment_game
from sample_lps import FAMILIES, with_objective

GOLDEN = pathlib.Path(__file__).parent / "golden" / "lp_answers.json"
REGIME = RegimeParams(
    n=6, k=Rat(1, 2), x=Rat(1, 10), thresholds=(2, 3), prior={2: Rat(1, 2), 3: Rat(1, 2)}
)
PER_FAMILY = 12
RULES = ("dantzig", "bland")


def _lps_solved_by(run):
    """The program of every answer ``run()`` gets from ``Polyhedron.optimize``
    (through ``lp.solve`` or over a BCE polytope), under that answer's
    objective and sense, in call order."""
    seen = []
    original = _lp.Polyhedron.optimize

    def capture(poly, objective, sense="min"):
        sol = original(poly, objective, sense)
        seen.append(with_objective(sol.program, sol.objective, sol.sense))
        return sol

    _lp.Polyhedron.optimize = capture
    try:
        run()
    finally:
        _lp.Polyhedron.optimize = original
    return seen


def _regime_full_check():
    """The full-width count space's uninformed-welfare program and its gross
    program on its own rows (``count_reference``; ``regime.count_space``
    keeps only the corner counts of the same programs), then the full
    game's worst cases, in that order."""
    space = regime_reference(REGIME)
    full = _lps_solved_by(lambda: welfare_report(build_regime_game(REGIME)))
    return [uninformed_program(space), gross_count_program(space), *full]


def _programs():
    """(name, lp, rule) for every pinned solve."""
    out = []
    for k, lp in enumerate(_regime_full_check()):
        out.append((f"regime-full-check/{k}", lp, "dantzig"))
    game = investment_game(Rat(1, 10))
    worst_cases = lambda: (worst_case_exogenous(game), worst_case_rational_inattention(game))
    for k, lp in enumerate(_lps_solved_by(worst_cases)):
        out.append((f"investment-worst-cases/{k}", lp, "dantzig"))
    for family, make in FAMILIES.items():
        for seed in range(PER_FAMILY):
            lp = make(random.Random(f"{family}-{seed}"))
            for rule in RULES:
                out.append((f"{family}/{seed}/{rule}", lp, rule))
    return out


def _answer(sol):
    return {
        "status": sol.status,
        "basis": None if sol.basis is None else [repr(c) for c in sol.basis],
        "dropped_rows": list(sol.dropped_rows),
        "value": None if sol.value is None else str(sol.value),
        "point": None if sol.point is None else [[repr(v), str(x)] for v, x in sol.point.items()],
    }


def test_answers_match_golden():
    golden = json.loads(GOLDEN.read_text())
    programs = _programs()
    assert [name for name, _, _ in programs] == list(golden)
    for name, lp, rule in programs:
        sol = _lp.solve(lp, rule=rule)
        assert _answer(sol) == golden[name], name
        if sol.is_optimal:
            assert sol.verify()
    statuses = {entry["status"] for entry in golden.values()}
    assert statuses == {_lp.OPTIMAL, _lp.INFEASIBLE, _lp.UNBOUNDED}
    assert any(entry["dropped_rows"] for entry in golden.values())


if __name__ == "__main__":
    answers = {name: _answer(_lp.solve(lp, rule=rule)) for name, lp, rule in _programs()}
    GOLDEN.write_text(json.dumps(answers, indent=1) + "\n")
    print(f"wrote {len(answers)} answers to {GOLDEN}")
