"""``BaseGame.bce_polytope``: one BCE polytope per game, kept on the game
with its phase 1, so every optimizer over the BCE set shares it; and only
``games`` and ``DensityVerdict.verify`` build one."""

import pathlib
import re

import ribce
from ribce.bce import is_bce, max_support_point
from ribce.rational import Rat
from ribce.structure import jeopardization_set
from ribce.welfare import welfare_report

from sample_games import investment_game


def test_public_calls_on_one_game_build_one_polytope(polytopes_built, phase_one_calls):
    game = investment_game(Rat(1, 10))
    report = welfare_report(game)
    assert report.w_inattention <= report.w_exogenous
    assert is_bce(game, max_support_point(game))
    for i in game.players:
        for target in game.actions[i]:
            assert target in jeopardization_set(game, i, target)
    assert [id(g) for g in polytopes_built] == [id(game)]
    poly = game.bce_polytope
    # The other phase 1 is the epigraph LP of the inattention worst case.
    assert [args[0].variables for args in phase_one_calls].count(poly.variables) == 1


def test_public_calls_on_one_game_validate_its_polytope_once(programs_validated, answers):
    # The polytope's program is validated once, when the polytope is built;
    # the only other program is the epigraph LP of the inattention worst
    # case.  Every answer over the polytope carries that one program.
    game = investment_game(Rat(1, 10))
    welfare_report(game)
    max_support_point(game)
    for i in game.players:
        for target in game.actions[i]:
            jeopardization_set(game, i, target)
    poly = game.bce_polytope
    assert programs_validated[0] is poly.program
    assert [program.variables for program in programs_validated] == [
        poly.variables,
        poly.variables + tuple(("t", i) for i in game.players),
    ]
    over_poly = [sol for sol in answers if sol.program is poly.program]
    assert len(over_poly) == len(answers) - 1 > len(poly.variables)


def test_equal_games_get_their_own_polytopes(polytopes_built):
    game, twin = investment_game(Rat(1, 10)), investment_game(Rat(1, 10))
    assert game == twin and game is not twin
    assert game.bce_polytope is not twin.bce_polytope
    assert game.bce_polytope.game is game and twin.bce_polytope.game is twin
    assert game.bce_polytope is game.bce_polytope
    assert [id(g) for g in polytopes_built] == [id(game), id(twin)]


def test_only_the_game_and_verify_build_bce_polytopes():
    src = pathlib.Path(ribce.__file__).parent
    callers = []
    for path in sorted(src.glob("*.py")):
        function = None
        for line in path.read_text().splitlines():
            match = re.match(r"\s*def (\w+)", line)
            if match:
                function = match.group(1)
            if "BcePolytope.of(" in line:
                callers.append(f"{path.name}:{function}")
    assert callers == ["games.py:bce_polytope", "structure.py:verify"]
