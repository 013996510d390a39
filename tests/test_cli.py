import dataclasses
import functools
import json
import pathlib
import re

import pytest

from ribce import lp
from ribce.cli import main
from ribce.errors import ValidationError
from ribce.io import game_from_dict, game_to_dict, load_game, load_outcome, outcome_to_dict
from ribce.rational import Rat
from ribce.separation import is_sbce
from ribce.vanishing import check_vce

from sample_games import (
    collinear_beliefs_game,
    collinear_beliefs_outcome,
    coordination_3x3_segment_point,
    coordination_game_3x3,
    inferior_coordination_outcome,
    investment_game,
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    gp = investment_game(Rat(1, 10))
    paths["perturbed_intro"] = tmp_path / "perturbed_intro.json"
    paths["perturbed_intro"].write_text(json.dumps(game_to_dict(gp)))
    paths["inferior"] = tmp_path / "inferior.json"
    paths["inferior"].write_text(
        json.dumps(outcome_to_dict(inferior_coordination_outcome(gp)))
    )
    g3 = coordination_game_3x3()
    paths["game3x3"] = tmp_path / "game3x3.json"
    paths["game3x3"].write_text(json.dumps(game_to_dict(g3)))
    paths["p_half"] = tmp_path / "p_half.json"
    paths["p_half"].write_text(
        json.dumps(outcome_to_dict(coordination_3x3_segment_point(Rat(1, 2))))
    )
    paths["mixed_nash"] = tmp_path / "mixed_nash.json"
    paths["mixed_nash"].write_text(
        json.dumps(outcome_to_dict(coordination_3x3_segment_point(0)))
    )
    paths["tie_game"] = tmp_path / "tie_game.json"
    paths["tie_game"].write_text(json.dumps(TIE_GAME))
    paths["tie_nash"] = tmp_path / "tie_nash.json"
    paths["tie_nash"].write_text(json.dumps(TIE_NASH))
    paths["not_bce"] = tmp_path / "not_bce.json"
    paths["not_bce"].write_text(json.dumps(NOT_BCE_3X3))
    paths["collinear"] = tmp_path / "collinear.json"
    paths["collinear"].write_text(json.dumps(game_to_dict(collinear_beliefs_game())))
    paths["collinear_outcome"] = tmp_path / "collinear_outcome.json"
    paths["collinear_outcome"].write_text(
        json.dumps(outcome_to_dict(collinear_beliefs_outcome()))
    )
    return paths


# A two-state game with a weak complete-information Nash outcome (each
# player's action follows the state) that is not separated and has no closure
# obstruction, so ``vce`` on it runs the density classification.
TIE_GAME = {
    "players": ["p1", "p2"],
    "states": ["s1", "s2"],
    "prior": {"s1": "3/7", "s2": "4/7"},
    "actions": {"p1": ["a", "b"], "p2": ["a", "b"]},
    "utilities": {
        "p1": {
            "a,a|s1": 1, "a,a|s2": 1, "a,b|s1": "-1/2", "a,b|s2": "-1/2",
            "b,a|s1": 0, "b,a|s2": 0, "b,b|s1": "1/2", "b,b|s2": "-1/2",
        },
        "p2": {
            "a,a|s1": "-1/2", "a,a|s2": "1/2", "a,b|s1": "1/2", "a,b|s2": 0,
            "b,a|s1": 0, "b,a|s2": "1/2", "b,b|s1": 0, "b,b|s2": "-1/2",
        },
    },
}
TIE_NASH = {"outcome": {"b,b|s1": "3/7", "a,a|s2": "4/7"}}
# In the 3x3 coordination game, p2 told to play b gains 2/3 by playing a.
NOT_BCE_3X3 = {"outcome": {"b,b|s": "1/3", "c,c|s": "2/3"}}


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_welfare_report(files, capsys):
    code, out, _ = _run(capsys, "welfare", str(files["perturbed_intro"]))
    assert code == 0
    report = json.loads(out)
    assert report["worst_case"]["exogenous_information"] == "6/5"
    assert report["worst_case"]["rational_inattention"] == 1
    assert report["worst_case"]["gap"] == "1/5"


def test_density_report(files, capsys):
    code, out, _ = _run(
        capsys, "density", str(files["game3x3"]), "--mode", "exact"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "nowhere_dense"
    assert report["witness"]["pair"] == ["a", "b"]
    assert report["witness"]["shared_jeopardizing_action"] == "a"


def test_regime_report(capsys):
    code, out, _ = _run(
        capsys,
        "regime",
        "--n", "4", "--k", "1/2", "--x", "1", "--states", "2", "--prior", "1",
    )
    assert code == 0
    report = json.loads(out)
    # integral rationals serialize as bare JSON integers
    assert report["w_lower_closed_form"] == -1
    assert report["gap"] is True
    assert report["kernel_optimality_conditions"] is True


def test_check_outcome_report(files, capsys):
    code, out, _ = _run(
        capsys, "check-outcome", str(files["perturbed_intro"]), str(files["inferior"])
    )
    assert code == 0
    report = json.loads(out)
    assert report["is_sbce"] is True
    assert report["values"]["ann"]["uninformed"] == "1/2"
    assert report["value_intervals"]["ann"]["attainability"] == "half_open"


def test_check_outcome_witnesses(files, capsys):
    code, out, _ = _run(
        capsys, "check-outcome", str(files["game3x3"]), str(files["p_half"])
    )
    assert code == 0
    report = json.loads(out)
    assert report["is_bce"] is True and report["is_separated"] is False
    assert report["separation_violation"]["pair"] == ["a", "b"]


def test_vce_report(files, capsys):
    code, out, _ = _run(capsys, "vce", str(files["game3x3"]), str(files["mixed_nash"]))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "is_vce"
    code, out, _ = _run(capsys, "vce", str(files["game3x3"]), str(files["p_half"]))
    report = json.loads(out)
    assert report["verdict"] == "not_vce"
    assert report["witness"] == ["p1", "a", "b", "a"]


def test_perturb_round_trip(files, capsys, tmp_path):
    out_path = tmp_path / "perturbed.json"
    code, out, _ = _run(
        capsys,
        "perturb",
        str(files["game3x3"]),
        str(files["p_half"]),
        "--epsilon", "1/10",
        "--output", str(out_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["outcome_is_sbce_in_perturbed_game"] is True
    saved = json.loads(out_path.read_text())
    assert saved["players"] == ["p1", "p2"]
    perturbed = load_game(str(out_path))
    assert is_sbce(perturbed, load_outcome(str(files["p_half"]), perturbed))


def test_canonical_report(files, capsys):
    code, out, _ = _run(
        capsys, "canonical", str(files["perturbed_intro"]), str(files["inferior"])
    )
    assert code == 0
    report = json.loads(out)
    assert report["round_trip_exact"] is True
    assert report["cost_certificate"]["ann"]["equilibrium_cost"] == "1/2"


def test_analyze_combined(files, capsys):
    code, out, _ = _run(
        capsys,
        "analyze",
        str(files["perturbed_intro"]),
        str(files["inferior"]),
        "--seed", "2",
        "--retries", "8",
    )
    assert code == 0
    report = json.loads(out)
    assert report["symmetric"] is True
    assert report["density"]["verdict"] == "dense"
    assert report["outcome_check"]["is_sbce"] is True


def test_byte_stability(files, capsys):
    first = _run(capsys, "density", str(files["game3x3"]), "--seed", "1")
    second = _run(capsys, "density", str(files["game3x3"]), "--seed", "1")
    assert first == second


def test_regime_golden_bytes(capsys):
    # Frozen bytes: identical across runs, kernel stacks, and rational
    # backends for fixed inputs.
    golden = pathlib.Path(__file__).parent / "golden" / "regime_n4.json"
    code, out, _ = _run(
        capsys,
        "regime",
        "--n", "4", "--k", "1/2", "--x", "1", "--states", "2", "--prior", "1",
    )
    assert code == 0
    assert out == golden.read_text()


# golden/cli_<name>.json holds the stdout of each command on the fixtures;
# fixture names in the argv stand for their paths.
CLI_GOLDEN = {
    "welfare_intro": ("welfare", "perturbed_intro"),
    "analyze_intro": ("analyze", "perturbed_intro", "inferior", "--seed", "2", "--retries", "8"),
    "analyze_3x3_exact": ("analyze", "game3x3", "--mode", "exact"),
    "density_3x3_exact": ("density", "game3x3", "--mode", "exact"),
    "vce_3x3_mixed_nash": ("vce", "game3x3", "mixed_nash"),
    "vce_3x3_p_half": ("vce", "game3x3", "p_half"),
    "vce_tie": ("vce", "tie_game", "tie_nash"),
    "vce_tie_exact": ("vce", "tie_game", "tie_nash", "--mode", "exact"),
    "check_outcome_3x3_not_bce": ("check-outcome", "game3x3", "not_bce"),
    "check_outcome_3x3_p_half": ("check-outcome", "game3x3", "p_half"),
    "perturb_3x3_p_half": ("perturb", "game3x3", "p_half", "--epsilon", "1/10"),
    # Three distinct beliefs of one player: the chain is ordered by LP.
    "perturb_collinear": ("perturb", "collinear", "collinear_outcome", "--epsilon", "1/20"),
    "canonical_intro": ("canonical", "perturbed_intro", "inferior"),
    "canonical_3x3_p_half": ("canonical", "game3x3", "p_half"),
    "regime_n6_full_check": (
        "regime", "--n", "6", "--k", "1/2", "--x", "1/10",
        "--states", "2,3", "--prior", "1/2,1/2", "--full-check",
    ),
    # Count space only, far past the full game; the expected bytes are
    # those of the full-width count program, every count 0..n per state.
    "regime_n2000": (
        "regime", "--n", "2000", "--k", "1/2", "--x", "1/10",
        "--states", "5,9", "--prior", "1/3,2/3",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_golden_bytes(files, capsys, name):
    golden = pathlib.Path(__file__).parent / "golden" / f"cli_{name}.json"
    argv = [str(files[a]) if a in files else a for a in CLI_GOLDEN[name]]
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert out == golden.read_text()


# (BCE polytopes built, feasible starts) per job, a start being a phase 1
# run or a proposed basis that ``lp.Polyhedron.from_basis`` accepts.  Each
# polytope runs phase 1 at most once.  The other starts are the epigraph LP
# of the inattention worst case (phase 1) and the one count-space program
# of ``regime`` (its proposed basis), which serves both of its objectives;
# exact-mode vertex enumeration of the never-empty BCE polytope runs none.
# A NowhereDense verdict re-derives its own polytope in
# ``DensityVerdict.verify``.  ``regime --full-check`` builds the full game's
# polytope for its rows and solves nothing on it: it checks the lifted
# count-space certificates.
BUILT_ONCE = {
    "welfare_intro": (1, 2),
    "analyze_intro": (1, 2),
    "analyze_3x3_exact": (2, 3),
    "density_3x3_exact": (2, 2),
    "vce_3x3_mixed_nash": (0, 0),
    "vce_3x3_p_half": (1, 1),
    "vce_tie": (1, 1),
    "vce_tie_exact": (1, 1),
    "regime_n6_full_check": (1, 1),
}


@pytest.mark.parametrize("name", sorted(BUILT_ONCE))
def test_bce_polytope_built_once_per_job(files, capsys, polytopes_built, feasible_starts, name):
    argv = [str(files[a]) if a in files else a for a in CLI_GOLDEN[name]]
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert (len(polytopes_built), len(feasible_starts)) == BUILT_ONCE[name]
    if name.startswith("regime"):
        assert feasible_starts == ["basis"]


# ``BaseGame.payoff_rows`` builds per job: one per game the job reads or
# makes (``perturb`` checks the outcome in the perturbed game too).
PAYOFF_ROWS_BUILT = {
    "analyze_intro": 1,
    "analyze_3x3_exact": 1,
    "check_outcome_3x3_not_bce": 1,
    "check_outcome_3x3_p_half": 1,
    "perturb_3x3_p_half": 2,
    "perturb_collinear": 2,
}


@pytest.mark.parametrize("name", sorted(PAYOFF_ROWS_BUILT))
def test_payoff_rows_built_once_per_game(files, capsys, payoff_rows_built, name):
    argv = [str(files[a]) if a in files else a for a in CLI_GOLDEN[name]]
    code, _, _ = _run(capsys, *argv)
    assert code == 0
    assert len(payoff_rows_built) == PAYOFF_ROWS_BUILT[name]
    assert len({id(game) for game in payoff_rows_built}) == len(payoff_rows_built)


# ``games.belief_table`` builds per job, and the distinct (game, outcome,
# player) keys they are for: one per player and (game, outcome) pair the job
# checks, shared by every check of that pair (``perturb`` checks the outcome
# in the perturbed game too; ``vce`` and ``canonical`` share one set across
# their checks of the outcome, the density classification one per
# candidate, vertex and witness it reads, and ``welfare`` one per minimizer,
# read by its obedience check and, for the epigraph minimizer, by the
# tightness check; ``regime --full-check`` checks its lifted outcomes on the
# full program's rows and builds none).
BELIEF_TABLES_BUILT = {
    "analyze_3x3_exact": (10, 10),
    "analyze_intro": (40, 40),
    "canonical_3x3_p_half": (2, 2),
    "canonical_intro": (2, 2),
    "check_outcome_3x3_not_bce": (2, 2),
    "check_outcome_3x3_p_half": (2, 2),
    "density_3x3_exact": (6, 6),
    "perturb_3x3_p_half": (4, 4),
    "perturb_collinear": (2, 2),
    "regime_n6_full_check": (0, 0),
    "vce_3x3_mixed_nash": (2, 2),
    "vce_3x3_p_half": (2, 2),
    "vce_tie": (262, 262),
    "vce_tie_exact": (6, 6),
    "welfare_intro": (4, 4),
}


@pytest.mark.parametrize("name", sorted(BELIEF_TABLES_BUILT))
def test_belief_table_built_once_per_key(files, capsys, belief_tables_built, name):
    argv = [str(files[a]) if a in files else a for a in CLI_GOLDEN[name]]
    code, _, _ = _run(capsys, *argv)
    assert code == 0
    keys = {(id(game), id(outcome), player) for game, outcome, player in belief_tables_built}
    assert (len(belief_tables_built), len(keys)) == BELIEF_TABLES_BUILT[name]


# ``canonical`` builds the canonical representation once, for its report;
# the cost certificate of an sBCE reads the outcome's masses directly.
@pytest.mark.parametrize("name", sorted(n for n, argv in CLI_GOLDEN.items() if argv[0] == "canonical"))
def test_canonical_representation_built_once_per_job(files, capsys, canonical_builds, name):
    argv = [str(files[a]) if a in files else a for a in CLI_GOLDEN[name]]
    code, _, _ = _run(capsys, *argv)
    assert code == 0
    assert len(canonical_builds) == 1


# Builds per job of each belief table's cached value sums, (``gross``,
# ``uninformed``): one per table whose values the job reads.  A
# ``check-outcome`` report reads both values of each player twice, in its
# values block and in ``value_interval``, and sums them once; a welfare
# block reads only the epigraph minimizer's ``uninformed`` values,
# ``canonical`` both values only for the cost certificate of an sBCE, and
# ``regime --full-check`` none.
VALUE_SUMS_BUILT = {
    "analyze_3x3_exact": (0, 2),
    "analyze_intro": (2, 4),
    "canonical_3x3_p_half": (0, 0),
    "canonical_intro": (2, 2),
    "check_outcome_3x3_not_bce": (2, 2),
    "check_outcome_3x3_p_half": (2, 2),
    "regime_n6_full_check": (0, 0),
    "welfare_intro": (0, 2),
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_table_caches_built_at_most_once_per_table(files, capsys, table_caches_built, name):
    argv = [str(files[a]) if a in files else a for a in CLI_GOLDEN[name]]
    code, _, _ = _run(capsys, *argv)
    assert code == 0
    for tables in table_caches_built.values():
        assert len({id(table) for table in tables}) == len(tables)
    if name in VALUE_SUMS_BUILT:
        sums = (len(table_caches_built["gross"]), len(table_caches_built["uninformed"]))
        assert sums == VALUE_SUMS_BUILT[name]


def test_table_rendering(files, capsys):
    code, out, _ = _run(capsys, "--table", "welfare", str(files["perturbed_intro"]))
    assert code == 0
    assert "worst_case.exogenous_information" in out
    assert "6/5" in out


def test_version(capsys):
    from ribce import __version__

    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out == f"ribce {__version__} (rational: fraction, rows: python)\n"
    assert captured.err == ""


def test_exit_code_on_missing_file(capsys):
    code, out, err = _run(capsys, "welfare", "/no/such/file.json")
    assert code == 2 and "file_not_found" in err


# A file that cannot be read or written is an input problem: exit 2 with the
# error's code, never a traceback.  ``{dir}`` is a directory.
@pytest.mark.parametrize(
    "argv, code_name",
    [
        (("welfare", "{bom}"), "schema_violation"),
        (("check-outcome", "game3x3", "{bom}"), "schema_violation"),
        (("welfare", "{dir}"), "io"),
        (("check-outcome", "game3x3", "{dir}"), "io"),
        (("perturb", "game3x3", "p_half", "--epsilon", "1/10", "--output", "{dir}"), "io"),
    ],
)
def test_unreadable_files_exit_2(files, capsys, tmp_path, argv, code_name):
    bom = tmp_path / "utf16.json"
    bom.write_bytes(b"\xff\xfe{\x00}\x00")
    paths = {**files, "{bom}": bom, "{dir}": tmp_path}
    code, out, err = _run(capsys, *(str(paths.get(a, a)) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error[{code_name}]: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if code_name == "schema_violation":
        assert f"{bom}: 'utf-8' codec can't decode" in err


def test_exit_code_on_schema_violation(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"players": ["p1"]}')
    code, out, err = _run(capsys, "welfare", str(bad))
    assert code == 2 and "schema_violation" in err


# A string where a list of names belongs would be split into characters.
@pytest.mark.parametrize(
    "edit, field",
    [
        ({"players": "p1"}, "players"),
        ({"states": "s"}, "states"),
        ({"actions": {"p1": "ab"}}, "actions of 'p1'"),
    ],
)
def test_names_that_are_not_a_list_exit_2(capsys, tmp_path, edit, field):
    data = {
        "players": ["p1"], "states": ["s"], "prior": {"s": 1},
        "actions": {"p1": ["a", "b"]},
        "utilities": {"p1": {"a|s": 1, "b|s": 0}},
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**data, **edit}))
    code, out, err = _run(capsys, "welfare", str(bad))
    assert code == 2 and out == ""
    assert "schema_violation" in err and f"{field} must be a list" in err


# A list where an object belongs, in a game or an outcome file.
@pytest.mark.parametrize(
    "edit, field",
    [
        ({"utilities": [{"a|s": 1, "b|s": 0}]}, "utilities"),
        ({"utilities": {"p1": [1, 0]}}, "utilities of 'p1'"),
    ],
)
def test_game_maps_that_are_a_list_exit_2(capsys, tmp_path, edit, field):
    data = {
        "players": ["p1"], "states": ["s"], "prior": {"s": 1},
        "actions": {"p1": ["a", "b"]},
        "utilities": {"p1": {"a|s": 1, "b|s": 0}},
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**data, **edit}))
    code, out, err = _run(capsys, "welfare", str(bad))
    assert code == 2 and out == ""
    assert "schema_violation" in err and f"{field} must be an object" in err


# A negative retry count would run no retry and be echoed as given; a
# randomized density search refuses it, and so does a randomized ``vce``
# that decides without one (``p_half`` is NotVce).  Every such command
# exits 2.  Zero retries stays valid.
@pytest.mark.parametrize(
    "argv",
    [
        ("density", "game3x3"),
        ("analyze", "perturbed_intro", "inferior"),
        ("vce", "tie_game", "tie_nash"),
        ("vce", "game3x3", "p_half"),
    ],
)
def test_negative_retries_exit_2(files, capsys, argv):
    argv = [str(files[a]) if a in files else a for a in argv]
    code, out, err = _run(capsys, *argv, "--retries", "-3")
    assert code == 2 and out == ""
    assert err == "error[validation]: retries must be a nonnegative int, not -3\n"
    code, out, _ = _run(capsys, *argv, "--retries", "0")
    assert code == 0 and '"retries": 0' in out


@pytest.mark.parametrize(
    "outcome, field",
    [
        ([{"b,b|s": "1/3", "c,c|s": "2/3"}], "an outcome file"),
        ({"outcome": ["b,b|s", "c,c|s"]}, '"outcome"'),
    ],
)
def test_outcome_maps_that_are_a_list_exit_2(files, capsys, tmp_path, outcome, field):
    bad = tmp_path / "bad_outcome.json"
    bad.write_text(json.dumps(outcome))
    code, out, err = _run(capsys, "check-outcome", str(files["game3x3"]), str(bad))
    assert code == 2 and out == ""
    assert "schema_violation" in err and f"{field} must be an object" in err


def test_exit_code_on_invalid_prior(files, capsys, tmp_path):
    gp = investment_game(Rat(1, 10))
    broken = game_to_dict(gp)
    broken["prior"]["thetaA"] = "1/3"
    bad = tmp_path / "bad_prior.json"
    bad.write_text(json.dumps(broken))
    code, out, err = _run(capsys, "welfare", str(bad))
    assert code == 2 and "prior_not_normalized" in err


def test_exit_code_on_missing_utility_cell(files, capsys, tmp_path):
    gp = investment_game(Rat(1, 10))
    broken = game_to_dict(gp)
    del broken["utilities"]["ann"]["fundA,fundA|thetaA"]
    bad = tmp_path / "missing_cell.json"
    bad.write_text(json.dumps(broken))
    code, out, err = _run(capsys, "welfare", str(bad))
    assert code == 2 and "missing_utility_entry" in err


# Each game lists one name twice: p1's action a, the state s (its prior
# 1/2 counted twice would sum to 1), or the player p1.
REPEATED_NAME_GAMES = {
    "action of player 'p1': 'a'": {
        "players": ["p1", "p2"], "states": ["s"], "prior": {"s": 1},
        "actions": {"p1": ["a", "a"], "p2": ["a"]},
        "utilities": {"p1": {"a,a|s": 1}, "p2": {"a,a|s": 0}},
    },
    "state: 's'": {
        "players": ["p1", "p2"], "states": ["s", "s"], "prior": {"s": "1/2"},
        "actions": {"p1": ["a", "b"], "p2": ["a"]},
        "utilities": {"p1": {"a,a|s": 1, "b,a|s": 0}, "p2": {"a,a|s": 0, "b,a|s": 0}},
    },
    "player: 'p1'": {
        "players": ["p1", "p1"], "states": ["s"], "prior": {"s": 1},
        "actions": {"p1": ["a"]},
        "utilities": {"p1": {"a,a|s": 1}},
    },
}


@pytest.mark.parametrize("names", sorted(REPEATED_NAME_GAMES))
def test_repeated_name_rejected(names):
    with pytest.raises(ValidationError, match=f"^repeated {re.escape(names)}$"):
        game_from_dict(REPEATED_NAME_GAMES[names])


@pytest.mark.parametrize("names", sorted(REPEATED_NAME_GAMES))
@pytest.mark.parametrize("command", ["check-outcome", "welfare"])
def test_repeated_name_exits_2(capsys, tmp_path, names, command):
    game = tmp_path / "game.json"
    game.write_text(json.dumps(REPEATED_NAME_GAMES[names]))
    outcome = tmp_path / "outcome.json"
    outcome.write_text(json.dumps({"outcome": {"a,a|s": 1}}))
    argv = [command, str(game)] + ([str(outcome)] if command == "check-outcome" else [])
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error[validation]: repeated {names}\n"


# ``--lam`` is checked before any work, whether or not the outcome is an sBCE
# (the intro outcome is one, the 3x3 point is not).
@pytest.mark.parametrize("lam", ["abc", "2", "0", "-1/2"])
@pytest.mark.parametrize("outcome", [("perturbed_intro", "inferior"), ("game3x3", "p_half")])
def test_canonical_rejects_lam_outside_unit_interval(files, capsys, outcome, lam):
    argv = ["canonical", *(str(files[a]) for a in outcome), f"--lam={lam}"]
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert "invalid_params" in err and "--lam:" in err


REGIME = ("regime", "--n", "6", "--k", "1/2", "--x", "1", "--states", "2,3", "--prior", "1/2,1/2")


def _regime_with(flag, value):
    argv = list(REGIME)
    argv[argv.index(flag) + 1] = value
    return argv


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--states", _regime_with("--states", "a")),
        ("--k", _regime_with("--k", "abc")),
        ("--k", _regime_with("--k", "0.5")),
        ("--prior", _regime_with("--prior", "x")),
        ("--epsilon", ["perturb", "game3x3", "p_half", "--epsilon", "tenth"]),
        ("--lam", ["canonical", "perturbed_intro", "inferior", "--lam", "1/0"]),
        ("--epsilon", ["vce", "game3x3", "mixed_nash", "--epsilon", "1e-3"]),
    ],
)
def test_exit_code_on_malformed_flag(files, capsys, flag, argv):
    argv = [str(files[a]) if a in files else a for a in argv]
    code, out, err = _run(capsys, *argv)
    assert code == 2 and "invalid_params" in err and f"{flag}:" in err


# On the tie game, exact mode finds the sBCE set dense and mixes toward its
# candidate with weight epsilon/span, which is no mixture unless epsilon > 0.
@pytest.mark.parametrize("epsilon", [Rat(0), Rat(-1, 1000)])
def test_vce_rejects_nonpositive_epsilon(files, epsilon):
    game = load_game(files["tie_game"])
    outcome = load_outcome(files["tie_nash"], game)
    with pytest.raises(ValidationError, match="^epsilon must be positive$"):
        check_vce(game, outcome, epsilon=epsilon, mode="exact")


@pytest.mark.parametrize("epsilon", ["0", "-1/1000"])
def test_vce_nonpositive_epsilon_exits_2(files, capsys, epsilon):
    argv = ["vce", str(files["tie_game"]), str(files["tie_nash"]), "--mode", "exact"]
    code, out, err = _run(capsys, *argv, f"--epsilon={epsilon}")
    assert code == 2 and out == "" and "epsilon must be positive" in err


@pytest.mark.parametrize(
    "states, prior",
    [("2,2,3", "1/4,1/4,1/2"), ("2,2", "1/2,1/2"), ("3,2,3", "1/3,1/3,1/3")],
)
def test_exit_code_on_repeated_state(capsys, states, prior):
    argv = _regime_with("--states", states)
    argv[argv.index("--prior") + 1] = prior
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert "invalid_params" in err and "repeated threshold" in err


def test_regime_full_check_too_large_exits_at_once(monkeypatch, capsys):
    # Two states at n=40: 2^40 * 2 cells.  The full game would exhaust
    # memory; it is refused before any profile or count-space LP is built.
    from ribce import regime

    monkeypatch.setattr(regime, "count_space", None)
    argv = _regime_with("--n", "40") + ["--full-check"]
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert "too_many_players" in err and f"{2**41} profile-state cells" in err


def test_regime_full_check_exits_1_when_a_count_value_is_wrong(monkeypatch, capsys):
    # The count program's gross optimum (its objective is over (count,
    # state) pairs, the uninformed one over EPIGRAPH) comes out 1/1000 above
    # the true optimum.  Its printed value would then differ from the full
    # game's; the full check refuses to certify it.
    optimize = lp.Polyhedron.optimize

    def off(poly, objective, sense="min"):
        sol = optimize(poly, objective, sense)
        if all(isinstance(v[0], int) for v in objective):
            sol = dataclasses.replace(sol, value=sol.value + Rat(1, 1000))
        return sol

    monkeypatch.setattr(lp.Polyhedron, "optimize", off)
    code, out, err = _run(capsys, *CLI_GOLDEN["regime_n6_full_check"])
    assert code == 1 and out == ""
    assert err == "error[internal]: objective value mismatch\n"


def _coarsest_partition():
    g3 = coordination_game_3x3()
    return {str(i): [[str(a) for a in g3.actions[i]]] for i in g3.players}


@pytest.mark.parametrize(
    "certificate, names",
    [
        ({"weights": ["1"], "components": []}, "'partition'"),
        ({"partition": {}, "weights": ["abc"]}, "'p1'"),
        ({"partition": {**_coarsest_partition(), "p1": [["zzz"]]}}, "'zzz'"),
        ({"partition": {**_coarsest_partition(), "p2": "a,b"}}, "'p2'"),
        ({"partition": _coarsest_partition(), "weights": ["1"]}, "'components'"),
        ({"partition": _coarsest_partition(), "components": [], "weights": ["abc"]}, "weights[0]"),
    ],
)
def test_exit_code_on_malformed_certificate(files, capsys, tmp_path, certificate, names):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(certificate))
    code, out, err = _run(
        capsys, "vce", str(files["game3x3"]), str(files["mixed_nash"]), "--certificate", str(cert)
    )
    assert code == 2 and "invalid_params" in err and names in err


def test_analyze_exact_mode_3x3(files, capsys):
    code, out, _ = _run(
        capsys, "analyze", str(files["game3x3"]), "--mode", "exact"
    )
    assert code == 0
    report = json.loads(out)
    assert report["density"]["verdict"] == "nowhere_dense"
    assert report["density"]["mode"] == {"kind": "exact"}
    assert report["symmetric"] is False


def test_seed_echoed_in_randomized_reports(files, capsys):
    code, out, _ = _run(capsys, "vce", str(files["game3x3"]), str(files["mixed_nash"]), "--seed", "7")
    report = json.loads(out)
    assert report["mode"]["seed"] == 7


def test_parser_built_once_per_process(monkeypatch, capsys):
    from ribce import cli

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    first = _run(capsys, *REGIME)
    with pytest.raises(SystemExit) as exit_info:
        main(["regime", "--n", "six"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    assert _run(capsys, *REGIME) == first and first[0] == 0
    assert builds == [1]
    # The handler is looked up when main runs, not when the parser was built.
    seen = []
    handler = cli.cmd_regime
    monkeypatch.setattr(cli, "cmd_regime", lambda args: seen.append(args.n) or handler(args))
    assert _run(capsys, *REGIME) == first and seen == [6]
    assert build() is not build()
