import json

import pytest

from ribce.cli import main
from ribce.io import game_to_dict, outcome_to_dict
from ribce.rational import Rat

from sample_games import (
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
    return paths


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
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "regime_n4.json"
    code, out, _ = _run(
        capsys,
        "regime",
        "--n", "4", "--k", "1/2", "--x", "1", "--states", "2", "--prior", "1",
    )
    assert code == 0
    assert out == golden.read_text()


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


def test_exit_code_on_schema_violation(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"players": ["p1"]}')
    code, out, err = _run(capsys, "welfare", str(bad))
    assert code == 2 and "schema_violation" in err


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
