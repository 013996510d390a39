"""Command-line interface.

JSON reports are the canonical output (byte-stable for fixed inputs and
seed); ``--table`` renders the same data as aligned key/value lines.  Exit
codes: 0 success, 2 for input or validation problems (a file that cannot be
read or written included), 1 for internal invariant failures.
"""

import argparse
import functools
import json
import sys

from .errors import InternalInvariantError, InvalidParams, RibceError, ValidationError
from .games import is_symmetric_game, utility_distance
from .bce import is_bce
from .io import (
    game_to_dict,
    load_game,
    load_json,
    load_outcome,
    outcome_from_dict,
    outcome_to_dict,
)
from .rational import BACKEND, Rat, parse_rational, rational_to_json
from .representation import build_canonical, cost_certificate, induced_outcome, is_cost_scale
from .separation import is_sbce, is_separated, is_strict_bce
from .structure import (
    EXACT,
    RANDOMIZED,
    classify_density,
    separating_perturbation,
)
from .vanishing import VceCertificate, check_vce
from .welfare import value_interval, welfare_report
from . import __version__
from . import regime as _regime
from . import rows as _rows


def _json_report(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _flatten(prefix, data, rows):
    if isinstance(data, dict):
        for key in sorted(data, key=str):
            _flatten(f"{prefix}{key}." if prefix else f"{key}.", data[key], rows)
    elif isinstance(data, list):
        for idx, item in enumerate(data):
            _flatten(f"{prefix}{idx}.", item, rows)
    else:
        rows.append((prefix[:-1], data))


def _table_report(data) -> str:
    rows = []
    _flatten("", data, rows)
    width = max((len(k) for k, _ in rows), default=0)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


def _emit(args, report) -> None:
    text = _table_report(report) if args.table else _json_report(report)
    sys.stdout.write(text)


def _outcome_block(outcome) -> dict:
    return outcome_to_dict(outcome)["outcome"]


def _check_outcome_report(game, outcome) -> dict:
    bce = is_bce(game, outcome)
    sep = is_separated(game, outcome)
    tables = outcome.beliefs(game)
    values = {}
    for i in game.players:
        lo, action = tables[i].uninformed()
        values[str(i)] = {
            "gross": rational_to_json(tables[i].gross()),
            "uninformed": rational_to_json(lo),
            "best_constant_action": str(action),
        }
    report = {
        "is_bce": bool(bce),
        "is_separated": bool(sep),
        "is_sbce": bool(bce) and bool(sep),
        "is_strict_bce": is_strict_bce(game, outcome),
        "values": values,
    }
    if not bce:
        i, rec, dev, slack = bce.witness
        report["obedience_violation"] = {
            "player": str(i),
            "recommendation": str(rec),
            "deviation": str(dev),
            "slack": rational_to_json(slack),
        }
    if not sep:
        i, a, b, shared = sep.witness
        report["separation_violation"] = {
            "player": str(i),
            "pair": [str(a), str(b)],
            "shared_best_response": str(shared),
        }
    if bool(bce):
        vi = value_interval(game, outcome)
        report["value_intervals"] = {
            str(i): {
                "lower": rational_to_json(pi.lower),
                "upper": rational_to_json(pi.upper),
                "attainability": pi.attainability,
            }
            for i, pi in vi.per_player.items()
        }
    return report


def _welfare_block(game) -> dict:
    rep = welfare_report(game)
    return {
        "worst_case": {
            "exogenous_information": rational_to_json(rep.w_exogenous),
            "rational_inattention": rational_to_json(rep.w_inattention),
            "gap": rational_to_json(rep.gap),
        },
        "minimizers": {
            "exogenous_information": _outcome_block(rep.exogenous_minimizer),
            "rational_inattention": _outcome_block(rep.inattention_minimizer),
        },
    }


def _density_block(game, args) -> dict:
    verdict = classify_density(game, args.mode, args.seed, args.retries)
    block = {"verdict": verdict.verdict, "mode": verdict.mode}
    if verdict.certificate is not None:
        block["certificate"] = _outcome_block(verdict.certificate)
    if verdict.witness is not None:
        outcome, player, a, b, shared = verdict.witness
        block["witness"] = {
            "outcome": _outcome_block(outcome),
            "player": str(player),
            "pair": [str(a), str(b)],
            "shared_jeopardizing_action": str(shared),
        }
    return block


def _flag(name, text, parse=parse_rational):
    """Parse one flag value; a malformed one is an input problem (exit 2)."""
    try:
        return parse(text)
    except ValueError as exc:
        raise InvalidParams(f"{name}: {exc}") from exc


def cmd_check_outcome(args) -> dict:
    game = load_game(args.game)
    outcome = load_outcome(args.outcome, game)
    return _check_outcome_report(game, outcome)


def cmd_welfare(args) -> dict:
    game = load_game(args.game)
    return _welfare_block(game)


def cmd_density(args) -> dict:
    game = load_game(args.game)
    return _density_block(game, args)


def cmd_analyze(args) -> dict:
    game = load_game(args.game)
    report = {
        "players": [str(i) for i in game.players],
        "states": [str(s) for s in game.states],
        "symmetric": is_symmetric_game(game),
        "welfare": _welfare_block(game),
        "density": _density_block(game, args),
    }
    if args.outcome:
        outcome = load_outcome(args.outcome, game)
        report["outcome_check"] = _check_outcome_report(game, outcome)
    return report


def cmd_regime(args) -> dict:
    thresholds = tuple(_flag("--states", tok, int) for tok in args.states.split(","))
    priors = [_flag("--prior", tok) for tok in args.prior.split(",")]
    if len(priors) != len(thresholds):
        raise ValidationError("--prior must list one weight per state")
    params = _regime.RegimeParams(
        n=args.n,
        k=_flag("--k", args.k),
        x=_flag("--x", args.x),
        thresholds=thresholds,
        prior=dict(zip(thresholds, priors)),
    )
    # The full game is built first, so that one too large fails at once.
    game = _regime.build_regime_game(params) if args.full_check else None
    w_lower = _regime.wlower_closed_form(params)
    space = _regime.regime_space(params)
    uninformed = _regime.reduced_symmetric_lp(params, _regime.UNINFORMED_WELFARE, space)
    gross = _regime.reduced_symmetric_lp(params, _regime.GROSS_WELFARE, space)
    red_u, kernel_u = uninformed
    red_g, _ = gross
    if red_u != w_lower:
        raise InternalInvariantError("reduced LP disagrees with the closed form")
    report = {
        "params": {
            "n": args.n,
            "k": rational_to_json(params.k),
            "x": rational_to_json(params.x),
            "states": list(params.thresholds),
            "prior": {str(t): rational_to_json(params.prior[t]) for t in params.thresholds},
        },
        "w_lower_closed_form": rational_to_json(w_lower),
        "worst_case": {
            "rational_inattention": rational_to_json(red_u),
            "exogenous_information": rational_to_json(red_g),
        },
        "gap": _regime.gap_closed_form(params),
        "kernel_optimality_conditions": _regime.kernel_satisfies_optimality(params, kernel_u),
    }
    if args.full_check:
        certify = _regime.certify_full_game
        report["full_game"] = {
            "exogenous_information": rational_to_json(certify(params, gross, game)),
            "rational_inattention": rational_to_json(certify(params, uninformed, game)),
        }
    return report


def cmd_perturb(args) -> dict:
    game = load_game(args.game)
    outcome = load_outcome(args.outcome, game)
    epsilon = _flag("--epsilon", args.epsilon)
    perturbed = separating_perturbation(game, outcome, epsilon)
    dist = utility_distance(perturbed, game)
    payload = game_to_dict(perturbed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(_json_report(payload))
    return {
        "epsilon": rational_to_json(epsilon),
        "max_utility_change": rational_to_json(dist),
        # separating_perturbation returns only once the outcome is an sBCE
        # of the game it returns.
        "outcome_is_sbce_in_perturbed_game": True,
        "perturbed_game": payload,
    }


def cmd_canonical(args) -> dict:
    lam = _flag("--lam", args.lam)
    if not is_cost_scale(lam):
        raise InvalidParams(f"--lam: must be an exact rational in (0,1]: {args.lam}")
    game = load_game(args.game)
    outcome = load_outcome(args.outcome, game)
    rep = build_canonical(game, outcome)
    round_trip = induced_outcome(rep, game)
    partition = {
        str(i): [sorted(str(a) for a in cell) for cell in rep.partition.cells[i]]
        for i in game.players
    }
    states_block = []
    for z in rep.correlation_states:
        states_block.append([sorted(str(a) for a in cell) for cell in z])
    kernel_block = {}
    for state in game.states:
        kernel_block[str(state)] = [
            rational_to_json(rep.kernel[(state, z)]) for z in rep.correlation_states
        ]
    plans_block = {}
    for i in game.players:
        rows = {}
        for cell in rep.partition.cells[i]:
            label = ",".join(sorted(str(a) for a in cell))
            rows[label] = {
                str(a): rational_to_json(rep.action_plans[i][(a, cell)])
                for a in game.actions[i]
            }
        plans_block[str(i)] = rows
    experiments_block = {}
    for i in game.players:
        experiment = rep.experiment(i)
        experiments_block[str(i)] = [
            [rational_to_json(experiment[(signal, z)]) for signal in rep.signals[i]]
            for z in rep.correlation_states
        ]
    report = {
        "partition": partition,
        "correlation_states": states_block,
        "kernel": kernel_block,
        "experiments": experiments_block,
        "action_plans": plans_block,
        "signal_counts": {str(i): len(rep.signals[i]) for i in game.players},
        "round_trip_exact": round_trip.p == outcome.p,
    }
    if is_sbce(game, outcome):
        cert = cost_certificate(game, outcome, lam)
        report["cost_certificate"] = {
            str(i): {key: rational_to_json(val) for key, val in entry.items()}
            for i, entry in cert.per_player.items()
        }
    else:
        report["cost_certificate"] = None
    return report


def _certificate_from_file(path, game):
    """Read a ``vce --certificate`` file; a missing key or a malformed value
    is an input problem (exit 2) that names it."""
    data = load_json(path)
    from .representation import PartitionProfile

    def field(obj, key, kind, where="certificate"):
        if not isinstance(obj, dict) or key not in obj:
            raise InvalidParams(f"--certificate: missing {where}[{key!r}]")
        if kind is not None and not isinstance(obj[key], kind):
            raise InvalidParams(f"--certificate: {where}[{key!r}] is not a {kind.__name__}")
        return obj[key]

    def outcome(raw, where):
        if not isinstance(raw, dict):
            raise InvalidParams(f"--certificate: {where} is not an outcome map")
        return outcome_from_dict(game, {"outcome": raw})

    partition = field(data, "partition", dict)
    cells = {}
    for i in game.players:
        amap = {str(a): a for a in game.actions[i]}
        resolved = []
        for cell in field(partition, str(i), list, "partition"):
            if not isinstance(cell, list):
                raise InvalidParams(f"--certificate: partition cell {cell!r} is not a list")
            for a in cell:
                if not isinstance(a, str) or a not in amap:
                    raise InvalidParams(f"--certificate: unknown action {a!r} of player {i}")
            resolved.append(frozenset(amap[a] for a in cell))
        cells[i] = tuple(resolved)
    components = tuple(
        outcome(comp, f"components[{k}]")
        for k, comp in enumerate(field(data, "components", list))
    )
    return VceCertificate(
        partition=PartitionProfile(cells=cells),
        weights=tuple(
            _flag(f"--certificate weights[{k}]", w)
            for k, w in enumerate(field(data, "weights", list))
        ),
        components=components,
        sbce_witness=outcome(field(data, "sbce_witness", None), "sbce_witness"),
        witness_distance=_flag(
            "--certificate witness_distance", field(data, "witness_distance", None)
        ),
    )


def cmd_vce(args) -> dict:
    game = load_game(args.game)
    outcome = load_outcome(args.outcome, game)
    certificate = None
    if args.certificate:
        certificate = _certificate_from_file(args.certificate, game)
    verdict = check_vce(
        game,
        outcome,
        epsilon=_flag("--epsilon", args.epsilon),
        certificate=certificate,
        mode=args.mode,
        seed=args.seed,
        retries=args.retries,
    )
    report = {"verdict": verdict.kind, "reason": verdict.reason}
    if verdict.witness is not None:
        report["witness"] = [str(x) for x in verdict.witness]
    if verdict.certificate is not None:
        cert = verdict.certificate
        report["certificate"] = {
            "partition": {
                str(i): [sorted(str(a) for a in cell) for cell in cert.partition.cells[i]]
                for i in game.players
            },
            "weights": [rational_to_json(Rat(w)) for w in cert.weights],
            "components": [_outcome_block(c) for c in cert.components],
            "sbce_witness": _outcome_block(cert.sbce_witness),
            "witness_distance": rational_to_json(Rat(cert.witness_distance)),
        }
    if args.mode == RANDOMIZED and not args.certificate:
        report["mode"] = {"kind": args.mode, "seed": args.seed, "retries": args.retries}
    return report


def _add_density_flags(sub):
    sub.add_argument("--mode", choices=(RANDOMIZED, EXACT), default=RANDOMIZED)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--retries", type=int, default=64)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribce",
        description=(
            "Exact robust predictions for games with flexibly acquired "
            "information: obedience/separation checks, worst-case welfare, "
            "density classification, perturbations, and vanishing-cost tests."
        ),
    )
    parser.add_argument("--table", action="store_true", help="aligned table output")
    parser.add_argument(
        "--version",
        action="version",
        version=f"ribce {__version__} (rational: {BACKEND}, rows: {_rows.IMPL})",
        help="print the version, the rational backend and the row kernel, and exit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check-outcome", help="validate an outcome against a game")
    sub.add_argument("game")
    sub.add_argument("outcome")
    sub.set_defaults(func=cmd_check_outcome)

    sub = subs.add_parser("welfare", help="worst-case welfare under both regimes")
    sub.add_argument("game")
    sub.set_defaults(func=cmd_welfare)

    sub = subs.add_parser("density", help="dense / nowhere-dense classification")
    sub.add_argument("game")
    _add_density_flags(sub)
    sub.set_defaults(func=cmd_density)

    sub = subs.add_parser("analyze", help="full report for a game (and outcome)")
    sub.add_argument("game")
    sub.add_argument("outcome", nargs="?", default=None)
    _add_density_flags(sub)
    sub.set_defaults(func=cmd_analyze)

    sub = subs.add_parser("regime", help="regime-change analysis from parameters")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", required=True)
    sub.add_argument("--x", required=True)
    sub.add_argument("--states", required=True, help='comma list, e.g. "2,5"')
    sub.add_argument("--prior", required=True, help='comma list, e.g. "1/2,1/2"')
    sub.add_argument(
        "--full-check",
        action="store_true",
        help="also certify the count-space answers on the full-profile LPs",
    )
    sub.set_defaults(func=cmd_regime)

    sub = subs.add_parser("perturb", help="make an outcome separated in a nearby game")
    sub.add_argument("game")
    sub.add_argument("outcome")
    sub.add_argument("--epsilon", required=True)
    sub.add_argument("--output", default=None, help="write the perturbed game here")
    sub.set_defaults(func=cmd_perturb)

    sub = subs.add_parser("canonical", help="canonical representation of an outcome")
    sub.add_argument("game")
    sub.add_argument("outcome")
    sub.add_argument("--lam", default="1", help="cost scale in (0,1], default 1")
    sub.set_defaults(func=cmd_canonical)

    sub = subs.add_parser("vce", help="vanishing-cost equilibrium check")
    sub.add_argument("game")
    sub.add_argument("outcome")
    sub.add_argument("--epsilon", default="1/1000")
    sub.add_argument("--certificate", default=None)
    _add_density_flags(sub)
    sub.set_defaults(func=cmd_vce)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built on its first call and then reused:
    parsing leaves a parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Look the handler up by name on each call, so a wrapper bound to a
    # ``cmd_*`` name after the parser was built still runs.
    handler = globals()[args.func.__name__]
    try:
        report = handler(args)
    except OSError as exc:
        code = "file_not_found" if isinstance(exc, FileNotFoundError) else "io"
        sys.stderr.write(f"error[{code}]: {exc}\n")
        return 2
    except RibceError as exc:
        sys.stderr.write(f"error[{exc.code}]: {exc}\n")
        return 2 if isinstance(exc, ValidationError) else 1
    _emit(args, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
