"""JSON schemas for games, outcomes, and reports.

Game files look like::

    {
      "players": ["p1", "p2"],
      "states": ["s1", "s2"],
      "prior": {"s1": "1/2", "s2": "1/2"},
      "actions": {"p1": ["a", "b"], "p2": ["a", "b"]},
      "utilities": {"p1": {"a,b|s1": "3/2", ...}, "p2": {...}}
    }

Profile keys join the actions in player order with commas, then "|state".
Rationals are "num/den" strings or bare integers; outcomes mirror the layout
under an "outcome" key with zero cells omitted.
"""

import json

from .errors import SchemaViolation
from .games import BaseGame, Outcome, make_outcome, validate_game
from .rational import parse_rational, rational_to_json


def _profile_key(profile, state):
    return ",".join(str(a) for a in profile) + "|" + str(state)


def _cell_key_parser(game: BaseGame):
    """The parser of ``game``'s cell keys into (profile, state) pairs, with
    its state and action lookups built once for every key it reads."""
    n_players = len(game.players)
    state_map = {str(s): s for s in game.states}
    action_maps = [(i, {str(x): x for x in game.actions[i]}) for i in game.players]

    def parse(key):
        if "|" not in key:
            raise SchemaViolation(f"cell key {key!r} lacks the |state separator")
        left, state = key.rsplit("|", 1)
        actions = left.split(",")
        if len(actions) != n_players:
            raise SchemaViolation(f"cell key {key!r} names {len(actions)} actions")
        if state not in state_map:
            raise SchemaViolation(f"cell key {key!r} names unknown state {state!r}")
        resolved = []
        for (i, amap), a in zip(action_maps, actions):
            if a not in amap:
                raise SchemaViolation(f"cell key {key!r}: {a!r} is not an action of {i!r}")
            resolved.append(amap[a])
        return tuple(resolved), state_map[state]

    return parse


def _names(value, field) -> tuple:
    """The list ``value`` as a tuple; a string, which ``tuple`` would split
    into characters, or any other non-list raises ``SchemaViolation``."""
    if not isinstance(value, list):
        raise SchemaViolation(f"{field} must be a list, not {value!r}")
    return tuple(value)


def _mapping(value, field) -> dict:
    """``value`` when it is a JSON object; a list or any other value raises
    ``SchemaViolation`` naming ``field``."""
    if not isinstance(value, dict):
        raise SchemaViolation(f"{field} must be an object, not {value!r}")
    return value


def game_from_dict(data: dict) -> BaseGame:
    try:
        players = _names(data["players"], "players")
        states = _names(data["states"], "states")
        prior = {s: parse_rational(data["prior"][str(s)]) for s in states}
        actions = {i: _names(data["actions"][str(i)], f"actions of {i!r}") for i in players}
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"malformed game header: {exc}") from exc
    stub = BaseGame(
        players=players, states=states, prior=prior, actions=actions, utilities={}
    )
    parse_key = _cell_key_parser(stub)
    utilities = {}
    tables = _mapping(data.get("utilities", {}), "utilities")
    for i in players:
        raw = tables.get(str(i))
        if raw is None:
            raise SchemaViolation(f"missing utilities for player {i!r}")
        table = {}
        for key, value in _mapping(raw, f"utilities of {i!r}").items():
            cell = parse_key(key)
            try:
                table[cell] = parse_rational(value)
            except ValueError as exc:
                raise SchemaViolation(f"utility {key!r}: {exc}") from exc
        utilities[i] = table
    game = BaseGame(
        players=players, states=states, prior=prior, actions=actions, utilities=utilities
    )
    validate_game(game)
    return game


def game_to_dict(game: BaseGame) -> dict:
    return {
        "players": [str(i) for i in game.players],
        "states": [str(s) for s in game.states],
        "prior": {str(s): rational_to_json(game.prior[s]) for s in game.states},
        "actions": {str(i): [str(a) for a in game.actions[i]] for i in game.players},
        "utilities": {
            str(i): {
                _profile_key(profile, state): rational_to_json(game.u(i, profile, state))
                for (profile, state) in game.cells()
            }
            for i in game.players
        },
    }


def outcome_from_dict(game: BaseGame, data: dict) -> Outcome:
    raw = _mapping(data, "an outcome file").get("outcome")
    if raw is None:
        raise SchemaViolation('outcome files carry their map under an "outcome" key')
    parse_key = _cell_key_parser(game)
    entries = {}
    for key, value in _mapping(raw, '"outcome"').items():
        cell = parse_key(key)
        try:
            entries[cell] = parse_rational(value)
        except ValueError as exc:
            raise SchemaViolation(f"outcome {key!r}: {exc}") from exc
    return make_outcome(game, entries)


def outcome_to_dict(outcome: Outcome) -> dict:
    return {
        "outcome": {
            _profile_key(profile, state): rational_to_json(q)
            for (profile, state), q in sorted(outcome.p.items(), key=str)
            if q
        }
    }


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaViolation(f"{path}: {exc}") from exc


def load_game(path) -> BaseGame:
    return game_from_dict(load_json(path))


def load_outcome(path, game: BaseGame) -> Outcome:
    return outcome_from_dict(game, load_json(path))
