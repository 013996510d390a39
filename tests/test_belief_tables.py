"""The int belief tables against the Fraction loops they replaced
(``belief_reference``), on small random exact games and outcomes: the same
answers with the same witnesses, the same gross and uninformed values with
the same tie-break, and the same mixture from ``_mix_keeping``."""

from itertools import product

from hypothesis import given
from hypothesis import strategies as st

import belief_reference as ref
from ribce.bce import BcePolytope, is_bce, mix_outcomes
from ribce.errors import RetriesExhausted
from ribce.games import (
    BaseGame,
    BeliefTables,
    Outcome,
    validate_game,
    validate_outcome,
)
from ribce.rational import Rat
from ribce.separation import conditional_belief, is_separated, is_strict_bce
from ribce.structure import _distinct_pairs, _mix_keeping, _supported_pairs

PAYOFFS = [Rat(n, d) for n in range(-3, 4) for d in (1, 2, 3)]


@st.composite
def games(draw, min_players=1, max_states=2):
    n_players = draw(st.integers(min_players, 3))
    players = tuple(f"p{k + 1}" for k in range(n_players))
    # at most 9 profiles: three players get two actions each
    sizes = [draw(st.integers(2, 3 if n_players < 3 else 2)) for _ in players]
    actions = {i: tuple("abc"[:m]) for i, m in zip(players, sizes)}
    states = ("s1", "s2", "s3")[: draw(st.integers(1, max_states))]
    weights = [draw(st.integers(1, 4)) for _ in states]
    prior = {s: Rat(w, sum(weights)) for s, w in zip(states, weights)}
    utilities = {
        i: {
            (profile, s): draw(st.sampled_from(PAYOFFS))
            for profile in product(*(actions[j] for j in players))
            for s in states
        }
        for i in players
    }
    game = BaseGame(
        players=players, states=states, prior=prior, actions=actions, utilities=utilities
    )
    validate_game(game)
    return game


@st.composite
def outcomes(draw, game):
    """A sparse random outcome, or (often) a BCE: the mixture of two optima
    of random objectives over the BCE polytope, which makes ties, strict
    best responses and equal beliefs common."""
    if draw(st.booleans()):
        poly = BcePolytope.of(game)
        ends = []
        for _ in range(2):
            objective = {
                cell: Rat(draw(st.integers(-3, 3))) for cell in poly.variables
            }
            ends.append(poly.optimum(objective)[0])
        t = Rat(draw(st.integers(0, 3)), 3)
        return mix_outcomes(((1 - t, ends[0]), (t, ends[1])))
    return _sparse_outcome(draw, game, list(game.profiles()))


def _sparse_outcome(draw, game, profiles):
    """Random masses on ``profiles`` in each state, scaled to its prior."""
    entries = {}
    for s in game.states:
        weights = [draw(st.sampled_from((0, 0, 1, 2, 3))) for _ in profiles]
        weights[draw(st.integers(0, len(profiles) - 1))] += 1
        for profile, w in zip(profiles, weights):
            if w:
                entries[(profile, s)] = game.prior[s] * Rat(w, sum(weights))
    out = Outcome(p=entries)
    validate_outcome(game, out)
    return out


@st.composite
def game_and_outcome(draw):
    game = draw(games())
    return game, draw(outcomes(game))


@given(game_and_outcome())
def test_is_bce_matches_slack_loop(case):
    game, outcome = case
    got, want = is_bce(game, outcome), ref.is_bce(game, outcome)
    assert got == want
    if not got:
        assert type(got.witness[3]) is Rat


@given(game_and_outcome())
def test_is_separated_matches_fraction_loop(case):
    game, outcome = case
    assert is_separated(game, outcome) == ref.is_separated(game, outcome)


@given(game_and_outcome())
def test_is_strict_bce_matches_fraction_loop(case):
    game, outcome = case
    assert is_strict_bce(game, outcome) == ref.is_strict_bce(game, outcome)


@given(game_and_outcome())
def test_br_set_matches_best_responses(case):
    game, outcome = case
    for i in game.players:
        for a in game.actions[i]:
            got = conditional_belief(game, outcome, i, a, allow_zero=True).br_set
            assert got == ref.br_set(game, outcome, i, a)


def _cloned_action(game, player, source, target):
    """``game`` with ``player``'s payoffs from ``target`` replaced by those
    from ``source``, so the two constant actions always tie."""
    def from_source(profile):
        return game.insert_action(player, source, game.opponent_profile(profile, player))

    utilities = dict(game.utilities)
    utilities[player] = {
        (profile, s): game.u(player, from_source(profile), s)
        if profile[game.player_index(player)] == target
        else u
        for (profile, s), u in game.utilities[player].items()
    }
    return BaseGame(game.players, game.states, game.prior, game.actions, utilities)


@st.composite
def unplayed_outcomes(draw, game):
    """A sparse outcome under which one player never plays one action."""
    player = draw(st.sampled_from(game.players))
    k = game.player_index(player)
    unplayed = draw(st.sampled_from(game.actions[player]))
    return _sparse_outcome(draw, game, [a for a in game.profiles() if a[k] != unplayed])


@st.composite
def value_cases(draw):
    """A 2-3-player game with 1-3 states, where two constant actions of one
    player may be made to tie, and an outcome on it: an LP optimum, a
    mixture of two, a sparse outcome, or one with an unplayed action."""
    game = draw(games(min_players=2, max_states=3))
    if draw(st.booleans()):
        player = draw(st.sampled_from(game.players))
        source, target = draw(st.permutations(game.actions[player]))[:2]
        game = _cloned_action(game, player, source, target)
    if draw(st.booleans()):
        return game, draw(unplayed_outcomes(game))
    return game, draw(outcomes(game))


@given(value_cases())
def test_values_match_fraction_loops(case):
    game, outcome = case
    tables = BeliefTables(game, outcome)
    for i in game.players:
        gross = ref.gross_value(game, outcome, i)
        uninformed = ref.uninformed_value(game, outcome, i)
        assert tables[i].gross() == gross
        assert tables[i].uninformed() == uninformed
        assert type(tables[i].gross()) is Rat and type(tables[i].uninformed()[0]) is Rat


@st.composite
def mixing_cases(draw):
    game = draw(games())
    cand, other = draw(outcomes(game)), draw(outcomes(game))
    keep = _distinct_pairs(game, cand)
    pairs = sorted(_supported_pairs(game, other), key=str)
    want = draw(st.sampled_from(pairs)) if pairs and draw(st.booleans()) else None
    weights = None
    if draw(st.booleans()):
        weights = [
            Rat(n, draw(st.integers(2 * n + 1, 2 * n + 12)))
            for n in draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
        ]
    return game, cand, other, keep, want, weights


@given(mixing_cases())
def test_mix_keeping_matches_trial_outcomes(case):
    game, cand, other, keep, want, weights = case
    try:
        want_mix = ref.mix_keeping(game, cand, other, keep, want, weights)
    except RetriesExhausted:
        try:
            _mix_keeping(game, cand, other, keep, want, weights)
        except RetriesExhausted:
            return
        raise AssertionError("the table test accepted a weight the trial loop rejected")
    got = _mix_keeping(game, cand, other, keep, want, weights)
    assert list(got.p.items()) == list(want_mix.p.items())
