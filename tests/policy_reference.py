"""The Fraction loops behind the complete-information Nash test and the
full-information cost bound, before both read the outcome's int masses
through ``games.payoffs_by_group``, kept as references the new code must
reproduce exactly: the same verdicts, the same per-state mixes and the same
bound."""

from itertools import product

from ribce.rational import ONE, ZERO
from ribce.vanishing import NashProfile


def state_best_reply_value(game, rep, player):
    """The player's payoff when observing (z, theta) and best responding,
    opponents following the canonical representation ``rep``'s plans."""
    total = ZERO
    for state in game.states:
        pi = game.prior[state]
        for z in rep.correlation_states:
            zmass = rep.kernel[(state, z)] * pi
            if not zmass:
                continue
            opponents = [
                [
                    (a, rep.action_plans[j][(a, cell)])
                    for a in game.actions[j]
                    if rep.action_plans[j][(a, cell)]
                ]
                for j, cell in zip(game.opponents(player), game.opponent_profile(z, player))
            ]
            best = None
            for own in game.actions[player]:
                val = ZERO
                for combo in product(*opponents):
                    opp_profile = tuple(a for a, _ in combo)
                    weight = ONE
                    for _, w in combo:
                        weight *= w
                    profile = game.insert_action(player, own, opp_profile)
                    val += weight * game.u(player, profile, state)
                if best is None or val > best:
                    best = val
            total += zmass * best
    return total


def is_complete_info_nash(game, outcome):
    n = len(game.players)
    marginals = {}
    for state in game.states:
        for k, i in enumerate(game.players):
            for a in game.actions[i]:
                mass = ZERO
                for (profile, s), q in outcome.p.items():
                    if s == state and profile[k] == a and q:
                        mass += q
                marginals[(state, i, a)] = mass
    for state in game.states:
        pi_pow = game.prior[state] ** (n - 1)
        for profile in game.profiles():
            lhs = outcome.mass(profile, state) * pi_pow
            rhs = ONE
            for k, i in enumerate(game.players):
                rhs *= marginals[(state, i, profile[k])]
            if lhs != rhs:
                return False, None
    mixes = {}
    for state in game.states:
        for i in game.players:
            mixes[(state, i)] = {
                a: marginals[(state, i, a)] / game.prior[state] for a in game.actions[i]
            }
    for state in game.states:
        for i in game.players:
            payoffs = {}
            for a in game.actions[i]:
                total = ZERO
                for opp in game.opponent_profiles(i):
                    weight = ONE
                    for j, a_j in zip(game.opponents(i), opp):
                        weight *= mixes[(state, j)][a_j]
                    if weight:
                        total += weight * game.u(i, game.insert_action(i, a, opp), state)
                payoffs[a] = total
            best = max(payoffs.values())
            for a in game.actions[i]:
                if mixes[(state, i)][a] and payoffs[a] != best:
                    return False, None
    return True, NashProfile(mixes=mixes)
