"""Exception hierarchy. Every error carries a stable ``code`` used by the CLI."""


class RibceError(Exception):
    code = "error"


class ValidationError(RibceError):
    """Bad inputs: malformed games, outcomes, or parameters. CLI exit 2."""

    code = "validation"


class InternalInvariantError(RibceError):
    """A verified postcondition failed; this is a bug, not an input error."""

    code = "internal"


class PriorNotFullSupport(ValidationError):
    code = "prior_not_full_support"


class PriorNotNormalized(ValidationError):
    code = "prior_not_normalized"


class MissingUtilityEntry(ValidationError):
    code = "missing_utility_entry"


class DimensionMismatch(ValidationError):
    code = "dimension_mismatch"


class UnknownAction(ValidationError):
    code = "unknown_action"


class GameNotSymmetric(ValidationError):
    code = "game_not_symmetric"


class NotBinaryAction(ValidationError):
    code = "not_binary_action"


class NotSymmetricOutcome(ValidationError):
    code = "not_symmetric_outcome"


class TooManyPlayers(ValidationError):
    code = "too_many_players"


class ZeroProbabilityRecommendation(ValidationError):
    code = "zero_probability_recommendation"


class NotABce(ValidationError):
    code = "not_a_bce"


class NotSeparatedBce(ValidationError):
    code = "not_a_separated_bce"


class NotCoherent(ValidationError):
    code = "not_coherent"


class InvalidParams(ValidationError):
    code = "invalid_params"


class DimensionCapExceeded(ValidationError):
    code = "dimension_cap_exceeded"


class UnboundedPolytope(ValidationError):
    code = "unbounded_polytope"


class RetriesExhausted(RibceError):
    code = "retries_exhausted"


class SchemaViolation(ValidationError):
    code = "schema_violation"
