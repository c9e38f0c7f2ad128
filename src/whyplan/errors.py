"""Exception hierarchy shared across the package."""


class WhyplanError(Exception):
    """Base class for all errors raised by this package."""


class ScenarioParseError(WhyplanError):
    """Scenario file is missing, unreadable, or structurally malformed."""


class ScenarioValidationError(WhyplanError):
    """Scenario parsed but violates an invariant; message names the invariant."""


class OffRoadError(WhyplanError):
    """A position could not be matched to any lane within the allowed margin."""


class InapplicableMacroError(WhyplanError):
    """A macro action was expanded in a state where its preconditions fail."""


class GoalUnreachableError(WhyplanError):
    """No lane path or macro sequence reaches the goal."""


class EmptyTraceLogError(WhyplanError):
    """A Bayes net cannot be built from zero simulation traces."""


class UnexploredCounterfactualError(WhyplanError):
    """Evidence has zero probability: the counterfactual was never explored."""


class QueryParseError(WhyplanError):
    """A counterfactual query string could not be parsed."""


class StyleError(WhyplanError, ValueError):
    """A style file is unreadable, not a JSON object, or has a rejected table."""


class RunDirectoryError(WhyplanError):
    """A run directory or one of its artifacts is missing, unreadable or malformed."""
