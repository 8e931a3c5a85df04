"""Shared exception types."""


class InvalidArgument(ValueError):
    """An argument fails a structural validity condition."""


class PreconditionViolation(ValueError):
    """An operation was called outside its stated domain."""


class CollapseStuck(RuntimeError):
    """The collapse scheduler could not find a legal elementary collapse.

    ``stage`` is the scheduler stage that got stuck (4 is the greedy tail)
    and is named in the message."""

    def __init__(self, stage, message, alive=()):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage
        self.alive = tuple(alive)
