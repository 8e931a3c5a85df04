"""Shared exception types."""


class InvalidArgument(ValueError):
    """An argument fails a structural validity condition."""


class PreconditionViolation(ValueError):
    """An operation was called outside its stated domain."""

