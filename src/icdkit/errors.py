"""Exception types raised across the toolkit: a fault in an input file raises
:class:`InvalidFormatError` (CLI exit 3), a fault in the run configuration
:class:`ConfigError` (exit 2), and a bad library argument a plain ``ValueError``."""


class InvalidFormatError(ValueError):
    """Input data does not have the expected shape or content (code, row, line or vector)."""


class ConfigError(Exception):
    """Run configuration is missing, malformed, or references bad paths."""
