"""Shared exception types.

Everything the engine can raise on bad input or a failed backend derives
from EngineError so embedders and the CLI can catch one type.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine failures."""


class ConfigError(EngineError):
    """Invalid configuration value: a bound declared beside a key names the key;
    a rule a part checks (such as apm.lo <= apm.hi) is worded by that part."""


class DatasetError(EngineError):
    """Malformed workload or catalog file; the message names the line."""


class BackendError(EngineError):
    """A model backend call failed after its retry."""

    def __init__(self, role: str, message: str):
        super().__init__(f"{role}: {message}")
        self.role = role


class DecompositionError(EngineError):
    """A node could not be split into two usable sub-queries."""
