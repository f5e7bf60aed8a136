"""setcoh: set-consistency generation, scoring, verification, and localization."""

__version__ = "0.1.0"
