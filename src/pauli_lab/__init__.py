"""Density thresholds, counterexample constructions, and verification for
sampled phase retrieval in the Gaussian decay class."""

__version__ = "0.1.0"


class CheckFailedError(Exception):
    """A requested check or construction failed on valid input (CLI exit 1)."""
