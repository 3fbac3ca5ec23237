"""Shared constants for nearchain modules."""

from __future__ import annotations

#: Version stamp carried by every JSON document the pipeline writes.
SCHEMA_VERSION = "1"

#: Environment variable that overrides the configured output directory.
ENV_OUTPUT_DIR = "NEARCHAIN_OUT"


class MarginError(RuntimeError):
    """A permutation round changed the observed table's spatial margins."""
