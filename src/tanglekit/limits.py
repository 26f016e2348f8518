"""Resource ceilings for the exhaustive searches.

The underlying theory is existential while this library is exhaustive, so
every enumerator runs under an explicit cap and raises ResourceLimitError
instead of running away on large inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

ENV_CAP = "TANGLEKIT_CAP"


class ResourceLimitError(RuntimeError):
    """An enumeration exceeded its configured ceiling."""

    def __init__(self, stage: str, limit: int):
        super().__init__(f"resource limit exceeded in {stage} (cap {limit})")
        self.stage = stage
        self.limit = limit


@dataclass(frozen=True)
class Caps:
    """Ceilings for the main enumeration stages."""

    max_cycles: int = 1_000_000        # cycles per graph
    max_theta_pairs: int = 20_000_000  # cycle pairs tested: theta check and closure, disjoint pairs
    max_subsets: int = 2_000_000       # edge/vertex subset candidates
    max_assignments: int = 2_000_000   # role assignments / orderings tried

    @staticmethod
    def uniform(n: int) -> "Caps":
        """One ceiling for every stage, as ``TANGLEKIT_CAP`` sets it."""
        return Caps(**{f.name: n for f in fields(Caps)})


DEFAULT_CAPS = Caps()


def caps_from_env() -> Caps:
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return DEFAULT_CAPS
    try:
        n = int(raw)
        if n <= 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"{ENV_CAP} must be a positive integer, got {raw!r}")
    return Caps.uniform(n)
