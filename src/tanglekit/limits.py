"""Resource ceilings for the exhaustive searches.

The underlying theory is existential while this library is exhaustive, so
every enumerator runs under an explicit cap and raises ResourceLimitError
instead of running away on large inputs.  Each stage counts through one
:class:`Budget`, the only place that raises it.  A ResourceLimitError
names its stage, and the stage names the field of :class:`Caps` it read:

=================================  ===================  ===============================================
stage                              cap field            counted by
=================================  ===================  ===============================================
enumerate_cycles                   ``max_cycles``       ``MultiGraph.cycles``, ``enumerate_cycles``,
                                                        ``chordless_vertex_sets``
enumerate_theta_subgraphs          ``max_theta_pairs``  ``enumerate_theta_subgraphs``
theta check                        ``max_theta_pairs``  ``validate_biased_graph``
theta closure                      ``max_theta_pairs``  ``complete_bias``
disjoint-pair scan                 ``max_theta_pairs``  ``find_disjoint_unbalanced_pair``
find_vertex_cuts                   ``max_subsets``      ``find_vertex_cuts``, ``decompose``
balanced subgraph search           ``max_subsets``      the maximal balanced sets of ``classify``
linkage path search                ``max_subsets``      ``find_linkage``
witness search                     ``max_subsets``      ``find_three_planar``, ``find_linkage``, where
                                                        loops crowd out the reduction witness
planar boundary pairing search     ``max_assignments``  the PPSigned detector
special-vertex search              ``max_assignments``  the special-vertex detector
generalized-wheel search           ``max_assignments``  the generalized-wheel detector
tricoloured search                 ``max_assignments``  the Tricoloured detector
wheel-core extraction              ``max_assignments``  ``decompose``, at a wheel-shaped core
=================================  ===================  ===============================================
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


class Budget:
    """The count of one search stage against its cap.

    ``spend(k)`` adds k to the count and raises ResourceLimitError(stage,
    cap) once the count passes the cap.  A search that runs in several
    calls passes one budget on, so that its calls share the count.
    """

    __slots__ = ("stage", "cap", "spent")

    def __init__(self, stage: str, cap: int):
        self.stage = stage
        self.cap = cap
        self.spent = 0

    def spend(self, k: int = 1) -> None:
        self.spent += k
        if self.spent > self.cap:
            raise ResourceLimitError(self.stage, self.cap)


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
