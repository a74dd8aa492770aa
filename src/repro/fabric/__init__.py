"""Fabric variants: vanilla Fabric 1.4 and the three studied optimizations.

The paper evaluates four builds of Fabric (Section 4.5): Fabric 1.4, Fabric++
(intra-block transaction reordering, Sharma et al.), Streamchain (block-less
streaming, István et al.) and FabricSharp (cross-block serializability with
early aborts, Ruan et al.).  Each build is modelled as a
:class:`~repro.fabric.variant.FabricVariantBehavior` that plugs into the
simulated network at the ordering, validation and endorsement hooks.

Fabric++ and FabricSharp share the conflict-graph kernel of
:mod:`repro.fabric.conflictgraph` (standard library only):
``build_dependency_graph`` returns the graph as a list of successor sets
indexed by batch position, ``remove_cycles`` aborts the most-connected member
of each cyclic strongly connected component until none is left (marking the
removed positions ``None``), and ``serialization_order`` lists the survivors
in the lexicographically smallest topological order.
"""

from repro.fabric.base import Fabric14
from repro.fabric.conflictgraph import (
    build_dependency_graph,
    remove_cycles,
    serialization_order,
)
from repro.fabric.fabricpp import FabricPlusPlus
from repro.fabric.fabricsharp import FabricSharp
from repro.fabric.streamchain import Streamchain
from repro.fabric.variant import (
    VARIANT_REGISTRY,
    FabricVariantBehavior,
    available_variants,
    create_variant,
)

__all__ = [
    "Fabric14",
    "FabricPlusPlus",
    "FabricSharp",
    "Streamchain",
    "FabricVariantBehavior",
    "VARIANT_REGISTRY",
    "available_variants",
    "create_variant",
    "build_dependency_graph",
    "remove_cycles",
    "serialization_order",
]
