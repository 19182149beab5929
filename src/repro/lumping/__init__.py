"""Lumping of Markov models: the paper's core contribution.

* :mod:`repro.lumping.refinement` — the generic partition-refinement engine
  (``CompLumping`` / ``Split`` / ``AddPair``, Figures 1-2) with a pluggable
  key function ``K``.
* :mod:`repro.lumping.state_level` — optimal state-level lumping of flat
  CTMCs (the baseline algorithm [9], extended to exact lumpability).
* :mod:`repro.lumping.keys` — key-function factories: flat-matrix sums, the
  class-sum kernel ``class_sum_keys`` behind every MD-node formal-sum
  signature, and the concrete-matrix ablation variant.
* :mod:`repro.lumping.md_model` — MDs with decomposable rewards and initial
  distributions (the MRP structure of Section 3).
* :mod:`repro.lumping.local` — ``CompLumpingLevel`` (Figure 3a).
* :mod:`repro.lumping.compositional` — ``CompositionalLump`` (Figure 3b).
* :mod:`repro.lumping.verify` — lumpability condition checkers (Theorem 1,
  Definition 3) used to validate results.
"""

from repro.lumping.refinement import comp_lumping
from repro.lumping.state_level import FlatLumpingResult, lump_mrp, lump_rate_matrix
from repro.lumping.md_model import MDModel
from repro.lumping.local import (
    comp_lumping_level,
    initial_partition_exact,
    initial_partition_ordinary,
)
from repro.lumping.compositional import (
    CompositionalLumpingResult,
    SkippedLevel,
    compositional_lump,
)
from repro.lumping.verify import (
    global_product_partition,
    is_exactly_lumpable,
    is_ordinarily_lumpable,
)

__all__ = [
    "comp_lumping",
    "FlatLumpingResult",
    "lump_mrp",
    "lump_rate_matrix",
    "MDModel",
    "comp_lumping_level",
    "initial_partition_exact",
    "initial_partition_ordinary",
    "CompositionalLumpingResult",
    "SkippedLevel",
    "compositional_lump",
    "global_product_partition",
    "is_exactly_lumpable",
    "is_ordinarily_lumpable",
]
