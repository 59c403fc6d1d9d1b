"""Bioinformatics substrate: a from-scratch ClustalW.

The paper's case study (Section V) profiles **ClustalW** from the
BioBench suite [17]: a multiple-sequence-alignment pipeline whose two
dominant kernels are *pairalign* (all-pairs pairwise alignment,
89.76 % of runtime) and *malign* (progressive profile alignment,
7.79 %).  Since BioBench's compiled binaries are not reproducible here,
this package implements the same pipeline in Python:

* :mod:`repro.bioinfo.scoring` -- substitution matrices (DNA and
  BLOSUM62) and affine gap penalties.
* :mod:`repro.bioinfo.sequences` -- sequence objects, seeded synthetic
  family generators (the BioBench-style workload), FASTA round-trip IO.
* :mod:`repro.bioinfo.pairalign` -- global pairwise alignment: an
  anti-diagonal *wavefront-vectorized* Gotoh affine-gap DP
  (``forward_pass`` score-only / full alignment with ``tracepath``),
  a linear-gap Hirschberg divide-and-conquer aligner (``diff``), and a
  brute-force reference for testing.
* :mod:`repro.bioinfo.guidetree` -- UPGMA and neighbour-joining guide
  trees from the pairwise distance matrix.
* :mod:`repro.bioinfo.malign` -- progressive alignment: profiles,
  ``prfscore`` column scoring, ``pdiff`` profile-profile alignment.
* :mod:`repro.bioinfo.clustalw` -- the pipeline facade whose call
  graph, run under :mod:`repro.profiling`, regenerates Figure 10.
"""

from repro.bioinfo.scoring import GapPenalty, SubstitutionMatrix, blosum62, dna_matrix
from repro.bioinfo.sequences import (
    Sequence,
    random_sequence,
    mutate,
    synthetic_family,
    read_fasta,
    write_fasta,
)
from repro.bioinfo.pairalign import (
    AlignmentResult,
    align_pair,
    forward_pass,
    hirschberg_align,
    needleman_wunsch_reference,
    pairalign,
)
from repro.bioinfo.guidetree import TreeNode, neighbor_joining, upgma
from repro.bioinfo.malign import Profile, malign, pdiff, prfscore
from repro.bioinfo.clustalw import ClustalWResult, clustalw

__all__ = [
    "GapPenalty",
    "SubstitutionMatrix",
    "blosum62",
    "dna_matrix",
    "Sequence",
    "random_sequence",
    "mutate",
    "synthetic_family",
    "read_fasta",
    "write_fasta",
    "AlignmentResult",
    "align_pair",
    "forward_pass",
    "hirschberg_align",
    "needleman_wunsch_reference",
    "pairalign",
    "TreeNode",
    "neighbor_joining",
    "upgma",
    "Profile",
    "malign",
    "pdiff",
    "prfscore",
    "ClustalWResult",
    "clustalw",
]
