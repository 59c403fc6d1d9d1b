"""The ClustalW pipeline (the case study's application, Section V).

Three stages, exactly the structure the paper's profiling identifies:

1. **pairalign** -- all-pairs pairwise alignment -> distance matrix
   (89.76 % of runtime in Figure 10: :math:`\\binom{n}{2}` full DP
   alignments);
2. **guide tree** -- UPGMA or neighbour joining over the distances;
3. **malign** -- progressive profile alignment along the tree
   (7.79 % in Figure 10: only :math:`n - 1` profile DPs).

Running :func:`clustalw` under :class:`repro.profiling.CallGraphProfiler`
regenerates the Figure 10 kernel ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bioinfo.guidetree import TreeNode, neighbor_joining, upgma
from repro.bioinfo.malign import malign, sum_of_pairs_score
from repro.bioinfo.pairalign import pairalign
from repro.bioinfo.scoring import GapPenalty, SubstitutionMatrix, blosum62
from repro.bioinfo.sequences import Sequence


@dataclass(frozen=True)
class ClustalWResult:
    """Full output of one ClustalW run."""

    alignment: list[Sequence]
    distances: np.ndarray
    tree: TreeNode
    sp_score: float

    @property
    def length(self) -> int:
        return len(self.alignment[0].residues)


def clustalw(
    sequences: list[Sequence],
    *,
    matrix: SubstitutionMatrix | None = None,
    gap: GapPenalty | None = None,
    tree_method: str = "upgma",
    distance_method: str = "full",
) -> ClustalWResult:
    """Multiple-sequence alignment of *sequences*.

    Parameters
    ----------
    matrix, gap:
        Scoring model; defaults to BLOSUM62 with ClustalW-like
        open 10 / extend 0.5 penalties.
    tree_method:
        ``"upgma"`` or ``"nj"``.
    distance_method:
        ``"full"`` (accurate: full pairwise alignments) or ``"score"``
        (score-only DP).
    """
    if len(sequences) < 2:
        raise ValueError(f"ClustalW needs at least two sequences, got {len(sequences)}")
    ids = [s.seq_id for s in sequences]
    if len(set(ids)) != len(ids):
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"sequence ids must be unique; repeated: {', '.join(repeated)}")
    matrix = matrix or blosum62()
    gap = gap or GapPenalty(10.0, 0.5)
    for seq in sequences:
        bad = "".join(sorted(set(seq.residues.upper()) - set(matrix.alphabet)))
        if bad:
            hint = " (gaps: is the input already aligned?)" if "-" in bad else ""
            raise ValueError(
                f"sequence {seq.seq_id!r}: residue(s) {bad!r} not in the "
                f"{matrix.name} alphabet{hint}"
            )

    if distance_method in ("full", "score"):
        distances = pairalign(
            sequences, matrix, gap, full_alignments=distance_method == "full"
        )
    else:
        raise ValueError(
            f"unknown distance method {distance_method!r}; "
            "use 'full' or 'score'"
        )

    if tree_method == "upgma":
        tree = upgma(distances)
    elif tree_method == "nj":
        tree = neighbor_joining(distances)
    else:
        raise ValueError(f"unknown tree method {tree_method!r}; use 'upgma' or 'nj'")

    alignment = malign(sequences, tree, matrix, gap)
    return ClustalWResult(
        alignment=alignment,
        distances=distances,
        tree=tree,
        sp_score=sum_of_pairs_score(alignment, matrix, gap),
    )
