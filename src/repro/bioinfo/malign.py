"""Progressive multiple alignment (ClustalW's ``malign`` stage).

Groups of already-aligned sequences are summarized as **profiles**
(per-column residue frequency vectors); profiles are aligned with the
same wavefront affine DP as sequence pairs, but over the
profile-profile column score

.. math::

    prfscore(c_1, c_2) = f_{c_1}^T \\; S \\; f_{c_2}

which vectorizes over all column pairs as ``(F1 @ S) @ F2.T`` -- one
matrix product per merge (ClustalW's ``prfscore`` kernel).  The merge
schedule follows the guide tree's post-order (:func:`malign`), exactly
ClustalW's progressive scheme; :func:`pdiff` is the profile analogue of
the pairwise ``diff`` kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bioinfo.guidetree import TreeNode
from repro.bioinfo.pairalign import GAP_CHAR, OP_DEL, OP_INS, _wavefront
from repro.bioinfo.scoring import GapPenalty, SubstitutionMatrix
from repro.bioinfo.sequences import Sequence

#: One group member: (original sequence index, gapped residue string).
AlignedMember = tuple[int, str]


@dataclass
class Profile:
    """Column-frequency summary of an aligned group."""

    members: list[AlignedMember]
    frequencies: np.ndarray  # (columns, alphabet) float64, rows sum <= 1
    gap_fraction: np.ndarray  # (columns,) fraction of gaps per column

    @classmethod
    def from_members(
        cls, members: list[AlignedMember], matrix: SubstitutionMatrix
    ) -> "Profile":
        if not members:
            raise ValueError("a profile needs at least one member")
        lengths = {len(s) for _, s in members}
        if len(lengths) != 1:
            raise ValueError(f"members disagree on alignment length: {sorted(lengths)}")
        (length,) = lengths
        a = len(matrix.alphabet)
        freq = np.zeros((length, a))
        gaps = np.zeros(length)
        for _, gapped in members:
            for col, ch in enumerate(gapped):
                if ch == GAP_CHAR:
                    gaps[col] += 1
                else:
                    freq[col, matrix.index_of(ch)] += 1
        total = len(members)
        return cls(members=members, frequencies=freq / total, gap_fraction=gaps / total)

    @property
    def length(self) -> int:
        return self.frequencies.shape[0]

    @property
    def size(self) -> int:
        return len(self.members)


def prfscore(p1: Profile, p2: Profile, matrix: SubstitutionMatrix) -> np.ndarray:
    """All column-pair scores between two profiles: ``(F1 S) F2^T``."""
    s = matrix.matrix.astype(np.float64)
    return (p1.frequencies @ s) @ p2.frequencies.T


def pdiff(
    p1: Profile, p2: Profile, matrix: SubstitutionMatrix, gap: GapPenalty
) -> list[int]:
    """Optimal op list aligning profile *p1* (x-side) to *p2* (y-side).

    Gap penalties are scaled down by the average gap content of the
    opposing profile so that inserting against an already-gappy column
    is cheap -- the standard position-independent approximation of
    ClustalW's position-specific gap penalties.
    """
    scores = prfscore(p1, p2, matrix)
    gap_scale = 1.0 - 0.5 * (
        float(p1.gap_fraction.mean()) + float(p2.gap_fraction.mean())
    ) / 2.0
    eff = GapPenalty(open=gap.open * gap_scale, extend=gap.extend * gap_scale)
    _, state, ptrM, ptrE, ptrF = _wavefront(scores, eff, keep_pointers=True)
    m, n = p1.length, p2.length
    if ptrM is None:  # a profile of length zero cannot exist; defensive
        return [OP_INS] * n + [OP_DEL] * m
    from repro.bioinfo.pairalign import _traceback_ops

    return _traceback_ops(m, n, state, ptrM, ptrE, ptrF)


def _apply_ops(
    members_x: list[AlignedMember],
    members_y: list[AlignedMember],
    ops: list[int],
) -> list[AlignedMember]:
    """Merge two groups by inserting gap columns per the op list."""
    merged: list[AlignedMember] = []
    for idx, gapped in members_x:
        out: list[str] = []
        pos = 0
        for op in ops:
            if op == OP_INS:
                out.append(GAP_CHAR)
            else:  # MATCH or DEL consume an x column
                out.append(gapped[pos])
                pos += 1
        if pos != len(gapped):
            raise ValueError("op list does not cover profile x")
        merged.append((idx, "".join(out)))
    for idx, gapped in members_y:
        out = []
        pos = 0
        for op in ops:
            if op == OP_DEL:
                out.append(GAP_CHAR)
            else:  # MATCH or INS consume a y column
                out.append(gapped[pos])
                pos += 1
        if pos != len(gapped):
            raise ValueError("op list does not cover profile y")
        merged.append((idx, "".join(out)))
    return merged


def malign(
    sequences: list[Sequence],
    tree: TreeNode,
    matrix: SubstitutionMatrix,
    gap: GapPenalty,
) -> list[Sequence]:
    """Progressive alignment along the guide tree.

    Returns gapped sequences in the original input order; all outputs
    share one alignment length, and stripping gaps recovers the inputs
    exactly (property-tested).
    """
    leaves = sorted(tree.leaves())
    if leaves != list(range(len(sequences))):
        raise ValueError(
            f"tree leaves {leaves} do not cover sequences 0..{len(sequences) - 1}"
        )

    groups: dict[int, list[AlignedMember]] = {
        i: [(i, sequences[i].residues)] for i in range(len(sequences))
    }

    def group_of(node: TreeNode) -> list[AlignedMember]:
        if node.is_leaf:
            return groups[node.leaf]  # type: ignore[index]
        return node_groups[id(node)]

    node_groups: dict[int, list[AlignedMember]] = {}
    for node in tree.merge_order():
        assert node.left is not None and node.right is not None
        gx = group_of(node.left)
        gy = group_of(node.right)
        px = Profile.from_members(gx, matrix)
        py = Profile.from_members(gy, matrix)
        ops = pdiff(px, py, matrix, gap)
        node_groups[id(node)] = _apply_ops(gx, gy, ops)

    final = group_of(tree)
    by_index = dict(final)
    return [
        Sequence(
            seq_id=sequences[i].seq_id,
            residues=by_index[i],
            description=sequences[i].description,
        )
        for i in range(len(sequences))
    ]


def sum_of_pairs_score(
    alignment: list[Sequence], matrix: SubstitutionMatrix, gap: GapPenalty
) -> float:
    """Sum-of-pairs score of an MSA (gap runs charged affinely per pair).

    The standard MSA quality metric; used by tests to confirm that
    progressive alignment beats naive stacking.
    """
    n = len(alignment)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            prev = None
            for a, b in zip(alignment[i].residues, alignment[j].residues):
                if a == GAP_CHAR and b == GAP_CHAR:
                    prev = None
                    continue
                if a == GAP_CHAR:
                    total -= gap.extend if prev == "E" else gap.open
                    prev = "E"
                elif b == GAP_CHAR:
                    total -= gap.extend if prev == "F" else gap.open
                    prev = "F"
                else:
                    total += matrix.score(a, b)
                    prev = "M"
    return total
