"""Unit tests for the ClustalW pipeline facade."""

import numpy as np
import pytest

from repro.bioinfo.clustalw import clustalw
from repro.bioinfo.pairalign import GAP_CHAR
from repro.bioinfo.scoring import GapPenalty, dna_matrix
from repro.bioinfo.sequences import Sequence, synthetic_family
from repro.bioinfo.scoring import DNA_ALPHABET


class TestPipeline:
    def test_full_run_invariants(self):
        fam = synthetic_family(6, 70, seed=1)
        result = clustalw(fam)
        assert len(result.alignment) == 6
        lengths = {len(s.residues) for s in result.alignment}
        assert len(lengths) == 1
        for original, aligned in zip(fam, result.alignment):
            assert aligned.residues.replace(GAP_CHAR, "") == original.residues
        assert result.distances.shape == (6, 6)
        assert sorted(result.tree.leaves()) == list(range(6))
        assert result.length == len(result.alignment[0].residues)

    def test_nj_and_quick_variants(self):
        fam = synthetic_family(5, 50, seed=2)
        result = clustalw(fam, tree_method="nj", distance_method="score")
        assert len(result.alignment) == 5

    def test_dna_sequences(self):
        fam = synthetic_family(4, 60, alphabet=DNA_ALPHABET, seed=3)
        result = clustalw(fam, matrix=dna_matrix(), gap=GapPenalty(8.0, 1.0))
        for original, aligned in zip(fam, result.alignment):
            assert aligned.residues.replace(GAP_CHAR, "") == original.residues

    def test_unknown_tree_method_rejected(self):
        fam = synthetic_family(3, 30, seed=4)
        with pytest.raises(ValueError, match="tree method"):
            clustalw(fam, tree_method="parsimony")

    def test_unknown_distance_method_rejected(self):
        fam = synthetic_family(3, 30, seed=9)
        with pytest.raises(ValueError, match="distance method"):
            clustalw(fam, distance_method="ktuple")

    def test_needs_two_sequences(self):
        with pytest.raises(ValueError):
            clustalw([Sequence("a", "ARND")])

    def test_duplicate_ids_rejected(self):
        seqs = [Sequence("a", "ARND"), Sequence("a", "ARNE")]
        with pytest.raises(ValueError, match="unique"):
            clustalw(seqs)

    def test_related_family_aligns_tightly(self):
        # Low-divergence family: the MSA should be mostly gap-free.
        fam = synthetic_family(5, 80, divergence=0.05, indel_rate=0.01, seed=5)
        result = clustalw(fam)
        gap_fraction = np.mean(
            [s.residues.count(GAP_CHAR) / len(s.residues) for s in result.alignment]
        )
        assert gap_fraction < 0.15
