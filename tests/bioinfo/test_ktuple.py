"""Unit tests for k-tuple distances (ClustalW's fast mode)."""

import numpy as np
import pytest

from repro.bioinfo.clustalw import clustalw
from repro.bioinfo.ktuple import (
    kmer_codes,
    ktuple_distances,
    ktuple_similarity,
    shared_kmer_count,
)
from repro.bioinfo.pairalign import GAP_CHAR, pairalign
from repro.bioinfo.scoring import GapPenalty, blosum62, dna_matrix
from repro.bioinfo.sequences import Sequence, synthetic_family


class TestKmerCodes:
    def test_codes_are_positional(self):
        m = dna_matrix()
        codes = kmer_codes(m.encode("ACGT"), 2, 4)
        # AC=0*4+1, CG=1*4+2, GT=2*4+3.
        assert codes.tolist() == [1, 6, 11]

    def test_short_sequence_yields_empty(self):
        m = dna_matrix()
        assert kmer_codes(m.encode("A"), 2, 4).size == 0

    def test_invalid_k(self):
        m = dna_matrix()
        with pytest.raises(ValueError):
            kmer_codes(m.encode("ACGT"), 0, 4)

    def test_distinct_kmers_distinct_codes(self):
        m = dna_matrix()
        codes = kmer_codes(m.encode("AACAGATCCG"), 3, 4)
        # All windows here are distinct.
        assert len(set(codes.tolist())) == len(codes)


class TestSharedCount:
    def test_multiset_semantics(self):
        a = np.array([1, 1, 2, 3])
        b = np.array([1, 2, 2, 2])
        # min(2,1) ones + min(1,3) twos = 2.
        assert shared_kmer_count(a, b) == 2

    def test_disjoint(self):
        assert shared_kmer_count(np.array([1, 2]), np.array([3, 4])) == 0

    def test_empty(self):
        assert shared_kmer_count(np.empty(0, dtype=np.int64), np.array([1])) == 0


class TestSimilarity:
    def test_identical_sequences_score_one(self):
        m = blosum62()
        s = Sequence("a", "ARNDCQEGHILK")
        assert ktuple_similarity(s, s, m, k=2) == 1.0

    def test_unrelated_sequences_score_low(self):
        # The random-coincidence floor drops sharply with k: ~0.3 of
        # 2-mers collide by chance over a 20-letter alphabet, almost no
        # 3-mers do.
        m = blosum62()
        fam_a = synthetic_family(1, 200, seed=1)[0]
        fam_b = synthetic_family(1, 200, seed=999)[0]
        assert ktuple_similarity(fam_a, fam_b, m, k=2) < 0.5
        assert ktuple_similarity(fam_a, fam_b, m, k=3) < 0.1

    def test_similarity_decreases_with_divergence(self):
        m = blosum62()
        close = synthetic_family(2, 150, divergence=0.05, indel_rate=0.0, seed=3)
        far = synthetic_family(2, 150, divergence=0.5, indel_rate=0.0, seed=3)
        assert ktuple_similarity(*close, m) > ktuple_similarity(*far, m)


class TestDistances:
    def test_matrix_properties(self):
        fam = synthetic_family(5, 80, seed=4)
        d = ktuple_distances(fam, blosum62())
        assert d.shape == (5, 5)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
        assert ((0.0 <= d) & (d <= 1.0)).all()

    def test_correlates_with_full_alignment_distances(self):
        """The quick mode must rank pairs like the accurate mode."""
        fam = []
        for i, div in enumerate((0.05, 0.15, 0.35)):
            fam.extend(
                Sequence(f"s{i}{j}", s.residues)
                for j, s in enumerate(synthetic_family(2, 120, divergence=div, seed=6 + i))
            )
        matrix, gap = blosum62(), GapPenalty(10.0, 0.5)
        full = pairalign(fam, matrix, gap)
        quick = ktuple_distances(fam, matrix)
        iu = np.triu_indices(len(fam), 1)
        correlation = np.corrcoef(full[iu], quick[iu])[0, 1]
        assert correlation > 0.7

    def test_needs_two(self):
        with pytest.raises(ValueError):
            ktuple_distances(synthetic_family(2, 30, seed=0)[:1], blosum62())


class TestClustalWIntegration:
    def test_ktuple_mode_produces_valid_msa(self):
        fam = synthetic_family(6, 70, seed=8)
        result = clustalw(fam, distance_method="ktuple")
        assert len({len(s.residues) for s in result.alignment}) == 1
        for original, aligned in zip(fam, result.alignment):
            assert aligned.residues.replace(GAP_CHAR, "") == original.residues

    def test_unknown_method_rejected(self):
        fam = synthetic_family(3, 30, seed=9)
        with pytest.raises(ValueError, match="distance method"):
            clustalw(fam, distance_method="psychic")
