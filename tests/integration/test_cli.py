"""Integration tests for the ``python -m repro`` CLI."""

import pytest

from repro.cli import main


class TestCatalog:
    def test_lists_devices(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "XC6VLX365T" in out
        assert "XC5VLX155" in out

    def test_family_filter(self, capsys):
        assert main(["catalog", "--family", "virtex-6"]) == 0
        out = capsys.readouterr().out
        assert "XC6VLX365T" in out
        assert "XC5VLX155" not in out


class TestTaxonomy:
    def test_prints_tree(self, capsys):
        assert main(["taxonomy"]) == 0
        out = capsys.readouterr().out
        assert "Enhanced processing elements" in out
        assert "Device-specific hardware" in out


class TestTable2:
    def test_matches_paper(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "RPE_0 <-> Node_2" in out
        assert "matches the published table: True" in out


class TestSimulate:
    def test_default_run(self, capsys):
        assert main(["simulate", "--tasks", "30", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "completed / discarded / pending   30 / 0 / 0" in out

    def test_energy_flag(self, capsys):
        assert main(["simulate", "--tasks", "10", "--energy"]) == 0
        assert "energy total" in capsys.readouterr().out

    def test_every_strategy_accepted(self, capsys):
        from repro.scheduling import ALL_STRATEGIES

        for name in ALL_STRATEGIES:
            assert main(["simulate", "--tasks", "5", "--strategy", name]) == 0
            capsys.readouterr()

    def test_unknown_strategy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--strategy", "magic"])
        assert "unknown strategy" in capsys.readouterr().err

    def test_deterministic_under_seed(self, capsys):
        main(["simulate", "--tasks", "20", "--seed", "9"])
        first = capsys.readouterr().out
        main(["simulate", "--tasks", "20", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second

    def test_negative_seed_rejected(self, capsys):
        """A negative seed must die at the parser (exit 2), not as a
        numpy traceback from deep inside the run."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seed", "-1", "--tasks", "5"])
        assert exc.value.code == 2
        assert "--seed must be non-negative" in capsys.readouterr().err

    def test_unknown_fault_preset_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--faults", "bogus", "--tasks", "5"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_resilience_flags_smoke(self, capsys):
        assert main([
            "simulate", "--tasks", "20", "--seed", "3", "--faults", "chaos",
            "--breaker", "--deadlines", "--checkpoint-interval", "0.25",
            "--speculative", "1.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "completed / discarded / pending" in out

    def test_resilience_flags_do_not_change_clean_run(self, capsys):
        """Breakers/deadlines that never fire leave the headline
        metrics untouched (zero-cost-when-armed-but-idle)."""
        main(["simulate", "--tasks", "20", "--seed", "9"])
        baseline = capsys.readouterr().out
        main(["simulate", "--tasks", "20", "--seed", "9",
              "--breaker", "--deadlines"])
        armed = capsys.readouterr().out
        assert baseline == armed

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--checkpoint-interval", "0"], "must be positive"),
            (["simulate", "--speculative", "1.0"], "must be > 1"),
            (["simulate", "--deadlines", "9:3"], "SOFT:HARD"),
            (["simulate", "--deadlines", "abc"], "SOFT:HARD"),
        ],
    )
    def test_bad_resilience_values_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestRunSizeValidation:
    """Bad ``--tasks``/``--rate`` values die at the parser (exit 2) on
    every experiment subcommand, not as a traceback from the spec."""

    @pytest.mark.parametrize("command", ["simulate", "sweep", "chaos", "overload", "slo"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tasks", "-5", "--tasks must be non-negative"),
            ("--rate", "nan", "--rate must be finite and positive"),
            ("--rate", "-1", "--rate must be finite and positive"),
            ("--rate", "inf", "--rate must be finite and positive"),
        ],
    )
    def test_rejected_with_exit_2(self, capsys, command, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


class TestChaos:
    def test_recovery_table(self, capsys):
        assert main(["chaos", "--tasks", "20", "--seed", "3",
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "fcfs" in out and "hybrid-cost" in out

    def test_resilience_metrics_and_json(self, tmp_path, capsys):
        dst = tmp_path / "chaos.json"
        assert main(["chaos", "--tasks", "30", "--seed", "3", "--jobs", "1",
                     "--breaker", "--deadlines", "--checkpoint-interval",
                     "0.25", "--json", str(dst)]) == 0
        out = capsys.readouterr().out
        assert "checkpoints" in out
        import json

        data = json.loads(dst.read_text())
        assert set(data) == {"fcfs", "hybrid-cost"}
        for record in data.values():
            assert "wasted_work_saved_s" in record
            assert "deadline_miss_rate" in record


class TestClustalw:
    def test_synthetic_alignment(self, capsys):
        assert main(["clustalw", "--family-size", "3", "--length", "30"]) == 0
        out = capsys.readouterr().out
        assert out.count(">seq") == 3
        assert "guide tree" in out

    def test_fasta_roundtrip(self, tmp_path, capsys):
        from repro.bioinfo.sequences import synthetic_family, write_fasta

        src = tmp_path / "in.fasta"
        dst = tmp_path / "out.fasta"
        write_fasta(synthetic_family(3, 40, seed=1), src)
        assert main(["clustalw", "--fasta", str(src), "--out", str(dst)]) == 0
        capsys.readouterr()
        from repro.bioinfo.sequences import read_fasta

        aligned = read_fasta(dst)
        assert len(aligned) == 3
        assert len({len(s.residues) for s in aligned}) == 1

    def test_nj_tree_option(self, capsys):
        assert main(["clustalw", "--family-size", "3", "--length", "30", "--tree", "nj"]) == 0
        capsys.readouterr()
