"""Integration tests for the ``python -m repro`` CLI."""

import json

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
            (["simulate", "--speculative", "1.5"], "unrecognized arguments"),
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["casestudy", "--family-size", "0"], "--family-size must be >= 2"),
        (["casestudy", "--family-size", "1"], "--family-size must be >= 2"),
        (["casestudy", "--length", "-1"], "--length must be >= 1"),
        (["clustalw", "--family-size", "0"], "--family-size must be >= 2"),
        (["clustalw", "--family-size", "1"], "--family-size must be >= 2"),
        (["clustalw", "--length", "0"], "--length must be >= 1"),
        (["clustalw", "--fasta", "/nonexistent/in.fasta"], "--fasta file does not exist"),
        (["analyze", "t.jsonl", "--top", "-1"], "--top must be >= 0"),
        (["analyze", "t.jsonl", "--exemplars", "-1"], "--exemplars must be >= 0"),
        (["chaos", "--max-lost", "-1"], "--max-lost must be >= 0"),
        (["overload", "--max-queue", "-1"], "--max-queue must be >= 0"),
    ],
)
def test_bad_sizes_and_gates_exit_2(capsys, argv, message):
    """Values a generator would reject with a traceback, or a gate or
    table would take silently, die at the parser."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "field, values",
    [("discard_after_s", "1.0,nan"), ("discard_after_s", "inf"),
     ("seed", "-1"), ("configurations", "0")],
)
def test_sweep_rejects_bad_values_with_exit_2(capsys, field, values):
    assert main(["sweep", "--tasks", "10", "--field", field, "--values", values]) == 2
    err = capsys.readouterr().err
    assert "repro sweep: error:" in err and "Traceback" not in err


FLASH_CROWD_CASES = [
    ("nan:400:4", "surge_start_s must be finite"),
    ("20:400:inf", "surge_multiplier must be finite"),
    ("20:-5:4", "surge duration must be positive"),
    ("20:400:0", "surge multiplier must be >= 1"),
]


class TestSurgeAndPriorityValues:
    """Surge windows and priority fractions the arrival process or the
    experiment spec would reject die at the boundary with exit 2."""

    def rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "slo"])
    @pytest.mark.parametrize("value, message", FLASH_CROWD_CASES)
    def test_flash_crowd(self, capsys, command, value, message):
        self.rejected(capsys, [command, "--flash-crowd", value], "--flash-crowd: " + message)

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--surge", "nan", "surge_multiplier must be finite"),
            ("--surge-duration", "-1", "surge duration must be positive"),
            ("--surge-start", "inf", "surge_start_s must be finite"),
        ],
    )
    def test_overload_surge(self, capsys, flag, value, message):
        self.rejected(capsys, ["overload", flag, value], message)

    @pytest.mark.parametrize("command", ["simulate", "overload", "slo"])
    @pytest.mark.parametrize("value", ["nan", "1.5", "-0.1"])
    def test_low_priority(self, capsys, command, value):
        self.rejected(
            capsys,
            [command, "--low-priority", value],
            "--low-priority: low_priority_fraction must be in [0, 1]",
        )


class TestResilienceAndWorkloadValues:
    """Non-finite resilience values and out-of-range workload values die
    at the boundary with exit 2, through the specs' own checks."""

    rejected = TestSurgeAndPriorityValues.rejected

    @pytest.mark.parametrize("command", ["simulate", "chaos"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--deadlines", "nan:4"], "soft_factor must be finite"),
            (["--deadlines", "4:inf"], "hard_factor must be finite"),
            (["--deadlines", "inf"], "soft_factor must be finite"),
            (["--deadlines", "4:nan"], "hard_factor must be finite"),
            (["--checkpoint-interval", "nan"], "--checkpoint-interval: interval_s must be finite"),
            (["--checkpoint-interval", "inf"], "--checkpoint-interval: interval_s must be finite"),
        ],
    )
    def test_non_finite_resilience(self, capsys, command, flags, message):
        self.rejected(capsys, [command, *flags], message)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gpp-fraction", "nan"], "--gpp-fraction: gpp_fraction must be in [0, 1]"),
            (["--gpp-fraction", "1.5"], "--gpp-fraction: gpp_fraction must be in [0, 1]"),
            (["--gpp-fraction", "-0.1"], "--gpp-fraction: gpp_fraction must be in [0, 1]"),
            (["--configurations", "0"], "--configurations: configurations must be positive"),
            (["--configurations", "-3"], "--configurations: configurations must be positive"),
            (["--replications", "0"], "--replications must be >= 1"),
            (["--replications", "-2"], "--replications must be >= 1"),
        ],
    )
    def test_bad_workload_values(self, capsys, flags, message):
        self.rejected(capsys, ["simulate", "--tasks", "5", *flags], message)


NON_FINITE_OBJECTIVES = ["latency-p95:nan", "latency-p95:2.0:nan", "queue:64:inf"]


class TestNonFiniteObjectives:
    """NaN/inf SLO objectives die at the boundary with exit 2, on both
    the ``slo`` command and ``simulate --slo``."""

    @pytest.mark.parametrize("objective", NON_FINITE_OBJECTIVES)
    def test_slo_command_exits_2(self, capsys, objective):
        assert main(["slo", "-o", objective]) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("objective", NON_FINITE_OBJECTIVES)
    def test_simulate_slo_exits_2(self, capsys, objective):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--slo", objective])
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err


class TestMalformedTraceLines:
    """``report``, ``slo`` and ``analyze`` reject a malformed trace line
    with exit 2 and the line's number, never a traceback or a NaN."""

    CASES = [
        ('{"t": 1.0, "key": 1}', "line 2: 'kind' must be a non-empty string"),
        ('{"t": "x", "kind": "submit", "key": 1}', "line 2: 't' must be a finite number"),
        ('{"t": NaN, "kind": "submit", "key": 1}', "line 2: 't' must be a finite number"),
        # A key must be hashable once read: no object, no nested list.
        ('{"t": 0.0, "kind": "submit", "key": {"a": 1}}',
         "line 2: 'key' must be null, a string, a number or a flat list"),
        ('{"t": 0.0, "kind": "submit", "key": [[1], 2]}',
         "line 2: 'key' must be null, a string, a number or a flat list"),
        # A kind the simulator never emits, and one it no longer emits.
        ('{"t": 1.0, "kind": "bogus", "key": 1}', "line 2: unknown event kind 'bogus'"),
        ('{"t": 1.0, "kind": "speculate", "key": 1, "action": "launch"}',
         "line 2: unknown event kind 'speculate'"),
    ]

    @pytest.mark.parametrize("command", ["report", "slo", "analyze"])
    @pytest.mark.parametrize("line, message", CASES)
    def test_exit_2(self, tmp_path, capsys, command, line, message):
        from repro.sim.telemetry import TelemetryRegistry

        trace = tmp_path / "bad.jsonl"
        trace.write_text(
            '{"t": 0.0, "kind": "submit", "key": 0}\n' + line + "\n",
            encoding="ascii",
        )
        if command == "report":
            telemetry = tmp_path / "t.json"
            TelemetryRegistry().write_json(telemetry)
            argv = ["report", str(telemetry), str(trace),
                    "-o", str(tmp_path / "r.html")]
        else:
            argv = [command, str(trace)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"repro {command}: error:" in err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["slo", "analyze"])
    @pytest.mark.parametrize("line", [
        '{"t": "x", "kind": "submit", "key": 1}',
        '{"t": 1.0, "kind": "submit", "key": {"a": 1}}',
    ])
    def test_mid_file_record_exits_2(self, tmp_path, capsys, command, line):
        """The folds stream the file, so a bad record in the middle is
        met partway through the fold, after hundreds of good events."""
        from tests.sim.test_golden_traces import DATA_DIR

        good = (DATA_DIR / "golden_trace_chaos.jsonl").read_text(
            encoding="ascii").splitlines()
        half = len(good) // 2
        trace = tmp_path / "bad.jsonl"
        trace.write_text("\n".join(good[:half] + [line] + good[half:]) + "\n",
                         encoding="ascii")
        assert main([command, str(trace)]) == 2
        err = capsys.readouterr().err
        assert f"repro {command}: error: {trace}: line {half + 1}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["slice-alloc", "slice-free"])
    @pytest.mark.parametrize("missing", ["node", "resource", "region"])
    def test_report_slice_event_without_place_exits_2(
        self, tmp_path, capsys, kind, missing
    ):
        from repro.sim.telemetry import TelemetryRegistry

        place = {"node": 0, "resource": 0, "region": 0}
        del place[missing]
        trace = tmp_path / "bad.jsonl"
        trace.write_text(
            '{"t": 0.0, "kind": "submit", "key": 0}\n'
            + json.dumps({"t": 0.5, "kind": kind, "key": 0, **place}) + "\n",
            encoding="ascii",
        )
        telemetry = tmp_path / "t.json"
        TelemetryRegistry().write_json(telemetry)
        argv = ["report", str(telemetry), str(trace),
                "-o", str(tmp_path / "r.html")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"repro report: error: {trace}:" in err
        assert repr(missing) in err and "Traceback" not in err


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

    @pytest.mark.parametrize(
        "text, names",
        [
            (None, ("seq000", "'-'", "already aligned")),  # its own --out file
            (">a\nARNZ\n>b\nARND\n", ("'a'", "'Z'")),
            ("", ("at least two sequences, got 0",)),
            (">a\nARND\n>a\nARNE\n", ("repeated: a",)),
        ],
        ids=["aligned-output", "unknown-residue", "empty-file", "duplicate-id"],
    )
    def test_bad_fasta_exits_2_naming_file_and_record(self, tmp_path, capsys, text, names):
        path = tmp_path / "in.fasta"
        if text is None:
            assert main(["clustalw", "--family-size", "3", "--length", "30",
                         "--out", str(path)]) == 0
        else:
            path.write_text(text)
        capsys.readouterr()
        assert main(["clustalw", "--fasta", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro clustalw: error: {path}: ")
        assert "Traceback" not in err
        for name in names:
            assert name in err
