"""Documentation freshness and completeness checks."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent


def load_generator(name: str = "gen_api_docs"):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestApiReference:
    def test_api_md_is_fresh(self):
        """docs/API.md must match what the generator produces from the
        current code -- documentation drift fails the build."""
        generator = load_generator()
        expected = generator.generate()
        actual = (REPO / "docs" / "API.md").read_text(encoding="utf-8")
        assert actual == expected, (
            "docs/API.md is stale; regenerate with `python tools/gen_api_docs.py`"
        )

    def test_every_package_documented(self):
        text = (REPO / "docs" / "API.md").read_text(encoding="utf-8")
        for package in (
            "repro.core", "repro.grid", "repro.sim", "repro.hardware",
            "repro.scheduling", "repro.bioinfo", "repro.profiling",
            "repro.casestudy", "repro.imaging",
        ):
            assert f"## `{package}`" in text, package

    def test_no_undocumented_modules(self):
        generator = load_generator()
        text = generator.generate()
        assert "(undocumented)" not in text


class TestDashboardExample:
    def test_committed_dashboard_is_fresh(self):
        """docs/dashboard_example.html and its two SVGs must be what the
        tool renders from the current code."""
        generated = load_generator("gen_dashboard_svgs").generate()
        assert sorted(generated) == [
            "dashboard_example.html",
            "dashboard_timeline.svg",
            "dashboard_utilization.svg",
        ]
        for name, expected in generated.items():
            actual = (REPO / "docs" / name).read_text(encoding="utf-8")
            assert actual == expected, (
                f"docs/{name} is stale; regenerate with "
                "`PYTHONPATH=src python tools/gen_dashboard_svgs.py`"
            )


class TestTopLevelDocs:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_exists_and_substantial(self, name):
        path = REPO / name
        assert path.exists(), name
        assert len(path.read_text()) > 2_000, name

    def test_design_maps_every_bench(self):
        """Every bench file must be referenced in DESIGN.md's index."""
        design = (REPO / "DESIGN.md").read_text()
        for bench in sorted((REPO / "benchmarks").glob("bench_*.py")):
            assert bench.name in design or bench.stem in design, bench.name

    def test_experiments_covers_every_table_and_figure(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in (
            "Table I", "Table II",
            *(f"Figure {i}" for i in range(1, 11)),
            "Quipu",
        ):
            assert artifact in experiments, artifact
