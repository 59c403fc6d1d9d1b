"""tools/reachability_keep.txt names only functions that exist.

The full probe (``tools/reachability.py``) drives every entry point and
takes minutes; this check reads the AST only, so a rename or deletion
that strands a keep entry fails tier-1 at once.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "reachability.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_keep_entry_names_a_function_and_a_reason():
    assert load_tool().keep_problems() == []


def test_stranded_or_unexplained_entries_are_reported(tmp_path):
    tool = load_tool()
    keep = tmp_path / "keep.txt"
    keep.write_text(
        "# comment\n"
        "sim/engine.py::SimulationEngine  (a) the heap oracle\n"
        "sim/engine.py::SimulationEngine.no_such_method  (a) gone\n"
        "sim/engine.py::CalendarQueueEngine.step  because\n"
    )
    problems = tool.keep_problems(path=keep)
    assert problems == [
        "keep.txt:3: sim/engine.py::SimulationEngine.no_such_method: "
        "names no function under src/repro",
        "keep.txt:4: sim/engine.py::CalendarQueueEngine.step: "
        "reason must start with (a) or (b)",
    ]
