"""Smoke tests for the example scripts.

Importing an example must not run its training loop (they all guard on
``__main__``), so these tests are fast; the quickstart's ``main`` is also
executed once end-to-end on a shrunken configuration by monkey-patching the
preset, proving the scripts work and stay in sync with the public API.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_at_least_three_examples_exist(self):
        assert len(EXAMPLE_FILES) >= 3
        assert (EXAMPLES_DIR / "quickstart.py").exists()

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_imports_cleanly(self, path):
        module = load_example(path)
        assert hasattr(module, "main"), f"{path.name} must expose a main() function"
        assert module.__doc__, f"{path.name} must have a module docstring"

    def test_quickstart_main_runs_on_tiny_config(self, monkeypatch, capsys):
        quickstart = load_example(EXAMPLES_DIR / "quickstart.py")
        from repro.experiments import presets

        def tiny_preset(**kwargs):
            kwargs.update(scale=0.05, n_honest=3, epochs=1)
            return presets.benchmark_preset.__wrapped__(**kwargs) if hasattr(
                presets.benchmark_preset, "__wrapped__"
            ) else presets.benchmark_preset(**kwargs)

        monkeypatch.setattr(quickstart, "benchmark_preset", tiny_preset)
        quickstart.main()
        output = capsys.readouterr().out
        assert "Reference Accuracy" in output
        assert "Two-stage protocol" in output

    def test_custom_defense_main_prints_every_rule(self, capsys):
        custom_defense = load_example(EXAMPLES_DIR / "custom_defense.py")
        custom_defense.main()
        output = capsys.readouterr().out
        for row in (
            "plain mean",
            "norm-capped mean (custom)",
            "two-stage protocol (paper)",
        ):
            assert row in output

    def test_inspect_uploads_main_runs(self, capsys):
        inspect = load_example(EXAMPLES_DIR / "inspect_uploads.py")
        inspect.main()
        output = capsys.readouterr().out
        assert "First-stage aggregation" in output
        assert "Second-stage aggregation" in output
        assert "ZEROED" in output

    def test_inspect_uploads_reports_every_worker_deterministically(self, capsys):
        inspect = load_example(EXAMPLES_DIR / "inspect_uploads.py")
        inspect.main()
        first = capsys.readouterr().out
        inspect.main()
        assert capsys.readouterr().out == first
        # One pool computes all six honest uploads; each appears in both tables.
        for index in range(inspect.N_HONEST):
            assert first.count(f"honest {index} ") == 2
