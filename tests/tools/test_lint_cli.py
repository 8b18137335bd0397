"""Framework and CLI behaviour of ``repro lint``.

Covers the suppression directive, the three output formats (including a
JSON round-trip back into findings), parse-error findings, both entry
points (``repro lint`` and ``python -m repro.tools.lint``) and the gate
on this repository's own tree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.tools.lint import Finding, lint_paths, lint_text
from repro.tools.lint.cli import main as lint_main

BAD_CORE = "import numpy as np\nx = np.zeros(3)\n"       # one REP003
GOOD_CORE = "import numpy as np\nx = np.zeros(3, dtype=np.float64)\n"


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A tiny lintable tree; cwd moved there so default paths resolve."""
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "bad.py").write_text(BAD_CORE)
    (package / "good.py").write_text(GOOD_CORE)
    monkeypatch.chdir(tmp_path)
    return tmp_path


# --------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------- #
class TestSuppression:
    PATH = "src/repro/core/x.py"

    def test_same_line_directive_suppresses(self):
        source = (
            "import numpy as np\n"
            "x = np.zeros(3)  # repro-lint: disable=REP003 -- shape probe\n"
        )
        assert lint_text(source, self.PATH) == []

    def test_directive_with_multiple_codes(self):
        source = (
            "import numpy as np\nimport time\n"
            "x = np.asarray(time.time())"
            "  # repro-lint: disable=REP001,REP003 -- test clock\n"
        )
        assert lint_text(source, self.PATH) == []

    def test_disable_all_wildcard(self):
        source = (
            "import numpy as np\n"
            "x = np.zeros(3)  # repro-lint: disable=all\n"
        )
        assert lint_text(source, self.PATH) == []

    def test_other_code_does_not_suppress(self):
        source = (
            "import numpy as np\n"
            "x = np.zeros(3)  # repro-lint: disable=REP001 -- wrong code\n"
        )
        assert [f.code for f in lint_text(source, self.PATH)] == ["REP003"]

    def test_suppressed_findings_counted_not_dropped(self, tree):
        bad = tree / "src" / "repro" / "core" / "bad.py"
        bad.write_text(
            "import numpy as np\n"
            "x = np.zeros(3)  # repro-lint: disable=REP003 -- fixture\n"
        )
        report = lint_paths(["src"])
        assert report.findings == []
        assert len(report.suppressed) == 1


# --------------------------------------------------------------------- #
# output formats
# --------------------------------------------------------------------- #
class TestFormats:
    def test_human_lines(self, tree, capsys):
        assert lint_main(["src", "--format", "human"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/core/bad.py:2:5: REP003 [implicit-dtype]" in out
        assert "1 finding(s), 0 suppressed" in out

    def test_json_round_trip(self, tree, capsys):
        assert lint_main(["src", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 2
        assert payload["suppressed"] == 0
        (finding,) = payload["findings"]
        # Every field of a finding survives the round trip.
        assert [Finding(**finding)] == lint_paths(["src"]).findings

    def test_github_annotations(self, tree, capsys):
        assert lint_main(["src", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=src/repro/core/bad.py,line=2,col=5," in out
        assert "title=REP003 implicit-dtype::" in out
        assert "::notice title=repro lint::" in out

    def test_github_annotations_clean_tree(self, tree, capsys):
        (tree / "src" / "repro" / "core" / "bad.py").write_text(GOOD_CORE)
        assert lint_main(["src", "--format", "github"]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out


# --------------------------------------------------------------------- #
# runner / entry points
# --------------------------------------------------------------------- #
class TestRunner:
    def test_syntax_error_becomes_rep000_finding(self, tree):
        (tree / "src" / "repro" / "core" / "broken.py").write_text("def f(:\n")
        report = lint_paths(["src"])
        rep000 = [f for f in report.findings if f.code == "REP000"]
        assert len(rep000) == 1 and rep000[0].symbol == "syntax-error"
        assert lint_main(["src"]) == 1  # parse failures fail the gate

    def test_unknown_rule_is_usage_error(self, tree, capsys):
        assert lint_main(["src", "--select", "NOPE999"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tree, capsys):
        assert lint_main(["does-not-exist"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_skip_excludes_a_rule(self, tree):
        assert lint_main(["src", "--skip", "REP003"]) == 0

    def test_select_by_slug(self, tree):
        assert lint_main(["src", "--select", "implicit-dtype"]) == 1

    def test_repro_cli_subcommand_matches_standalone(self, tree, capsys):
        assert repro_main(["lint", "src"]) == 1
        via_repro = capsys.readouterr().out
        assert lint_main(["src"]) == 1
        assert capsys.readouterr().out == via_repro

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006"):
            assert code in out

    def test_python_m_entry_point(self, tree):
        # One subprocess smoke test: `python -m repro.tools.lint` is the
        # documented entry point for trees without the repro CLI on PATH.
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.lint", "src"],
            capture_output=True,
            text=True,
            cwd=tree,
            env=env,
        )
        assert result.returncode == 1
        assert "REP003" in result.stdout


class TestRepoIsClean:
    def test_committed_tree_has_no_new_findings(self):
        """The acceptance gate: repo src/ lints clean."""
        repo_root = Path(__file__).resolve().parents[2]
        report = lint_paths([repo_root / "src"])
        assert report.findings == [], [finding.as_dict() for finding in report.findings]
