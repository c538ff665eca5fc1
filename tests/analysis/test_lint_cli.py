"""Linter CLI behavior: exit codes, the JSON report, explain — and the
repo's own sources linting clean."""

import json
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN_SOURCE = "def add(a, b):\n    return a + b\n"
DIRTY_SOURCE = (
    "import numpy as np\n"
    "\n"
    "rng = np.random.default_rng()\n"
)
DIRTY_TWO_FINDINGS = DIRTY_SOURCE + (
    "\n"
    "def run(acc=[]):\n"
    "    return acc\n"
)


def write(root, name, source):
    path = root / name
    path.write_text(source)
    return path


class TestExitCodes:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "ok.py", CLEAN_SOURCE)
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write(tmp_path, "bad.py", DIRTY_SOURCE)
        assert main(["lint", str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nowhere")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_paths_and_no_policy_default_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["lint"]) == 2
        assert "no paths" in capsys.readouterr().err

    def test_no_paths_exits_two_despite_pyproject_paths(self, tmp_path, capsys,
                                                         monkeypatch):
        # A `paths` list in pyproject.toml is not read: lint targets come
        # from the command line only.
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint]\npaths = [\"pkg\"]\n"
        )
        (tmp_path / "pkg").mkdir()
        write(tmp_path / "pkg", "ok.py", CLEAN_SOURCE)
        monkeypatch.chdir(tmp_path)
        assert main(["lint"]) == 2
        assert "no paths" in capsys.readouterr().err


class TestJsonFormat:
    def test_schema(self, tmp_path):
        write(tmp_path, "bad.py", DIRTY_TWO_FINDINGS)
        out = tmp_path / "report.json"
        assert main(["lint", str(tmp_path), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert set(report) == {
            "version", "rule_pack_version", "rules", "paths", "findings",
            "summary",
        }
        assert report["version"] == 2
        assert isinstance(report["rule_pack_version"], int)
        assert {r["id"] for r in report["rules"]} >= {"DET001", "API001"}
        for entry in report["rules"]:
            assert set(entry) == {"id", "title"}
        assert report["summary"] == {"files": 1, "findings": 2}
        findings = report["findings"]
        # sorted by (path, line, col): DET001 on line 3, API001 on line 5
        assert [f["rule"] for f in findings] == ["DET001", "API001"]
        for finding in findings:
            assert set(finding) == {"rule", "path", "line", "col", "message"}
            assert finding["line"] >= 1

    def test_out_writes_json_alongside_text(self, tmp_path, capsys):
        write(tmp_path, "bad.py", DIRTY_SOURCE)
        out = tmp_path / "report.json"
        assert main(["lint", str(tmp_path), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["summary"]["findings"] == 1
        out_text = capsys.readouterr().out
        assert "DET001" in out_text
        assert "json report written" in out_text


class TestExplainAndVersion:
    def test_explain_known_rule(self, capsys):
        assert main(["lint", "--explain", "ROB001"]) == 0
        page = capsys.readouterr().out
        assert "ROB001" in page
        assert "Bad:" in page and "Good:" in page

    def test_every_registered_rule_explains(self, capsys):
        from repro.analysis.lint import REGISTRY

        for rule_id in REGISTRY:
            assert main(["lint", "--explain", rule_id]) == 0
            page = capsys.readouterr().out
            assert rule_id in page

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--explain", "XXX999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_version_stamp_lists_rule_pack(self, capsys):
        from repro.analysis.lint import REGISTRY, RULE_PACK_VERSION

        assert main(["lint", "--version"]) == 0
        out = capsys.readouterr().out
        assert f"rule-pack v{RULE_PACK_VERSION}" in out
        for rule_id in REGISTRY:
            assert rule_id in out


class TestSelfLint:
    """The acceptance gate: this repository's own sources are clean."""

    def test_repo_src_lints_clean(self, capsys):
        assert (REPO_ROOT / "src" / "repro").is_dir()
        paths = [str(REPO_ROOT / name) for name in ("src", "benchmarks", "examples")]
        assert main(["lint", *paths]) == 0
        assert " 0 finding(s)" in capsys.readouterr().out
