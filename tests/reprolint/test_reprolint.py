"""Self-tests for tools/reprolint.

Every rule has at least one *positive* fixture (flagged, with the exact rule
id and line numbers encoded as ``# expect: rule-id`` comments) and one
*negative* fixture (passes clean).  The meta-test then asserts the checker
runs clean on the real ``src``/``tests`` trees — the CI contract.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from tools.reprolint.core import collect_files, lint_file, lint_paths, parse_waivers
from tools.reprolint.registries import find_repo_root, load_registries
from tools.reprolint.rules import RULES

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("*.py"))

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<rules>[a-z-]+(?:\s*,\s*[a-z-]+)*)")

RULE_IDS = tuple(
    rule.__name__.removeprefix("rule_").replace("_", "-") for rule in RULES
)


def expected_violations(path: Path) -> set[tuple[int, str]]:
    out = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match is None:
            continue
        for rule in re.split(r"\s*,\s*", match.group("rules")):
            out.add((lineno, rule))
    return out


@pytest.fixture(scope="module")
def registries():
    return load_registries(REPO_ROOT)


class TestFixtures:
    @pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
    def test_fixture_matches_expectations(self, fixture, registries):
        got = {
            (v.line, v.rule)
            for v in lint_file(str(fixture), registries=registries)
        }
        assert got == expected_violations(fixture)

    def test_every_rule_has_a_positive_fixture(self):
        flagged = set()
        for fixture in FIXTURES:
            flagged |= {rule for _, rule in expected_violations(fixture)}
        assert set(RULE_IDS) <= flagged
        assert "unused-waiver" in flagged

    def test_every_rule_has_a_negative_fixture(self):
        # each *_good fixture must exist and carry zero expectations
        goods = [f for f in FIXTURES if f.stem.endswith("good")]
        assert len(goods) >= 6
        for fixture in goods:
            assert expected_violations(fixture) == set()


class TestEngine:
    def test_waiver_parsing(self):
        # the marker is assembled at runtime so linting THIS file does not
        # read these string literals as (unused) waivers
        marker = "# reprolint" + ": disable="
        waivers = parse_waivers(
            [
                f"x = 1  {marker}rng-discipline(the reason)",
                "y = 2",
                f"{marker}shm-lifecycle,fork-safety",
            ]
        )
        assert [w.line for w in waivers] == [1, 3]
        assert waivers[0].rules == {"rng-discipline": "the reason"}
        assert set(waivers[1].rules) == {"shm-lifecycle", "fork-safety"}

    def test_syntax_error_is_reported_not_raised(self, tmp_path, registries):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        violations = lint_file(str(bad), registries=registries)
        assert [v.rule for v in violations] == ["syntax-error"]

    def test_collect_files_skips_fixture_dirs(self):
        files = collect_files([str(Path(__file__).parent)])
        assert Path(__file__) in files
        assert not any("fixtures" in f.parts for f in files)

    def test_registry_extraction(self, registries):
        assert registries.sources is not None
        assert registries.sources == frozenset({"corpus", "degree", "decayed"})
        assert registries.vocabulary("chunk_size") == frozenset()
        assert registries.backends is not None
        assert registries.backends == frozenset({"reference", "blocked"})
        assert registries.models is not None
        assert {
            "original", "proposed", "dataflow", "block", "batch_rls"
        } <= registries.models
        assert registries.transports == frozenset({"shm", "pickle"})
        assert registries.stores == frozenset({"local", "shm"})
        assert registries.vocabulary("store") == registries.stores

    def test_find_repo_root(self):
        assert find_repo_root(Path(__file__)) == REPO_ROOT


class TestRepoIsClean:
    """The CI contract: the real tree carries zero unwaived violations."""

    def test_src_and_tests_clean(self):
        violations, n_files = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests"], root=REPO_ROOT
        )
        assert violations == [], "\n".join(v.render() for v in violations)
        assert n_files > 100  # the sweep actually covered the tree


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "tools.reprolint", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_clean_tree_exits_zero(self):
        proc = self.run_cli("src", "tests")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_violations_exit_one_with_locations(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n\n\ndef f():\n    return np.random.default_rng()\n"
        )
        proc = self.run_cli(str(bad))
        assert proc.returncode == 1
        assert f"{bad}:5: rng-discipline:" in proc.stdout

    def test_missing_path_exits_two(self):
        proc = self.run_cli("no/such/dir")
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in RULE_IDS:
            assert rule_id in proc.stdout
