"""The citations of ``docs/invariants.md`` stay live.

Every test node id the table cites must collect, and every frozen
reference module it cites must be imported by some test.  Only the
citations are checked; no test is run, skipped or loosened by this.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "docs" / "invariants.md"


def citations() -> tuple[list, list]:
    """``(node ids, reference modules)`` cited in the table's rows."""
    node_ids, references = [], []
    for line in TABLE.read_text().splitlines():
        if not re.match(r"\| [A-Z]\d+ \|", line):
            continue
        for cited in re.findall(r"`([^`]+)`", line):
            if "::" in cited:
                node_ids.append(cited)
            elif cited.startswith("tests/") and cited.endswith(".py"):
                references.append(cited)
    return node_ids, references


def test_the_table_cites_tests_and_references():
    node_ids, references = citations()
    assert len(node_ids) >= 6
    assert references


def test_every_cited_node_id_collects():
    node_ids, _ = citations()
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "--collect-only", "-q",
            "-p", "no:cacheprovider", *node_ids,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    collected = proc.stdout
    for node_id in node_ids:
        assert node_id in collected, f"{node_id} collects no test"


def test_every_cited_reference_is_imported_by_a_test():
    _, references = citations()
    imported = set()
    for path in (ROOT / "tests").rglob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
    for reference in references:
        assert (ROOT / reference).is_file(), f"{reference} is gone"
        assert Path(reference).stem in imported, (
            f"no test imports {reference}"
        )
