"""The configuration surface, pinned: environment variables, code generation and cited entry points.

Every ``REPRO_*`` variable is a path that must be tested, documented and
kept bit-identical, so adding one is a reviewed diff to the list below; so
is a new module that turns text into code.  A document that names a module
or a benchmark file must name one that exists.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

ENVIRONMENT_VARIABLES = {
    "REPRO_SHARDS",
    "REPRO_PARALLEL_VIEWS",
    "REPRO_BACKEND",
    "REPRO_NO_COMPILE",
    "REPRO_FSYNC",
    "REPRO_WAL_SEGMENT_BYTES",
    "REPRO_TENANT",
    "REPRO_SERVER",
}

DOCUMENTS = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]


CODE_GENERATORS = {"src/repro/nrc/kernels.py"}


def test_environment_variables_are_exactly_the_listed_ones():
    named = set()
    for source in (ROOT / "src").rglob("*.py"):
        named.update(re.findall(r"REPRO_[A-Z_]+", source.read_text(encoding="utf-8")))
    assert named == ENVIRONMENT_VARIABLES


def test_one_module_generates_code():
    """Only the kernel generator calls the ``exec`` / ``eval`` / ``compile`` builtins."""
    callers = set()
    for source in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"exec", "eval", "compile"}
            ):
                callers.add(source.relative_to(ROOT).as_posix())
    assert callers == CODE_GENERATORS


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda path: path.name)
def test_cited_modules_and_benchmark_files_exist(document):
    text = document.read_text(encoding="utf-8")
    for module in set(re.findall(r"python3? -m (repro(?:\.\w+)+)", text)):
        assert importlib.util.find_spec(module) is not None, module
    for cited in set(re.findall(r"benchmarks/[\w./-]*\w", text)):
        assert (ROOT / cited).exists(), cited
