"""The configuration surface, pinned: environment variables, constructor
knobs, CLI commands, code generation and cited entry points.

Every ``REPRO_*`` variable, constructor knob and CLI command is a path that
must be tested, documented and kept bit-identical, so adding one is a
reviewed diff to the lists below; so is a new module that turns text into
code.  A
document that names a module or a benchmark file must name one that exists.
"""

import argparse
import ast
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from repro.client.cli import build_parser
from repro.engine import Engine
from repro.serve import ServerConfig

ROOT = Path(__file__).resolve().parent.parent

#: The client's deployment addresses; the engine and server read none.
ENVIRONMENT_VARIABLES = {
    "REPRO_SERVER",
    "REPRO_TENANT",
}

#: The only modules that read the process environment.
ENVIRONMENT_READERS = {"src/repro/client/api.py", "src/repro/client/cli.py"}

#: ``Engine(...)``'s keyword parameters, in signature order.
ENGINE_OPTIONS = (
    "data_dir",
    "fsync",
    "fault_injector",
    "standby",
)

SERVER_CONFIG_FIELDS = (
    "host",
    "port",
    "queue_depth",
    "coalesce",
    "quiet",
    "data_dir",
    "fsync",
    "replica_of",
    "poll_wait",
    "poll_interval",
)

#: ``repro-cli``'s subcommands, in ``build_parser()`` order.
CLI_COMMANDS = (
    "serve",
    "health",
    "stats",
    "datasets",
    "views",
    "apply",
    "checkpoint",
    "promote",
    "replication",
    "watch",
)

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


def test_only_the_client_reads_the_environment():
    readers = {
        source.relative_to(ROOT).as_posix()
        for source in (ROOT / "src").rglob("*.py")
        if re.search(r"os\.environ|getenv", source.read_text(encoding="utf-8"))
    }
    assert readers == ENVIRONMENT_READERS


def test_engine_options_are_exactly_the_listed_ones():
    _, *options = inspect.signature(Engine.__init__).parameters.values()
    assert tuple(option.name for option in options) == ENGINE_OPTIONS
    assert all(option.kind is option.KEYWORD_ONLY for option in options)


def test_server_config_fields_are_exactly_the_listed_ones():
    assert ServerConfig.__slots__ == SERVER_CONFIG_FIELDS


def test_cli_commands_are_exactly_the_listed_ones():
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert tuple(subparsers.choices) == CLI_COMMANDS


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
