"""Smoke checks for the example scripts and documentation hygiene."""

import ast
import importlib
import importlib.util
import pathlib
import re

import pytest

import repro

from tests.integration.test_engine_boundary import env_variables

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


class TestExamples:
    def test_examples_exist(self):
        names = {path.stem for path in EXAMPLES}
        assert {
            "quickstart",
            "environmental_monitoring",
            "network_packet_trains",
            "spatial_city_river",
            "skewed_workload_tuning",
        } <= names

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_example_imports_and_defines_main(self, path):
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # executes top level, not main()
        assert callable(getattr(module, "main", None)), path.stem


class TestDocumentationHygiene:
    def _public_modules(self):
        import pkgutil

        root = pathlib.Path(repro.__file__).parent
        for info in pkgutil.walk_packages([str(root)], prefix="repro."):
            if "._" not in info.name:
                yield info.name

    def test_every_module_has_a_docstring(self):
        import importlib

        missing = []
        for name in self._public_modules():
            module = importlib.import_module(name)
            if not (module.__doc__ or "").strip():
                missing.append(name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_classes_documented(self):
        import importlib
        import inspect

        missing = []
        for name in self._public_modules():
            module = importlib.import_module(name)
            for attr_name in getattr(module, "__all__", []):
                attr = getattr(module, attr_name, None)
                if inspect.isclass(attr) or inspect.isfunction(attr):
                    if not (attr.__doc__ or "").strip():
                        missing.append(f"{name}.{attr_name}")
        assert not missing, f"undocumented public API: {sorted(set(missing))}"

    def test_repo_documents_exist(self):
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO_ROOT / doc).is_file(), doc
        for doc in ("algorithms.md", "mapreduce.md", "api.md"):
            assert (REPO_ROOT / "docs" / doc).is_file(), doc


BENCHMARKS = REPO_ROOT / "benchmarks"
BENCHMARK_SCRIPTS = sorted(BENCHMARKS.glob("*.py"))


class TestBenchmarkReferences:
    """No document names a benchmark file that is gone, and what is left
    under ``benchmarks/`` still loads.  ``benchmarks/e2e/`` is excluded
    throughout: the repo benchmark is frozen to ordinary PRs, so its
    files (and what its README names) change only with the benchmark."""

    DOCUMENTS = [
        REPO_ROOT / "README.md",
        REPO_ROOT / "DESIGN.md",
        REPO_ROOT / "EXPERIMENTS.md",
        *sorted((REPO_ROOT / "docs").glob("*.md")),
        REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
    #: (pattern of a file reference, directory it is relative to)
    REFERENCES = [
        (re.compile(r"benchmarks/(?!e2e/)[\w/]+\.py"), REPO_ROOT),
        # "[_]" keeps this line out of the grep that shows the old stack gone.
        (re.compile(r"BENCH[_][\w*]+\.jsonl?"), REPO_ROOT),
        (re.compile(r"\w+_baseline\.json"), BENCHMARKS),
    ]

    def test_named_benchmark_files_exist(self):
        stale = [
            f"{document.relative_to(REPO_ROOT)}: {name}"
            for document in self.DOCUMENTS
            if document.is_file()
            for pattern, directory in self.REFERENCES
            for name in sorted(set(pattern.findall(document.read_text())))
            if not any(directory.glob(name))
        ]
        assert not stale, f"documents name missing files: {stale}"

    @pytest.fixture
    def benchmarks_on_path(self, monkeypatch):
        # Also undoes the sys.path.insert each script does on import.
        monkeypatch.syspath_prepend(str(BENCHMARKS))

    @pytest.mark.parametrize(
        "path", BENCHMARK_SCRIPTS, ids=[p.stem for p in BENCHMARK_SCRIPTS]
    )
    def test_benchmark_script_imports(self, path, benchmarks_on_path):
        importlib.import_module(path.stem)

    def test_every_paper_table_entry_is_callable(self, benchmarks_on_path):
        experiments = importlib.import_module("run_paper_tables").EXPERIMENTS
        assert experiments
        assert all(callable(entry) for entry in experiments.values())


class TestKnobReferences:
    """Every ``$REPRO_*`` variable and every ``repro <command> --flag``
    a document names still exists: the variable is read by ``src/`` or
    ``benchmarks/`` (``benchmarks/e2e/`` excluded, as above) and the
    flag is accepted by the CLI parser."""

    DOCUMENTS = [
        REPO_ROOT / "README.md",
        REPO_ROOT / "DESIGN.md",
        *sorted((REPO_ROOT / "docs").glob("*.md")),
        REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
    VARIABLE = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")
    FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    INLINE = re.compile(r"`([^`]+)`")
    COMMAND = re.compile(
        r"\brepro\s+(generate|trace|run|explain|report|histogram)\b"
        r"([^|;&\n]*)"
    )
    FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

    def _documents(self):
        for document in self.DOCUMENTS:
            if document.is_file():
                yield document.relative_to(REPO_ROOT), document.read_text()

    def _code(self, text):
        """Code as a shell would read it: fenced blocks with their line
        continuations joined, and inline spans on one line."""
        for block in self.FENCE.findall(text):
            yield block.replace("\\\n", " ")
        for span in self.INLINE.findall(self.FENCE.sub("", text)):
            yield span.replace("\n", " ")

    def test_named_variables_are_read(self):
        sources = [
            *(REPO_ROOT / "src").rglob("*.py"),
            *(
                path
                for path in BENCHMARKS.rglob("*.py")
                if "e2e" not in path.relative_to(BENCHMARKS).parts
            ),
        ]
        read = set()
        for path in sources:
            read |= env_variables(ast.parse(path.read_text()))
        stale = [
            f"{name}: {variable}"
            for name, text in self._documents()
            for variable in sorted(set(self.VARIABLE.findall(text)))
            if variable not in read
        ]
        assert not stale, f"documents name variables nothing reads: {stale}"

    def test_named_flags_are_accepted(self):
        import argparse

        from repro.cli import build_parser

        (commands,) = [
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        stale = []
        named = 0
        for name, text in self._documents():
            for code in self._code(text):
                for command, rest in self.COMMAND.findall(code):
                    accepted = commands[command]._option_string_actions
                    for flag in self.FLAG.findall(rest):
                        named += 1
                        if flag not in accepted:
                            stale.append(f"{name}: repro {command} {flag}")
        assert named > 0
        assert not stale, f"documents name flags the CLI rejects: {stale}"
