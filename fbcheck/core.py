"""Analyzer engine: rule registry, pragmas, file discovery, reporting.

The engine is deliberately small: a :class:`Rule` sees one parsed
:class:`ModuleFile` at a time and yields :class:`Violation` objects; rules
that need whole-program context (the layer DAG's cycle check) implement
:meth:`Rule.finalize`, which runs once after every file has been visited.

Suppression, in increasing order of scope:

- an ``fbcheck: ignore[RULE-ID]`` comment (or ``ignore[A,B]`` / bare ``ignore``) on
  the offending line;
- a per-rule allowlist entry in :mod:`fbcheck.config`;
- ``# fbcheck: skip-file`` within the first five lines of a file.

Fixture support: a file may carry ``# fbcheck-fixture-path: <relpath>`` in
its first five lines, which makes the analyzer treat it as if it lived at
that path.  The self-test fixtures use this to exercise path-scoped rules
(e.g. FB-IMMUT only applies under ``src/repro/chunk/``) from files that
really live under ``fbcheck/selftest/fixtures/``.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Type

from fbcheck.config import Config, DEFAULT_CONFIG

PRAGMA_RE = re.compile(r"#\s*fbcheck:\s*ignore(?:\[([A-Za-z0-9_,\s-]+)\])?")
SKIP_FILE_RE = re.compile(r"#\s*fbcheck:\s*skip-file")
FIXTURE_PATH_RE = re.compile(r"#\s*fbcheck-fixture-path:\s*(\S+)")
#: Lines at the top of a file scanned for file-scoped directives.
HEADER_LINES = 5

#: Directory names never descended into.
SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".pytest_cache",
    ".hypothesis",
    ".mypy_cache",
    ".ruff_cache",
    ".venv",
    "venv",
    "build",
    "dist",
}


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location.

    ``severity`` is ``"error"`` (affects the exit code) or ``"warning"``
    (reported, never fails the run — stale-allowlist notices).
    """

    path: str
    line: int
    rule: str
    message: str
    severity: str = "error"

    def render(self) -> str:
        if self.severity == "warning":
            return f"{self.path}:{self.line}: [warning] {self.rule} {self.message}"
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class ModuleFile:
    """A parsed source file plus the metadata rules key off.

    ``path`` is the repo-relative posix path rules use for scoping (the
    fixture-path header overrides the real location); ``module`` is the
    dotted module name (``repro.store.base`` for files under ``src/``).
    """

    def __init__(self, path: str, source: str, real_path: Optional[str] = None) -> None:
        self.real_path = real_path if real_path is not None else path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=self.real_path)
        header = _header_window(self.lines, self.tree)
        fixture_path = None
        for line in header:
            match = FIXTURE_PATH_RE.search(line)
            if match:
                fixture_path = match.group(1)
                break
        self.path = _posix(fixture_path if fixture_path else path)
        self.skip = any(SKIP_FILE_RE.search(line) for line in header)
        self.module = _module_name(self.path)
        self.ignores = _collect_pragmas(self.lines)

    def ignored(self, rule: str, line: int) -> bool:
        """True when an inline pragma suppresses ``rule`` at ``line``."""
        rules = self.ignores.get(line)
        if rules is None:
            return False
        return not rules or rule in rules


def _posix(path: str) -> str:
    return path.replace(os.sep, "/")


def _header_window(lines: Sequence[str], tree: ast.Module) -> List[str]:
    """The lines scanned for file-scoped directives.

    The first :data:`HEADER_LINES` lines, plus — when the module opens
    with a docstring — the same number of lines immediately after it, so
    ``# fbcheck: skip-file`` can follow a long module docstring.
    """
    window = list(lines[:HEADER_LINES])
    if tree.body and isinstance(tree.body[0], ast.Expr):
        value = tree.body[0].value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            end = tree.body[0].end_lineno or tree.body[0].lineno
            window.extend(lines[end : end + HEADER_LINES])
    return window


def _module_name(path: str) -> str:
    """Dotted module name for a repo-relative path.

    Files under ``src/`` map into the installed namespace (``repro.*``);
    everything else is named from the repo root (``tests.test_chunk``).
    """
    parts = path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _collect_pragmas(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line number → suppressed rule ids (empty set = all)."""
    ignores: Dict[int, Set[str]] = {}
    for number, line in enumerate(lines, start=1):
        match = PRAGMA_RE.search(line)
        if not match:
            continue
        listed = match.group(1)
        if listed is None:
            ignores[number] = set()
        else:
            ignores[number] = {item.strip() for item in listed.split(",") if item.strip()}
    return ignores


class Rule:
    """Base class for fbcheck rules.

    Subclasses set ``rule_id``/``summary``, implement :meth:`check`, and are
    added to the registry with :func:`register`.  ``applies_to`` filters by
    repo-relative path before :meth:`check` is called.
    """

    rule_id: str = ""
    summary: str = ""

    def __init__(self, config: Config) -> None:
        self.config = config
        #: Allowlist entries that matched something this run (stale-entry
        #: detection reads this after all files are checked).
        self.allow_hits: Set[str] = set()

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, module: ModuleFile) -> Iterator[Violation]:
        raise NotImplementedError

    def finalize(self, modules: Sequence[ModuleFile]) -> Iterator[Violation]:
        """Whole-program pass run once after all per-file checks."""
        return iter(())

    # -- helpers shared by concrete rules ------------------------------------

    def violation(self, module: ModuleFile, line: int, message: str) -> Violation:
        return Violation(module.real_path, line, self.rule_id, message)

    def allowed(self, module: ModuleFile, detail: str) -> bool:
        """True when the config allowlist covers ``detail`` in this file.

        Entries have the form ``"<path-suffix>::<detail>"``; the path part
        matches when the module path ends with it, and ``detail`` matches
        exactly (rules document what their detail strings are).
        """
        for entry in self.config.allow.get(self.rule_id, ()):
            entry_path, _, entry_detail = entry.partition("::")
            if module.path.endswith(entry_path) and entry_detail == detail:
                self.allow_hits.add(entry)
                return True
        return False


_REGISTRY: List[Type[Rule]] = []


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.rule_id:
        raise ValueError(f"rule {rule_cls.__name__} has no rule_id")
    if any(existing.rule_id == rule_cls.rule_id for existing in _REGISTRY):
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    _REGISTRY.append(rule_cls)
    return rule_cls


def all_rules(config: Optional[Config] = None) -> List[Rule]:
    """Instantiate every registered rule (importing them on first use)."""
    import fbcheck.rules  # noqa: F401  (registration side effect)

    cfg = config if config is not None else DEFAULT_CONFIG
    return [rule_cls(cfg) for rule_cls in _REGISTRY]


@dataclass
class Report:
    """Outcome of an analyzer run."""

    violations: List[Violation] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if any(v.severity == "error" for v in self.violations) else 0


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Yield .py files under ``paths`` (files are taken verbatim)."""
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if d not in SKIP_DIRS and not d.endswith(".egg-info")
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def check_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    config: Optional[Config] = None,
) -> List[Violation]:
    """Analyze one in-memory source blob (the self-test entry point)."""
    active = list(rules) if rules is not None else all_rules(config)
    module = ModuleFile(path, source)
    if module.skip:
        return []
    out = check_module(module, active)
    for rule in active:
        if rule.applies_to(module.path):
            out.extend(
                violation
                for violation in rule.finalize([module])
                if not module.ignored(violation.rule, violation.line)
            )
    return sorted(set(out), key=lambda v: (v.path, v.line, v.rule))


#: Pseudo-rule id for stale-allowlist warnings (``--stale-allow``).
STALE_ALLOW_RULE = "FB-STALE-ALLOW"


def _known_rule_ids(rules: Sequence[Rule]) -> Set[str]:
    import fbcheck.rules  # noqa: F401  (registration side effect)

    ids = {rule_cls.rule_id for rule_cls in _REGISTRY}
    ids.update(rule.rule_id for rule in rules)
    ids.add(STALE_ALLOW_RULE)
    return ids


def check_module(
    module: ModuleFile, rules: Sequence[Rule]
) -> List[Violation]:
    """Run every per-file rule over one module (pragmas applied)."""
    out: List[Violation] = []
    for rule in rules:
        if not rule.applies_to(module.path):
            continue
        for violation in rule.check(module):
            if not module.ignored(violation.rule, violation.line):
                out.append(violation)
    return out


def check_paths(
    paths: Sequence[str],
    config: Optional[Config] = None,
    select: Optional[Set[str]] = None,
    *,
    stale_allow: bool = False,
) -> Report:
    """Analyze every Python file under ``paths`` with the registered rules.

    One serial pass: parse each file, run the per-file rules over it
    (:func:`check_module`), then the whole-program ``finalize`` passes.
    A path that does not exist is reported in ``Report.errors``.
    ``stale_allow`` appends warning-severity findings for the selected
    rules' allowlist entries that matched nothing — only meaningful on a
    full-tree run, since an entry for a file that was not scanned
    matches nothing.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    rules = all_rules(cfg)
    if select:
        rules = [rule for rule in rules if rule.rule_id in select]
    known_ids = _known_rule_ids(rules)
    report = Report()
    # A missing path is an error, not an empty (hence clean) run.
    report.errors.extend(
        f"{path}: no such file or directory" for path in paths if not os.path.exists(path)
    )
    modules: List[ModuleFile] = []
    for file_path in iter_python_files(paths):
        try:
            with open(file_path, "r", encoding="utf-8") as handle:
                source = handle.read()
            module = ModuleFile(_posix(file_path), source, real_path=_posix(file_path))
        except (SyntaxError, UnicodeDecodeError) as exc:
            report.errors.append(f"{file_path}: {exc}")
            continue
        unknown = sorted(
            set().union(*module.ignores.values()) - known_ids
            if module.ignores
            else ()
        )
        if unknown:
            report.errors.append(
                f"{file_path}: unknown rule id(s) in fbcheck pragma: "
                + ", ".join(unknown)
            )
            continue
        if module.skip:
            continue
        modules.append(module)
        report.violations.extend(check_module(module, rules))
    report.files_checked = len(modules)

    by_real = {module.real_path: module for module in modules}
    for rule in rules:
        for violation in rule.finalize(modules):
            owner = by_real.get(violation.path)
            if owner is None or not owner.ignored(violation.rule, violation.line):
                report.violations.append(violation)

    if stale_allow:
        # Only the rules that ran can have matched their entries.
        for rule in rules:
            for entry in cfg.allow.get(rule.rule_id, ()):
                if entry in rule.allow_hits:
                    continue
                entry_path, _, _ = entry.partition("::")
                report.violations.append(
                    Violation(
                        entry_path,
                        0,
                        STALE_ALLOW_RULE,
                        f"allowlist entry {entry!r} for {rule.rule_id} matched nothing",
                        severity="warning",
                    )
                )

    report.violations = sorted(
        set(report.violations), key=lambda v: (v.path, v.line, v.rule)
    )
    return report
