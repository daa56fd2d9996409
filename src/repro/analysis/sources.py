"""Template discovery for ``repro lint``: JSON files and Python modules.

Python files are scanned *statically* (``ast.parse`` plus
``literal_eval``): a module-level assignment whose value is a non-empty
list/tuple of dicts that all carry a ``"func"`` key is taken to be a
template.  Nothing is imported or executed, which keeps the lint safe
to run over arbitrary example scripts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.core.template_io import load_template


@dataclass(frozen=True)
class LintTarget:
    """One template to lint plus where it came from."""

    label: str
    template: list


def _looks_like_template(value: object) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) > 0
        and all(isinstance(step, dict) and "func" in step for step in value)
    )


def templates_in_python_file(path: Path) -> list[LintTarget]:
    """Extract module-level literal templates from a Python source file."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError:
        return []
    targets: list[LintTarget] = []
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value_node = node.value
        if value_node is None:
            continue
        try:
            value = ast.literal_eval(value_node)
        except (ValueError, SyntaxError):
            continue
        if not _looks_like_template(value):
            continue
        if isinstance(node, ast.Assign):
            names = [
                target.id
                for target in node.targets
                if isinstance(target, ast.Name)
            ]
            name = names[0] if names else "<template>"
        else:
            name = (
                node.target.id
                if isinstance(node.target, ast.Name)
                else "<template>"
            )
        targets.append(LintTarget(f"{path}:{name}", list(value)))
    return targets


def collect_targets(paths: list[str]) -> list[LintTarget]:
    """Resolve CLI path arguments into lintable templates.

    Accepts ``.json`` template files, ``.py`` modules (scanned for
    literal templates) and directories (searched recursively for both).
    A JSON file is read by :func:`~repro.core.template_io.load_template`,
    so an unreadable one raises :class:`~repro.core.errors.TemplateError`.
    """
    targets: list[LintTarget] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for child in sorted(path.rglob("*.json")):
                targets.append(LintTarget(str(child), load_template(child)))
            for child in sorted(path.rglob("*.py")):
                targets.extend(templates_in_python_file(child))
        elif path.suffix == ".py":
            targets.extend(templates_in_python_file(path))
        else:
            targets.append(LintTarget(str(path), load_template(path)))
    return targets
