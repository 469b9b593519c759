"""Every function, method and class of ``icnsim`` has a caller in the program itself.

A name counts as used when it appears as a whole word in ``src/``, ``bench/``
or ``tools/`` outside the lines of its own definition, so a docstring that
names its own function does not count.  Tests do not count either: a name only
tests use belongs in the tests.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "bench", "tools")
# The live socket faces: users start them, and nothing in src/ does.
ALLOWED = {"DelayedBindingProxy", "PrefetchReceiver"}
WORD = re.compile(r"\w+")


def _exempt(name: str) -> bool:
    dunder = name.startswith("__") and name.endswith("__")
    http_handler = re.fullmatch(r"do_[A-Z]+", name) is not None  # http.server dispatches these
    return dunder or http_handler or name in ALLOWED


def test_every_definition_is_referenced_outside_itself():
    lines = {
        path: path.read_text(encoding="utf-8").splitlines()
        for folder in SEARCHED
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    everywhere = Counter(word for text in lines.values() for line in text for word in WORD.findall(line))
    unused = []
    for path in sorted((ROOT / "src" / "icnsim").glob("*.py")):
        for node in ast.walk(ast.parse("\n".join(lines[path]))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if _exempt(node.name):
                continue
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            own = lines[path][first - 1 : node.end_lineno]
            inside = sum(WORD.findall(line).count(node.name) for line in own)
            if everywhere[node.name] == inside:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
