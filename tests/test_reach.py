"""Every top-level def in `src/bvgym/` is reached by a command or is named library API.

The walk starts from every identifier in `cli.py`, every identifier in each
module's top-level statements (the catalog table, constants) and each name of
README's "Library API (not reached by a command)" section.  It then adds each
top-level def or class whose name appears, as an `ast.Name` id or an
`ast.Attribute` attr, in a body already reached; a class comes in whole, with
its methods.  Docstrings name nothing.  Names are matched without their module,
so `x.split` reaches a def named `split`: a false reach, never a false alarm.
"""

import ast
import re
from pathlib import Path

import bvgym

SRC = Path(bvgym.__file__).parent
README = SRC.parents[1] / "README.md"
SECTION = "## Library API (not reached by a command)"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _identifiers(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def library_api() -> list[tuple[str, str]]:
    """(module, name) of each bullet of README's library API section."""
    text = README.read_text()
    assert SECTION in text, f"README has no {SECTION!r} section"
    body = text.split(SECTION, 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)\.(\w+)`", body, flags=re.M)


def top_level_defs() -> dict[tuple[str, str], ast.AST]:
    """(module, name) -> node of every top-level def and class in src/bvgym."""
    return {(path.stem, node.name): node
            for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text()).body
            if isinstance(node, DEFS)}


def unreached(defs: dict[tuple[str, str], ast.AST], api: list[tuple[str, str]]) -> list[str]:
    """The defs that no seed reaches, as module.name:line."""
    seen = {name for _, name in api}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if path.stem == "cli" or not isinstance(node, DEFS):
                seen |= _identifiers(node)
    reached: set[tuple[str, str]] = set()
    while new := {key for key in defs if key[1] in seen} - reached:
        reached |= new
        seen = seen.union(*(_identifiers(defs[key]) for key in new))
    return [f"{m}.{n}:{defs[m, n].lineno}" for m, n in sorted(defs) if (m, n) not in reached]


def test_every_src_def_is_reached_by_a_command_or_named_library_api():
    missing = unreached(top_level_defs(), library_api())
    assert not missing, f"reached neither from cli.py nor from README's library API: {', '.join(missing)}"


def test_every_library_api_entry_names_a_def():
    api = library_api()
    assert api, "README's library API section lists no `module.name` bullet"
    defs = top_level_defs()
    stale = [f"{m}.{n}" for m, n in api if (m, n) not in defs]
    assert not stale, f"README's library API names no def in src/bvgym: {', '.join(stale)}"
