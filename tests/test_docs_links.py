"""Docs-consistency checker over the repo's markdown documentation.

Three families of drift fail the build here:

1. **Dead links** — every relative link in README.md and docs/ must
   point at a file that exists (and, with a ``#fragment``, at a heading
   that exists in the target).
2. **CLI drift** — every ``repro ...`` invocation shown in the docs
   must name a subcommand that exists in :func:`repro.cli.build_parser`,
   and every ``--flag`` on that invocation line must be an option that
   subcommand actually accepts.
3. **Orphaned pages** — every page under ``docs/`` must be reachable by
   following relative links from ``docs/index.md``, the documentation
   map.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

# Documentation that must not contain dead links.
DOC_FILES = sorted(
    p
    for p in [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
    if p.exists()
)

# [text](target) — excluding images' inner brackets is not needed for
# existence checks; ![alt](target) matches too, which is what we want.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_EXTERNAL = ("http://", "https://", "mailto:")


def _slugify(heading: str) -> str:
    """GitHub-style heading anchor: lowercase, punctuation out, spaces->-."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors_of(path: Path) -> set[str]:
    return {_slugify(m.group(1)) for m in _HEADING.finditer(path.read_text())}


def _links_of(path: Path):
    text = path.read_text()
    # Skip links inside fenced code blocks (command output, examples).
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return [m.group(1) for m in _LINK.finditer(text)]


def test_doc_corpus_is_nonempty():
    assert any(p.name == "README.md" for p in DOC_FILES)
    assert sum(1 for p in DOC_FILES if p.parent.name == "docs") >= 5


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_relative_links_resolve(doc: Path):
    problems = []
    for target in _links_of(doc):
        if target.startswith(_EXTERNAL):
            continue
        target_path, _, fragment = target.partition("#")
        if target_path:
            resolved = (doc.parent / target_path).resolve()
            if not resolved.exists():
                problems.append(f"{target!r}: file does not exist")
                continue
        else:
            resolved = doc  # '#fragment' alone refers to this file
        if fragment and resolved.suffix == ".md":
            if fragment not in _anchors_of(resolved):
                problems.append(
                    f"{target!r}: no heading for anchor #{fragment} "
                    f"in {resolved.name}"
                )
    assert not problems, "\n".join(problems)


# --------------------------------------------------------------------------
# CLI drift: `repro ...` invocations in the docs must match the parser.
# --------------------------------------------------------------------------


def _cli_surface():
    """Map each subcommand path to the option strings it accepts.

    Keys are tuples such as ``()``, ``("chaos",)``, ``("shard",
    "stats")``; values are sets of option strings (``--flag``/``-f``)
    valid at that path, inherited options included.
    """
    import argparse

    from repro.cli import build_parser

    surface: dict[tuple[str, ...], set[str]] = {}

    def walk(parser, path, inherited):
        options = set(inherited)
        subactions = []
        for action in parser._actions:
            options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                subactions.append(action)
        surface[path] = options
        for action in subactions:
            for name, sub in action.choices.items():
                walk(sub, path + (name,), options)

    walk(build_parser(), (), set())
    return surface


def _repro_invocations(path: Path):
    """Yield ``(line_number, tokens)`` for every ``repro ...`` call shown."""
    lines = path.read_text().splitlines()
    # Join backslash continuations so multi-line commands parse as one.
    joined: list[tuple[int, str]] = []
    for number, line in enumerate(lines, start=1):
        if joined and joined[-1][1].rstrip().endswith("\\"):
            start, prev = joined[-1]
            joined[-1] = (start, prev.rstrip().rstrip("\\") + " " + line)
        else:
            joined.append((number, line))
    for number, line in joined:
        stripped = line.split(" #")[0].strip().lstrip("$").strip()
        for prefix in ("repro ", "python -m repro.cli ", "python -m repro "):
            if stripped.startswith(prefix):
                yield number, stripped[len(prefix):].split()
                break


def test_documented_cli_invocations_exist():
    surface = _cli_surface()
    problems = []
    for doc in DOC_FILES:
        for number, tokens in _repro_invocations(doc):
            where = f"{doc.relative_to(REPO_ROOT)}:{number}"
            path: tuple[str, ...] = ()
            flags = []
            for token in tokens:
                if token.startswith("-"):
                    flags.append(token.split("=")[0])
                elif not flags and path + (token,) in surface:
                    path = path + (token,)
            if not path:
                problems.append(
                    f"{where}: unknown subcommand in `repro "
                    f"{' '.join(tokens)}`"
                )
                continue
            known = surface[path]
            for flag in flags:
                if flag not in known:
                    problems.append(
                        f"{where}: `repro {' '.join(path)}` has no "
                        f"option {flag}"
                    )
    assert not problems, "\n".join(problems)


def test_cli_surface_is_documented():
    """Every top-level subcommand appears in at least one doc page."""
    surface = _cli_surface()
    corpus = "\n".join(p.read_text() for p in DOC_FILES)
    missing = [
        path[0]
        for path in surface
        if len(path) == 1 and f"repro {path[0]}" not in corpus
    ]
    assert not missing, f"subcommands absent from the docs: {missing}"


# --------------------------------------------------------------------------
# Reachability: every docs page must be linked from the docs/index.md map.
# --------------------------------------------------------------------------


def test_every_docs_page_reachable_from_index():
    index = REPO_ROOT / "docs" / "index.md"
    assert index.exists(), "docs/index.md (the documentation map) is missing"
    seen = {index.resolve()}
    frontier = [index]
    while frontier:
        page = frontier.pop()
        for target in _links_of(page):
            if target.startswith(_EXTERNAL):
                continue
            target_path = target.partition("#")[0]
            if not target_path.endswith(".md"):
                continue
            resolved = (page.parent / target_path).resolve()
            if resolved.exists() and resolved not in seen:
                seen.add(resolved)
                frontier.append(resolved)
    orphans = [
        str(p.relative_to(REPO_ROOT))
        for p in sorted((REPO_ROOT / "docs").glob("*.md"))
        if p.resolve() not in seen
    ]
    assert not orphans, (
        f"docs pages unreachable from docs/index.md: {orphans}"
    )
