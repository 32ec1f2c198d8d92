"""The package namespace exports exactly the names README documents."""

import inspect
import re
from pathlib import Path

import hardylab

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_api_names() -> set[str]:
    text = README.read_text()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith(("- ", "  "))]
    return set(re.findall(r"`([A-Za-z_]\w*)`", "\n".join(bullets)))


def test_all_matches_readme_api_section():
    assert set(hardylab.__all__) == readme_api_names()
    assert len(hardylab.__all__) == len(set(hardylab.__all__))


def test_namespace_exports_nothing_beyond_all():
    public = {
        name
        for name in dir(hardylab)
        if not name.startswith("_") and not inspect.ismodule(getattr(hardylab, name))
    }
    assert public == set(hardylab.__all__)
