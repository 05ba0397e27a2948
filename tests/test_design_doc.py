"""DESIGN.md must not describe modules that do not exist: every path of
its ``src/repro/`` module map, and every other ``src/...`` path it names,
is a file or directory of the checkout.  And the other way round: every
package directory under ``src/repro/`` appears in the map."""

import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")


def module_map_paths(text):
    """Paths of the indented tree in the fenced block that starts with
    ``src/repro/``: two spaces per level, directories end in ``/``, and
    one line may name several files before its description."""
    block = text.split("```\nsrc/repro/\n", 1)[1].split("```", 1)[0]
    stack = ["src/repro"]
    for line in block.splitlines():
        if not line.strip():
            continue
        depth = (len(line) - len(line.lstrip(" "))) // 2
        names = []
        for word in line.split():
            if not re.fullmatch(r"[\w.]+(\.py|/)", word):
                break  # the description starts here
            names.append(word)
        if not names:
            continue  # a wrapped description line
        del stack[depth:]
        for name in names:
            yield "/".join(stack + [name.rstrip("/")])
        if names[0].endswith("/"):
            stack.append(names[0].rstrip("/"))


def test_every_src_path_named_in_design_md_exists():
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as fh:
        text = fh.read()
    named = set(module_map_paths(text))
    named.update(re.findall(r"src/[\w/]+(?:\.py)?", text))
    assert len(named) > 60  # the parser above still reads the map
    missing = sorted(p for p in named
                     if not os.path.exists(os.path.join(ROOT, p)))
    assert missing == []


def test_every_package_directory_is_in_the_module_map():
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as fh:
        mapped = set(module_map_paths(fh.read()))
    packages = sorted(
        os.path.relpath(directory, ROOT).replace(os.sep, "/")
        for directory, _dirs, files in os.walk(
            os.path.join(ROOT, "src", "repro"))
        if "__init__.py" in files
        and os.path.basename(directory) != "repro")
    assert len(packages) >= 14
    assert [p for p in packages if p not in mapped] == []
