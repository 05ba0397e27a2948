"""The docs must not describe code that does not exist: every path of
DESIGN.md's ``src/repro/`` module map, and every other ``src/...`` path
it names, is a file or directory of the checkout, and so is every test
file it points at; every backticked ``….py``, ``….py::name`` and
``repro.x.y`` reference in DESIGN.md, README.md, EXPERIMENTS.md and
``docs/*.md`` resolves.  And the other way round: every package
directory under ``src/repro/`` appears in the map."""

import ast
import glob
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


def test_every_test_file_named_in_design_md_exists():
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as fh:
        named = set(re.findall(r"`((?:tests|benchmarks)/[\w/]+\.py)",
                               fh.read()))
    assert len(named) >= 8  # the pattern above still reads the index
    assert sorted(p for p in named
                  if not os.path.exists(os.path.join(ROOT, p))) == []


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


def code_spans(text):
    """The inline code spans of a markdown text (fenced blocks left out);
    a span may wrap onto the next line."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    return re.findall(r"`([^`]+)`", text)


def doc_references():
    """``(doc, reference)`` pairs: the ``….py[::name]`` paths and the
    dotted ``repro.…`` names in the code spans of the docs."""
    docs = ["DESIGN.md", "README.md", "EXPERIMENTS.md"] + sorted(
        os.path.relpath(p, ROOT)
        for p in glob.glob(os.path.join(ROOT, "docs", "*.md")))
    paths, dotted = set(), set()
    for doc in docs:
        with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
            for span in code_spans(fh.read()):
                paths.update((doc, ref) for ref in re.findall(
                    r"[\w./-]*\w\.py(?:::\w+)?", span))
                dotted.update((doc, ref) for ref in re.findall(
                    r"\brepro(?:\.\w+)+", span))
    return sorted(paths), sorted(dotted)


def resolve_path(path):
    """The checkout file ``path`` names: as written, under ``src/`` or
    ``src/repro/``, or, for a bare file name, the one file so named."""
    for candidate in (path, "src/" + path, "src/repro/" + path):
        if os.path.isfile(os.path.join(ROOT, candidate)):
            return candidate
    if "/" in path:
        return None
    found = [os.path.relpath(p, ROOT) for p in glob.glob(
        os.path.join(ROOT, "**", path), recursive=True)]
    return found[0] if len(found) == 1 else None


def top_level_names(path):
    """What a module defines at top level, plus, for a package's
    ``__init__.py``, what it imports (its exports)."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) \
                and path.endswith("__init__.py"):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


def resolve_dotted(ref):
    """``repro.pkg.module[.name]`` resolves when its longest module prefix
    is a file of ``src/`` and the one name after it is defined there."""
    parts = ref.split(".")
    for k in range(len(parts), 0, -1):
        base = os.path.join("src", *parts[:k])
        for module in (base + ".py", os.path.join(base, "__init__.py")):
            if os.path.isfile(os.path.join(ROOT, module)):
                tail = parts[k:]
                return not tail or (len(tail) == 1
                                    and tail[0] in top_level_names(module))
    return False


def test_every_code_reference_in_the_docs_resolves():
    paths, dotted = doc_references()
    assert len(paths) >= 80 and len(dotted) >= 90  # the patterns still read
    unresolved = []
    for doc, ref in paths:
        path, _, name = ref.partition("::")
        found = resolve_path(path)
        if found is None or (name and name not in top_level_names(found)):
            unresolved.append((doc, ref))
    unresolved += [(doc, ref) for doc, ref in dotted
                   if not resolve_dotted(ref)]
    assert unresolved == []


def figure20_artefact():
    """``{machine: {(benchmark, config): tuned speedup}}`` as
    ``benchmarks/out/figure20.txt`` prints them."""
    cells, machine = {}, None
    path = os.path.join(ROOT, "benchmarks", "out", "figure20.txt")
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            title = re.match(r"FIGURE 20: speedups on (\S+)", line)
            if title:
                machine = title.group(1)
                continue
            cell = re.fullmatch(r"(\w+)\s+(\w+)\s+\|[# ]*?(\d+\.\d+)",
                                line.strip())
            if cell:
                cells.setdefault(machine, {})[
                    cell.group(1), cell.group(2)] = float(cell.group(3))
    return cells


def rounds_to(number, value):
    """``number``, as the docs print it, is ``value`` rounded to its
    decimals."""
    decimals = len(number.split(".")[1])
    return abs(float(number) - value) <= 0.5 * 10 ** -decimals + 1e-9


def test_figure20_speedups_quoted_in_experiments_md_match_the_artefact():
    """Every speedup EXPERIMENTS.md's Figure 20 section quotes: a
    benchmark's tuned speedups are intel-mac cells of the artefact, the
    range spans all its cells, and an untuned one is recomputed."""
    from repro.experiments.pipeline import Config, run_config
    from repro.experiments.tuning import decide
    from repro.perfect import get_benchmark
    from repro.runtime.machine import INTEL_MAC

    with open(os.path.join(ROOT, "EXPERIMENTS.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Figure 20", 1)[1].split("\n## ", 1)[0]
    cells = figure20_artefact()
    assert sorted(map(len, cells.values())) == [36, 36]
    checked = 0
    for bench, numbers in re.findall(
            r"\b([A-Z][A-Z0-9]{2,})\s+(\d+\.\d+(?:(?:\s+vs\s+|/)\d+\.\d+)*)",
            section):
        values = [v for (b, _c), v in cells["intel-mac"].items()
                  if b == bench]
        for number in re.findall(r"\d+\.\d+", numbers):
            assert any(rounds_to(number, v) for v in values), \
                (bench, number, values)
            checked += 1
    assert checked >= 15  # the pattern above still reads the quotes
    (low, high), = re.findall(r"tuned speedups \((\d+\.\d+)–(\d+\.\d+)×\)",
                              section)
    every = [v for machine in cells.values() for v in machine.values()]
    assert rounds_to(low, min(every)) and rounds_to(high, max(every))
    untuned = re.findall(r"\b([A-Z][A-Z0-9]{2,})\s+`(\w+)`\s+untuned\s+"
                         r"(\d+\.\d+)×", section)
    assert untuned
    for bench, config, number in untuned:
        benchmark = get_benchmark(bench)
        result, _off = decide(run_config(benchmark, Config(config)).program,
                              INTEL_MAC, benchmark.inputs)
        assert rounds_to(number, result.untuned_speedup), (bench, number)


def docstring_references():
    """``(file, reference)`` pairs: the dotted ``repro.…`` names in the
    module, class and function docstrings under ``src/repro``."""
    found = set()
    for path in glob.glob(os.path.join(ROOT, "src", "repro", "**", "*.py"),
                          recursive=True):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                found.update(
                    (os.path.relpath(path, ROOT), ref) for ref in re.findall(
                        r"\brepro(?:\.\w+)+",
                        ast.get_docstring(node, clean=False) or ""))
    return sorted(found)


def module_file(dotted):
    """The ``src/`` file of module ``dotted``, or None."""
    base = os.path.join(ROOT, "src", *dotted.split("."))
    for module in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(module):
            return module
    return None


def resolves_in(module, dotted, names):
    """Is ``names`` a chain of definitions in ``module`` (a file of the
    module named ``dotted``): a function, class, assignment or annotated
    field, each inside the last — or a name the module imports, followed
    to where it is defined?"""
    with open(module, encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    package = dotted if module.endswith("__init__.py") \
        else dotted.rpartition(".")[0]
    for k, name in enumerate(names):
        found = None
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node.name == name:
                found = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and name in {
                    t.id for t in (node.targets if isinstance(node, ast.Assign)
                                   else [node.target])
                    if isinstance(t, ast.Name)}:
                found = node
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        source = [node.module] if node.module else []
                        if node.level:  # relative to this package
                            parts = package.split(".")
                            source = parts[:len(parts) - node.level + 1] \
                                + source
                        return resolves(".".join(
                            source + [alias.name] + names[k + 1:]))
        if found is None:
            return False
        body = getattr(found, "body", [])
    return True


def resolves(ref):
    """``repro.pkg.module[.name...]`` resolves when its longest module
    prefix is a file of ``src/`` and the names after it are defined
    there (:func:`resolves_in`)."""
    parts = ref.split(".")
    for k in range(len(parts), 0, -1):
        module = module_file(".".join(parts[:k]))
        if module is not None:
            return resolves_in(module, ".".join(parts[:k]), parts[k:])
    return False


def test_every_repro_reference_in_a_docstring_resolves():
    refs = docstring_references()
    assert len(refs) >= 150  # the walk still reads the docstrings
    assert [(path, ref) for path, ref in refs if not resolves(ref)] == []
