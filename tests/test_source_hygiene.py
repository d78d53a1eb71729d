"""Source hygiene of the library modules: no import that its module never
uses, no private top-level function or class that nothing calls, no
public one or public method that only the tests call (or, listed in
``TRACER_ONLY``, only the benchmark's tracer), no read of a
series' ``terms`` outside the functions listed with a reason, no
``MSeries`` built in ``mapdoc.py`` but through ``series_from_terms``, and
``series.py`` kept below the size at which importing it costs more
memory.

Each module of ``src/forminv`` except ``__init__.py`` is parsed with
``ast``.  A name counts as referenced where it appears as a name or as an
attribute (``series._pack``); a private helper that only refers to itself
counts as unreferenced.
"""

import argparse
import ast
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "forminv"
MODULES = {
    path.name: ast.parse(path.read_text(), filename=str(path))
    for path in sorted(SRC.glob("*.py"))
    if path.name != "__init__.py"
}


def referenced(node):
    """The names and attribute names that `node` refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def units(tree):
    """The parts of a module whose names count apart, as (index of the
    top-level statement, index in its class body or None, label, nodes):
    each top-level statement, except that a class is split into its header
    (bases, keywords and decorators), labelled with the class name, and
    each statement of its body, labelled ``Class.name`` (``Class.<class>``
    for class-level code that is not a definition)."""
    for i, stmt in enumerate(tree.body):
        if isinstance(stmt, ast.ClassDef):
            yield i, None, stmt.name, stmt.bases + stmt.keywords + stmt.decorator_list
            for j, sub in enumerate(stmt.body):
                yield i, j, f"{stmt.name}.{getattr(sub, 'name', '<class>')}", [sub]
        else:
            yield i, None, getattr(stmt, "name", "<module>"), [stmt]


# (module, top-level index, class-body index or None) -> the names it refers to
REFS = {
    (name, i, j): set().union(*map(referenced, nodes))
    for name, tree in MODULES.items()
    for i, j, _, nodes in units(tree)
}


def referenced_outside(helper, own):
    """Whether a unit whose key does not start with `own` refers to `helper`."""
    return any(helper in r for key, r in REFS.items() if key[: len(own)] != own)


def imported_names(stmt):
    if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
        return []
    if isinstance(stmt, ast.Import):
        return [(a.asname or a.name).split(".")[0] for a in stmt.names]
    if isinstance(stmt, ast.ImportFrom):
        return [a.asname or a.name for a in stmt.names]
    return []


def test_modules_found():
    assert {"series.py", "inversion.py", "mapdoc.py"} <= set(MODULES)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_unused_import(name):
    tree = MODULES[name]
    body = [s for s in tree.body if not isinstance(s, (ast.Import, ast.ImportFrom))]
    used = set().union(*map(referenced, body))
    unused = [
        alias
        for stmt in tree.body
        for alias in imported_names(stmt)
        if alias not in used
    ]
    assert not unused, f"{name} imports {unused} and never uses them"


def test_every_private_helper_is_referenced():
    unused = [
        f"{name}:{stmt.name}"
        for name, tree in MODULES.items()
        for i, stmt in enumerate(tree.body)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
        and not referenced_outside(stmt.name, (name, i))
    ]
    assert not unused, f"private helpers that nothing references: {unused}"


# public names whose one reference outside the tests and ``__init__.py`` is
# perfbench/tracing.py, which wraps each by name: kept for the tracer alone,
# and the list of what goes once the tracer stops wrapping by name
TRACER_ONLY = {
    "inversion.py:b_form_apply": "renames BForm.apply; wrapped as inversion.homog.bform",
    "laurent.py:laurent_inv_power": "the residue route, the tests' oracle of jacobi_coefficient; "
    "wrapped as laurent.inv_power",
    "laurent.py:residue": "the residue route's last step; wrapped as laurent.residue",
    "series.py:MSeries.strip_params": "wrapped as series.param, by its name as a string",
    "series.py:MSeries.subst_param_sum": "wrapped as series.param, by its name as a string",
}
TRACER = Path("perfbench") / "tracing.py"


def public_definitions():
    """Each public top-level function or class, and each public method of
    a top-level class, as (``module:name`` or ``module:Class.name``, its
    name, the key prefix of the units that make up its definition)."""
    for name, tree in MODULES.items():
        for i, stmt in enumerate(tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{name}:{stmt.name}", stmt.name, (name, i)
            if isinstance(stmt, ast.ClassDef):
                for j, sub in enumerate(stmt.body):
                    if isinstance(sub, ast.FunctionDef):
                        yield f"{name}:{stmt.name}.{sub.name}", sub.name, (name, i, j)


def outside_references():
    """The names that ``demos/`` and ``perfbench/`` outside its tests refer
    to, by name, attribute or string, as {"tracer": ..., "other": ...}:
    those of perfbench/tracing.py and those of every other file."""
    root = SRC.parent.parent
    out = {"tracer": set(), "other": set()}
    for folder in ("demos", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            rel = path.relative_to(root)
            if rel.parts[:2] == ("perfbench", "tests"):
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            strings = {
                sub.value for sub in ast.walk(tree)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            }
            out["tracer" if rel == TRACER else "other"] |= referenced(tree) | strings
    return out


def test_every_public_helper_has_a_caller():
    """Each public top-level function or class of the library, and each
    public method of its classes, is referenced in ``src/forminv`` outside
    its own definition and ``__init__.py``, in ``demos/`` or in
    ``perfbench/`` outside its tests, so no public helper is kept for the
    tests alone; the names of ``TRACER_ONLY`` are kept for the tracer."""
    used = outside_references()
    orphans = [
        label
        for label, helper, own in public_definitions()
        if not helper.startswith("_")
        and label not in TRACER_ONLY
        and helper not in used["other"]
        and not referenced_outside(helper, own)
    ]
    assert not orphans, f"public helpers that only tests reach: {orphans}"


def test_tracer_only_names_are_pinned():
    """The public names that only perfbench/tracing.py reaches, by name or
    as a string, are exactly ``TRACER_ONLY``: a library, demo or benchmark
    call to one of them fails here, as does a new name kept for the tracer
    alone."""
    used = outside_references()
    tracer_only = {
        label
        for label, helper, own in public_definitions()
        if not helper.startswith("_")
        and helper in used["tracer"]
        and helper not in used["other"]
        and not referenced_outside(helper, own)
    }
    assert tracer_only == set(TRACER_ONLY)


# the functions of the library that read ``.terms``, each with the reason
# it may: on a series, ``terms`` decodes every row into a new dict on each
# read, so a read inside a loop redoes the whole decode every time
TERMS_READERS = {
    "series.py:MSeries.sorted_terms": "formatting shows every term",
    "series.py:MSeries.strip_params": "rebuilds the terms without their parameter fields",
    "series.py:MapF.__init__": "names the offending terms in its error message",
    "mapdoc.py:serialize_map": "serializing writes every term",
    "inversion.py:_lagrange_applicable": "reads the exponents of H once per call",
    "flow.py:_euler_potential": "divides each term by its own z-degree, once",
    "inversion.py:CrossCheckReport.to_text": "MethodRun.terms, an int, not a series",
    "bench.py:BenchRecord.row": "BenchRecord.terms, an int, not a series",
    "bench.py:to_table": "BenchRecord.terms, an int, not a series",
}


def terms_readers():
    """The units of ``units``, as ``module:label``, that read an attribute
    ``terms``; a nested function counts as the one it is defined in."""
    return {
        f"{name}:{label}"
        for name, tree in MODULES.items()
        for _, _, label, nodes in units(tree)
        if any(
            isinstance(sub, ast.Attribute) and sub.attr == "terms"
            for node in nodes
            for sub in ast.walk(node)
        )
    }


def test_only_the_edges_read_terms():
    assert terms_readers() == set(TERMS_READERS)


def test_outside_terms_enter_through_the_validating_constructor():
    """``mapdoc.py`` neither imports nor names ``MSeries``: the terms of a
    map document become series only through ``series_from_terms``, which
    checks them."""
    tree = MODULES["mapdoc.py"]
    imported = {alias for stmt in tree.body for alias in imported_names(stmt)}
    assert "MSeries" not in referenced(tree) | imported


def test_every_cli_option_is_read():
    """Each option a ``forminv`` subcommand defines is read as
    ``args.<dest>`` by the subcommand's handler or by a ``cli`` function
    the handler calls (``_load`` reads ``--input`` and ``--deg``), so no
    option is accepted and then ignored."""
    from forminv.cli import build_parser

    functions = {
        stmt.name: stmt
        for stmt in MODULES["cli.py"].body
        if isinstance(stmt, ast.FunctionDef)
    }

    def reads(name, seen):
        if name in seen:
            return set()
        seen.add(name)
        out = set()
        for sub in ast.walk(functions[name]):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "args"
            ):
                out.add(sub.attr)
            elif isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in functions:
                out |= reads(sub.func.id, seen)
        return out

    commands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    unread = []
    for command, parser in commands.items():
        read = reads(parser.get_default("func").__name__, set())
        unread += [
            f"{command} {action.option_strings[0]}"
            for action in parser._actions
            if action.option_strings and action.dest != "help" and action.dest not in read
        ]
    assert len(commands) == 7
    assert not unread, f"options that no handler reads: {unread}"


def test_series_stays_below_the_import_memory_step():
    """``series.py``, the largest module, stays below 8158 code tokens,
    counted as ROADMAP item 1 counts them: every token but comments and
    blank lines, a docstring as one.  Importing the module from source
    raises the peak resident memory once it passes about 8160 tokens:
    measured on Python 3.11.7, 8158 tokens did not raise the peak and 8162
    did, which moves the benchmark's ``peak_rss_mb``.  Checked here, a
    kernel change that crosses the step shows in the tier-1 suite and not
    only in paired benchmark runs."""
    count = code_tokens(SRC / "series.py")
    assert count < 8158, f"series.py has {count} code tokens"


def code_tokens(path):
    """Every token of the file but comments and blank lines, a docstring
    as one."""
    with path.open() as source:
        return sum(
            tok.type not in (tokenize.COMMENT, tokenize.NL)
            for tok in tokenize.generate_tokens(source.readline)
        )
