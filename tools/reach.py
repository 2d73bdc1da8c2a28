#!/usr/bin/env python3
"""Print what the behaviour contract and the demos reach of ``src/stablemix``.

The scan runs the 63 contract outputs through ``tools/contract_outputs.py``
and then the 7 demos, in this process, under ``sys.settrace``; a profiler
or tracer that was set before is restored afterwards. It prints three
lists:

- the functions of ``src/stablemix`` that never run;
- the statements that never run inside functions that do;
- the statements that only the demos reach, not the contract.

A statement is listed once, at its first line, and counts as run when any
line of its own (not of a statement nested in it) executes; statements
without bytecode, such as ``nonlocal``, are never listed. It takes no
options:

    python3 tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import runpy
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stablemix"


class Trace(NamedTuple):
    calls: Set[Tuple[str, int]]  # (file, first line of the code) of each call
    lines: Set[Tuple[str, int]]  # (file, line) of each executed line


class Function(NamedTuple):
    name: str  # module.qualname, nested functions included
    file: str
    first: int  # the line of its first decorator, else of its def
    statements: List[Tuple[int, Set[int]]]  # (first line, own lines) of each statement


def traced(run: Callable[[], object]) -> Trace:
    """The calls and lines of the package that ``run()`` executes; any
    tracer or profiler set before is restored afterwards."""
    prefix = str(PACKAGE) + "/"
    trace = Trace(set(), set())

    def local(frame, event, _):
        if event == "line":
            trace.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, _):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        trace.calls.add((code.co_filename, code.co_firstlineno))
        return local

    old_trace, old_profile = sys.gettrace(), sys.getprofile()
    sys.setprofile(None)
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(old_trace)
        sys.setprofile(old_profile)
    return trace


def _executable(code) -> Iterator[int]:
    yield from (line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _executable(const)


def _statements(body: List[ast.stmt], executable: Set[int]) -> Iterator[Tuple[int, Set[int]]]:
    """(first line, own lines) of each statement of ``body`` and of the
    statements nested in it, not entering nested functions and classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        nested = [child for field in ("body", "orelse", "finalbody") for child in getattr(node, field, [])]
        nested += [stmt for handler in getattr(node, "handlers", []) for stmt in handler.body]
        for child in nested:
            own -= set(range(child.lineno, child.end_lineno + 1))
        if own & executable:
            yield node.lineno, own
        yield from _statements(nested, executable)


def functions() -> List[Function]:
    """Every function and method defined in the modules of the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        executable = set(_executable(compile(source, str(path), "exec")))

        def walk(nodes, prefix):
            for node in nodes:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                    statements = list(_statements(node.body, executable))
                    found.append(Function(f"{prefix}{node.name}", str(path), first, statements))
                    walk(node.body, f"{prefix}{node.name}.")
                elif isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}{node.name}.")
                elif isinstance(node, ast.stmt):
                    walk([child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)], prefix)

        walk(ast.parse(source).body, f"{path.stem}.")
    return found


def never_run(found: List[Function], trace: Trace) -> List[Function]:
    return [f for f in found if (f.file, f.first) not in trace.calls]


def _runs(f: Function, own: Set[int], trace: Trace) -> bool:
    return any((f.file, line) in trace.lines for line in own)


def unrun_statements(found: List[Function], trace: Trace) -> List[Tuple[Function, int]]:
    """(function, first line) of each statement that ``trace`` never runs,
    inside the functions that it does run."""
    return [
        (f, first)
        for f in found
        if (f.file, f.first) in trace.calls
        for first, own in f.statements
        if not _runs(f, own, trace)
    ]


def _contract() -> None:
    spec = importlib.util.spec_from_file_location("contract_outputs", ROOT / "tools" / "contract_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    if tool.main([]) != 0:
        raise RuntimeError("the contract run failed")


def _demos() -> None:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def _where(f: Function, line: int, sources: Dict[str, List[str]]) -> str:
    text = sources.setdefault(f.file, Path(f.file).read_text(encoding="utf-8").splitlines())[line - 1].strip()
    return f"  {Path(f.file).name}:{line}  {f.name}: {text}"


def main() -> int:
    path = list(sys.path)
    with contextlib.redirect_stdout(io.StringIO()):
        contract = traced(_contract)
        demos = traced(_demos)
    sys.path[:] = path
    found = functions()
    both = Trace(contract.calls | demos.calls, contract.lines | demos.lines)
    sources: Dict[str, List[str]] = {}
    missed = never_run(found, both)
    print(f"functions that never run: {len(missed)} of {len(found)}")
    for f in missed:
        print(_where(f, f.first, sources))
    unrun = unrun_statements(found, both)
    print(f"statements that never run inside functions that do: {len(unrun)}")
    for f, line in unrun:
        print(_where(f, line, sources))
    demo_only = [
        (f, first) for f in found for first, own in f.statements if _runs(f, own, demos) and not _runs(f, own, contract)
    ]
    print(f"statements that only the demos reach: {len(demo_only)}")
    for f, line in demo_only:
        print(_where(f, line, sources))
    return 0


if __name__ == "__main__":
    sys.exit(main())
