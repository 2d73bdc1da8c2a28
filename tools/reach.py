#!/usr/bin/env python3
"""Print what the behaviour contract and the demos reach of ``src/stablemix``.

The scan runs the 69 contract outputs (``tools/contract_outputs.py``) and then
the 7 demos in this process under ``sys.settrace``, restoring any profiler or
tracer set before. It lists the functions of ``src/stablemix`` that never run,
the statements that never run inside functions that do, and those that only the
demos reach. A statement is listed once, at its first line, and counts as run
when any line of its own (not of a statement nested in it) executes; statements
without bytecode, such as ``nonlocal``, are never listed. It takes no options,
and exits 1 when the contract or a demo fails:

    python3 tools/reach.py
"""

import ast
import contextlib
import io
import linecache
import runpy
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Set, Tuple, Union

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


def traced(run: Callable[[], object], package: Path = PACKAGE) -> Trace:
    """The calls and lines of ``package`` that ``run()`` executes; any
    tracer or profiler set before is restored afterwards."""
    prefix = str(package) + "/"
    trace = Trace(set(), set())

    def tracer(frame, event, _):
        code = frame.f_code
        if event == "line":
            trace.lines.add((code.co_filename, frame.f_lineno))
        elif event == "call":
            if not code.co_filename.startswith(prefix):
                return None
            if code.co_name != "<module>":  # a module body starts at line 1, where a def may start too
                trace.calls.add((code.co_filename, code.co_firstlineno))
        return tracer

    old_trace, old_profile = sys.gettrace(), sys.getprofile()
    sys.setprofile(None)
    sys.settrace(tracer)
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


def functions(package: Path = PACKAGE) -> List[Function]:
    """Every function and method defined in the modules of ``package``."""
    found = []
    for path in sorted(package.glob("*.py")):
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
    ran = [f for f in found if (f.file, f.first) in trace.calls]
    return [(f, first) for f in ran for first, own in f.statements if not _runs(f, own, trace)]


def _run(run: Callable[[], object]) -> Tuple[int, str]:
    """The exit code and stdout of ``run()`` as a script's; a raise exits 1, its traceback on stderr."""
    code = 0
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            run()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue()


def scan(root: Union[str, Path] = ROOT, keep: Union[str, Path, None] = None) -> Dict[str, Any]:
    """Run the contract on ``root`` (``--keep keep``), then each of its demos, traced over its package: the
    exit code and stdout of each run (a failing one does not stop the next) and the reach text."""
    import contract_outputs  # beside this file, first on sys.path when it runs as a script

    package = Path(root).resolve() / "src" / "stablemix"
    argv = ["--root", str(root), *(["--keep", str(keep)] if keep else [])]
    result: Dict[str, Any] = {"demos": {}}

    def contract() -> None:
        result["contract"] = _run(lambda: sys.exit(contract_outputs.main(argv)))

    def demos() -> None:
        for demo in sorted(Path(root, "demos").glob("*.py")):
            result["demos"][demo.stem] = _run(lambda: runpy.run_path(str(demo), run_name="__main__"))

    def where(f: Function, line: int) -> str:
        return f"  {Path(f.file).name}:{line}  {f.name}: {linecache.getline(f.file, line).strip()}"

    path = list(sys.path)
    ran, demo_ran = traced(contract, package), traced(demos, package)
    sys.path[:] = path
    found = functions(package)
    both = Trace(ran.calls | demo_ran.calls, ran.lines | demo_ran.lines)
    missed = never_run(found, both)
    unrun = unrun_statements(found, both)
    demo_only = [(f, n) for f in found for n, own in f.statements if _runs(f, own, demo_ran) and not _runs(f, own, ran)]
    lines = [f"functions that never run: {len(missed)} of {len(found)}", *(where(f, f.first) for f in missed)]
    lines += [f"statements that never run inside functions that do: {len(unrun)}", *(where(f, n) for f, n in unrun)]
    lines += [f"statements that only the demos reach: {len(demo_only)}", *(where(f, n) for f, n in demo_only)]
    result["reach"] = "".join(line + "\n" for line in lines)
    return result


def main() -> int:
    result = scan()
    print(result["reach"], end="")
    return int(any(code for code, _ in (result["contract"], *result["demos"].values())))


if __name__ == "__main__":
    sys.exit(main())
