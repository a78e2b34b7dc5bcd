"""The count of settable values in src/satgrowth stays at or under its cap.

A settable value is a defaulted positional or keyword-only parameter of any
function or lambda, a `**kw` parameter (one each), or a dataclass field with
a default.
"""

import ast
from pathlib import Path

import satgrowth

OPTION_CAP = 53


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _options(tree: ast.Module, module: str):
    """(module, qualified name) of each settable value in `tree`."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = scope + (getattr(node, "name", "<lambda>"),)
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] \
                if args.defaults else []
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            out.extend((module, ".".join(name + (a.arg,))) for a in defaulted)
            if args.kwarg is not None:
                out.append((module, ".".join(name + ("**" + args.kwarg.arg,))))
            scope = name
        elif isinstance(node, ast.ClassDef):
            scope = scope + (node.name,)
            if _is_dataclass(node):
                out.extend((module, ".".join(scope + (stmt.target.id,)))
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and stmt.value is not None)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return out


def _count_package(root: Path):
    out = []
    for path in sorted(root.glob("*.py")):
        out.extend(_options(ast.parse(path.read_text()), path.stem))
    return out


def test_rule_counts_each_kind():
    src = """
from dataclasses import dataclass, field
import dataclasses

def f(a, b=1, *args, c, d=2, **kw):
    def inner(x=0):
        pass
    return lambda y, z=3: z

@dataclass
class A:
    x: int
    y: int = 0
    z: list = field(default_factory=list)

@dataclasses.dataclass(frozen=True)
class B:
    w: float = 1.0

class C:
    v: int = 5
"""
    names = [name for _, name in _options(ast.parse(src), "m")]
    assert names == ["f.b", "f.d", "f.**kw", "f.inner.x", "f.<lambda>.z",
                     "A.y", "A.z", "B.w"]


def test_option_count_within_cap():
    found = _count_package(Path(satgrowth.__file__).parent)
    listing = "\n".join(f"{m}.{name}" for m, name in found)
    assert len(found) <= OPTION_CAP, \
        f"{len(found)} settable values exceed the cap of {OPTION_CAP}:\n{listing}"
