"""Every parameter of every function and method in the fwexact modules
is read by its body: an argument a function never reads is an API that
asks callers for something it ignores."""

import ast
import importlib
import inspect
import pkgutil

import fwexact

MODULES = [
    importlib.import_module(f"fwexact.{info.name}")
    for info in pkgutil.iter_modules(fwexact.__path__)
]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


class _Scanner(ast.NodeVisitor):
    """Collects ``module.qualname(parameter)`` for each parameter of a
    function or lambda that no name load in its body reads; nested
    functions reading it count, ``self`` and ``cls`` are skipped."""

    def __init__(self, module: str) -> None:
        self.path = [module]
        self.unread: list[str] = []

    def _scope(self, node: ast.AST, name: str) -> None:
        self.path.append(name)
        self.generic_visit(node)
        self.path.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope(node, node.name)

    def _function(self, node) -> None:
        name = getattr(node, "name", "<lambda>")
        args = node.args
        params = [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
            if a is not None and a.arg not in ("self", "cls")
        ]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for statement in body
            for n in ast.walk(statement)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        qualname = ".".join((*self.path, name))
        self.unread += [f"{qualname}({p})" for p in params if p not in read]
        self._scope(node, name)

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _function


def unread_parameters(source: str, module: str) -> list[str]:
    scanner = _Scanner(module)
    scanner.visit(ast.parse(source))
    return scanner.unread


def test_every_parameter_is_read():
    unread = [
        entry
        for module in MODULES
        for entry in unread_parameters(inspect.getsource(module), module.__name__)
    ]
    assert unread == []


def test_scanner_finds_an_unread_parameter():
    source = (
        "def f(a, b, *, c=1, **rest):\n"
        "    def g():\n"
        "        return a\n"
        "    return g() + (lambda x: 0)(c)\n"
        "class K:\n"
        "    def m(self, y):\n"
        "        del y\n"
    )
    assert unread_parameters(source, "mod") == [
        "mod.f(b)",
        "mod.f(rest)",
        "mod.f.<lambda>(x)",
        "mod.K.m(y)",
    ]
