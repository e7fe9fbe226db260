"""Every parameter of every function and method in the fwexact modules
is read by its body: an argument a function never reads is an API that
asks callers for something it ignores.  Every private module-level
function, class and constant is read somewhere in the package: one that
nothing reads is dead code."""

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


def _private_definitions(tree: ast.Module) -> list[str]:
    """The private (``_name``, not dunder) names a module's top-level
    statements define: functions, classes and assignment targets."""
    names = []
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(statement.name)
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level definition of the
    modules ``sources`` (module name -> source) that its own module never
    loads and no module imports or reads as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    shared = {
        node.name if isinstance(node, ast.alias) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.alias, ast.Attribute))
    }
    unread = []
    for module, tree in trees.items():
        loaded = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [
            f"{module}.{name}"
            for name in _private_definitions(tree)
            if name not in loaded and name not in shared
        ]
    return unread


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


def test_every_private_definition_is_read():
    sources = {module.__name__: inspect.getsource(module) for module in [fwexact, *MODULES]}
    assert unread_private_names(sources) == []


def test_scanner_finds_an_unread_private_name():
    sources = {
        "a": (
            "import b\n"
            "from b import _imported\n"
            "_USED = 1\n"
            "_UNUSED, _pair = 2, 3\n"
            "_annotated: int = 4\n"
            "def _helper():\n"
            "    return _USED + b._attribute\n"
            "class _Orphan:\n"
            "    pass\n"
            "def public():\n"
            "    return _helper()\n"
        ),
        "b": "_imported = _attribute = 0\n_other = 1\n__dunder__ = 2\n",
    }
    assert unread_private_names(sources) == [
        "a._UNUSED",
        "a._pair",
        "a._annotated",
        "a._Orphan",
        "b._other",
    ]
