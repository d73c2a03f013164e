"""Code under src serves src: every definition, member and defaulted parameter
there has a use in src itself, not only in the tests, and no defaulted
parameter is one constant that every src call passes.

The checks read only the syntax tree, so docstrings and comments do not count,
and __init__ is left out, as its re-exports are not uses.  A use is found by
name, and an attribute of a module bound by ``import`` (``np.take``,
``math.factorial``) names nothing in src.
"""

import ast
from collections import Counter
from pathlib import Path

import weylfk

# main(argv) lets the tests drive the command line; src runs it on sys.argv
UNSET_DEFAULTS = {("main", "argv")}


def _modules():
    """(file name, syntax tree, names bound by ``import``) of each src module."""
    out = []
    for path in sorted(Path(weylfk.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text())
            imported = {alias.asname or alias.name.partition(".")[0]
                        for node in ast.walk(tree) if isinstance(node, ast.Import)
                        for alias in node.names}
            out.append((path.name, tree, imported))
    return out


def _of_src(node, imported) -> bool:
    """Whether a name or attribute node may name a src definition: neither it
    nor the start of its chain of attributes is an imported module."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return not (isinstance(node, ast.Name) and node.id in imported)


def _named(node, imported):
    """Every identifier that node reads, as a name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and _of_src(sub, imported):
            yield sub.attr


def _unnamed(definitions):
    """file:line and label of each definition named nowhere in src outside its
    own body; definitions(tree) yields (label, node) pairs."""
    modules = _modules()
    named = Counter(n for _, tree, imported in modules for n in _named(tree, imported))
    return [f"{file}:{node.lineno} {label}"
            for file, tree, imported in modules for label, node in definitions(tree)
            if named[node.name] == Counter(_named(node, imported))[node.name]]


def test_every_definition_is_named_elsewhere_in_src():
    assert _unnamed(lambda tree: (
        (node.name, node) for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    )) == []


def test_every_member_is_named_outside_its_body():
    assert _unnamed(lambda tree: (
        (f"{cls.name}.{node.name}", node)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    )) == []


def _argument(call, param, position):
    """The node a call passes for param by keyword or by position, the call
    itself if it unpacks *args or **kwargs (which may set anything), or None."""
    if any(k.arg is None for k in call.keywords) or any(
            isinstance(a, ast.Starred) for a in call.args):
        return call
    for k in call.keywords:
        if k.arg == param:
            return k.value
    return call.args[position] if position is not None and position < len(call.args) else None


def _defaulted_parameters():
    """(file:line and label, the nodes the src calls pass for it) of each
    defaulted parameter in src, save __init__'s, those of UNSET_DEFAULTS and
    those of a function used as a value, whose callers cannot be known."""
    modules = _modules()
    calls, as_value = {}, set()
    for _, tree, imported in modules:
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _of_src(node.func, imported):
                callees.add(id(node.func))
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
        as_value |= {getattr(node, "id", None) or node.attr for node in ast.walk(tree)
                     if isinstance(node, (ast.Name, ast.Attribute))
                     and isinstance(node.ctx, ast.Load)
                     and id(node) not in callees and _of_src(node, imported)}

    out = []
    for file, tree, _ in modules:
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef) or f.name == "__init__" or f.name in as_value:
                continue
            # a call through an instance or a class passes self or cls itself
            passed = id(f) in methods and not any(
                getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            defaulted = [(p.arg, k - passed) for k, p in enumerate(positional) if k >= first]
            defaulted += [(p.arg, None) for p, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
                          if d is not None]
            out += [(f"{file}:{f.lineno} {f.name}({param})",
                     [_argument(c, param, position) for c in calls.get(f.name, [])])
                    for param, position in defaulted if (f.name, param) not in UNSET_DEFAULTS]
    return out


def test_every_defaulted_parameter_is_set_by_src():
    assert [label for label, args in _defaulted_parameters()
            if all(a is None for a in args)] == []


def test_no_defaulted_parameter_is_a_constant():
    # every src call setting it to one and the same literal makes it a constant
    assert [label for label, args in _defaulted_parameters()
            if args and all(isinstance(a, ast.Constant) for a in args)
            and len({ast.dump(a) for a in args}) == 1] == []


def test_only_potentials_reads_site_labels():
    # multi-indices address coordinates by position; a site's label only
    # places it on the lattice, which potentials alone needs
    assert [f"{file}:{node.lineno}" for file, tree, _ in _modules()
            if file != "potentials.py" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "sites"] == []
