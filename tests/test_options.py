"""Every option, every exported name and every public member has a caller.

Every defaulted parameter of a public function has a caller outside the
tests that sets it to a second value.

A default that no call ever overrides is a constant spelled as an option:
it doubles the configurations a reader must consider and none of them is
exercised. The scan below parses ``src/halfspace`` with ``ast``, lists the
defaulted parameters of each public function or method whose name is
defined once in the package, and looks for a call of that name that passes
each of them, by position or by keyword, in ``src/``, ``bench/`` or the
README's python example. A call with ``*args`` counts as passing every
positional parameter and one with ``**kwargs`` every parameter. A call that
only forwards an option of its own enclosing function (``f(tol=tol)``) sets
the callee's option only if that enclosing option is itself set to a
second value. A parameter that every such call sets to the literal of its
default (``check_block(points=64)`` for ``points=64``) has one value, and
is flagged as well.

Every name in a module's ``__all__`` has a caller outside the tests: a
public name only the tests use is code the program does not need. The
second scan looks for a use of the name as a name, an attribute or an
import in ``src/``, ``bench/`` or the README's python example, outside the
name's own definition; ``oracles``, the test-oracle module, is exempt.

The same rule holds for members. The third scan lists the public methods,
properties and annotated (dataclass) fields of every class in the
non-exempt modules and looks for a read of each as an attribute in
``src/``, ``bench/`` or the README's python example, outside the member's
own definition.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "halfspace"

# solve_regularity, solve_neu_perp and solve_dirichlet share solve_neumann's
# signature, whose `torus` the README example sets; the four solvers are
# called alike, so one of them dropping it would make their calls differ.
# The console script and ``python -m halfspace.cli`` call ``main()`` with no
# arguments, which parses ``sys.argv``; only the tests pass ``argv``.
EXEMPT = {("solve_regularity", "torus"), ("solve_neu_perp", "torus"),
          ("solve_dirichlet", "torus"), ("main", "argv")}

STAR, DOUBLE_STAR = "*", "**"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# the value of an argument or default that is not a python literal
NOT_LITERAL = object()


def _literal(node):
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return NOT_LITERAL


def _defs():
    """Yield (name, node, is_method) for every def at module or class level."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                yield node.name, node, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        static = any(isinstance(d, ast.Name)
                                     and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        yield item.name, item, not static


def _options():
    """Map each uniquely named public def to its defaulted parameters.

    Each parameter is (name, position, default), where position is the
    index a positional argument of a call takes, or None for keyword-only
    ones, and default is the default's literal value or NOT_LITERAL.
    """
    defs = list(_defs())
    counts = Counter(name for name, _, _ in defs)
    options = {}
    for name, node, is_method in defs:
        if name.startswith("_") or counts[name] > 1:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if is_method else 0
        first = len(positional) - len(args.defaults)
        params = [(positional[i].arg, i - skip, _literal(default))
                  for i, default in enumerate(args.defaults, first)]
        params += [(arg.arg, None, _literal(default)) for arg, default in
                   zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        if params:
            options[name] = params
    return options


def _sources():
    for top in ("src", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield str(path), path.read_text()
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        yield "README.md", block


class _CallCollector(ast.NodeVisitor):
    """Record (callee, slot, source, value) for every argument of every call.

    ``slot`` is a position, a keyword, STAR or DOUBLE_STAR. ``source`` is
    (enclosing function, parameter) when the argument is a bare name of a
    parameter of an enclosing function, else None. ``value`` is the
    argument's literal value or NOT_LITERAL.
    """

    def __init__(self):
        self.stack = []
        self.records = []

    def visit_FunctionDef(self, node):
        args = node.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        self.stack.append((node.name, names))
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _source(self, value):
        if isinstance(value, ast.Name):
            for name, params in reversed(self.stack):
                if value.id in params:
                    return (name, value.id)
        return None

    def visit_Call(self, node):
        func = node.func
        callee = (func.id if isinstance(func, ast.Name) else
                  func.attr if isinstance(func, ast.Attribute) else None)
        if callee is not None:
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    self.records.append((callee, STAR, None, NOT_LITERAL))
                else:
                    self.records.append((callee, i, self._source(arg),
                                         _literal(arg)))
            for kw in node.keywords:
                slot = DOUBLE_STAR if kw.arg is None else kw.arg
                self.records.append((callee, slot, self._source(kw.value),
                                     _literal(kw.value)))
        self.generic_visit(node)


def unset_options():
    """Sorted "function(parameter)" strings for defaults that no call sets
    to a value other than the default's literal."""
    options = _options()
    collector = _CallCollector()
    for filename, text in _sources():
        collector.visit(ast.parse(text, filename=filename))
    is_option = {(name, param) for name, params in options.items()
                 for param, _, _ in params}
    set_ = set(EXEMPT)
    changed = True
    while changed:
        changed = False
        for callee, slot, source, value in collector.records:
            if callee not in options:
                continue
            if source in is_option and source not in set_:
                continue
            for param, position, default in options[callee]:
                hit = (slot in (param, DOUBLE_STAR)
                       or (position is not None
                           and slot in (position, STAR)))
                if (hit and (value is NOT_LITERAL or value != default)
                        and (callee, param) not in set_):
                    set_.add((callee, param))
                    changed = True
    return sorted(f"{name}({param})" for name, param in is_option - set_)


def test_every_option_has_a_caller():
    unset = unset_options()
    assert not unset, ("defaulted parameters that no call sets to a second "
                       f"value; make each a constant: {unset}")


# ``oracles`` is the independent test-oracle module: the tests are its
# callers by design.
EXPORT_EXEMPT_MODULES = {"oracles"}


def _exports():
    """Yield (module file, name) for every name in a module's ``__all__``."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXPORT_EXEMPT_MODULES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                for elt in node.value.elts:
                    yield path.name, elt.value


class _ReferenceCollector(ast.NodeVisitor):
    """Record (name, file, owner) for every use of a name as a name, an
    attribute or an import; ``owner`` is the module-level def or class the
    use sits in (None outside one)."""

    def __init__(self):
        self.filename = None
        self.owner = None
        self.records = set()

    def visit_file(self, filename, tree):
        self.filename = filename
        for node in tree.body:
            is_def = isinstance(node, FUNCTIONS + (ast.ClassDef,))
            self.owner = node.name if is_def else None
            self.visit(node)

    def _add(self, name):
        self.records.add((name, self.filename, self.owner))

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        for part in node.name.split("."):
            self._add(part)


def unreferenced_exports():
    """Sorted "module.name" strings for exports nothing outside the tests
    uses, apart from the name's own definition."""
    collector = _ReferenceCollector()
    for filename, text in _sources():
        collector.visit_file(filename, ast.parse(text, filename=filename))
    missing = []
    for module, name in _exports():
        own = (str(PACKAGE / module), name)
        if not any(n == name and (f, o) != own
                   for n, f, o in collector.records):
            missing.append(f"{module[:-3]}.{name}")
    return sorted(missing)


def test_every_export_has_a_caller_outside_the_tests():
    missing = unreferenced_exports()
    assert not missing, ("names in __all__ that only the tests use; give "
                         f"each a caller, move it to its test or delete it: "
                         f"{missing}")


def _members():
    """Yield (module file, class, name) for every public method, property
    and annotated (dataclass) field of a class in the non-exempt modules."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXPORT_EXEMPT_MODULES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    name = item.name
                elif (isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield path.name, node.name, name


def _attribute_reads():
    """(attribute, owner) for every attribute read in ``src/``, ``bench/``
    and the README's python example; ``owner`` is (file, class, member) for
    a read inside a class-level definition, else None."""
    reads = set()
    for filename, text in _sources():
        for top in ast.parse(text, filename=filename).body:
            is_class = isinstance(top, ast.ClassDef)
            for item in top.body if is_class else [top]:
                owner = ((filename, top.name, getattr(item, "name", None))
                         if is_class else None)
                for node in ast.walk(item):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Load)):
                        reads.add((node.attr, owner))
    return reads


def unread_members():
    """Sorted "module.Class.member" strings for public members nothing
    outside the tests reads as an attribute, apart from the member's own
    definition."""
    reads = _attribute_reads()
    missing = []
    for module, cls, name in _members():
        own = (str(PACKAGE / module), cls, name)
        if not any(attr == name and owner != own for attr, owner in reads):
            missing.append(f"{module[:-3]}.{cls}.{name}")
    return sorted(missing)


def test_every_member_has_a_reader_outside_the_tests():
    missing = unread_members()
    assert not missing, ("public methods, properties and fields that only "
                         f"the tests read; delete them or give each a "
                         f"reader: {missing}")
