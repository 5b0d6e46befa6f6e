"""The representation of finite quadratic forms is decided in `zlat.forms`
alone, only a listed few functions walk the elements of a group, every
Lattice is validated, no module but `verify` calls the element fingerprints
or uses floating point, no memo of a form reads its lifts, the memos stay
under a ceiling, no module reads another module's private names or imports
`dataclasses`, no check is an `assert`, every function, class and method is
used, and every parameter is read."""

import ast
import os
import subprocess
import sys
from collections import Counter

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "zlat")


def _imported(tree):
    """The top-level names of the absolute imports in the tree."""
    imported = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    return imported | {node.module.split(".")[0] for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.module and not node.level}


@pytest.mark.parametrize("module", ["exact", "lattice", "gluing", "classify", "stability"])
def test_no_fractions_import(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        assert "fractions" not in _imported(ast.parse(fh.read()))


# the value types write their methods in their modules: `dataclasses`
# generates and compiles code for each at import, and loads `inspect`, which
# cost more than the rest of the package's import
def test_no_module_imports_dataclasses():
    found = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                if "dataclasses" in _imported(ast.parse(fh.read())):
                    found.append(fname)
    assert not found, found


def test_the_import_rule_sees_both_spellings():
    assert _imported(ast.parse("import dataclasses\n")) == {"dataclasses"}
    assert _imported(ast.parse("from dataclasses import dataclass\nfrom . import forms\n")) == {"dataclasses"}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(SRC)
    code = "import sys, zlat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# exactly the functions whose walk over all elements of a form is their point
# (or a verification's brute-force side); everything else works on generators
ENUMERATING = {"verify._extension_cases", "verify.check_glue_determinant"}


def _callers(module, tree, matches):
    """module.function (top-level function or class.method) of every call that matches."""
    out = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{module}.{child.name}"
            elif isinstance(node, ast.ClassDef) and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{owner}.{child.name}"
            if isinstance(child, ast.Call) and matches(child):
                out.add(name or module)
            visit(child, name)

    visit(tree, None)
    return out


def _element_walkers(module, tree):
    """module.function of every `.elements()` call."""
    return _callers(module, tree, lambda call: isinstance(call.func, ast.Attribute) and call.func.attr == "elements")


def test_only_listed_functions_enumerate_elements():
    walkers = set()
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                walkers |= _element_walkers(fname[:-3], ast.parse(fh.read()))
    assert walkers == ENUMERATING, (sorted(walkers - ENUMERATING), sorted(ENUMERATING - walkers))


# every Lattice is checked by `_validate` (symmetry, det != 0): only
# `lattice._with_det` makes one and sets its gram (`Lattice(gram, expr)` is
# `_with_det` too), the constructor of a finite quadratic form sets the form's
# own gram, and only the fills of the lazy fields (LAZY_FILLS) set a gram
# after it: `lattice._lay_out` the one a block sum lays out from its
# validated parts, `forms._sum_gram` a sum form's.  Nothing stores one
# through an instance dict
def _new_lattice(call):
    """object.__new__(Lattice)"""
    func, args = call.func, call.args
    return (isinstance(func, ast.Attribute) and func.attr == "__new__" and getattr(func.value, "id", None) == "object"
            and bool(args) and getattr(args[0], "id", getattr(args[0], "attr", None)) == "Lattice")


def _sets_gram(call):
    """object.__setattr__(x, "gram", ...)"""
    func, args = call.func, call.args
    return (isinstance(func, ast.Attribute) and func.attr == "__setattr__"
            and getattr(func.value, "id", None) == "object"
            and len(args) > 1 and isinstance(args[1], ast.Constant) and args[1].value == "gram")


def _vars_updates(call):
    """vars(x).update(...) or x.__dict__.update(...)"""
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == "update"
            and (isinstance(func.value, ast.Call) and getattr(func.value.func, "id", None) == "vars"
                 or isinstance(func.value, ast.Attribute) and func.value.attr == "__dict__"))


def _stores_gram(call):
    """A vars(x) or x.__dict__ update that may store a gram: gram=..., or an
    argument whose keys the rule cannot read."""
    return _vars_updates(call) and (bool(call.args) or any(k.arg in ("gram", None) for k in call.keywords))


@pytest.mark.parametrize("matches", [_new_lattice, _sets_gram, _stores_gram])
def test_only_with_det_builds_a_lattice_past_its_constructor(matches):
    found = set()
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                found |= _callers(fname[:-3], ast.parse(fh.read()), matches)
    gram_fills = {fill for fill, (_cls, names) in LAZY_FILLS.items() if "gram" in names}
    expected = {_new_lattice: {"lattice._with_det"},
                _sets_gram: {"lattice._with_det", "forms.FiniteQuadraticForm.__init__", *gram_fills},
                _stores_gram: set()}
    assert found == expected[matches], sorted(found)


# the value types define no attribute hook: with a `__getattr__` the
# interpreter stops specializing every attribute read of the type.  Only the
# lazy fields (the dense layouts of a block sum and a form's nonzero entries) are
# `LazyField`s, each filled by one of LAZY_FILLS
LAZY_FILLS = {"lattice._lay_out": ("Lattice", {"gram"}), "forms._sum_gram": ("FiniteQuadraticForm", {"gram"}),
              "forms._sum_lifts": ("FiniteQuadraticForm", {"lift_cols"}),
              "forms._fill_entries": ("FiniteQuadraticForm", {"entries"})}
HOOKS = ("__getattr__", "__getattribute__")


def _attribute_hooks(module, tree):
    """module.Class.hook of every hook a class body defines or assigns, and
    module:line of every assignment to an attribute named like a hook."""

    def targets(node):
        return node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(
            node, (ast.AnnAssign, ast.AugAssign)) else []

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                names = [item.name] if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) else [
                    getattr(t, "id", None) for t in targets(item)]
                found |= {f"{module}.{node.name}.{name}" for name in names if name in HOOKS}
        found |= {f"{module}:{node.lineno}" for t in targets(node) if isinstance(t, ast.Attribute) and t.attr in HOOKS}
    return found


def test_value_types_define_no_attribute_hook():
    from zlat.forms import FiniteQuadraticForm
    from zlat.lattice import LazyField, Lattice

    found = set()
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                found |= _attribute_hooks(fname[:-3], ast.parse(fh.read()))
    assert not found, sorted(found)
    lazy = {}
    for cls in (Lattice, FiniteQuadraticForm):
        assert not hasattr(cls, "__getattr__") and cls.__getattribute__ is object.__getattribute__, cls
        for name, value in vars(cls).items():
            if isinstance(value, LazyField):
                assert value.name == name
                fill = f"{value.fill.__module__.split('.')[-1]}.{value.fill.__name__}"
                lazy.setdefault(fill, (cls.__name__, set()))[1].add(name)
    assert lazy == LAZY_FILLS


def test_the_hook_rule_sees_definitions_and_assignments():
    tree = ast.parse("class C:\n    def __getattr__(self, name):\n        pass\n"
                     "class D:\n    __getattribute__ = object.__getattribute__\n"
                     "E.__getattr__ = lambda self, name: None\n"
                     "class F:\n    def get(self):\n        pass\n")
    assert _attribute_hooks("m", tree) == {"m.C.__getattr__", "m.D.__getattribute__", "m:6"}


def test_the_construction_rule_sees_both_calls():
    tree = ast.parse("def f():\n    l = object.__new__(lattice.Lattice)\n"
                     "class C:\n    def g(self):\n        object.__setattr__(self, 'gram', ())\n")
    assert _callers("m", tree, _new_lattice) == {"m.f"}
    assert _callers("m", tree, _sets_gram) == {"m.C.g"}


def test_the_gram_store_rule_sees_every_update():
    tree = ast.parse("class C:\n    def h(self):\n        vars(self).update(gram=())\n"
                     "def k(x):\n    x.__dict__.update({'gram': ()})\n"
                     "def m(x):\n    vars(x).update(expr='')\n")
    assert _callers("m", tree, _stores_gram) == {"m.C.h", "m.k"}


# a value type of `forms` is its fields: what a method of a class stores
# into an instance (a constructor) names a field of that class, what `forms`
# stores into a form past its constructor (a lazy sum) names one of the
# form's, each by a constant, and nothing stores through an instance dict
def _object_setattrs(tree):
    """Every object.__setattr__(...) call in the tree."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__" and getattr(node.func.value, "id", None) == "object"]


def test_forms_sets_no_hidden_attributes():
    with open(os.path.join(SRC, "forms.py")) as fh:
        tree = ast.parse(fh.read())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    fields = {cls.name: {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)} for cls in classes}
    owner = {id(node): cls.name for cls in classes for node in _object_setattrs(cls)}
    stores = _object_setattrs(tree)
    assert stores and not [node.lineno for node in stores if len(node.args) != 3
                           or not isinstance(node.args[1], ast.Constant)
                           or node.args[1].value not in fields[owner.get(id(node), "FiniteQuadraticForm")]], fields
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and _vars_updates(node)]


# `lattice` and `forms` never read an instance's `vars()` or `__dict__`: that
# turns the compact attribute storage of the instance into a dict, and every
# later attribute read of it gets slower
def _instance_dict_reads(tree):
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "vars"
                  or isinstance(node, ast.Attribute) and node.attr == "__dict__")


@pytest.mark.parametrize("module", ["lattice", "forms"])
def test_value_modules_read_no_instance_dict(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        assert not _instance_dict_reads(ast.parse(fh.read()))


def test_the_instance_dict_rule_sees_both_reads():
    tree = ast.parse("def f(x):\n    return vars(x)\n\n\ndef g(x):\n    return x.__dict__.get('gram')\n")
    assert _instance_dict_reads(tree) == [2, 6]


# a memo keys a form on its value, which ignores the lift columns: a memo in
# `forms` that takes a form neither reads `lift_cols` nor calls `lift_vector`
FORM_MEMOS = {"normal_basis", "anti_iso_images", "_anti_iso_order"}


def _form_memo_lift_reads(tree):
    """{name: lines reading lift_cols or lift_vector} of every top-level
    `lru_cache` function with an argument annotated FiniteQuadraticForm."""
    found = {}
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if any(getattr(d, "id", getattr(d, "attr", None)) == "lru_cache" for d in decorators) and any(
                getattr(a.annotation, "id", None) == "FiniteQuadraticForm" for a in args):
            found[node.name] = sorted(n.lineno for n in ast.walk(node) if isinstance(n, ast.Attribute)
                                      and n.attr in ("lift_cols", "lift_vector"))
    return found


def test_form_memos_never_read_lifts():
    with open(os.path.join(SRC, "forms.py")) as fh:
        found = _form_memo_lift_reads(ast.parse(fh.read()))
    assert FORM_MEMOS <= set(found), sorted(FORM_MEMOS - set(found))
    assert not {name: lines for name, lines in found.items() if lines}


def test_the_lift_rule_sees_reads_and_calls():
    tree = ast.parse("@lru_cache(maxsize=MEMO_SIZE)\ndef f(g: FiniteQuadraticForm):\n    return g.lift_cols\n"
                     "@functools.lru_cache(8)\ndef h(n: int, g: FiniteQuadraticForm):\n    return g.lift_vector(n)\n"
                     "@lru_cache(maxsize=MEMO_SIZE)\ndef k(l: Lattice):\n    return l.lift_cols\n"
                     "def m(g: FiniteQuadraticForm):\n    return g.lift_cols\n")
    assert _form_memo_lift_reads(tree) == {"f": [3], "h": [6]}


# element walks that only a verification may read: a verdict path (a genus
# tag, a normal form) never decides by enumerating a group
FINGERPRINTS = {"fingerprint", "coset_fingerprint", "q_value_census"}


def _callers_of(names, tree):
    """The names in `names` that some call in the tree reaches, as f(...) or x.f(...)."""
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return called & names


def test_only_verify_calls_the_fingerprints():
    callers = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py") and fname != "verify.py":
            with open(os.path.join(SRC, fname)) as fh:
                found = _callers_of(FINGERPRINTS, ast.parse(fh.read()))
            if found:
                callers[fname[:-3]] = sorted(found)
    assert not callers, callers


# the verdicts and the census read the genus tag and its accessors, never
# the symbols or ranks of a whole form (the glue maps still take p-parts)
FORM_READERS = {"jordan_symbol", "p_rank", "is_elementary"}


def _form_readers_called(tree):
    """The names in FORM_READERS that some call in the tree reaches as
    forms.f(...) or as f(...) after `from .forms import f`."""
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("forms")
                for alias in node.names}
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "forms":
                called.add(func.attr)
            elif isinstance(func, ast.Name) and func.id in imported:
                called.add(func.id)
    return called & FORM_READERS


@pytest.mark.parametrize("module", ["stability", "classify"])
def test_verdicts_read_the_genus_tag(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        assert not _form_readers_called(ast.parse(fh.read()))


# `verify` keeps a floating-point Gauss sum as the second side of a check
EXACT_MODULES = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py") and f != "verify.py")


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_no_floating_point(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    nodes = list(ast.walk(tree))
    imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    assert "cmath" not in imported | {n.module for n in nodes if isinstance(n, ast.ImportFrom)}
    assert not [n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, (float, complex))]
    assert not [n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id == "math" and n.attr in ("sqrt", "pi", "exp", "log")]


# the reversion root search and the partner check read Gram matrices, blocks
# and genus tags; they call nothing of `forms`
ROOT_SEARCH = {"reversion_partner", "_root_complement", "find_reversion_root", "_norm_assemblies",
               "_root_components", "_kernel_basis_mod2", "_kernel_mod2", "_half_class_is_characteristic"}


def test_the_root_search_reads_no_form():
    with open(os.path.join(SRC, "classify.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("forms")
                for alias in node.names}
    found = {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in ROOT_SEARCH}
    assert found == ROOT_SEARCH
    readers = {(node.name, name.id) for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in ROOT_SEARCH
               for name in ast.walk(node) if isinstance(name, ast.Name) and name.id in imported | {"forms"}}
    assert not readers, readers


# every memo has an explicit bound: an int or `MEMO_SIZE`, never None
def _unbounded_memos(module, tree):
    """module:line of every `functools.cache` and of every `lru_cache` that is
    not called with an int or `MEMO_SIZE` maxsize (None, or a bare decorator)."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [f"{module}:{node.lineno} cache" for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools" \
                and node.attr == "cache":
            out.append(f"{module}:{node.lineno} cache")
        elif getattr(node, "id", getattr(node, "attr", None)) == "lru_cache":
            call = calls.get(id(node))
            size = None if call is None else call.args[0] if call.args else next(
                (k.value for k in call.keywords if k.arg == "maxsize"), None)
            if not ((isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0)
                    or (isinstance(size, ast.Name) and size.id == "MEMO_SIZE")):
                out.append(f"{module}:{node.lineno} lru_cache")
    return out


def test_every_memo_is_bounded():
    found = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                found += _unbounded_memos(fname[:-3], ast.parse(fh.read()))
    assert not found, found


# the package's memos are counted: a change may lower the count, never raise it unnoticed
MEMO_CEILING = 18


def _memo_count(tree) -> int:
    """The `lru_cache` memos in the tree (`functools.cache` the rule above
    bans): each use of the name `lru_cache` or of `functools.lru_cache`,
    called or bare; an import names it without using it."""
    return sum(1 for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "lru_cache"
               or isinstance(node, ast.Attribute) and node.attr == "lru_cache")


def test_memo_count_stays_under_the_ceiling():
    count = 0
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                count += _memo_count(ast.parse(fh.read()))
    assert count <= MEMO_CEILING, f"{count} memos in src/zlat, at most {MEMO_CEILING}"


def test_the_memo_count_sees_every_spelling():
    tree = ast.parse("from functools import lru_cache\nimport functools\n"
                     "@lru_cache(maxsize=MEMO_SIZE)\ndef f(x):\n    return x\n"
                     "@functools.lru_cache(8)\ndef g(x):\n    def h(y):\n        return y\n"
                     "    return functools.lru_cache(4)(h)(x)\n"
                     "@lru_cache\ndef k(x):\n    return x\n")
    assert _memo_count(tree) == 4


# each module keeps its private names: no module reads another's `_name`,
# as `from .m import _name` or `m._name` after `from . import m`
def _foreign_private_names(tree):
    """module._name for every private name of another package module read in the tree."""
    modules, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("zlat")):
            package = node.module in (None, "zlat")
            for alias in node.names:
                if package:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.add(f"{node.module.split('.')[-1]}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
                and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.add(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("module", EXACT_MODULES + ["verify"])
def test_no_module_reads_another_modules_private_names(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        assert not _foreign_private_names(ast.parse(fh.read()))


def test_the_private_name_rule_sees_both_forms():
    tree = ast.parse("from . import forms\nfrom .lattice import _block_det, Lattice\nforms._split(f, 2)\n")
    assert _foreign_private_names(tree) == {"lattice._block_det", "forms._split"}


# every check of the package survives `python -O`, which strips `assert`
def _asserts(tree):
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


@pytest.mark.parametrize("module", EXACT_MODULES + ["verify"])
def test_no_assert_statement(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        assert not _asserts(ast.parse(fh.read()))


def test_the_assert_rule_sees_nested_asserts():
    tree = ast.parse("assert x\nclass C:\n    def f(self):\n        if y:\n            assert y, 'm'\n"
                     "def g():\n    return lambda: None\n")
    assert _asserts(tree) == [1, 5]


# every function, class and method the package defines is read somewhere in
# the package or the benchmark (as a name, an attribute or an import) outside
# its own definition; dunders are called by the interpreter
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "perfbench")


def _reads(tree) -> Counter:
    """The names the tree reads: names, attributes and imported names."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                   else node.name.split(".")[-1] for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


def _unread_definitions(trees, defining):
    """module.name of each function, class or method of the `defining`
    modules whose name no tree reads outside its own definition."""
    reads = sum(map(_reads, trees.values()), Counter())
    return sorted(f"{module}.{node.name}" for module in defining for node in ast.walk(trees[module])
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and reads[node.name] == _reads(node)[node.name])


def test_every_definition_is_read():
    trees = {}
    for where, prefix in ((SRC, ""), (PERFBENCH, "perfbench.")):
        for fname in sorted(os.listdir(where)):
            if fname.endswith(".py"):
                with open(os.path.join(where, fname)) as fh:
                    trees[prefix + fname[:-3]] = ast.parse(fh.read())
    assert _unread_definitions(trees, [m for m in trees if not m.startswith("perfbench.")]) == []


def test_the_unread_rule_sees_imports_and_self_reads():
    trees = {"m": ast.parse("def f(x):\n    return f(x - 1) if x else g\ndef g():\n    return C().h\n"
                            "class C:\n    def h(self):\n        return self.k\n    def k(self):\n        pass\n"
                            "    def __eq__(self, other):\n        pass\ndef unused():\n    pass\n"),
             "bench": ast.parse("from m import f\n")}
    assert _unread_definitions(trees, ["m"]) == ["m.unused"]
    del trees["bench"]
    assert _unread_definitions(trees, ["m"]) == ["m.f", "m.unused"]


# every parameter of every function, method and lambda is read in its body;
# dunders keep the interpreter's signature, and a `_`-prefixed parameter is
# unread by name
def _unread_parameters(module, tree):
    """module.function.parameter of each parameter its function's body never loads."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        loads = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        out += [f"{module}.{name}.{p.arg}" for p in params if not p.arg.startswith("_") and p.arg not in loads]
    return out


def test_every_parameter_is_read():
    found = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                found += _unread_parameters(fname[:-3], ast.parse(fh.read()))
    assert found == []


def test_the_parameter_rule_sees_bodies_closures_and_lambdas():
    tree = ast.parse("def f(a, b, *rest, c=1, _d=2, **kw):\n    def g():\n        return a\n    return g, kw\n"
                     "class C:\n    def m(self, x):\n        return 0\n    def __get__(self, obj, owner):\n        pass\n"
                     "h = lambda y, z: y\n")
    assert _unread_parameters("m", tree) == ["m.f.b", "m.f.c", "m.f.rest", "m.m.self", "m.m.x", "m.<lambda>.z"]
