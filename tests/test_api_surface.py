"""Every public name and every option of the public API has a caller.

A public function, class or method that nothing outside the tests reaches is
dead API, and so is a defaulted parameter that no call sets: one value is
ever used, yet each such option doubles the configurations the tests would
have to cover.  These five scans parse ``src/pauli_lab``, and the first
four also its callers in ``perfbench/``.
The first fails on a public top-level function or class, or a public
method of a public class, that no name or attribute there refers to;
``UNCALLED`` lists the exceptions, each with its reason.  The second fails
on a defaulted parameter of a public function or method, or a defaulted
field of a public frozen dataclass, that no call there sets by keyword or
position; ``KEPT`` lists the options that stay all the same,
each with its reason.  Calls inside the file readers (``READERS``) do not
count: a reader copies every field of a file, so it would make any option
look set.  The third fails on a parameter of a public function or method,
or a field of a public frozen dataclass, to which every call there passes
the same literal, when there are at least two calls: a value that never
varies is a constant, not an option.  The fourth fails on a public field of
a public dataclass that no attribute load there reads: a result field that
nothing reads is computed for nobody.  ``FIELDS_KEPT`` lists the
exceptions, each with its reason.  A scan by name cannot tell classes
apart, so a field that shares its name with a read attribute of another
class passes it, and calls of a same-named function elsewhere count as
calls.  The fifth fails on any read of ``os.environ`` or ``os.getenv`` in
``src/pauli_lab``: an environment variable is an option that no call shows
and no provenance header records.  All three lists must name only entries
that still apply.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pauli_lab"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench")

KEPT = {
    # the A = 0.82 frequency-matched pair (D 0.8, count 1024) fails the Hardy
    # check without a 1e-13 floor: its transform's quadrature noise reads as growth
    "fourier.hardy_check": {"floor"},
}

# they rebuild models and pairs from every field a file stores
READERS = {"from_dict", "pair_from_json", "_decode_evaluator"}

UNCALLED = {
    # main dispatches to each subcommand by its name
    *(f"cli.cmd_{command}" for command in ("thresholds", "gen_seq", "construct", "verify",
                                           "ft", "indicator", "interp", "acceptance")),
}


def _python_files():
    for directory in CALLER_DIRS:
        yield from sorted(directory.rglob("*.py"))


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        if isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "dataclass":
            return any(kw.arg == "frozen" and getattr(kw.value, "value", False)
                       for kw in dec.keywords)
    return False


def _parameters(args: ast.arguments, skip_first: bool) -> list[tuple[str, int | None, bool]]:
    """(name, positional index or None for keyword-only, has a default) of each parameter."""
    positional = args.posonlyargs + args.args
    offset = 1 if skip_first else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - offset, i >= first) for i, a in enumerate(positional) if i >= offset]
    out += [(a.arg, None, d is not None) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return out


def _signatures() -> dict[tuple[str, str], list[tuple[str, int | None, bool]]]:
    """(module, callable name) -> its parameters, for the public API."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[(module, node.name)] = _parameters(node.args, skip_first=False)
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    found[(module, item.name)] = _parameters(item.args, skip_first=not static)
            if _is_frozen_dataclass(node):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]
                found[(module, node.name)] = [(f.target.id, i, f.value is not None)
                                              for i, f in enumerate(fields)]
    return found


def _calls() -> dict[str, list[tuple[list, dict, bool]]]:
    """Callee name -> (positional argument nodes, keyword argument nodes by
    name, unpacks anything) per call outside the file readers."""
    calls: dict[str, list] = {}
    for path in _python_files():
        tree = ast.parse(path.read_text())
        in_readers = {id(node) for reader in ast.walk(tree)
                      if isinstance(reader, ast.FunctionDef) and reader.name in READERS
                      for node in ast.walk(reader)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in in_readers:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(kw.arg is None for kw in node.keywords))
            calls.setdefault(name, []).append(
                (node.args, {kw.arg: kw.value for kw in node.keywords}, unpacks))
    return calls


def _unset_options() -> dict[str, set]:
    calls = _calls()
    unset: dict[str, set] = {}
    for (module, name), params in _signatures().items():
        for param, index, defaulted in params:
            if not defaulted or any(
                    unpacks or param in keywords or (index is not None and len(args) > index)
                    for args, keywords, unpacks in calls.get(name, ())):
                continue
            unset.setdefault(f"{module}.{name}", set()).add(param)
    return unset


def test_every_option_is_set_by_a_caller():
    unset = _unset_options()
    dead = {name: sorted(params - KEPT.get(name, set()))
            for name, params in unset.items() if params - KEPT.get(name, set())}
    assert not dead, f"options no caller sets (use the value, or add to KEPT): {dead}"


def test_kept_options_are_still_unset():
    unset = _unset_options()
    stale = {name: sorted(params - unset.get(name, set()))
             for name, params in KEPT.items() if params - unset.get(name, set())}
    assert not stale, f"KEPT names options that a caller sets or that are gone: {stale}"


def _literal(node) -> str | None:
    """The source of an argument that is a literal, else None."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.unparse(node)


def _one_value_parameters() -> dict[str, set]:
    """Parameters to which every call, of at least two, passes the same literal."""
    calls = _calls()
    found: dict[str, set] = {}
    for (module, name), params in _signatures().items():
        sites = calls.get(name, ())
        if len(sites) < 2 or any(unpacks for _, _, unpacks in sites):
            continue
        for param, index, _ in params:
            passed = {_literal(keywords[param]) if param in keywords
                      else _literal(args[index]) if index is not None and len(args) > index
                      else None
                      for args, keywords, _ in sites}
            if len(passed) == 1 and None not in passed:
                found.setdefault(f"{module}.{name}", set()).add(param)
    return found


def test_no_parameter_takes_one_literal():
    one_value = _one_value_parameters()
    assert not one_value, f"parameters every call passes the same literal (use the value): {one_value}"


def _public_names() -> set[str]:
    """module.name of each public top-level function or class, and
    module.Class.method of each public method of a public class."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found |= {f"{module}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
    return found


def _referenced() -> set[str]:
    """Every identifier read as a name or an attribute by the callers."""
    names = set()
    for path in _python_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _uncalled() -> set[str]:
    referenced = _referenced()
    return {name for name in _public_names() if name.rsplit(".", 1)[1] not in referenced}


def test_every_public_name_has_a_caller():
    dead = sorted(_uncalled() - UNCALLED)
    assert not dead, f"public names no caller reaches (use them, delete them, or add to UNCALLED): {dead}"


def test_uncalled_names_are_still_uncalled():
    stale = sorted(UNCALLED - _uncalled())
    assert not stale, f"UNCALLED names entries that a caller reaches or that are gone: {stale}"


FIELDS_KEPT = {
    # diagnostics that the run trace and the sharpness curves (ROADMAP items 4 and 6) report
    "asymptotics.IndicatorEstimate.n_masked":
        "the zero-exclusion count, a trace diagnostic of the indicator sweeps",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(getattr(dec, "func", dec), "id", None) == "dataclass"
               for dec in node.decorator_list)


def _public_fields() -> set[str]:
    """module.Class.field of each public field of a public dataclass."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_") or not _is_dataclass(node):
                continue
            found |= {f"{module}.{node.name}.{item.target.id}" for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and not item.target.id.startswith("_")}
    return found


def _attribute_loads() -> set[str]:
    """Every attribute name that the callers read."""
    names = set()
    for path in _python_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _unread_fields() -> set[str]:
    loads = _attribute_loads()
    return {name for name in _public_fields() if name.rsplit(".", 1)[1] not in loads}


def test_every_result_field_is_read():
    dead = sorted(_unread_fields() - set(FIELDS_KEPT))
    assert not dead, f"fields no caller reads (read them, delete them, or add to FIELDS_KEPT): {dead}"


def test_kept_fields_are_still_unread():
    stale = sorted(set(FIELDS_KEPT) - _unread_fields())
    assert not stale, f"FIELDS_KEPT names fields that a caller reads or that are gone: {stale}"


def _environment_reads() -> list[str]:
    """file:line of each use of os.environ or os.getenv in the package."""
    names = {"environ", "getenv"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            used = (isinstance(node, ast.Attribute) and node.attr in names
                    and getattr(node.value, "id", None) == "os")
            imported = (isinstance(node, ast.ImportFrom) and node.module == "os"
                        and any(alias.name in names for alias in node.names))
            if used or imported:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_environment_knobs():
    reads = _environment_reads()
    assert not reads, f"environment reads (make it an option or a constant): {reads}"
