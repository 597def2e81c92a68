"""Package surface: the root exports exactly the layers' public names."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import types

import cvteleport

LAYERS = ("epr", "teleport", "swap", "criteria", "linmode", "oracle")
SRC = pathlib.Path(cvteleport.__file__).parent
ACCEPTANCE = pathlib.Path(__file__).with_name("test_acceptance.py")


def test_root_exports_every_layer_all():
    # import_module, because the attribute cvteleport.teleport is the function.
    modules = [importlib.import_module(f"cvteleport.{name}") for name in LAYERS]
    union = [name for module in modules for name in module.__all__]
    assert len(union) == len(set(union)), "a name is public in two layers"
    assert sorted(cvteleport.__all__) == sorted(union)
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"
            assert getattr(cvteleport, name) is getattr(module, name), name
    assert isinstance(cvteleport.teleport, types.FunctionType)
    assert isinstance(cvteleport.criteria, types.ModuleType)
    assert cvteleport.criteria is modules[3]


# Names that only tests used: each was deleted, or moved into the test tree
# as a reference (classical.py, closed_form.py, references.py).
TEST_ONLY = {
    "criteria": (
        "nopa_fidelity_spectrum", "ralph_lam", "RalphLamResult", "ClassicalModelParams",
        "classical_model", "classical_objective", "OBJECTIVES", "optimize_classical",
        "grid_search_classical",
    ),
    "epr": ("couple_modes", "nopa_transfer"),
    "linmode": ("split_re_im", "vacuum_mode", "zero_expansion"),
    "oracle": ("condition_on", "sample_teleport_outcomes"),
    "swap": ("swapped_epr_variances",),
    "teleport": ("re_im_variances",),
}
TEST_ONLY_MEMBERS = (
    ("linmode", "QuadExpansion", "is_zero"),
    ("linmode", "InputModel", "with_variances"),
    ("linmode", "InputModel", "family"),
    ("epr", "TransferPair", "bogoliubov_defect"),
    ("oracle", "GaussianState", "vacuum"),
)


def test_test_references_stay_out_of_the_package():
    for layer, names in TEST_ONLY.items():
        module = importlib.import_module(f"cvteleport.{layer}")
        for name in names:
            assert not hasattr(module, name), f"{layer}.{name}"
            assert name not in cvteleport.__all__, name
    for layer, cls, member in TEST_ONLY_MEMBERS:
        owner = getattr(importlib.import_module(f"cvteleport.{layer}"), cls)
        assert not hasattr(owner, member), f"{cls}.{member}"
    assert "family" not in cvteleport.InputModel.__dataclass_fields__


# A source type the README documents for library use; no command builds it.
DOCUMENTED_ONLY = {"CustomSpectrum"}


def _used_names(tree: ast.AST) -> set[str]:
    # Names read as variables or attributes: a def, a class statement and
    # an __all__ string are not uses.
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_has_a_user_outside_the_tests():
    # A public name is used by the package itself or imported by the
    # acceptance gate; anything else is API that only tests exercise.
    used = set().union(*(_used_names(ast.parse(p.read_text())) for p in SRC.glob("*.py")))
    gate = ast.parse(ACCEPTANCE.read_text())
    used |= {
        alias.asname or alias.name
        for node in ast.walk(gate)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = [
        f"{layer}.{name}"
        for layer in LAYERS
        for name in importlib.import_module(f"cvteleport.{layer}").__all__
        if name not in used and not name.isupper() and name not in DOCUMENTED_ONLY
    ]
    assert unused == [], f"public names only tests use: {unused}"


def test_only_the_text_module_spells_the_number_format():
    # Every float the package prints is 12-significant-digit text from
    # _text; a second spelling of the format (a % literal, an f-string or
    # format spec, a docstring example) would be a second formatting path.
    for path in SRC.glob("*.py"):
        if path.name == "_text.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert ".12g" not in node.value.lower(), f"{path.name}:{node.lineno}"


def test_no_module_reads_the_environment():
    # Every setting is an argument, a flag or a constant in the code: a
    # module that read an environment variable would be a hidden option.
    readers = {"environ", "environb", "getenv", "getenvb"}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
        assert not (_used_names(tree) | imported) & readers, path.name


def test_no_module_asserts():
    # Runtime invariants raise real exceptions: python -O strips every
    # assert statement, and the check with it.
    for path in SRC.glob("*.py"):
        asserts = [n.lineno for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Assert)]
        assert not asserts, f"{path.name}: assert on lines {asserts}"


def _readers(tree: ast.AST, name: str, scope: str = "") -> list[str]:
    # The enclosing function of every mention of name that is not its
    # definition: a variable, an attribute or an imported alias.
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = tree.name
    found = [scope] if (
        (isinstance(tree, ast.Name) and tree.id == name)
        or (isinstance(tree, ast.Attribute) and tree.attr == name)
        or (isinstance(tree, ast.alias) and tree.name == name)
    ) else []
    for child in ast.iter_child_nodes(tree):
        found += _readers(child, name, scope)
    return found


def test_one_walker_reads_the_port_layout():
    # Every protocol map of amplitudes walks the EPR ports through
    # epr._ports (the spectrum kernel weighs each pair's two spectra): a
    # second reader of _layout is a second port loop.
    readers = [
        (path.name, scope)
        for path in SRC.glob("*.py")
        for scope in _readers(ast.parse(path.read_text()), "_layout")
    ]
    assert readers == [("epr.py", "_ports")]


def test_cli_import_leaves_scipy_out():
    # scipy is installed but unused: importing it would add 0.2 s (scipy
    # alone) to 0.8 s (scipy.interpolate) to the start of every command.
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, cvteleport.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
