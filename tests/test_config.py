"""The caps in `wreathdet.config` are read-only: no library module assigns,
augments, deletes or `setattr`s an attribute of it. A cap a caller wants to
change is passed down as an argument instead."""

import ast
from pathlib import Path

import wreathdet

SRC = Path(wreathdet.__file__).parent


def _config_names(tree):
    # names a module binds to the config module
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "wreathdet"):
            names |= {a.asname or a.name for a in node.names if a.name == "config"}
        elif isinstance(node, ast.Import):
            names |= {a.asname for a in node.names if a.name == "wreathdet.config" and a.asname}
    return names


def config_writes(source):
    """(line, text) of every write to an attribute of config in the source."""
    tree = ast.parse(source)
    names = _config_names(tree)

    def is_config(node):
        return (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute) and node.attr == "config"
        )

    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [t for tgt in node.targets for t in ast.walk(tgt)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr") and node.args):
            targets = [ast.Attribute(value=node.args[0], attr="?")]
        else:
            continue
        if any(isinstance(t, ast.Attribute) and is_config(t.value) for t in targets):
            hits.append((node.lineno, ast.get_source_segment(source, node)))
    return sorted(hits)


def test_no_module_writes_to_config():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    writes = {
        path.name: hits for path in modules if (hits := config_writes(path.read_text()))
    }
    assert writes == {}


def test_guard_catches_each_kind_of_write():
    source = (
        "from . import config\n"
        "import wreathdet.config as cfg\n"
        "config.FACTORIAL_CAP = 3\n"
        "cfg.YOUNG_SUBGROUP_CAP += 1\n"
        "a, config.TABLEAU_CELL_CAP = 1, 2\n"
        "setattr(config, 'XI_ORDER_CAP', 5)\n"
        "wreathdet.config.FACTORIAL_CAP = 4\n"
        "del config.FACTORIAL_CAP\n"
        "cap = config.FACTORIAL_CAP\n"
        "config_copy = {}\n"
        "config_copy['FACTORIAL_CAP'] = 1\n"
    )
    assert [line for line, _ in config_writes(source)] == [3, 4, 5, 6, 7, 8]
