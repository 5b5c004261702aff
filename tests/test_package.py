import ast
import re
from pathlib import Path

import safl_sim

# the package's definitions that nothing in it reads, each kept for a reason
UNREAD_KEPT = {
    "theorem3_constant": "the quasi-convex bound that ROADMAP item 8 emits as a column, unit-tested until then",
}


def test_every_public_name_resolves_once():
    # a name left in __all__ after its definition moved breaks only
    # ``from safl_sim import *``, which nothing else here runs
    assert len(set(safl_sim.__all__)) == len(safl_sim.__all__)
    assert [name for name in safl_sim.__all__ if not hasattr(safl_sim, name)] == []


def test_the_public_surface_is_pinned():
    # a name joins or leaves the package's surface only by editing this list
    assert safl_sim.__all__ == [
        "AnnealConfig",
        "Dataset",
        "DivergenceError",
        "GateConfig",
        "GradientUnavailableError",
        "LrSchedule",
        "Objective",
        "PartitionSpec",
        "SimConfig",
        "WeightScheme",
        "accuracy_proxy",
        "aggregate",
        "corollary1_bound",
        "corollary1_constant",
        "curvature",
        "decide_upload",
        "empirical_risk",
        "load_csv",
        "make_blobs",
        "make_linear_regression",
        "measure_bound_inputs",
        "mix",
        "optimum_oracle",
        "partition_with_holdout",
        "performance_gap",
        "run",
        "run_local_epochs",
        "sample_mask",
        "selection_probability",
        "theorem1_bound",
        "upload_probability",
        "weights",
    ]


def test_every_definition_is_read_in_the_package():
    # a function, method, class or name bound at module top level is dead
    # code unless some name or attribute in the package reads it, the
    # package exports it (__all__), or Python's data model calls it (a
    # dunder); ast, not tokens, as an f-string's fields hide their names
    # from the tokenizer
    defined, read = {}, set(safl_sim.__all__)
    for path in sorted(Path(safl_sim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for statement in tree.body:
            if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                for node in (name for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)):
                    defined.setdefault(node.id, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = {name: at for name, at in defined.items() if name not in read and not re.fullmatch("__.+__", name)}
    assert {name: at for name, at in unread.items() if name not in UNREAD_KEPT} == {}
    assert sorted(UNREAD_KEPT.keys() - unread.keys()) == []  # a kept name now read leaves the list
