"""The package namespace: its exported names, and that they load lazily."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import quasimetric

# The package's exported names, as the eager namespace of earlier versions
# exported them: every public name imported from a submodule, and the six
# submodules themselves.
EXPORTED = [
    "BoundReport", "CompressedClassifier", "ConstantEstimate", "Cover", "CoverStats",
    "CoverageError", "DEFAULT_TOLERANCE", "DegenerateCandidatesError", "Direction",
    "Fixture", "FixtureSpec", "InseparableSampleError", "LabeledSample", "Margins", "Mode",
    "NearestResult", "QuasiMetric", "QueryVectors", "SymmetricKind", "SymmetricSpace",
    "ValidationReport", "arbitrary_cover", "ball", "bound", "build_classifier",
    "build_from_digraph", "build_from_matrix", "check_symmetric_axioms", "classifier",
    "cover", "density_constant", "diameter", "dimension", "directional_constant",
    "doubling_constant", "exact_min_cover", "fixtures", "gen_backedge_line", "gen_cycle",
    "gen_hst_toward_root", "gen_line", "gen_min_violation", "gen_nn_lower_bound",
    "gen_random_bounded", "gen_spoke_subset", "greedy_cover", "iterated_cover",
    "load_edge_list", "load_labels", "load_matrix", "log_iter", "log_star", "make_sample",
    "margins", "nearest", "predict", "save_edge_list", "save_labels", "save_matrix",
    "set_distance", "space", "subspace", "to_max_metric", "to_min_semimetric",
    "to_sum_metric", "transforms", "transpose", "validate", "verify_cover",
]
SUBMODULES = {"classifier", "cover", "dimension", "fixtures", "space", "transforms"}


def fresh(script: str) -> str:
    """The stdout of ``script`` run in a new interpreter on this source tree."""
    src = str(Path(quasimetric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def test_all_is_pinned():
    assert quasimetric.__all__ == EXPORTED


@pytest.mark.parametrize("name", EXPORTED)
def test_name_resolves_to_the_object_its_module_defines(name):
    """A submodule's name gives the submodule; any other name gives the
    object of the module that defines it (DEFAULT_TOLERANCE, a float, has
    no ``__module__``: space defines it)."""
    found = getattr(quasimetric, name)
    if name in SUBMODULES:
        assert found is import_module(f"quasimetric.{name}")
    else:
        home = getattr(found, "__module__", "quasimetric.space")
        assert getattr(sys.modules[home], name) is found


def test_a_rebinding_in_the_submodule_is_seen(monkeypatch):
    """Nothing is cached in the package: a tracer's wrapper in the defining
    module is what the package hands out, and the original after it is undone."""
    original = quasimetric.space.validate

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(quasimetric.space, "validate", wrapper)
    assert quasimetric.validate is wrapper
    monkeypatch.undo()
    assert quasimetric.validate is original
    assert "validate" not in vars(quasimetric)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(quasimetric, "nope")
    with pytest.raises(ImportError, match="nope"):
        exec("from quasimetric import nope", {})


def test_dir_lists_every_exported_name():
    assert set(EXPORTED) | {"__version__"} <= set(dir(quasimetric))


def test_import_loads_no_submodule_and_star_import_binds_every_name():
    out = fresh("import sys\n"
                "import quasimetric\n"
                "print(*sorted(m for m in sys.modules if m.startswith('quasimetric')))\n"
                "from quasimetric import *\n"
                "print(*sorted(n for n in dir() if not n.startswith('_') and n != 'sys'))\n")
    loaded, bound = out.splitlines()
    assert loaded == "quasimetric"
    assert bound.split() == sorted(set(EXPORTED) | {"quasimetric"})
