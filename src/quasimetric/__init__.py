"""Covers, covering constants, and compression-based classification for
finite quasi-metric (asymmetric distance) spaces.

The namespace is lazy (PEP 562): importing the package loads no submodule,
and each exported name is looked up in its submodule on every access, so a
command loads only the modules it runs and a rebinding in a submodule (a
tracer's) is seen here too.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the names the package exports from it; the submodule's
# own name is exported too.
_EXPORTED_BY = {
    "space": ("DEFAULT_TOLERANCE", "Direction", "Mode", "NearestResult", "QuasiMetric",
              "QueryVectors", "ValidationReport", "ball", "build_from_digraph",
              "build_from_matrix", "diameter", "load_edge_list", "load_matrix",
              "nearest", "save_edge_list", "save_matrix", "set_distance", "subspace",
              "transpose", "validate"),
    "dimension": ("ConstantEstimate", "density_constant", "directional_constant",
                  "doubling_constant", "log_iter", "log_star"),
    "cover": ("Cover", "CoverageError", "CoverStats", "arbitrary_cover",
              "exact_min_cover", "greedy_cover", "iterated_cover", "verify_cover"),
    "classifier": ("BoundReport", "CompressedClassifier", "DegenerateCandidatesError",
                   "InseparableSampleError", "LabeledSample", "Margins", "bound",
                   "build_classifier", "load_labels", "make_sample", "margins", "predict",
                   "save_labels"),
    "transforms": ("SymmetricKind", "SymmetricSpace", "check_symmetric_axioms",
                   "to_max_metric", "to_min_semimetric", "to_sum_metric"),
    "fixtures": ("Fixture", "FixtureSpec", "gen_backedge_line", "gen_cycle",
                 "gen_hst_toward_root", "gen_line", "gen_min_violation",
                 "gen_nn_lower_bound", "gen_random_bounded", "gen_spoke_subset"),
}
_MODULE_OF = {name: module for module, names in _EXPORTED_BY.items()
              for name in (module, *names)}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = import_module(f"{__name__}.{module}")
    return found if name == module else getattr(found, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
