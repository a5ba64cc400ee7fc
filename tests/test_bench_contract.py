"""The benchmark's tracer wraps wellspin functions by name
(bench/tracing.py): every name it lists must still resolve, or a traced
bench run fails before it measures anything."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def refs(tracing):
    listed = [ref for names in tracing.LAYERS.values() for ref in names]
    return [*listed, *tracing.COUNT_HOOKS, tracing.ROOT_SPAN]


def test_every_traced_name_resolves(tracing):
    for ref in refs(tracing):
        module_name, qualname = ref.split(":")
        module = importlib.import_module(f"wellspin.{module_name}")
        if "." in qualname:
            # methods are wrapped in the class dict, where they are defined
            class_name, attr = qualname.split(".")
            assert attr in vars(getattr(module, class_name)), ref
        else:
            assert callable(getattr(module, qualname, None)), ref


def test_install_and_uninstall_restore_every_function(tracing):
    from wellspin import fields, wells

    originals = (
        wells.dist_to_single_well_batch,
        vars(fields.PWAffineField)["from_vertex_function"],
    )
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert wells.dist_to_single_well_batch is not originals[0]
    finally:
        tracer.uninstall()
    assert wells.dist_to_single_well_batch is originals[0]
    assert vars(fields.PWAffineField)["from_vertex_function"] is originals[1]
