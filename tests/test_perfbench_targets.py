"""The benchmark's tracer wraps each traced function by its name in its
owner's namespace (perfbench/tracing.py).  A traced name that is renamed,
inherited or bound to another traced function breaks the traced run, which
only perfbench's own suite would otherwise notice; this reads the tracer's
table and changes nothing under perfbench/."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing._targets()


def test_traced_names_are_owned_and_distinct():
    targets = _targets()
    for owner, attr, span in targets:
        assert attr in vars(owner), "%s: %r has no %r of its own" % (
            span, owner, attr)
        assert callable(vars(owner)[attr]), span
    # an alias would be wrapped twice, once under each span name
    assert len({id(vars(o)[a]) for o, a, _ in targets}) == len(targets)
