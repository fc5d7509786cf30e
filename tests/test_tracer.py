"""The benchmark's span tracer still reaches every function it names."""

import importlib.util
from pathlib import Path

import ckflow
from ckflow import ambient, cli, ckv, diagnostics, flow, surface  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer):
    """(owner, attr) of every binding the tracer wraps."""
    out = []
    for bindings in tracer.FUNCTIONS.values():
        for path, attr in bindings:
            module, *rest = path.split(".")
            owner = getattr(ckflow, module)
            for part in rest:
                owner = getattr(owner, part)
            out.append((owner, attr))
    for cls_name in tracer.AMBIENT_CLASSES:
        cls = getattr(ckflow.ambient, cls_name)
        for method in tracer.AMBIENT_METHODS:
            out.append((next(c for c in cls.__mro__ if method in vars(c)),
                        method))
    return out


def _current(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_tracer_installs_on_every_binding_and_uninstalls():
    tracer = _load_tracer()
    bindings = _bindings(tracer)
    before = [_current(owner, attr) for owner, attr in bindings]
    with tracer.Tracer() as tr:
        tr.install(ckflow)
        for (owner, attr), original in zip(bindings, before):
            wrapped = _current(owner, attr)
            assert wrapped is not original, f"{owner.__name__}.{attr}"
            assert wrapped.__wrapped__ is original, f"{owner.__name__}.{attr}"
    for (owner, attr), original in zip(bindings, before):
        assert _current(owner, attr) is original, f"{owner.__name__}.{attr}"
