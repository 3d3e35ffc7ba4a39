"""Every span that BENCHMARK.json's per-layer metrics read is a callable the
perfbench tracer wraps. A traced run looks each of those names up among the
spans it recorded, so a renamed or removed callable fails the traced run
while the untraced one passes."""

import functools
import importlib
import importlib.util
import inspect
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPAN_SUFFIXES = (".calls", ".self_s", ".total_s")


@functools.cache
def _traced_modules() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED_MODULES


def _resolve(span: str):
    """The function the tracer times as `span`, or None. It wraps the public
    functions defined in a traced `ude.<module>` (`<module>.<function>`), and
    the public methods (`<module>.<Class>.<method>`) and `__call__`
    (`<module>.<Class>`) of the public classes defined there."""
    module_name, *path = span.split(".")
    if module_name not in _traced_modules() or not 1 <= len(path) <= 2:
        return None
    if any(part.startswith("_") for part in path):
        return None
    module = importlib.import_module(f"ude.{module_name}")
    owner = vars(module).get(path[0])
    if getattr(owner, "__module__", None) != module.__name__:
        return None
    if inspect.isclass(owner):
        member = vars(owner).get("__call__" if len(path) == 1 else path[1])
    else:
        member = owner if len(path) == 1 else None
    return member if inspect.isfunction(member) else None


def test_every_per_layer_span_is_a_traced_callable():
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    spans = sorted({name.rsplit(".", 1)[0] for name in names if name.endswith(SPAN_SUFFIXES)})
    assert spans
    missing = [span for span in spans if _resolve(span) is None]
    assert not missing, f"BENCHMARK.json reads spans that no traced callable produces: {missing}"


@pytest.mark.parametrize("span, found", [
    ("utt.hinge_disc_loss", True),
    ("nn.MultiHeadAttention", True),          # the class's __call__
    ("mq.MQModel.decode_tokens", True),
    ("numerics.Tensor.backward", True),
    ("utt.no_such_function", False),          # a renamed or removed callable
    ("utt._interleave", False),               # private: not traced
    ("utt.encode", False),                    # imported from mate: traced as mate.encode
    ("audio.load_features", False),           # a module the tracer leaves alone
    ("mq.MQModel.no_such_method", False),
    ("mq.DOWNSAMPLE", False),                 # not a callable
])
def test_spans_resolve_as_the_tracer_names_them(span, found):
    assert (_resolve(span) is not None) == found
