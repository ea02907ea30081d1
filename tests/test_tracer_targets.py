"""The benchmark's tracer patches names that exist in the package and puts every original back."""

import importlib.util
import os
import sys

import storybridge.cli  # noqa: F401  (imports every module the tracer patches)

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def package_attributes() -> dict:
    """Every attribute of every storybridge module and of the classes they define."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "storybridge" or mod_name.startswith("storybridge.")):
            continue
        for attr, value in vars(mod).items():
            found[mod_name, attr] = value
            if isinstance(value, type) and value.__module__.startswith("storybridge"):
                for name, member in vars(value).items():
                    found[f"{value.__module__}.{value.__qualname__}", name] = member
    return found


def test_tracer_install_finds_every_target_and_uninstall_restores_it():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    before = package_attributes()
    tracer = module.Tracer()
    try:
        tracer.install()  # a traced name missing from the package raises here
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    after = package_attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
