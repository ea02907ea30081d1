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


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_finds_every_target_and_uninstall_restores_it():
    module = load_tracer()
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


def test_traced_decode_gives_the_untraced_story_and_times_every_step(monkeypatch):
    from storybridge import generate
    from storybridge.enrich import TermPath
    from storybridge.generate import GeneratorConfig, GeneratorModel

    vocab = ["<bos>", "<eos>", "<sb>", "<unk>", "<s>", "</s>", "<sep>"] + [f"w{i}" for i in range(40)]
    config = GeneratorConfig(hidden_size=16, heads=2, encoder_layers=2, decoder_layers=2, ff_multiple=2,
                             max_sentence_tokens=4, seed=5)
    model = GeneratorModel.build(vocab, config, sentence_budget=3)
    path = TermPath.from_groups([["w1", "w2"], ["w3"], ["w4", "w5"]])
    frontiers = []
    factory = GeneratorModel.step_log_probs_fn

    def counted(self, groups, budget):
        step = factory(self, groups, budget)
        return lambda frontier: frontiers.append(frontier) or step(frontier)

    with monkeypatch.context() as patch:
        patch.setattr(GeneratorModel, "step_log_probs_fn", counted)
        want = generate.decode_story(path, model)
    module = load_tracer()
    tracer = module.Tracer()
    try:
        tracer.install()
        with module.recording(tracer, "round"):
            got = generate.decode_story(path, model)
    finally:
        tracer.uninstall()
    assert got.tokens == want.tokens and got.score == want.score and got.truncated == want.truncated
    assert len(tracer.stats["round"].step_times) == len(frontiers) > 1


def test_traced_gru_steps_go_through_the_gru_cell_span():
    # a renamed or inlined cell would leave layers.gru_cell_calls at 0 in traced runs
    import numpy as np

    from storybridge.layers import GRUParams
    from storybridge.lm import BOS, EOS, GRULanguageModel
    from storybridge.params import ParameterStore

    cell = GRUParams(ParameterStore(0), "cell", 3, 4)
    lm = GRULanguageModel.build([BOS, EOS, "a"], hidden_size=4, seed=0)
    module = load_tracer()
    tracer = module.Tracer()
    try:
        tracer.install()
        calls = tracer.stats["round"].calls
        with module.recording(tracer, "round"):
            cell(np.ones((2, 3)), np.zeros((2, 4)))
            assert calls["layers.gru_cell"] == 1
            lm.log_probs([[BOS, "a", "a", EOS]])
    finally:
        tracer.uninstall()
    assert calls["layers.gru_cell"] == 1 + 3  # one step per token but the last
