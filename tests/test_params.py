from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import storybridge.params as params_module
from helpers import store_holding
from storybridge.ioutil import InputError
from storybridge.params import ParameterStore


def test_param_allocation_and_lookup():
    store = ParameterStore(1)
    w = store.param("enc.w", (3, 4))
    assert store.param("enc.w", (3, 4)) is w
    assert "enc.w" in store and len(store) == 1
    with pytest.raises(ValueError, match="exists with shape"):
        store.param("enc.w", (4, 4))


def test_same_seed_same_init_different_seed_differs():
    a = ParameterStore(7).param("w", (5, 5)).data
    b = ParameterStore(7).param("w", (5, 5)).data
    c = ParameterStore(8).param("w", (5, 5)).data
    assert (a == b).all()
    assert not (a == c).all()


def test_frozen_store_refuses_new_parameters():
    store = ParameterStore(0)
    store.param("w", (2,))
    store.freeze()
    store.param("w", (2,))  # existing lookup still fine
    with pytest.raises(ValueError, match="frozen"):
        store.param("w2", (2,))


def test_freezing_makes_parameters_constants_until_unfrozen():
    store = ParameterStore(0)
    w = store.param("w", (2, 2))
    assert w.requires_grad and not store.frozen
    assert not store.freeze()["w"].requires_grad and store.frozen
    store.freeze(False)
    assert w.requires_grad and not store.frozen
    store.param("w2", (2,))  # an unfrozen store allocates again


def test_pack_moves_parameters_into_one_buffer_keeping_tensors_and_values():
    store = ParameterStore(3)
    tensors = {name: store.param(name, shape) for name, shape in (("w", (3, 4)), ("b", (4,)), ("e", (2, 5)))}
    before = {name: t.data.copy() for name, t in tensors.items()}
    assert store.pack() is store and store.flat.shape == (12 + 4 + 10,)
    flat = store.flat
    for name, t in store.items():
        assert t is tensors[name] and t.data.flags.c_contiguous and np.shares_memory(t.data, flat)
        assert (t.data.view(np.uint64) == before[name].view(np.uint64)).all()
        assert t.grad_view.shape == t.shape and np.shares_memory(t.grad_view, store.flat_grad)
        assert not t.grad_view.any()
    assert (flat == np.concatenate([before[name].reshape(-1) for name in ("w", "b", "e")])).all()
    store.pack()
    assert store.flat is flat  # packing again is a no-op
    flat -= 1.0
    assert (tensors["b"].data == before["b"] - 1.0).all()  # an update of the buffer is an update of each parameter
    with pytest.raises(ValueError, match="packed"):
        store.param("late", (2,))


def test_zero_grads_clears_the_packed_gradient_buffer():
    store = ParameterStore(0)
    w = store.param("w", (2, 2))
    store.pack()
    store.flat_grad.fill(3.0)
    w.grad = w.grad_view
    store.zero_grads()
    assert w.grad is None and not store.flat_grad.any()


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_serialization_roundtrip_is_bit_identical(tmp_path_factory, seed):
    store = ParameterStore(seed)
    store.param("a", (3, 2))
    store.param("b", (4,), init="zeros")
    store.param("c.d.e", (2, 2, 2))
    path = str(tmp_path_factory.mktemp("ckpt") / "model.json")
    store.schedule = {"base_lr": 1e-3}
    store.save(path, extra={"vocab": ["x", "y"]})
    loaded, extra = ParameterStore.load(path)
    assert loaded.rng_seed == seed
    assert loaded.schedule == {"base_lr": 1e-3}
    assert extra == {"vocab": ["x", "y"]}
    assert [name for name, _ in loaded.items()] == [name for name, _ in store.items()]
    for name, t in store.items():
        assert (loaded[name].data.view(np.uint64) == t.data.view(np.uint64)).all()
        assert loaded[name].data.shape == t.data.shape


def test_unsupported_format_version_rejected(tmp_path):
    store = ParameterStore(0)
    store.param("w", (1,))
    path = str(tmp_path / "ckpt.json")
    with mock.patch.object(params_module, "FORMAT_VERSION", 99):  # a consistent pair of another version
        store.save(path)
    with pytest.raises(InputError, match="ckpt.json: unsupported checkpoint format_version 99"):
        ParameterStore.load(path)


# ------------------------------------------------------------ strict model loading


def tiny_models():
    from storybridge.distill import END_OF_SET, DistillerConfig, DistillerModel
    from storybridge.generate import GeneratorConfig, GeneratorModel
    from storybridge.lm import GRULanguageModel, load_lm

    gen_vocab = ["<bos>", "<eos>", "<sb>", "<unk>", "<s>", "</s>", "<sep>", "w"]
    return {
        "generator": (
            GeneratorModel.build(gen_vocab, GeneratorConfig(hidden_size=4, heads=2, encoder_layers=1, decoder_layers=1, ff_multiple=1)),
            GeneratorModel.load,
            "dec.b_out",
        ),
        "distiller": (
            DistillerModel.build([END_OF_SET, "t"], DistillerConfig(hidden_size=4, heads=2, layers=1, ff_multiple=1)),
            DistillerModel.load,
            "decoder.b_out",
        ),
        "gru_lm": (GRULanguageModel.build(["<s>", "</s>", "t"], hidden_size=4), load_lm, "lm.b_out"),
    }


def corrupt_checkpoint(tmp_path, kind, edit):
    """A consistent checkpoint pair of a tiny model, saved again after edit(arrays, name) changed its name -> values map."""
    model, load, name = tiny_models()[kind]
    path = str(tmp_path / f"{kind}.json")
    model.save(path)
    loaded, extra = ParameterStore.load(path)
    arrays = {n: t.data.copy() for n, t in loaded.items()}
    edit(arrays, name)
    store_holding(arrays, loaded.rng_seed, loaded.schedule).save(path, extra=extra)
    return load, path


def test_loaded_store_is_frozen_and_loads_cleanly(tmp_path):
    for kind in ("generator", "distiller", "gru_lm"):
        load, path = corrupt_checkpoint(tmp_path, kind, lambda params, name: None)
        assert load(path).store.frozen


@pytest.mark.parametrize("kind", ["generator", "distiller", "gru_lm"])
def test_missing_parameter_is_an_input_error(tmp_path, kind):
    load, path = corrupt_checkpoint(tmp_path, kind, lambda params, name: params.pop(name))
    with pytest.raises(InputError, match="b_out"):
        load(path)


def test_extra_parameter_is_an_input_error(tmp_path):
    def add(params, name):
        params["dec.stray"] = np.zeros(1)

    load, path = corrupt_checkpoint(tmp_path, "generator", add)
    with pytest.raises(InputError, match="dec.stray"):
        load(path)


def test_wrong_shape_is_an_input_error(tmp_path):
    def reshape(params, name):
        params[name] = np.append(params[name], 0.0)

    load, path = corrupt_checkpoint(tmp_path, "generator", reshape)
    with pytest.raises(InputError, match="dec.b_out"):
        load(path)


def test_non_finite_value_is_an_input_error(tmp_path):
    def poison(params, name):
        params[name][0] = float("nan")

    load, path = corrupt_checkpoint(tmp_path, "generator", poison)
    with pytest.raises(InputError, match="non-finite"):
        load(path)


def test_strict_load_errors_exit_two(tmp_path, capsys):
    from storybridge.cli import EXIT_INPUT, main
    from storybridge.enrich import TermPath
    from storybridge.ioutil import write_jsonl

    _load, path = corrupt_checkpoint(tmp_path, "generator", lambda params, name: params.pop(name))
    paths = str(tmp_path / "paths.jsonl")
    write_jsonl(paths, [TermPath.from_groups([["w"]], story_id="s").to_record()])
    code = main([
        "pipeline", "--set", "stages=generate", "--set", f"terms_path={paths}", "--set", f"generator_model={path}",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_INPUT
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("role", ["distiller_model", "lm_model", "generator_model"])
def test_saving_a_loaded_checkpoint_rewrites_it_byte_for_byte(trained_world, tmp_path, role):
    from storybridge.distill import DistillerModel
    from storybridge.generate import GeneratorModel
    from storybridge.lm import load_lm

    load = {"distiller_model": DistillerModel.load, "lm_model": load_lm, "generator_model": GeneratorModel.load}[role]
    original = trained_world[role]
    model = load(original)
    assert model.store.schedule["step_count"] > 0
    again = str(tmp_path / "again.json")
    model.save(again)
    with open(original, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()
