"""Checkpoint loading and the streamed save. The one load route reads the float64 companion: the values
and bytes json gives for the exported JSON, with little more memory than the weights, and any fault in the
pair exits 2 naming the file at fault."""

import json
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import storybridge.params as params
from helpers import checkpoint_payload, store_holding
from storybridge.cli import EXIT_INPUT, EXIT_OK, main
from storybridge.distill import DistillerModel
from storybridge.enrich import TermPath
from storybridge.generate import GeneratorConfig, GeneratorModel
from storybridge.ioutil import InputError, canonical_dumps, write_jsonl
from storybridge.lm import load_lm
from storybridge.params import COMPANION_SUFFIX, ParameterStore

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.1125369292536007e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-05, 1e16, 0.1, -1.5]
finite_floats = st.integers(min_value=0, max_value=2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
).filter(np.isfinite) | st.sampled_from(EDGE_FLOATS)


def assert_bits_equal(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # == would take -0.0 for 0.0


@given(values=st.lists(finite_floats, min_size=0, max_size=60), split=st.integers(min_value=0, max_value=60))
@settings(max_examples=150, deadline=None)
def test_float64_bit_patterns_round_trip(tmp_path_factory, values, split):
    values = np.array(values, dtype=np.float64)
    store = store_holding({"a.w": values[:split], "b": values[split:].reshape(1, -1)},
                          schedule={"base_lr": 0.001, "step_count": 3})
    extra = {"kind": "test", "vocab": ["data", "params"]}
    path = str(tmp_path_factory.mktemp("ckpt") / "model.json")
    store.save(path, extra=extra)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text == canonical_dumps(checkpoint_payload(store, extra))  # the bytes the one-shot encoder writes
    loaded, loaded_extra = ParameterStore.load(path)
    assert loaded_extra == extra and loaded.schedule == store.schedule
    for name, t in store.items():
        assert_bits_equal(loaded[name].data, t.data)
    again = path + ".again"
    loaded.save(again, extra=loaded_extra)
    with open(again, encoding="utf-8") as fh:
        assert fh.read() == text


# layout: the name -> values map of a store; names sort by code point in the JSON and the companion header alike
LAYOUTS = {
    "scalar": {"s": np.array(2.5)},
    "empty-vector": {"e": np.zeros(0)},
    "zero-row-matrix": {"m": np.zeros((0, 3)), "n": [1.0]},
    "three-d": {"t": np.arange(24.0).reshape(2, 3, 4) - 11.5},
    "escaped-names": {'quote"d': [1.0], "back\\slash": [-0.0], "new\nline": [5e-324], "tab\t": [-1.5]},
    "unicode-names": {"\u00e9": [1.0], "\u65e5\u672c": [2.0], "\U0001f600": [3.0], "z": [4.0]},
    "no-parameters": {},
    "many-parameters": {f"p{i}": [float(i)] * (i % 3) for i in range(300)},
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_store_layouts_round_trip_through_both_files(tmp_path, layout):
    store = store_holding(LAYOUTS[layout])
    path = str(tmp_path / "model.json")
    store.save(path, extra={"kind": "layout"})
    loaded, extra = ParameterStore.load(path)
    assert extra == {"kind": "layout"} and list(dict(loaded.items())) == sorted(LAYOUTS[layout])
    for name, t in store.items():
        assert_bits_equal(loaded[name].data, t.data)
    with open(path, encoding="utf-8") as fh:
        exported = json.load(fh)
    assert list(exported["params"]) == sorted(LAYOUTS[layout])
    for name, t in store.items():
        assert exported["params"][name]["shape"] == list(t.shape)
        assert_bits_equal(exported["params"][name]["data"], t.data.reshape(-1))
    again = str(tmp_path / "again.json")
    loaded.save(again, extra=extra)
    for suffix in ("", COMPANION_SUFFIX):
        with open(path + suffix, "rb") as a, open(again + suffix, "rb") as b:
            assert a.read() == b.read()


def tiny_generator_checkpoint(tmp_path) -> str:
    vocab = ["<bos>", "<eos>", "<sb>", "<unk>", "<s>", "</s>", "<sep>", "w"]
    model = GeneratorModel.build(vocab, GeneratorConfig(hidden_size=4, heads=2, encoder_layers=1, decoder_layers=1, ff_multiple=1))
    path = str(tmp_path / "generator.json")
    model.save(path)
    return path


def rewrite(path: str, edit) -> None:
    with open(path, "rb") as fh:
        data = edit(fh.read())
    with open(path, "wb") as fh:
        fh.write(data)


def with_header(edit):
    """An edit of a companion's bytes that rewrites its header dict with edit, leaving its values as they were."""

    def apply(companion: bytes) -> bytes:
        end = companion.index(b"\n")
        header = json.loads(companion[:end])
        edit(header)
        return canonical_dumps(header).encode("utf-8") + companion[end:]

    return apply


def with_first_value(value: float):
    """An edit of a companion's bytes that replaces the first float64 after its header line by value."""

    def apply(companion: bytes) -> bytes:
        start = companion.index(b"\n") + 1
        return companion[:start] + np.array([value], dtype="<f8").tobytes() + companion[start + 8 :]

    return apply


def with_last_value(value: float):
    """An edit of a companion's bytes that replaces its last float64, the last parameter's last value, by value."""
    return lambda companion: companion[:-8] + np.array([value], dtype="<f8").tobytes()


def in_companion(edit):
    return lambda path: rewrite(path + COMPANION_SUFFIX, edit)


def resaved(edit):
    """An edit of the pair at path that loads it, lets edit(store) change the store's metadata, and saves it again.

    The result is a consistent pair, so the fault is caught by the check for that field, not by the digest.
    """

    def apply(path: str) -> None:
        store, extra = ParameterStore.load(path)
        edit(store)
        store.save(path, extra=extra)

    return apply


def json_value_changed(exported: bytes) -> bytes:
    """A valid checkpoint JSON, canonically written, whose first parameter's first value is one more than exported's."""
    payload = json.loads(exported)
    payload["params"][min(payload["params"])]["data"][0] += 1.0
    return canonical_dumps(payload).encode("utf-8")


def json_of_another_save(path: str) -> None:
    """Put the JSON of another store's save in place of path's, leaving path's companion as it was."""
    other = path + ".other.json"
    store_holding({"w": [1.0]}).save(other, extra={"kind": "generator"})
    shutil.copyfile(other, path)


def set_first_shape(shape):
    return with_header(lambda h: h["params"][0].__setitem__(1, shape))


# fault: (edit of the saved pair at path, the suffix of the file the error names, a piece of its message)
COMPANION_FAULTS = {
    "companion-missing": (lambda path: os.remove(path + COMPANION_SUFFIX), "", "has no float64 companion"),
    "companion-one-byte-short": (in_companion(lambda b: b[:-1]), COMPANION_SUFFIX, "bytes of values where its shapes need"),
    "companion-one-value-long": (in_companion(lambda b: b + bytes(8)), COMPANION_SUFFIX, "bytes of values where its shapes need"),
    "companion-header-not-json": (in_companion(lambda b: b"{not json" + b[b.index(b"\n") :]), COMPANION_SUFFIX,
                                  "header line is not JSON"),
    "companion-wrong-format": (in_companion(with_header(lambda h: h.update(format="storybridge-features"))), COMPANION_SUFFIX,
                               "not a storybridge-checkpoint-f64 version 1 file"),
    "companion-unsorted-names": (in_companion(with_header(lambda h: h["params"].reverse())), COMPANION_SUFFIX,
                                 "sorted name order"),
    "companion-negative-shape": (in_companion(with_header(lambda h: h["params"][0][1].append(-1))), COMPANION_SUFFIX,
                                 "non-negative integers"),
    # the JSON no longer has the digest its companion was written for
    "json-edited-after-save": (lambda path: rewrite(path, lambda b: b.replace(b'"kind":"generator"', b'"kind":"distiller"', 1)),
                               COMPANION_SUFFIX, "json_sha256 does not match"),
    "companion-NaN": (in_companion(with_first_value(float("nan"))), COMPANION_SUFFIX, "holds non-finite values"),
    "companion-Infinity": (in_companion(with_first_value(float("-inf"))), COMPANION_SUFFIX, "holds non-finite values"),
    "companion-last-value-NaN": (in_companion(with_last_value(float("nan"))), COMPANION_SUFFIX, "holds non-finite values"),
    # the header line
    "companion-empty": (in_companion(lambda b: b""), COMPANION_SUFFIX, "header line is not JSON"),
    "companion-header-not-utf8": (in_companion(lambda b: b'{"format":"\xff"}' + b[b.index(b"\n") :]), COMPANION_SUFFIX,
                                  "header line is not JSON"),
    "companion-header-a-list": (in_companion(lambda b: b"[1,2]" + b[b.index(b"\n") :]), COMPANION_SUFFIX,
                                "not a storybridge-checkpoint-f64 version 1 file"),
    "companion-format-missing": (in_companion(with_header(lambda h: h.pop("format"))), COMPANION_SUFFIX,
                                 "not a storybridge-checkpoint-f64 version 1 file"),
    "companion-version-2": (in_companion(with_header(lambda h: h.update(version=2))), COMPANION_SUFFIX,
                            "not a storybridge-checkpoint-f64 version 1 file"),
    # the header's [name, shape] entries
    "companion-params-missing": (in_companion(with_header(lambda h: h.pop("params"))), COMPANION_SUFFIX, "sorted name order"),
    "companion-params-an-object": (in_companion(with_header(lambda h: h.update(params=dict(h["params"])))), COMPANION_SUFFIX,
                                   "sorted name order"),
    "companion-entry-not-a-pair": (in_companion(with_header(lambda h: h["params"][0].append(0))), COMPANION_SUFFIX,
                                   "sorted name order"),
    "companion-name-not-a-string": (in_companion(with_header(lambda h: h["params"][0].__setitem__(0, 7))), COMPANION_SUFFIX,
                                    "sorted name order"),
    "companion-duplicate-names": (in_companion(with_header(lambda h: h["params"][1].__setitem__(0, h["params"][0][0]))),
                                  COMPANION_SUFFIX, "sorted name order"),
    "companion-shape-not-a-list": (in_companion(set_first_shape(4)), COMPANION_SUFFIX, "non-negative integers"),
    "companion-shape-of-floats": (in_companion(with_header(lambda h: h["params"][0].__setitem__(1, [float(n) for n in h["params"][0][1]]))),
                                  COMPANION_SUFFIX, "non-negative integers"),
    "companion-shape-of-bools": (in_companion(with_header(lambda h: h["params"][0].__setitem__(1, [True for _ in h["params"][0][1]]))),
                                 COMPANION_SUFFIX, "non-negative integers"),
    "companion-shape-grown": (in_companion(with_header(lambda h: h["params"][0][1].__setitem__(0, h["params"][0][1][0] + 1))),
                              COMPANION_SUFFIX, "bytes of values where its shapes need"),
    # consistent pairs whose metadata load refuses: the message names the checkpoint
    "schedule-a-list": (resaved(lambda store: setattr(store, "schedule", [1])), "", "'schedule' must be an object or null"),
    "rng-seed-not-a-number": (resaved(lambda store: setattr(store, "rng_seed", "seven")), "", "has no usable rng_seed"),
    "rng-seed-null": (resaved(lambda store: setattr(store, "rng_seed", None)), "", "has no usable rng_seed"),
    # the digest binds every byte of the JSON to its companion
    "json-one-byte-appended": (lambda path: rewrite(path, lambda b: b + b" "), COMPANION_SUFFIX, "json_sha256 does not match"),
    "json-truncated": (lambda path: rewrite(path, lambda b: b[:-1]), COMPANION_SUFFIX, "json_sha256 does not match"),
    "json-value-changed": (lambda path: rewrite(path, json_value_changed), COMPANION_SUFFIX, "json_sha256 does not match"),
    "json-of-another-save": (json_of_another_save, COMPANION_SUFFIX, "json_sha256 does not match"),
}


@pytest.mark.parametrize("fault", list(COMPANION_FAULTS))
def test_malformed_checkpoint_exits_two_naming_the_file(tmp_path, capsys, fault):
    path = tiny_generator_checkpoint(tmp_path)
    edit, suffix, message = COMPANION_FAULTS[fault]
    edit(path)
    where = path + suffix
    with pytest.raises(InputError) as exc:
        GeneratorModel.load(path)
    assert str(exc.value).startswith(where + ":") and message in str(exc.value)
    paths = str(tmp_path / "paths.jsonl")
    write_jsonl(paths, [TermPath.from_groups([["w"]], story_id="s").to_record()])
    out_dir = tmp_path / "out"
    code = main([
        "pipeline", "--set", "stages=generate", "--set", f"terms_path={paths}", "--set", f"generator_model={path}",
        "--out-dir", str(out_dir),
    ])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT and out == ""
    assert f"{where}: " in err and message in err and "Traceback" not in err
    assert not (out_dir / "stories.jsonl").exists() and not (out_dir / "manifest.json").exists()


def test_companion_without_its_json_exits_two_naming_the_json(tmp_path):
    path = tiny_generator_checkpoint(tmp_path)
    os.remove(path)  # the companion alone: its digest has nothing to bind to
    with pytest.raises(InputError, match=f"input file not found: {path}$"):
        GeneratorModel.load(path)


MEMORY_PROBE = textwrap.dedent(
    """
    import sys
    import tracemalloc
    from storybridge.params import ParameterStore

    def status_kib(field):
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith(field + ":"))

    before = status_kib("VmRSS")
    store, _ = ParameterStore.load(sys.argv[1])
    print((status_kib("VmHWM") - before) * 1024)
    # the bytes allocated during a second load that are freed before it returns
    del store
    tracemalloc.start()
    store, _ = ParameterStore.load(sys.argv[1])
    current, peak = tracemalloc.get_traced_memory()
    print(peak - current)
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_loading_costs_little_more_memory_than_the_weights(tmp_path):
    # json.load of the JSON would hold the whole text twice (bytes and str) plus a
    # Python float per weight: about eight times the float64 bytes. The load holds
    # the arrays, each read once from the companion into its own allocation and
    # checked with its own finite mask, so what it frees before returning is at
    # most one parameter's mask and a hashing chunk; one buffer for all values, or
    # one mask over them, would be far more. The peak is the child's
    # VmHWM, not ru_maxrss: a spawned child's ru_maxrss starts at the RSS of the
    # process that spawned it. numpy reports its arrays to tracemalloc.
    rng = np.random.default_rng(0)
    store = ParameterStore(0)
    for i in range(40):
        store.param(f"p{i:02d}", (50_000,), init="zeros").data[:] = rng.uniform(-0.05, 0.05, 50_000)
    path = str(tmp_path / "big.json")
    store.save(path)
    weight_bytes = 40 * 50_000 * 8
    src = os.path.dirname(os.path.dirname(os.path.abspath(params.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", MEMORY_PROBE, path], env=env, capture_output=True, text=True, check=True)
    growth, transient = (int(line) for line in out.stdout.split())
    assert growth < 1.3 * weight_bytes, f"peak RSS grew {growth / 2**20:.1f} MB for {weight_bytes / 2**20:.0f} MB of weights"
    assert transient < weight_bytes / 20, f"the load freed {transient / 2**20:.2f} MB before returning"


# ------------------------------------------------------------ the four kinds and moved pairs


@pytest.fixture(scope="module")
def four_kinds(trained_world, tmp_path_factory):
    """Checkpoints of the four kinds, each saved with its companion: the session's three and an n-gram term LM."""
    from storybridge.corpus import build_training_pairs, load_corpus
    from storybridge.lm import LMConfig, train_lm

    stories = load_corpus(trained_world["corpus"]) + load_corpus(trained_world["text_corpus"])
    ngram = str(tmp_path_factory.mktemp("ngram") / "ngram_lm.json")
    train_lm(build_training_pairs(stories, mode="lm"), LMConfig(kind="ngram"))[0].save(ngram)
    return {
        "distiller": (trained_world["distiller_model"], DistillerModel.load),
        "generator": (trained_world["generator_model"], GeneratorModel.load),
        "gru_lm": (trained_world["lm_model"], load_lm),
        "ngram": (ngram, load_lm),
    }


def moved_pair(path: str, to_dir) -> str:
    """Copy a checkpoint and its companion into another directory, as a move leaves them; the copy's path."""
    os.makedirs(to_dir, exist_ok=True)
    moved = os.path.join(str(to_dir), os.path.basename(path))
    for suffix in ("", COMPANION_SUFFIX):
        shutil.copyfile(path + suffix, moved + suffix)
    return moved


@pytest.mark.parametrize("kind", ["distiller", "generator", "gru_lm", "ngram"])
def test_loaded_store_equals_json_load_of_the_exported_json(four_kinds, tmp_path, kind):
    saved, load_model = four_kinds[kind]
    path = moved_pair(saved, tmp_path / "elsewhere")  # the header holds no path, so a moved pair still loads
    store, extra = ParameterStore.load(path)
    load_model(path)  # the model builds on the loaded store
    with open(path, encoding="utf-8") as fh:
        exported = json.load(fh)  # what the benchmark's json.load readers see
    assert extra == exported["extra"] and extra["kind"] == kind
    assert (store.rng_seed, store.schedule) == (exported["rng_seed"], exported["schedule"])
    assert [(name, list(t.shape)) for name, t in store.items()] == [(name, e["shape"]) for name, e in exported["params"].items()]
    for name, entry in exported["params"].items():
        assert_bits_equal(store[name].data.reshape(-1), entry["data"])
    assert len(store) > 0 or kind == "ngram"


@pytest.mark.parametrize("kind", ["distiller", "generator", "gru_lm", "ngram"])
def test_json_only_checkpoint_of_each_kind_exits_two_naming_it(four_kinds, tmp_path, kind):
    saved, load_model = four_kinds[kind]
    path = moved_pair(saved, tmp_path / "json-only")
    os.remove(path + COMPANION_SUFFIX)  # as versions before the companion left a checkpoint
    with pytest.raises(InputError) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: checkpoint has no float64 companion {path}{COMPANION_SUFFIX}")


def test_finetuning_from_a_moved_pair_writes_the_same_checkpoint(trained_world, tmp_path, capsys):
    pre = trained_world["generator_model"]
    args = ["train-generator", "--set", f"corpus_path={trained_world['corpus']}", "--set", "epochs=1", "--finetune-from"]
    here, moved = str(tmp_path / "here.json"), str(tmp_path / "moved.json")
    assert main([*args, pre, "--out", here]) == EXIT_OK
    assert main([*args, moved_pair(pre, tmp_path / "pre"), "--out", moved]) == EXIT_OK
    capsys.readouterr()
    for suffix in ("", COMPANION_SUFFIX):
        with open(here + suffix, "rb") as a, open(moved + suffix, "rb") as b:
            assert a.read() == b.read()
